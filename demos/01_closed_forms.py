"""
Closed forms for at most 1+1 contaminated windows
=================================================

A trial has three outcomes: success (probability p), a type-I failure
(+1, probability q1), a type-II failure (-1, probability q2).  A window
is "at most 1+1 contaminated" when it holds at most one failure of each
type.  This script walks through the exact formulas and checks them
against the exact dynamic program.
"""
from fractions import Fraction

from contamruns import (
    TrialDistribution,
    alpha_correction,
    conditional_survival,
    derive_constants,
    dp_longest_cdf,
    sandwich,
    window_probability,
)

# exact fractions keep every closed form exact end to end
thirds = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

# the five constants everything else is written in
c = derive_constants(thirds)
print(f"C = ln(1/p) = {c.C:.6f}")
print(f"C0 = {c.C0}, C1 = {c.C1}, C2 = {c.C2}, K = {c.K:.6f}")

# probability that an m-window qualifies, exactly and by the DP: N = m
# trials hold one m-window, so P(A1) = 1 - P(mu(m) < m)
for m in (2, 3, 6):
    closed = window_probability(thirds, m)
    chained = 1 - dp_longest_cdf(thirds, m, m, mode="exact")
    print(f"m={m}: P(A1) = {closed} (the DP agrees: {closed == chained})")

# alpha is the conditional probability that a qualifying window does not
# recur among the next m-1 starts; it has an exact finite-m form and
# tends to q1 + q2
for m in (5, 10, 50, 1000):
    print(f"m={m:5d}: alpha = {float(alpha_correction(thirds, m).alpha):.6f}"
          f"  (limit C0 = {float(c.C0):.6f})")

# the closed-form conditional survival converges to alpha
for m in (4, 6):
    print(f"m={m}: conditional survival = {float(conditional_survival(thirds, m)):.6f}")

# the sandwich: exp(-(alpha +- 10 eps) N P(A1) -+ 2m P(A1)) brackets the
# probability that no window among N qualifies; eps is the smallest value
# the lemma's hypotheses allow, max(|P(Abar_2..Abar_m | A1) - alpha|, m P(A1)),
# and m = 10 is the first window length at thirds where it is below 1/42
m, N = 10, 10_000
b = sandwich(thirds, m, N - m + 1)
truth = dp_longest_cdf(thirds, N, m, mode="float")
print(f"m={m}, N={N}: {b.lower:.3e} < P(no qualifying window) = {truth:.3e} < {b.upper:.3e}"
      f" (eps = {b.eps:.3g})")
