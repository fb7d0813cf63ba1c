"""
The two limit laws and their exact finite-N counterpart
=======================================================

mu(N) is the longest at most 1+1 contaminated run among N trials and
tau_m the first time an m-window qualifies.  There is no single limit
distribution for mu(N); instead an N-dependent accompanying CDF tracks
P(mu(N) - [m(N)] < k), with m(N) a ten-term expansion in log N and
log log N (all logs base 1/p).  tau_m, scaled by alpha * P(A1), is
asymptotically standard exponential.
"""
import math
from fractions import Fraction

from contamruns import (
    AccompanyingLaw,
    TrialDistribution,
    alpha_correction,
    dp_longest_cdf,
    theorem1_limit_cdf,
    window_probability,
)

thirds = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
N = 3_000_000
law = AccompanyingLaw(thirds, N)

# the centering sequence, term by term
r = law.m
print(f"m({N}) = {r.total:.9f}, centering [m(N)] = {r.integer_part}")
for name, value in r.terms.items():
    print(f"  {value:+12.6f}  {name}")

# the correction polynomial entering the exponent
print(f"\nH(0.5) at N={N}: {law.h(0.5).total:.9f}")

# the accompanying CDF on the integer grid around the centering value, and
# the exponent l = alpha(m) N P(A1) before its expansion in log N
print("\nk   P(mu(N) - [m(N)] < k)   exact exponent l")
for k in range(-3, 4):
    cdf = law.at(k).cdf
    m = r.integer_part + k
    l = float(alpha_correction(thirds, m).alpha * N * window_probability(thirds, m))
    print(f"{k:+d}  {cdf:22.9f}   {l:.6f}  (exp(-l) = {math.exp(-l):.9f})")

# at reachable N the exact capped-gap dynamic program gives the same law
# with no asymptotics at all
N_small = 100_000
law_small = AccompanyingLaw(thirds, N_small)
center = law_small.m.integer_part
print(f"\nexact DP vs accompanying CDF at N={N_small}:")
for k in (-1, 0, 1, 2):
    exact = dp_longest_cdf(thirds, N_small, center + k, mode="float", budget=math.inf)
    approx = law_small.at(k).cdf
    print(f"  k={k:+d}: DP {exact:.6f}   accompanying {approx:.6f}")

# the hitting-time limit is plain Exp(1) after scaling
print("\nP(tau_m * alpha * P(A1) <= x) -> 1 - e^-x:")
for x in (0.5, 1.0, 2.0):
    print(f"  x={x}: {theorem1_limit_cdf(x):.6f}")
