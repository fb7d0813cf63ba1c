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
    TrialDistribution,
    accompanying_cdf,
    dp_longest_cdf,
    exponent_l,
    h_function_terms,
    m_of_n,
    theorem1_limit_cdf,
)

thirds = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
N = 3_000_000

# the centering sequence, term by term
r = m_of_n(thirds, N)
print(f"m({N}) = {r.total:.9f}, centering [m(N)] = {r.integer_part}")
for name, value in r.terms.items():
    print(f"  {value:+12.6f}  {name}")

# the correction polynomial entering the exponent
print(f"\nH(0.5) at N={N}: {h_function_terms(thirds, N, 0.5).total:.9f}")

# the accompanying CDF on the integer grid around the centering value
print("\nk   P(mu(N) - [m(N)] < k)   exact exponent l")
for k in range(-3, 4):
    cdf = accompanying_cdf(thirds, N, k)
    l = exponent_l(thirds, N, r.integer_part + k)
    print(f"{k:+d}  {cdf:22.9f}   {l:.6f}  (exp(-l) = {math.exp(-l):.9f})")

# at reachable N the exact capped-gap dynamic program gives the same law
# with no asymptotics at all
N_small = 100_000
center = m_of_n(thirds, N_small).integer_part
print(f"\nexact DP vs accompanying CDF at N={N_small}:")
for k in (-1, 0, 1, 2):
    exact = dp_longest_cdf(thirds, N_small, center + k, mode="float", budget=math.inf)
    approx = accompanying_cdf(thirds, N_small, k)
    print(f"  k={k:+d}: DP {exact:.6f}   accompanying {approx:.6f}")

# the hitting-time limit is plain Exp(1) after scaling
print("\nP(tau_m * alpha * P(A1) <= x) -> 1 - e^-x:")
for x in (0.5, 1.0, 2.0):
    print(f"  x={x}: {theorem1_limit_cdf(x):.6f}")
