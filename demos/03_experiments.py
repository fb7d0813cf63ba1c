"""
Seeded Monte Carlo experiments
==============================

Reproduces the simulation studies at desk scale: the empirical law of
mu(N) - [m(N)] against the accompanying CDF, and the scaled hitting
time against Exp(1).  Everything is deterministic given the master
seed, bit-identical for any worker count: repetition i draws from
PCG64(SeedSequence(seed, spawn_key=(i,))).

The same runs are available from the command line, e.g.

    contamruns --seed 20240817 --threads 8 --out out \
        experiment --figure 1 --scale 0.1
"""
from fractions import Fraction

import numpy as np

from contamruns import (
    AccompanyingLaw,
    TrialDistribution,
    run_hitting_experiment,
    run_longest_experiment,
    sup_distance,
    sup_distance_lattice,
    theorem1_limit_cdf,
)

thirds = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
SEED = 20240817

# --- longest run: mu(N) - [m(N)] vs the accompanying CDF -------------------
N, s = 100_000, 400
longest = run_longest_experiment(thirds, N, s, SEED, workers=8).empirical
law = AccompanyingLaw(thirds, N)
distance = sup_distance_lattice(longest, lambda k: law.at(k).cdf)
print(f"longest run, N={N}, s={s}:")
print(f"  offsets observed: {longest.support.tolist()}")
print(f"  sup-distance to accompanying CDF: {distance:.4f}")

# --- hitting time: tau_m * alpha * P(A1) vs Exp(1) --------------------------
m, s_hit = 10, 1000
result = run_hitting_experiment(thirds, m, s_hit, SEED, workers=8)
emp = result.empirical
mean = float(np.average(emp.support, weights=emp.weights))
print(f"\nhitting time, m={m}, s={s_hit}:")
print(f"  scaled sample mean: {mean:.4f} (Exp(1) mean is 1)")
print(f"  sup-distance to 1 - e^-x: {sup_distance(emp, theorem1_limit_cdf):.4f}")
print(f"  repetitions excluded at the safety cap: {result.excluded}")

# --- determinism -------------------------------------------------------------
# the longest run above drew chunks of 2^16 symbols on 8 threads; this one
# runs on 1 (a hitting run at m=10 draws short chunks, on one thread at any count)
again = run_longest_experiment(thirds, N, s, SEED, workers=1).empirical
same = (np.array_equal(longest.support, again.support)
        and np.array_equal(longest.weights, again.weights))
print(f"\nsame seed, different worker count, identical output: {same}")
