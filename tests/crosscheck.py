"""Reference routes that only the tests compare against.

The package ships the routes its CLI and demos run.  The helpers here
are independent of them on purpose: a casewise sum beside the
aggregated closed form, enumeration of any event or of the longest-run
law beside the DP, one materialized sequence beside the chunked scan,
and a window test by symbol counts.  They import the package's private
enumeration helpers and size checks, so they stay within its limits.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from contamruns.analytic import _check_exact_size
from contamruns.model import Outcome, TrialDistribution, ValidationError, check_window_length
from contamruns.montecarlo import outcome_chunks, repetition_rng
from contamruns.oracle import _all_sequences, _law, _suffix_length_columns


def swapped(dist: TrialDistribution) -> TrialDistribution:
    """Distribution with the two failure types interchanged."""
    return TrialDistribution(dist.p, dist.q2, dist.q1)


def is_window_valid(window) -> bool:
    """True iff the window holds at most one FAIL_PLUS and one FAIL_MINUS.

    Covers pure, one-type contaminated, and two-type contaminated runs.
    Depends only on symbol counts, so any ordering of the same multiset
    gives the same answer.
    """
    window = list(window)
    if not window:
        raise ValidationError("window must be non-empty")
    return window.count(Outcome.FAIL_PLUS) <= 1 and window.count(Outcome.FAIL_MINUS) <= 1


def joint_survival_casewise(dist: TrialDistribution, m: int):
    """P(A1 Abar_2 ... Abar_m) by direct summation of the case formulas.

    Sums every per-index case over its range (the single-contamination
    terms for 1 < i < m and i = m, the double-contamination terms for
    the (1,m), (1,j), (i,m) and interior (i,j) cases), then adds the
    copies with the two failure types interchanged.  The impossible
    cases (pure first window, contamination at position 1 of a
    one-type window) contribute zero.  O(m^2) terms; deliberately not
    simplified so it can cross-check :func:`joint_survival_aggregated`,
    the evaluation route.
    """
    check_window_length(m, 2)
    _check_exact_size(dist, m)
    p = dist.p
    total = 0
    for a, b in ((dist.q1, dist.q2), (dist.q2, dist.q1)):
        # one contamination of type a at position i, forced repeat at m+1
        for i in range(2, m):
            total += a * a * p ** (m - 1) * (1 - p ** (i - 1) - (i - 1) * b * p ** (i - 2))
        total += a * a * p ** (m - 1)  # i = m
        # two contaminations: type a at i, type b at j, i < j
        total += a * b * p ** (m - 2) * b  # (i, j) = (1, m)
        for j in range(2, m):  # i = 1, 1 < j < m
            total += a * b * p ** (m - 2) * b * (1 - p ** (j - 1) - p ** (j - 2) * (j - 1) * a)
        for i in range(2, m):  # 1 < i, j = m
            total += a * b * p ** (m - 2) * (a * (1 - p ** (i - 1)) + b)
        for i in range(2, m - 1):  # interior pairs, split on the symbol at m+1
            for j in range(i + 1, m):
                total += a * b * p ** (m - 2) * a * (
                    1 - p ** (i - 1) - (i - 1) * p ** (i - 2) * b * p ** (j - i)
                )
                total += a * b * p ** (m - 2) * b * (
                    1 - p ** (j - 1) - (j - 1) * a * p ** (j - 2)
                )
    return total


def enumerate_event(dist: TrialDistribution, n: int,
                    predicate: Callable[[tuple[int, ...]], bool]):
    """Probability of {predicate holds} over all 3^n outcome sequences (tuples of ints)."""
    codes = _all_sequences(n)
    holds = np.fromiter((predicate(tuple(row.tolist())) for row in codes), dtype=bool,
                        count=codes.shape[0])
    return _law(dist, codes, holds).get(True, 0)


def longest_run_distribution_by_enumeration(dist: TrialDistribution, n: int) -> dict:
    """Exact PMF of mu(n) as {length: probability} over all 3^n sequences."""
    codes = _all_sequences(n)
    best = np.zeros(codes.shape[0], dtype=np.int32)
    for _, lengths in _suffix_length_columns(codes):
        np.maximum(best, lengths, out=best)
    return _law(dist, codes, best)


def longest_cdf_by_enumeration(dist: TrialDistribution, N: int, m: int):
    """P(mu(N) < m) by full enumeration."""
    pmf = longest_run_distribution_by_enumeration(dist, N)
    return sum((prob for mu, prob in pmf.items() if mu < m),
               Fraction(0) if dist.is_exact else 0.0)


def simulate_sequence(dist: TrialDistribution, N: int, stream_seed: int) -> np.ndarray:
    """Materialized sequence of N outcomes (0 success, 1 and 2 failures) for
    the given stream seed: each uniform u maps to (u >= p) + (u >= p + q1)."""
    p, q1, _ = dist.as_floats()
    u = np.concatenate(list(outcome_chunks(repetition_rng(stream_seed, 0), N)))
    return (u >= p).view(np.uint8) + (u >= p + q1)
