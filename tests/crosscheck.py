"""Reference routes that only the tests compare against.

The package ships the routes its CLI and demos run.  The helpers here
are independent of them on purpose: a casewise sum beside the
aggregated closed form, enumeration of the window probability, the
joint survival, any event or the longest-run law beside the closed
forms and the DP, one materialized sequence beside the chunked scan,
and a window test by symbol counts.  Enumeration never consults the
closed forms: each probability is one weighted count of all 3^n
sequences (n <= 14) by (statistic, #type-I, #type-II), exact when the
trial distribution is given as Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from contamruns.analytic import _check_exact_size
from contamruns.model import (
    Outcome,
    SizeError,
    TrialDistribution,
    ValidationError,
    check_window_length,
)
from contamruns.montecarlo import outcome_chunks, outcome_scanner, repetition_rng

ENUM_MAX_N = 14


def _all_sequences(n: int) -> np.ndarray:
    """All 3^n sequences as rows of a (3^n, n) uint8 array, in itertools.product order."""
    if n > ENUM_MAX_N:
        raise SizeError(f"enumeration limited to n <= {ENUM_MAX_N} (3^n sequences), got n={n}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return np.indices((3,) * n, dtype=np.uint8).reshape(n, -1).T


def _law(dist: TrialDistribution, codes: np.ndarray, key: np.ndarray) -> dict:
    """{v: P(key = v)} for each nonzero v of `key`, a small int or bool per row:
    the rows are counted by (key, #type-I, #type-II) and each count is
    weighted by p^#S q1^#I q2^#II, summed in (#type-I, #type-II) order."""
    n = codes.shape[1]
    selected = np.flatnonzero(key)
    rows = codes[selected]
    n1 = (rows == int(Outcome.FAIL_PLUS)).sum(axis=1, dtype=np.uint8)  # n <= 14
    n2 = (rows == int(Outcome.FAIL_MINUS)).sum(axis=1, dtype=np.uint8)
    counts = np.bincount((key[selected].astype(np.intp) * (n + 1) + n1) * (n + 1) + n2)
    p, q1, q2 = (dist.p, dist.q1, dist.q2) if dist.is_exact else dist.as_floats()
    law = {}
    for cell in np.flatnonzero(counts).tolist():  # cell = (v (n+1) + a) (n+1) + b
        v, a, b = cell // (n + 1) ** 2, cell // (n + 1) % (n + 1), cell % (n + 1)
        law[v] = law.get(v, 0) + int(counts[cell]) * p ** (n - a - b) * q1 ** a * q2 ** b
    return law


def _suffix_length_columns(codes: np.ndarray):
    """Yield (t, L_t) per position for every row of `codes` at once."""
    # the valid suffix starts after `start`; a failure moves it up to the last of its type
    start, last_plus, last_minus = np.zeros((3, codes.shape[0]), dtype=np.int32)
    for t in range(1, codes.shape[1] + 1):
        col = codes[:, t - 1]
        for last, kind in ((last_plus, Outcome.FAIL_PLUS), (last_minus, Outcome.FAIL_MINUS)):
            hit = col == int(kind)
            np.maximum(start, last * hit, out=start)  # last * hit is 0 off the hits
            last[hit] = t
        yield t, t - start


def window_probability_by_enumeration(dist: TrialDistribution, m: int):
    """P(A1) by counting valid m-windows (independent of the closed form)."""
    check_window_length(m, 1)
    codes = _all_sequences(m)
    valid = ((codes == int(Outcome.FAIL_PLUS)).sum(axis=1, dtype=np.uint8) <= 1) \
        & ((codes == int(Outcome.FAIL_MINUS)).sum(axis=1, dtype=np.uint8) <= 1)
    return _law(dist, codes, valid)[True]


def joint_survival_by_enumeration(dist: TrialDistribution, m: int):
    """P(A1 Abar_2 ... Abar_m) by enumerating X_1..X_{2m-1}.

    Window j is valid iff the suffix length at position j+m-1 is >= m.
    """
    check_window_length(m, 2)
    codes = _all_sequences(2 * m - 1)
    later_valid = np.zeros(codes.shape[0], dtype=bool)
    for t, lengths in _suffix_length_columns(codes):
        if t == m:
            first_valid = lengths >= m
        elif t > m:
            later_valid |= lengths >= m
    return _law(dist, codes, first_valid & ~later_valid).get(True, 0)


def enumerate_conditional(dist: TrialDistribution, m: int):
    """P(Abar_2 ... Abar_m | A1), exactly, for m <= 7."""
    if 2 * m - 1 > ENUM_MAX_N:
        raise SizeError(f"conditional enumeration needs 3^(2m-1) sequences; m <= 7, got m={m}")
    return joint_survival_by_enumeration(dist, m) / window_probability_by_enumeration(dist, m)


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
    the given stream seed: each symbol x maps to (x >= fail_at) + (x >= second_at),
    the thresholds of the experiments' scanner."""
    p, q1, _ = dist.as_floats()
    scanner = outcome_scanner(p, p + q1)
    x = np.concatenate(list(outcome_chunks(repetition_rng(stream_seed, 0), N, p, p + q1)))
    return (x >= scanner.fail_at).view(np.uint8) + (x >= scanner.second_at)
