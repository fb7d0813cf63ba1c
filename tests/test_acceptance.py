"""Acceptance gate: ten criteria, one printed pass/fail line each.

The pass/fail lines are collected in ACCEPTANCE_LINES and echoed into
the terminal summary by conftest.py, so they survive output capture.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from contamruns.analytic import (
    accompanying_cdf,
    alpha_correction,
    joint_survival_aggregated,
    sandwich,
    theorem1_limit_cdf,
    window_probability,
)
from contamruns.model import TrialDistribution, ValidationError
from contamruns.montecarlo import (
    outcome_chunks,
    outcome_scanner,
    repetition_rng,
    run_hitting_experiment,
    run_longest_experiment,
    sup_distance,
    sup_distance_lattice,
)
from contamruns.oracle import dp_longest_cdf

from crosscheck import (
    enumerate_conditional,
    joint_survival_by_enumeration,
    joint_survival_casewise,
    longest_run_distribution_by_enumeration,
    window_probability_by_enumeration,
)

THIRDS = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
SKEWED = TrialDistribution(Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
PEAKED = TrialDistribution(Fraction(4, 5), Fraction(1, 10), Fraction(1, 10))
TRIPLES = (THIRDS, SKEWED, PEAKED)
SEED = 20240817
LONGEST_N = 10 ** 6  # criterion 7's sequence length


ACCEPTANCE_LINES: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# --- shared experiment runs (criteria 6, 7, 10) ------------------------------

@pytest.fixture(scope="module")
def hitting_runs():
    runs = {}
    for workers in (1, 4, 8):
        t0 = time.perf_counter()
        runs[workers] = run_hitting_experiment(THIRDS, 12, 4000, SEED, workers=workers)
        runs[workers, "wall"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def longest_runs():
    runs = {}
    for workers in (1, 4, 8):
        t0 = time.perf_counter()
        runs[workers] = run_longest_experiment(THIRDS, LONGEST_N, 1000, SEED, workers=workers)
        runs[workers, "wall"] = time.perf_counter() - t0
    return runs


# --- criteria -----------------------------------------------------------------

def test_criterion_1_window_probability_vs_enumeration():
    worst = 0.0
    for d in TRIPLES:
        for m in range(1, 11):
            closed = window_probability(d, m)
            enum = window_probability_by_enumeration(d, m)
            assert closed == enum  # both exact Fractions
            worst = max(worst, abs(float(closed) - float(enum)))
    report(1, worst <= 1e-12,
           f"closed form = enumeration for m in 1..10, 3 triples "
           f"(worst abs err {worst:.1e}, exact in rational mode)")


def test_criterion_2_survival_sum_algebra():
    worst_pair = 0.0
    for d in TRIPLES:
        for m in range(4, 13):
            cw = float(joint_survival_casewise(d, m))
            ag = float(joint_survival_aggregated(d, m))
            worst_pair = max(worst_pair, abs(cw - ag) / cw)
    exact_ok = True
    for d in TRIPLES:
        for m in range(4, 8):
            enum = joint_survival_by_enumeration(d, m)
            exact_ok &= joint_survival_casewise(d, m) == enum
    report(2, worst_pair <= 1e-9 and exact_ok,
           f"casewise = aggregated (worst rel err {worst_pair:.1e}), "
           f"both = enumeration for m in 4..7")


def test_criterion_3_alpha_convergence():
    gaps = {}
    ok = True
    for m in range(4, 8):
        gap = abs(float(enumerate_conditional(THIRDS, m))
                  - float(alpha_correction(THIRDS, m).alpha))
        gaps[m] = gap
        ok &= gap <= 10 * (1 / 3) ** m
    ok &= gaps[7] < gaps[5]
    report(3, ok,
           f"|conditional - alpha| <= 10 p^m for m in 4..7 "
           f"(gap(5)={gaps[5]:.2e} > gap(7)={gaps[7]:.2e})")


def test_criterion_4_dp_equals_enumeration():
    checked = 0
    for d in TRIPLES:
        for N in range(2, 14):
            pmf = longest_run_distribution_by_enumeration(d, N)
            for m in range(2, N + 1):
                enum_cdf = sum((prob for mu, prob in pmf.items() if mu < m),
                               Fraction(0))
                assert dp_longest_cdf(d, N, m, mode="exact") == enum_cdf
                checked += 1
    report(4, True, f"exact DP = enumeration on {checked} (N, m, triple) cases, "
                    f"N <= 13")


def test_criterion_5_cfk_sandwich():
    # the lemma's own bounds over the N - m + 1 windows, at the smallest eps its
    # hypotheses admit; at thirds that is every m >= 10 (at m = 12, N = 1e4 the
    # sandwich is [0.1906, 0.2383] around 0.2124)
    with pytest.raises(ValidationError):
        sandwich(THIRDS, 8, 10 ** 3 - 7)
    details = []
    for m in (10, 12):
        for N1 in (10 ** 3, 10 ** 4, 10 ** 5):
            bounds = sandwich(THIRDS, m, N1 - m + 1)
            value = dp_longest_cdf(THIRDS, N1, m, mode="float")
            assert bounds.lower <= value, (m, N1)
            assert value <= bounds.upper, (m, N1)
        details.append(f"m={m} (eps={bounds.eps:.2g})")
    report(5, True, f"DP value inside the lemma's sandwich at N in 1e3..1e5 for "
                    f"{', '.join(details)}; m=8 refused")


def test_criterion_6_theorem1_desk_scale(hitting_runs):
    result = hitting_runs[8]
    wall = hitting_runs[8, "wall"]
    emp = result.empirical
    distance = sup_distance(emp, theorem1_limit_cdf)
    mean = float(np.average(emp.support, weights=emp.weights))
    ok = distance <= 0.03 and 0.95 <= mean <= 1.05 and wall < 90 and \
        result.excluded == 0
    report(6, ok,
           f"m=12 s=4000: sup-distance to Exp(1) = {distance:.4f} (<= 0.03), "
           f"scaled mean = {mean:.4f} (in [0.95, 1.05]), {wall:.1f} s at 8 threads")


def test_criterion_7_theorem2_desk_scale(longest_runs):
    emp = longest_runs[8].empirical
    wall = longest_runs[8, "wall"]
    distance = sup_distance_lattice(emp, lambda k: accompanying_cdf(THIRDS, LONGEST_N, k))
    ok = distance <= 0.05 and wall < 600
    report(7, ok,
           f"N=1e6 s=1000: sup-distance to accompanying CDF = {distance:.4f} "
           f"(<= 0.05), {wall:.1f} s at 8 threads")


def test_criterion_8_near_one_preset_completes():
    # figure 8 preset (p=0.8, q1=q2=0.1, m=72) at scale 0.1; qualitative only
    dist = TrialDistribution(Fraction(4, 5), Fraction(1, 10), Fraction(1, 10))
    result = run_hitting_experiment(dist, 72, 300, SEED, workers=8)
    distance = sup_distance(result.empirical, theorem1_limit_cdf)
    report(8, True,
           f"p=0.8 m=72 preset at scale 0.1 completed "
           f"({result.empirical.total} samples, {result.excluded} excluded), "
           f"sup-distance {distance:.4f} reported without threshold")


def test_criterion_9_scan_throughput():
    n = 10 ** 7
    rng = repetition_rng(SEED, 0)
    p, q1, _ = THIRDS.as_floats()
    t0 = time.perf_counter()
    scanner = outcome_scanner(p, p + q1)
    for block in outcome_chunks(rng, n, p, p + q1):
        scanner.push(block)
    wall = time.perf_counter() - t0
    ok = wall < 1.0 and scanner.position == n
    report(9, ok, f"fused simulate+scan of 1e7 outcomes in {wall:.3f} s "
                  f"single-threaded (< 1 s), longest run {scanner.best}")


def test_criterion_10_thread_count_determinism(hitting_runs, longest_runs):
    ok = True
    for runs in (hitting_runs, longest_runs):
        base = runs[1].empirical
        for workers in (4, 8):
            other = runs[workers].empirical
            ok &= np.array_equal(base.support, other.support)
            ok &= np.array_equal(base.weights, other.weights)
            ok &= runs[workers].excluded == runs[1].excluded
    report(10, ok, "criteria 6-7 outputs bit-identical across 1, 4, 8 threads")
