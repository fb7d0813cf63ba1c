"""Monte Carlo experiments: reproducibility, statistics, distances."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contamruns.analytic import m_of_n, theorem1_limit_cdf
from contamruns.model import TrialDistribution, ValidationError
from contamruns.montecarlo import (
    EmpiricalDistribution,
    ExperimentConfig,
    repetition_rng,
    run_hitting_experiment,
    run_longest_experiment,
    simulate_sequence,
    sup_distance,
    sup_distance_lattice,
    sup_distance_step,
)
from contamruns.oracle import dp_longest_cdf

THIRDS = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


# --- the RNG contract -------------------------------------------------------

def test_simulation_is_deterministic():
    a = simulate_sequence(THIRDS, 10_000, stream_seed=42)
    b = simulate_sequence(THIRDS, 10_000, stream_seed=42)
    c = simulate_sequence(THIRDS, 10_000, stream_seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulated_frequencies_match_probabilities():
    d = TrialDistribution(0.5, 0.3, 0.2)
    n = 10 ** 6
    seq = simulate_sequence(d, n, stream_seed=1)
    for sym, prob in enumerate(d.as_floats()):
        sigma = math.sqrt(prob * (1 - prob) / n)
        assert abs((seq == sym).mean() - prob) < 4 * sigma


def test_repetition_streams_are_distinct():
    draws = [repetition_rng(5, rep).random(4).tolist() for rep in range(50)]
    assert len({tuple(d) for d in draws}) == 50


def test_extending_s_preserves_prefix():
    def offsets(s):
        cfg = ExperimentConfig(dist=THIRDS, N=100, s=s, seed=9, mode="longest")
        result = run_longest_experiment(cfg)
        return result.empirical

    small, large = offsets(10), offsets(20)
    # rerunning rep-by-rep must reproduce the first 10 samples exactly;
    # compare via counts restricted to a fresh run of the prefix
    again = offsets(10)
    assert np.array_equal(small.support, again.support)
    assert np.array_equal(small.weights, again.weights)
    assert large.total == 20 and small.total == 10


def test_worker_count_is_invisible():
    cfg = ExperimentConfig(dist=THIRDS, N=500, s=64, seed=11, mode="longest")
    results = [run_longest_experiment(cfg, workers=w).empirical for w in (1, 4, 8)]
    for other in results[1:]:
        assert np.array_equal(results[0].support, other.support)
        assert np.array_equal(results[0].weights, other.weights)


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(dist=THIRDS, N=100, s=10, seed=0, mode="both")
    with pytest.raises(ValidationError):
        ExperimentConfig(dist=THIRDS, N=0, s=10, seed=0, mode="longest")
    with pytest.raises(ValidationError):
        ExperimentConfig(dist=THIRDS, N=100, s=10, seed=0, mode="hitting")


# --- experiments -------------------------------------------------------------

def test_longest_offsets_are_integers_and_cdf_reaches_one():
    cfg = ExperimentConfig(dist=THIRDS, N=2000, s=200, seed=3, mode="longest")
    emp = run_longest_experiment(cfg, workers=4).empirical
    assert np.issubdtype(emp.support.dtype, np.integer)
    assert emp.cdf(emp.support)[-1] == pytest.approx(1.0, abs=0)
    assert emp.total == 200


def test_hitting_scaled_values_positive():
    cfg = ExperimentConfig(dist=THIRDS, N=1, s=100, seed=3, mode="hitting", m=8)
    result = run_hitting_experiment(cfg, workers=4)
    assert result.excluded == 0
    assert result.empirical.support.min() > 0
    # sample mean of an Exp(1)-ish law; loose bound at s=100
    mean = float(np.average(result.empirical.support,
                            weights=result.empirical.weights))
    assert 0.6 < mean < 1.4


def test_empirical_longest_law_matches_dp():
    N, m, s = 200, 6, 100_000
    cfg = ExperimentConfig(dist=THIRDS, N=N, s=s, seed=17, mode="longest")
    emp = run_longest_experiment(cfg).empirical
    exact = float(dp_longest_cdf(THIRDS, N, m))
    center = m_of_n(THIRDS, N).integer_part
    observed = emp.cdf(m - center - 1)  # P(mu < m) = P(offset <= m - center - 1)
    tol = 4 * math.sqrt(exact * (1 - exact) / s)
    assert abs(observed - exact) <= tol


# --- empirical distributions and distances -----------------------------------

def test_empirical_distribution_invariants():
    with pytest.raises(ValidationError):
        EmpiricalDistribution(support=np.array([1, 1]), weights=np.array([1, 2]),
                              total=3)
    with pytest.raises(ValidationError):
        EmpiricalDistribution(support=np.array([1, 2]), weights=np.array([1, 2]),
                              total=4)


def test_sup_distance_self_reference_is_zero():
    emp = EmpiricalDistribution.from_samples([1, 1, 2, 5])
    assert sup_distance_step(emp, emp) == 0.0


def test_sup_distance_single_sample_at_zero():
    emp = EmpiricalDistribution.from_samples([0.0])
    assert sup_distance(emp, theorem1_limit_cdf) == pytest.approx(1.0)


def test_sup_distance_two_point_median():
    emp = EmpiricalDistribution.from_samples([math.log(2), math.log(2)])
    assert sup_distance(emp, theorem1_limit_cdf) == pytest.approx(0.5)


def test_sup_distance_uses_left_limits():
    # one sample at 10: the ECDF is 0 just below it while Exp(1) is ~1
    emp = EmpiricalDistribution.from_samples([10.0])
    assert sup_distance(emp, theorem1_limit_cdf) == pytest.approx(
        theorem1_limit_cdf(10.0))


def test_sup_distance_lattice_agrees_with_exact_law():
    # lattice distance between a two-point empirical law and itself as a
    # reference P(value < k)
    emp = EmpiricalDistribution.from_samples([0, 0, 1, 1])
    ref = lambda k: emp.cdf(k - 1)
    assert sup_distance_lattice(emp, ref) == 0.0
    shifted = lambda k: emp.cdf(k)
    assert sup_distance_lattice(emp, shifted) == pytest.approx(0.5)
    # the ECDF of a non-integer sample jumps between integers: at -0.5
    # the reference is still P(value < 0)
    half = EmpiricalDistribution.from_samples([-0.5])
    below = lambda k: 0.0 if k < 0 else 0.25 if k == 0 else 1.0
    assert sup_distance_lattice(half, below) == 0.75


def test_sup_distance_lattice_cost_follows_the_support():
    # the reference is called on the support and the two integers below
    # each point, not once per integer of the value range
    below = lambda k: min(1.0, max(0.0, k / 10 ** 4))
    for values in ([0, 10 ** 4], [-0.5, 2.5, 10 ** 4 + 0.25]):
        emp = EmpiricalDistribution.from_samples(values)
        calls = []
        distance = sup_distance_lattice(emp, lambda k: calls.append(k) or below(k))
        assert len(calls) <= 3 * len(emp.support)
        assert distance == _lattice_by_brute_force(emp, below)


def test_sup_distance_rejects_empty():
    empty = EmpiricalDistribution(support=np.zeros(0), weights=np.zeros(0, dtype=int),
                                  total=0)
    with pytest.raises(ValidationError):
        sup_distance(empty, theorem1_limit_cdf)


# --- array forms against the per-point definitions ---------------------------

def _cdf_by_sum(emp, x):
    """Empirical P(value <= x) as the sum of the weights up to x."""
    idx = np.searchsorted(emp.support, x, side="right")
    return float(emp.weights[:idx].sum()) / emp.total


def _step_by_points(a, b):
    grid = np.union1d(a.support, b.support)
    return float(max(abs(_cdf_by_sum(a, float(x)) - _cdf_by_sum(b, float(x))) for x in grid))


def _lattice_by_brute_force(emp, below):
    """Sup over the support, the integers around it and the midpoints between
    them, with the lattice reference P(value <= x) = below(floor(x) + 1)."""
    lo, hi = math.floor(emp.support.min()), math.floor(emp.support.max())
    points = sorted({*map(float, emp.support), *map(float, range(lo - 2, hi + 3))})
    points += [(x + y) / 2 for x, y in zip(points, points[1:])]
    return max(abs(_cdf_by_sum(emp, x) - below(math.floor(x) + 1)) for x in points)


def _lattice_by_points(emp, below):
    best = 0.0
    for k in range(int(emp.support.min()), int(emp.support.max()) + 2):
        best = max(best, abs(_cdf_by_sum(emp, k - 1) - below(k)))
    return best


integer_samples = st.lists(st.integers(-8, 8), min_size=1, max_size=80)
float_samples = st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=80)


@settings(max_examples=200, deadline=None)
@given(st.one_of(integer_samples, float_samples), st.one_of(integer_samples, float_samples),
       st.lists(st.floats(-10.0, 10.0, allow_nan=False), max_size=20))
def test_array_forms_equal_per_point_definitions(xs, ys, points):
    a = EmpiricalDistribution.from_samples(xs)
    b = EmpiricalDistribution.from_samples(ys)
    grid = np.union1d(np.union1d(a.support, b.support), points)
    array_values = a.cdf(grid)
    for x, v in zip(grid, array_values):
        scalar = a.cdf(float(x))
        assert isinstance(scalar, float)
        assert scalar == v == _cdf_by_sum(a, float(x))
    assert sup_distance_step(a, b) == _step_by_points(a, b)
    assert sup_distance_step(a, b) == sup_distance_step(b, a)
    assert sup_distance_step(a, a) == 0.0
    below = lambda k: _cdf_by_sum(b, k - 1)
    assert sup_distance_lattice(a, below) == _lattice_by_brute_force(a, below)
    if np.issubdtype(a.support.dtype, np.integer):
        assert sup_distance_lattice(a, below) == _lattice_by_points(a, below)
        assert sup_distance_lattice(a, lambda k: _cdf_by_sum(a, k - 1)) == 0.0
