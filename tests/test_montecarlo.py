"""Monte Carlo experiments: reproducibility, statistics, distances."""
import json
import math
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contamruns import montecarlo
from contamruns.analytic import m_of_n, theorem1_limit_cdf
from contamruns.model import SizeError, TrialDistribution, ValidationError
from contamruns.montecarlo import (
    _CHUNK,
    MAX_REPETITIONS,
    MAX_RUN_SYMBOLS,
    EmpiricalDistribution,
    _map_reps,
    repetition_rng,
    run_hitting_experiment,
    run_longest_experiment,
    sup_distance,
    sup_distance_lattice,
    sup_distance_step,
)
from contamruns.oracle import dp_longest_cdf

from crosscheck import simulate_sequence

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


@pytest.mark.parametrize("seed", [0, 1, 20240817, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 10 ** 30])
def test_repetition_rng_is_the_seed_sequence_generator(seed):
    # the seed table reproduces SeedSequence at the edges of its 4096-rep
    # blocks and of a spawn key's first 32-bit word
    for rep in (0, 1, 4095, 4096, 8191, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 4097):
        ours = repetition_rng(seed, rep)
        theirs = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))
        assert ours.bit_generator.state == theirs.bit_generator.state, rep
        assert np.array_equal(ours.random(1000), theirs.random(1000)), rep


def test_repetition_rng_refuses_negative_seeds_and_indices():
    for seed, rep in ((-1, 0), (0, -1), (-(2 ** 40), 3)):
        with pytest.raises(ValueError):
            repetition_rng(seed, rep)


def test_repetition_streams_are_distinct():
    draws = [repetition_rng(5, rep).random(4).tolist() for rep in range(50)]
    assert len({tuple(d) for d in draws}) == 50


def test_extending_s_preserves_prefix():
    def offsets(s):
        result = run_longest_experiment(THIRDS, 100, s, 9)
        return result.empirical

    small, large = offsets(10), offsets(20)
    # rerunning rep-by-rep must reproduce the first 10 samples exactly;
    # compare via counts restricted to a fresh run of the prefix
    again = offsets(10)
    assert np.array_equal(small.support, again.support)
    assert np.array_equal(small.weights, again.weights)
    assert large.total == 20 and small.total == 10


GOLDEN_LAWS = json.loads((Path(__file__).parent / "golden_laws.json").read_text())


@pytest.mark.parametrize("run", GOLDEN_LAWS,
                         ids=lambda r: f"{r['mode']}-p{r['p']}-s{r['s']}")
def test_seeded_laws_are_pinned(run):
    # recorded before the scan worked on failure positions only; the
    # 2.5e6-symbol runs span three draw chunks, so the cross-chunk carry
    # is exercised on real draws
    p = Fraction(run["p"])
    dist = TrialDistribution(p, (1 - p) / 2, (1 - p) / 2)
    if run["mode"] == "longest":
        law = run_longest_experiment(dist, run["N"], run["s"], 5).empirical
    else:
        law = run_hitting_experiment(dist, run["m"], run["s"], 5).empirical
    assert law.support.tolist() == run["support"]
    assert law.weights.tolist() == run["weights"]


def test_worker_count_is_invisible():
    # N = 500 runs on one thread at any worker count, N = 2^15 on a pool
    for N in (500, 1 << 15):
        results = [run_longest_experiment(THIRDS, N, 64, 11, workers=w).empirical
                   for w in (1, 4, 8)]
        for other in results[1:]:
            assert np.array_equal(results[0].support, other.support)
            assert np.array_equal(results[0].weights, other.weights)


@pytest.mark.parametrize("s, workers", [(1, 2), (5, 8), (7, 2)])
def test_map_reps_keeps_repetition_order(s, workers):
    # later repetitions finish first, so completion order is not repetition
    # order; a short switch interval interleaves the workers' slot writes.
    # Repetition i draws from repetition_rng(seed, i), whichever worker runs it
    seed = 4
    expected = [repetition_rng(seed, i).random() for i in range(s)]

    def fn(rng):
        draw = rng.random()
        time.sleep(0.002 * (s - expected.index(draw)))
        return draw
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _map_reps(fn, s, seed, workers, _CHUNK) == expected
    finally:
        sys.setswitchinterval(interval)


def test_map_reps_propagates_an_exception():
    seed = 6
    third = repetition_rng(seed, 3).random()

    def fn(rng):
        draw = rng.random()
        if draw == third:
            raise ArithmeticError("repetition 3")
        return draw
    with pytest.raises(ArithmeticError, match="repetition 3"):
        _map_reps(fn, 7, seed, 2, _CHUNK)


def test_map_reps_threads_only_for_long_chunks():
    # a second thread starts only once a repetition works through _CHUNK // 2 symbols
    for work, threads in ((_CHUNK // 2 - 1, 1), (_CHUNK // 2, 2), (_CHUNK, 2),
                          (4 * _CHUNK, 2)):
        idents = set()

        def fn(rng):
            idents.add(threading.get_ident())
            time.sleep(0.005)  # keep the first worker busy while the second starts
        _map_reps(fn, 4, 0, 2, work)
        assert len(idents) == threads, work


@pytest.mark.parametrize("s, work", [(MAX_REPETITIONS + 1, 1), (1, MAX_RUN_SYMBOLS + 1)])
def test_map_reps_refuses_runs_past_the_caps(s, work):
    calls = []
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=f"s={s} .*work={work} "):
            _map_reps(calls.append, s, 0, 2, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 1 << 20  # refused before the slots
    _map_reps(calls.append, 1, 0, 2, MAX_RUN_SYMBOLS)  # the caps themselves are allowed
    assert len(calls) == 1


@pytest.mark.parametrize("dist, m, threads", [(THIRDS, 12, 1), (THIRDS, 14, 2),
                                              (TrialDistribution(0.5, 0.4, 0.1), 20, 2)])
def test_hitting_runs_keep_their_thread_count(monkeypatch, dist, m, threads):
    # the thread rule weighs two expected hitting times, not the shorter draw
    idents = set()

    def recorded(seed, rep):
        idents.add(threading.get_ident())
        time.sleep(0.005)  # keep the first worker busy while the second starts
        return repetition_rng(seed, rep)
    monkeypatch.setattr(montecarlo, "repetition_rng", recorded)
    run_hitting_experiment(dist, m, 4, 0, workers=2)
    assert len(idents) == threads


def test_hitting_worker_count_is_invisible():
    # m = 8 runs on one thread at any worker count; m = 14 draws chunks of
    # 41,621 symbols, so its runs at 2 and 3 workers use a pool
    for m in (8, 14):
        results = [run_hitting_experiment(THIRDS, m, 200, 5, workers=w).empirical
                   for w in (1, 2, 3)]
        for other in results[1:]:
            assert np.array_equal(results[0].support, other.support)
            assert np.array_equal(results[0].weights, other.weights)
            assert results[0].total == other.total == 200


def test_config_validation():
    with pytest.raises(ValidationError):
        run_longest_experiment(THIRDS, 0, 10, 0)
    with pytest.raises(ValidationError):
        run_hitting_experiment(THIRDS, None, 10, 0)
    for run, size in ((run_longest_experiment, 100), (run_hitting_experiment, 8)):
        with pytest.raises(ValidationError, match="s=0"):
            run(THIRDS, size, 0, 0)
        with pytest.raises(ValidationError, match="seed=-1"):
            run(THIRDS, size, 10, -1)


# --- experiments -------------------------------------------------------------

def test_longest_offsets_are_integers_and_cdf_reaches_one():
    emp = run_longest_experiment(THIRDS, 2000, 200, 3, workers=4).empirical
    assert np.issubdtype(emp.support.dtype, np.integer)
    assert emp.cdf(emp.support)[-1] == pytest.approx(1.0, abs=0)
    assert emp.total == 200


def test_hitting_scaled_values_positive():
    result = run_hitting_experiment(THIRDS, 8, 100, 3, workers=4)
    assert result.excluded == 0
    assert result.empirical.support.min() > 0
    # sample mean of an Exp(1)-ish law; loose bound at s=100
    mean = float(np.average(result.empirical.support,
                            weights=result.empirical.weights))
    assert 0.6 < mean < 1.4


# run twice in a fresh interpreter, since the heap thresholds are process-wide
# and any earlier test would have raised them; prints the faults of the second run
HEAP_PROBE = f"""
import resource, sys
sys.path.insert(0, {str(Path(montecarlo.__file__).resolve().parent.parent)!r})
from fractions import Fraction
from contamruns.model import TrialDistribution
from contamruns.montecarlo import outcome_chunks, repetition_rng, run_longest_experiment
from contamruns.scan import ChunkScanner

THIRDS = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
p, q1, _ = THIRDS.as_floats()

def experiment():
    run_longest_experiment(THIRDS, 3 << 20, 2, 3)

def direct_loop():
    scanner = ChunkScanner(p, p + q1)
    for block in outcome_chunks(repetition_rng(3, 0), 3 << 20):
        scanner.push(block)

run = globals()[sys.argv[1]]
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap warm-up acts on glibc's dynamic mmap threshold")
@pytest.mark.parametrize("entry", ["experiment", "direct_loop"])
def test_longest_repetitions_reuse_the_heap(entry):
    # 3 * 2^20 symbols span several draw chunks per repetition; once the
    # first run has grown the heap, the second maps and faults no new pages,
    # whether or not it goes through the experiment driver
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE, entry], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


def test_empirical_longest_law_matches_dp():
    N, m, s = 200, 6, 100_000
    emp = run_longest_experiment(THIRDS, N, s, 17).empirical
    exact = float(dp_longest_cdf(THIRDS, N, m))
    center = m_of_n(THIRDS, N).integer_part
    observed = emp.cdf(m - center - 1)  # P(mu < m) = P(offset <= m - center - 1)
    tol = 4 * math.sqrt(exact * (1 - exact) / s)
    assert abs(observed - exact) <= tol


# --- empirical distributions and distances -----------------------------------

def test_empirical_distribution_invariants():
    with pytest.raises(ValidationError):
        EmpiricalDistribution(support=np.array([1, 1]), weights=np.array([1, 2]))
    with pytest.raises(ValidationError, match="equal length"):
        EmpiricalDistribution(support=np.array([1, 2]), weights=np.array([1]))


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
    empty = EmpiricalDistribution(support=np.zeros(0), weights=np.zeros(0, dtype=int))
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
