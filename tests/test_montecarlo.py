"""Monte Carlo experiments: reproducibility, statistics, distances."""
import json
import math
import os
import platform
import subprocess
import sys
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
    _FORK_WORK,
    MAX_REPETITIONS,
    MAX_RUN_SYMBOLS,
    EmpiricalDistribution,
    _map_reps,
    outcome_chunks,
    outcome_scanner,
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


def _codes(blocks, p, second):
    """0, 1 or 2 per symbol, as the experiments' scanner reads the blocks."""
    scanner = outcome_scanner(p, second)
    x = np.concatenate(list(blocks))
    return (x >= scanner.fail_at).view(np.uint8) + (x >= scanner.second_at)


def _codes_by_uniform(z, p, second):
    """The outcome of each 53-bit integer z as a uniform z 2^-53 (exact in doubles)."""
    u = np.asarray(z, dtype=np.float64) * 2.0 ** -53
    return (u >= p).view(np.uint8) + (u >= second)


@pytest.mark.parametrize("total", [200_000, 200_001])
def test_symbols_are_the_halves_of_each_word_low_first(total):
    p, second = 1 / 3, 2 / 3
    fields = np.concatenate(list(outcome_chunks(repetition_rng(8, 1), total, p, second)))
    words = repetition_rng(8, 1).bit_generator.random_raw((total + 1) // 2)
    assert fields.dtype == np.uint32  # no tie, so no chunk was settled
    assert np.array_equal(fields[0::2], words & 0xFFFFFFFF)
    assert np.array_equal(fields[1::2], (words >> 32)[:total // 2])
    # chunks of 2^10 cut the same words into the same fields
    small = list(outcome_chunks(repetition_rng(8, 1), total, p, second, 1 << 10))
    assert [b.size for b in small[:-1]] == [1 << 10] * (len(small) - 1)
    assert np.array_equal(np.concatenate(small), fields)


class ScriptedWords:
    """A stand-in generator whose bit generator returns the given words in order."""

    def __init__(self, words):
        self.words, self.used = list(words), 0
        self.bit_generator = self

    def random_raw(self, n):
        self.used += n
        assert self.used <= len(self.words), "drew past the script"
        return np.array(self.words[self.used - n:self.used], dtype=np.uint64)


def _word(low: int, high: int) -> int:
    return high << 32 | low


def _tie_word(y: int) -> int:
    # Y is the word's top 21 bits; the low 43 must not matter
    return y << 43 | 0x5A5A5A5A5A5


def _check_ties(p, second, fields, ys):
    """Scan fields (two per word, then one word per tie) and compare each
    symbol with the 53-bit comparison of X 2^21 + Y (Y = 0 off the ties)."""
    cut, cut2 = math.ceil(p * 2.0 ** 53), math.ceil(second * 2.0 ** 53)
    ties = [x in (cut >> 21, cut2 >> 21) for x in fields]
    assert sum(ties) == len(ys)
    words = [_word(*fields[i:i + 2]) for i in range(0, len(fields), 2)]
    rng = ScriptedWords(words + [_tie_word(y) for y in ys])
    got = _codes(outcome_chunks(rng, len(fields), p, second), p, second)
    y = iter(ys)
    z = [x << 21 | (next(y) if tie else 0) for x, tie in zip(fields, ties)]
    assert got.tolist() == _codes_by_uniform(z, p, second).tolist()
    assert rng.used == len(rng.words)
    return got.tolist()


@pytest.mark.parametrize("p, second", [(1 / 3, 2 / 3), (0.8, 0.9), (0.5, 0.75)])
def test_a_tie_is_settled_by_21_more_bits(p, second):
    cut, cut2 = math.ceil(p * 2.0 ** 53), math.ceil(second * 2.0 ** 53)
    for c in (cut, cut2):
        tie, low = c >> 21, c & (1 << 21) - 1
        # one field either side of the tie, then the tie with Y just
        # below and at the cut's low bits, and at the ends of its range
        ys = [y for y in (low - 1, low, 0, (1 << 21) - 1) if y >= 0]
        for y in ys:
            _check_ties(p, second, [tie - 1, tie, tie + 1, 7], [y])


def test_tie_words_follow_their_chunk_in_field_order():
    p, second = 1 / 3, 2 / 3
    cut, cut2 = math.ceil(p * 2.0 ** 53), math.ceil(second * 2.0 ** 53)
    tie, tie2 = cut >> 21, cut2 >> 21
    low, low2 = cut & (1 << 21) - 1, cut2 & (1 << 21) - 1
    # chunk 1 holds ties at fields 1 and 2, settled by words 2 and 3;
    # chunk 2 starts at word 4 and holds a tie at its field 3 (word 6)
    words = [_word(5, tie), _word(tie2, 9), _tie_word(low), _tie_word(low2 - 1),
             _word(0, 1), _word(2, tie2), _tie_word(low2)]
    rng = ScriptedWords(words)
    blocks = list(outcome_chunks(rng, 8, p, second, 4))
    assert [b.dtype for b in blocks] == [np.int64, np.int64] and rng.used == 7
    assert _codes(blocks, p, second).tolist() == [0, 1, 1, 0, 0, 0, 0, 2]


@pytest.mark.parametrize("p, second, fields, ys, codes", [
    # p < 2^-32: the first tie is field 0, and only its 21 bits tell
    # success from failure
    (2.0 ** -40, 0.5, [0, 0, 1, 0], [(1 << 13) - 1, 1 << 13, 0], [0, 1, 1, 0]),
    # both cuts in one field: ties there are any of the three outcomes
    (0.5 + 2.0 ** -40, 0.5 + 2.0 ** -39, [1 << 31] * 4 + [(1 << 31) - 1, (1 << 31) + 1],
     [(1 << 13) - 1, 1 << 13, (1 << 14) - 1, 1 << 14], [0, 1, 1, 2, 0, 2]),
    # p + q1 == 1.0: no field reaches the second cut, and ties at the
    # first still settle
    (0.5 + 2.0 ** -40, 1.0, [0xFFFFFFFF, 1 << 31, 1 << 31, 0], [(1 << 13) - 1, 1 << 13],
     [1, 0, 1, 0]),
])
def test_ties_settle_where_field_thresholds_collapse(p, second, fields, ys, codes):
    assert _check_ties(p, second, fields, ys) == codes


@pytest.mark.parametrize("triple", [(1 / 3, 1 / 3), (0.8, 0.1)])
def test_symbol_frequencies_over_1e8_symbols(triple):
    # exact binomial law per symbol: each count within 5 standard deviations
    p, q1 = triple
    n, counts = 10 ** 8, np.zeros(2, np.int64)
    scanner = outcome_scanner(p, p + q1)
    for block in outcome_chunks(repetition_rng(2024, 0), n, p, p + q1):
        counts += (np.count_nonzero(block >= scanner.fail_at),
                   np.count_nonzero(block >= scanner.second_at))
    for count, prob in zip(counts, (1 - p, 1 - p - q1)):
        assert abs(count - n * prob) < 5 * math.sqrt(n * prob * (1 - prob)), (count, prob)


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


def test_seeded_laws_are_recorded_under_this_scheme():
    # seeded laws change only with the RNG contract, which renames the scheme
    assert GOLDEN_LAWS["rng_scheme"] == montecarlo.RNG_SCHEME_ID


@pytest.mark.parametrize("run", GOLDEN_LAWS["runs"],
                         ids=lambda r: f"{r['mode']}-p{r['p']}-s{r['s']}")
def test_seeded_laws_are_pinned(run):
    # the 2.5e6-symbol runs span 39 draw chunks, so the cross-chunk carry
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
    # N = 500 runs on one worker at any worker count, N = 2^15 (s = 128) forks
    for N in (500, 1 << 15):
        results = [run_longest_experiment(THIRDS, N, 128, 11, workers=w).empirical
                   for w in (1, 4, 8)]
        for other in results[1:]:
            assert np.array_equal(results[0].support, other.support)
            assert np.array_equal(results[0].weights, other.weights)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("s, workers", [(1, 2), (5, 8), (7, 2)])
def test_map_reps_keeps_repetition_order(s, workers):
    # later repetitions finish first, so completion order is not repetition
    # order. Repetition i draws from repetition_rng(seed, i), whichever worker runs it
    seed = 4
    expected = [repetition_rng(seed, i).random() for i in range(s)]

    def fn(rng):
        draw = rng.random()
        time.sleep(0.002 * (s - expected.index(draw)))
        return draw
    assert _map_reps(fn, s, seed, workers, _FORK_WORK) == expected
    assert_no_child_left()


def raise_in(rep: int, exc: BaseException, seed: int = 6):
    """A repetition that raises `exc` at repetition `rep` and returns its
    worker's pid otherwise."""
    target = repetition_rng(seed, rep).random()

    def fn(rng):
        if rng.random() == target:
            raise exc
        return os.getpid()
    return fn


def test_map_reps_propagates_an_exception():
    # at 3 workers repetition 4 runs in forked worker 1, which is read
    # while worker 2 is still unread
    with pytest.raises(ArithmeticError, match="repetition 4") as caught:
        _map_reps(raise_in(4, ArithmeticError("repetition 4")), 7, 6, 3, _FORK_WORK)
    assert caught.type is ArithmeticError
    assert_no_child_left()


class NeedsTwoArguments(Exception):
    def __init__(self, a, b):
        super().__init__(a)


@pytest.mark.parametrize("exc", [ArithmeticError(lambda: None),  # pickle.dumps fails
                                 NeedsTwoArguments(1, 2)])  # pickle.loads fails
def test_map_reps_reports_an_exception_that_cannot_be_pickled(exc):
    with pytest.raises(RuntimeError, match="worker 1 raised"):
        _map_reps(raise_in(4, exc), 7, 6, 3, _FORK_WORK)
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("in the caller"), KeyboardInterrupt()])
def test_map_reps_stops_its_workers_when_the_caller_fails(exc):
    # the caller's share fails while the forked worker is still busy
    caller = os.getpid()

    def fn(rng):
        if os.getpid() == caller:
            raise exc
        time.sleep(60)
    t0 = time.perf_counter()
    with pytest.raises(type(exc)):
        _map_reps(fn, 4, 0, 2, _FORK_WORK)
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()


def test_map_reps_forks_on_total_work_alone(monkeypatch):
    # a second worker is forked once the run works through _FORK_WORK
    # symbols, however few each repetition takes; each case runs the
    # largest s below the floor and the smallest s at it (for work = 1,
    # _FORK_WORK - 1 and _FORK_WORK repetitions)
    monkeypatch.setattr(montecarlo, "repetition_rng", lambda seed, i: None)

    def first_pid_per_worker():
        last = [None]  # copied into each child by the fork

        def fn(rng):
            pid = os.getpid()
            if pid == last[0]:
                return None
            last[0] = pid
            return pid
        return fn
    for work in (1, _CHUNK // 2 - 1, _CHUNK):
        at_floor = -(-_FORK_WORK // work)
        for s, workers in ((at_floor - 1, 1), (at_floor, 2)):
            pids = _map_reps(first_pid_per_worker(), s, 0, 2, work)
            assert len(set(pids) - {None}) == workers, (s, work)
            assert pids[0] == os.getpid()  # worker 0 is the caller
            assert_no_child_left()


def test_map_reps_runs_on_one_worker_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert set(_map_reps(lambda rng: os.getpid(), 256, 0, 2, _CHUNK)) == {os.getpid()}


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


def hitting_pids(monkeypatch, dist, m: int, s: int) -> set[int]:
    """The pids of the workers that run_hitting_experiment(dist, m, s, 0,
    workers=2) would use, each repetition returning its worker's pid."""
    pids = set()
    map_reps = montecarlo._map_reps

    def recorded(fn, s, seed, workers, work):
        pids.update(map_reps(lambda rng: os.getpid(), s, seed, workers, work))
        return [1.0] * s
    monkeypatch.setattr(montecarlo, "_map_reps", recorded)
    run_hitting_experiment(dist, m, s, 0, workers=2)
    return pids


@pytest.mark.parametrize("dist, m, threads", [(THIRDS, 12, 2), (THIRDS, 14, 2),
                                              (TrialDistribution(0.5, 0.4, 0.1), 20, 2)])
def test_hitting_runs_keep_their_thread_count(monkeypatch, dist, m, threads):
    # the worker rule weighs two expected hitting times per repetition, not
    # the shorter draw; s = 400 puts every case past the total-work floor,
    # thirds at m = 12 (12,922 symbols per repetition) with 5.2e6 in all
    assert len(hitting_pids(monkeypatch, dist, m, 400)) == threads


def test_hitting_runs_below_the_floor_use_one_worker(monkeypatch):
    # thirds at m = 12, s = 300: 3.9e6 symbols in all, under _FORK_WORK
    assert len(hitting_pids(monkeypatch, THIRDS, 12, 300)) == 1


def test_hitting_chunks_are_even(monkeypatch):
    # a chunk takes whole words: one expected hitting time, 6461.3 symbols
    # at thirds and m = 12, rounds up to 6462
    sizes = []

    def recorded(rng, total, p, second, chunk_size):
        sizes.append(chunk_size)
        return outcome_chunks(rng, total, p, second, chunk_size)
    monkeypatch.setattr(montecarlo, "outcome_chunks", recorded)
    run_hitting_experiment(THIRDS, 12, 3, 0)
    assert sizes == [6462] * 3


def test_hitting_worker_count_is_invisible():
    # m = 8 at s = 200 (8e4 symbols in all) runs on one worker at any
    # worker count; m = 14 at s = 200 and m = 12 at s = 400 fork at 2 and
    # 3 workers, the latter while each repetition works through 12,922
    # symbols, fewer than 2^15
    for m, s in ((8, 200), (14, 200), (12, 400)):
        results = [run_hitting_experiment(THIRDS, m, s, 5, workers=w).empirical
                   for w in (1, 2, 3)]
        for other in results[1:]:
            assert np.array_equal(results[0].support, other.support)
            assert np.array_equal(results[0].weights, other.weights)
            assert results[0].total == other.total == s


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
from contamruns.montecarlo import (outcome_chunks, outcome_scanner, repetition_rng,
                                   run_longest_experiment)

THIRDS = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
p, q1, _ = THIRDS.as_floats()

def experiment():
    run_longest_experiment(THIRDS, 3 << 20, 2, 3)

def direct_loop():
    scanner = outcome_scanner(p, p + q1)
    for block in outcome_chunks(repetition_rng(3, 0), 3 << 20, p, p + q1):
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
