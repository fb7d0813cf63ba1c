"""Seeded Monte Carlo experiments for the two limit theorems.

Reproducibility contract: repetition i draws from
``numpy.random.PCG64(SeedSequence(entropy=seed, spawn_key=(i,)))`` and
outcomes come from one uniform per symbol with fixed thresholds
(p, p+q1) mapping to (success, type-I failure, type-II failure).
Results are collected by repetition index, so they are bit-identical
for any worker count.

The contract is the one ``RNG_SCHEME_ID`` names; two shortcuts keep it.
The scanner reads the uniforms against p and p + q1 itself (see
``scan``), making the comparisons that map a uniform to its outcome.
And the generators are not seeded through ``SeedSequence`` one by one:
``_seed_words`` runs SeedSequence's published hash-mix and
``generate_state`` steps once for a block of 4096 repetitions, on uint32
arrays, and ``repetition_rng`` hands PCG64 its row of that table.  The
generator is the same, state for state.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .analytic import alpha_correction, m_of_n, window_probability
from .model import SizeError, TrialDistribution, ValidationError
from .scan import ChunkScanner

RNG_SCHEME_ID = "pcg64-seedseq-spawnkey-invcdf-v1"
HITTING_SAFETY_CAP = 10 ** 9
MAX_REPETITIONS = 1 << 22  # per run: their results take about 250 MB
MAX_RUN_SYMBOLS = 1 << 40  # per run: about 50 min on 2 threads at 2.8 ns per symbol (figure 1)
_CHUNK = 1 << 16  # symbols per draw; longer draws are no faster and raise peak RSS
_BLOCK_BITS = 12  # 4096 repetitions per seed-table block; 4096 divides 2^32
_M32 = 0xFFFFFFFF
# Freeing one block just under glibc's 32 MiB mmap cap lifts its mmap and trim
# thresholds to ~31 and ~62 MiB, never to be lowered: every _CHUNK draw's and
# scan's temporaries then stay on the heap, not mapped and faulted (other libcs: no-op).
np.empty(31 << 20, np.uint8)


def repetition_rng(seed: int, rep: int) -> np.random.Generator:
    """The documented per-repetition generator derivation: the generator
    ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(rep,))))``."""
    words = _seed_words(seed, rep >> _BLOCK_BITS)[rep & ((1 << _BLOCK_BITS) - 1)]
    return np.random.Generator(np.random.PCG64(_seed_source()(words)))


@functools.cache
def _seed_source() -> type:
    """A seed sequence that hands PCG64 its four precomputed uint64 words.

    Built on first use, so that importing this module leaves numpy.random
    unloaded (the CLI's queries never draw).
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 uint64
            return self.words

    return SeedWords


def _words32(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence splits an
    entropy integer (0 is one word)."""
    if n < 0:
        raise ValidationError(f"seeds and repetition indices are >= 0, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


@functools.lru_cache(maxsize=2)
def _seed_words(seed: int, block: int) -> np.ndarray:
    """PCG64's seed words for repetitions block * 4096 + j: row j of a
    read-only (4096, 4) uint64 table.

    SeedSequence(entropy=seed, spawn_key=(rep,)) hashes its entropy words
    (seed's, padded with zeros to the pool size 4, then rep's) into a pool
    of four uint32 words and expands the pool into the eight uint32 words
    that make PCG64's four uint64 ones.  These are numpy's steps, with each
    word either a Python int (kept to 32 bits) or a uint32 array over the
    block (which wraps by itself).  Since 4096 divides 2^32, the
    repetitions of a block share every word of rep but the lowest, so only
    that word is an array.
    """
    spawn = _words32(block << _BLOCK_BITS)
    spawn[0] = np.arange(spawn[0], spawn[0] + (1 << _BLOCK_BITS), dtype=np.uint32)
    run = _words32(seed)
    entropy = run + [0] * (4 - len(run)) + spawn
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = ((0xCA01F9DD * x & _M32) - (0x4973F715 * y & _M32)) & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((1 << _BLOCK_BITS, 8), "<u4")
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state[:, i] = value ^ value >> 16
    table = state.view("<u8").astype(np.uint64)
    table.flags.writeable = False
    return table


def outcome_chunks(rng: np.random.Generator, total: int,
                   chunk_size: int = _CHUNK) -> Iterator[np.ndarray]:
    """Pull-based source of `total` uniforms on [0, 1), one per symbol,
    drawn `chunk_size` at a time."""
    while total > 0:
        n = min(chunk_size, total)
        yield rng.random(n)
        total -= n


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Weighted support points; support strictly increasing."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValidationError("support and weights must have equal length")
        if np.any(self.support[1:] <= self.support[:-1]):  # np.diff wraps past int64
            raise ValidationError("support must be strictly increasing")

    @property
    def total(self) -> int:
        """The number of samples: the sum of the weights."""
        return int(self.weights.sum())

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        support, counts = np.unique(np.asarray(values), return_counts=True)
        return cls(support=support, weights=counts.astype(np.int64))

    def cdf(self, x, side="right"):
        """Empirical P(value <= x) at each point of x, or P(value < x) with
        side="left" (a scalar gives a float64).

        One lookup in the cumulative integer counts; the division by the
        total comes last, so each value is the same double as count / total.
        """
        counts = np.concatenate(([0], np.cumsum(self.weights)))
        return counts[np.searchsorted(self.support, x, side=side)] / self.total


@dataclass(frozen=True)
class ExperimentResult:
    empirical: EmpiricalDistribution
    excluded: int = 0  # hitting repetitions that hit the safety cap


def _map_reps(fn: Callable[[np.random.Generator], object], s: int, seed: int,
              workers: int, work: float) -> list:
    """[fn(repetition_rng(seed, i)) for i in range(s)], on up to `workers` threads.

    `work` is the symbols one repetition works through: N for a longest
    run, twice the expected hitting time (at least 4m) for a hitting run.
    A run past MAX_REPETITIONS repetitions or MAX_RUN_SYMBOLS symbols in
    all is refused before anything is allocated.  A second thread pays
    only once `work` is at least _CHUNK // 2 (on a 2-vCPU VM, thirds
    hitting at m = 12, work 12,922, s = 4000, took 0.29-0.40 s on one
    thread and 0.45-0.53 s on two), so less runs on one thread.
    """
    if s < 1 or seed < 0:
        raise ValidationError(f"need s >= 1 and seed >= 0, got s={s}, seed={seed}")
    if s > MAX_REPETITIONS or s * work > MAX_RUN_SYMBOLS:
        raise SizeError(f"s={s} repetitions of work={work} symbols each are past the caps "
                        f"of {MAX_REPETITIONS} repetitions and {MAX_RUN_SYMBOLS} symbols per run")
    workers = min(workers, s) if work >= _CHUNK // 2 else 1
    # one task per worker: worker w runs repetitions w, w + W, w + 2W, ...
    # into their slots, so results stay in repetition order
    results = [None] * s

    def block(w: int) -> None:
        for i in range(w, s, workers):
            results[i] = fn(repetition_rng(seed, i))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(block, range(workers)))
    return results


def run_longest_experiment(dist: TrialDistribution, N: int, s: int, seed: int,
                           workers: int = 1) -> ExperimentResult:
    """Empirical law of mu(N) - [m(N)] over s fused simulate+scan runs."""
    center = m_of_n(dist, N).integer_part
    p, q1, _ = dist.as_floats()

    def one(rng: np.random.Generator) -> int:
        scanner = ChunkScanner(p, p + q1)
        for block in outcome_chunks(rng, N):
            scanner.push(block)
        return scanner.best - center

    offsets = _map_reps(one, s, seed, workers, N)
    return ExperimentResult(empirical=EmpiricalDistribution.from_samples(offsets))


def run_hitting_experiment(dist: TrialDistribution, m: int, s: int, seed: int,
                           workers: int = 1) -> ExperimentResult:
    """Empirical law of tau_m * alpha * P(A1) over s unbounded-horizon runs."""
    alpha = alpha_correction(dist, m).alpha
    if not alpha > 0:
        raise ValidationError(f"alpha * P(A1) must be > 0; alpha = {float(alpha):.6g} at m = {m}")
    scale = float(alpha) * float(window_probability(dist, m))
    if scale == 0.0 or 1.0 / scale > HITTING_SAFETY_CAP:
        raise SizeError(f"the expected hitting time 1/(alpha * P(A1)) at m = {m} is past the "
                        f"cap of {HITTING_SAFETY_CAP} symbols per repetition")
    # draw one expected hitting time 1/scale at a time: tau is about
    # exponential, so a repetition draws about 1/((1 - 1/e) scale) = 1.58/scale
    # symbols, where draws of 2/scale would take 2.31/scale
    chunk_size = int(min(_CHUNK, max(4 * m, 1.0 / scale)))
    p, q1, _ = dist.as_floats()

    def one(rng: np.random.Generator) -> float:
        scanner = ChunkScanner(p, p + q1)
        for block in outcome_chunks(rng, HITTING_SAFETY_CAP, chunk_size):
            hit = scanner.push_until_hit(block, m)
            if hit is not None:
                return hit * scale
        return math.nan  # capped; excluded from the empirical law

    scaled = np.asarray(_map_reps(one, s, seed, workers, max(4 * m, 2.0 / scale)))
    capped = np.isnan(scaled)
    if capped.all():
        raise SizeError(f"none of the {s} repetitions hit within the cap of "
                        f"{HITTING_SAFETY_CAP} symbols at m = {m}: no sample to report")
    return ExperimentResult(empirical=EmpiricalDistribution.from_samples(scaled[~capped]),
                            excluded=int(capped.sum()))


def _sup_distance(empirical: EmpiricalDistribution, at, before) -> float:
    """sup over the real line of |ECDF - F|, given F(x) and F(x-) at each
    support point x of the ECDF (in order).

    Left of the support the ECDF is 0, right of it 1, and between two
    support points constant, while F is nondecreasing: on each of these
    pieces |ECDF - F| is largest at an end, so the supremum is the
    largest of |ECDF(x) - F(x)| and |ECDF(x-) - F(x-)| over the support.
    """
    if empirical.total == 0:
        raise ValidationError("empirical distribution must be non-empty")
    x = empirical.support
    return float(np.max(np.maximum(np.abs(empirical.cdf(x) - at),
                                   np.abs(empirical.cdf(x, side="left") - before))))


def sup_distance(empirical: EmpiricalDistribution,
                 reference_cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov statistic against a continuous reference CDF."""
    at = np.array([reference_cdf(float(x)) for x in empirical.support])
    return _sup_distance(empirical, at, at)


def sup_distance_step(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Sup distance between two empirical (right-continuous step) CDFs."""
    return _sup_distance(a, b.cdf(a.support), b.cdf(a.support, side="left"))


def sup_distance_lattice(empirical: EmpiricalDistribution,
                         reference_cdf_below: Callable[[int], float]) -> float:
    """Sup distance against a nondecreasing law on the integers, given as
    P(value < k): F(x) is P(value < floor(x) + 1) and F(x-) is
    P(value < ceil(x)), two reference calls per support point."""
    xs = empirical.support.tolist()  # Python numbers: floor and ceil stay exact
    return _sup_distance(empirical,
                         [reference_cdf_below(math.floor(x) + 1) for x in xs],
                         [reference_cdf_below(math.ceil(x)) for x in xs])
