"""Seeded Monte Carlo experiments for the two limit theorems.

Reproducibility contract: repetition i draws from
``numpy.random.PCG64(SeedSequence(entropy=seed, spawn_key=(i,)))`` and
outcomes come from one uniform per symbol with fixed thresholds
(p, p+q1) mapping to (success, type-I failure, type-II failure).
Results are collected by repetition index, so they are bit-identical
for any worker count.
"""
from __future__ import annotations

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
_CHUNK = 1 << 16  # symbols per draw; longer draws are no faster and raise peak RSS


def repetition_rng(seed: int, rep: int) -> np.random.Generator:
    """The documented per-repetition generator derivation."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    )


def _draw_chunk(rng: np.random.Generator, dist_floats, n: int) -> np.ndarray:
    p, q1, _ = dist_floats
    u = rng.random(n)
    return ((u >= p).view(np.uint8) + (u >= p + q1).view(np.uint8))


def outcome_chunks(dist: TrialDistribution, rng: np.random.Generator,
                   total: int, chunk_size: int = _CHUNK) -> Iterator[np.ndarray]:
    """Pull-based source of `total` i.i.d. outcomes in uint8 chunks."""
    floats = dist.as_floats()
    remaining = total
    while remaining > 0:
        n = min(chunk_size, remaining)
        yield _draw_chunk(rng, floats, n)
        remaining -= n


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
              workers: int, chunk: int) -> list:
    """[fn(repetition_rng(seed, i)) for i in range(s)], on up to `workers` threads.

    `chunk` is the number of symbols each of fn's draws takes.  A second
    thread pays only once a chunk has at least _CHUNK // 2 symbols (on a
    2-vCPU VM, thirds hitting at m = 12, chunks of 12,922, took 0.62 s on
    one thread and 0.93 s on two), so shorter chunks run on one thread.
    """
    if s < 1 or seed < 0:
        raise ValidationError(f"need s >= 1 and seed >= 0, got s={s}, seed={seed}")
    # Freeing one block just under glibc's 32 MiB mmap cap lifts its mmap and
    # trim thresholds to ~31 and ~62 MiB: every chunk's temporaries then stay
    # on the heap, not mapped and page-faulted per repetition (other libcs: no-op).
    np.empty(31 << 20, np.uint8)
    workers = min(workers, s) if chunk >= _CHUNK // 2 else 1
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

    def one(rng: np.random.Generator) -> int:
        scanner = ChunkScanner()
        for chunk in outcome_chunks(dist, rng, N):
            scanner.push(chunk)
        return scanner.best - center

    offsets = _map_reps(one, s, seed, workers, min(_CHUNK, N))
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
    # expected tau is 1/scale; chunk a few multiples at a time
    chunk_size = int(min(_CHUNK, max(4 * m, 2.0 / scale)))

    def one(rng: np.random.Generator) -> float:
        scanner = ChunkScanner()
        for chunk in outcome_chunks(dist, rng, HITTING_SAFETY_CAP, chunk_size):
            hit = scanner.push_until_hit(chunk, m)
            if hit is not None:
                return hit * scale
        return math.nan  # capped; excluded from the empirical law

    scaled = np.asarray(_map_reps(one, s, seed, workers, chunk_size))
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
