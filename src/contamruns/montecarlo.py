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
from typing import Callable, Iterator, Optional

import numpy as np

from .analytic import alpha_correction, m_of_n, window_probability
from .model import SizeError, TrialDistribution, ValidationError
from .scan import ChunkScanner

RNG_SCHEME_ID = "pcg64-seedseq-spawnkey-invcdf-v1"
HITTING_SAFETY_CAP = 10 ** 9
_CHUNK = 1 << 20


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
class ExperimentConfig:
    dist: TrialDistribution
    N: Optional[int]  # sequence length; longest mode only, hitting runs are unbounded
    s: int
    seed: int
    mode: str  # 'longest' | 'hitting'
    m: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("longest", "hitting"):
            raise ValidationError(f"mode must be 'longest' or 'hitting', got {self.mode!r}")
        if self.mode == "longest" and self.N is None:
            raise ValidationError("longest mode requires a sequence length N")
        if (self.N is not None and self.N < 1) or self.s < 1:
            raise ValidationError(f"need N >= 1 and s >= 1, got N={self.N}, s={self.s}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.mode == "hitting" and (self.m is None or self.m < 1):
            raise ValidationError("hitting mode requires a window length m >= 1")


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


def _map_reps(fn: Callable[[int], float], s: int, workers: int) -> list:
    # Freeing one block just under glibc's 32 MiB mmap cap lifts its mmap and
    # trim thresholds to ~31 and ~62 MiB: every chunk's temporaries then stay
    # on the heap, not mapped and page-faulted per repetition (other libcs: no-op).
    np.empty(31 << 20, np.uint8)
    workers = min(workers, s)
    if workers <= 1:
        return [fn(i) for i in range(s)]
    # one task per worker: worker w runs repetitions w, w + W, w + 2W, ...
    # into their slots, so results stay in repetition order
    results = [None] * s

    def block(w: int) -> None:
        for i in range(w, s, workers):
            results[i] = fn(i)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(block, range(workers)))
    return results


def run_longest_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Empirical law of mu(N) - [m(N)] over s fused simulate+scan runs."""
    if cfg.mode != "longest":
        raise ValidationError("config mode must be 'longest'")
    center = m_of_n(cfg.dist, cfg.N).integer_part

    def one(rep: int) -> int:
        rng = repetition_rng(cfg.seed, rep)
        scanner = ChunkScanner()
        for chunk in outcome_chunks(cfg.dist, rng, cfg.N):
            scanner.push(chunk)
        return scanner.best - center

    offsets = _map_reps(one, cfg.s, workers)
    return ExperimentResult(empirical=EmpiricalDistribution.from_samples(offsets))


def run_hitting_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Empirical law of tau_m * alpha * P(A1) over s unbounded-horizon runs."""
    if cfg.mode != "hitting":
        raise ValidationError("config mode must be 'hitting'")
    m = cfg.m
    alpha = alpha_correction(cfg.dist, m).alpha
    if not alpha > 0:
        raise ValidationError(f"alpha * P(A1) must be > 0; alpha = {float(alpha):.6g} at m = {m}")
    scale = float(alpha) * float(window_probability(cfg.dist, m))
    if scale == 0.0 or 1.0 / scale > HITTING_SAFETY_CAP:
        raise SizeError(f"the expected hitting time 1/(alpha * P(A1)) at m = {m} is past the "
                        f"cap of {HITTING_SAFETY_CAP} symbols per repetition")
    # expected tau is 1/scale; chunk a few multiples at a time
    chunk_size = int(min(_CHUNK, max(4 * m, 2.0 / scale)))

    def one(rep: int) -> float:
        rng = repetition_rng(cfg.seed, rep)
        scanner = ChunkScanner()
        for chunk in outcome_chunks(cfg.dist, rng, HITTING_SAFETY_CAP, chunk_size):
            hit = scanner.push_until_hit(chunk, m)
            if hit is not None:
                return hit * scale
        return math.nan  # capped; excluded from the empirical law

    scaled = np.asarray(_map_reps(one, cfg.s, workers))
    capped = np.isnan(scaled)
    if capped.all():
        raise SizeError(f"none of the {cfg.s} repetitions hit within the cap of "
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
