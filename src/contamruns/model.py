"""Core domain types: outcomes, trial distributions, derived constants.

Outcomes are encoded as small integers (0 = success, 1 = failure of
type I, 2 = failure of type II): the codes that `scan.longest_run` and
`scan.first_hitting` read.  The experiments draw no codes; they scan
the uniforms they draw.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from numbers import Rational

SIMPLEX_TOL = 1e-12
# default work budget of the DP oracle (oracle.dp_longest_cdf and the CLI's --budget)
DEFAULT_BUDGET = 10 ** 9


class Outcome(IntEnum):
    SUCCESS = 0
    FAIL_PLUS = 1
    FAIL_MINUS = 2


class ValidationError(ValueError):
    """Raised when a domain object violates one of its invariants."""


class SizeError(ValueError):
    """Raised when a query exceeds the DP work budget, the exact-arithmetic
    size cap of the closed forms or a Monte Carlo run's size cap."""


def _is_exact(x) -> bool:
    return isinstance(x, Rational)


def _approx(x) -> str:
    """x for a message, as a float or past the double range as a power of
    ten: str() of a Fraction can pass the interpreter's int-to-str limit."""
    if not _is_exact(x) or abs(x) <= sys.float_info.max:
        return repr(float(x))
    return f"{'-' if x < 0 else ''}10^{math.log10(abs(int(x))):.1f}"


@dataclass(frozen=True)
class TrialDistribution:
    """Probability triple (p, q1, q2) of a single trinary trial.

    Components may be floats or exact Fractions; exact inputs keep all
    downstream closed-form arithmetic exact (integer window lengths only).
    """

    p: float | Fraction
    q1: float | Fraction
    q2: float | Fraction

    def __post_init__(self):
        for name in ("p", "q1", "q2"):
            v = getattr(self, name)
            if not v > 0:
                raise ValidationError(f"{name} must be > 0, got {_approx(v)}")
        if not self.p < 1:
            raise ValidationError(f"p must be < 1, got {_approx(self.p)}")
        total = self.p + self.q1 + self.q2
        if total != 1 and self.is_exact:  # within the tolerance, the exact routes would disagree
            raise ValidationError(f"exact p + q1 + q2 must equal 1, got 1 + ({_approx(total - 1)})")
        if abs(float(total) - 1.0) > SIMPLEX_TOL:
            raise ValidationError(
                f"p + q1 + q2 must equal 1 within {SIMPLEX_TOL}, got {float(total)!r}"
            )

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(v) for v in (self.p, self.q1, self.q2))

    def as_floats(self) -> tuple[float, float, float]:
        return float(self.p), float(self.q1), float(self.q2)


def finite_float(x, name: str) -> float:
    """float(x), refused past the double range (as an exact x derived from
    a tiny q1, q2 or 1 - p can be) or when nan."""
    if not abs(x) <= sys.float_info.max:
        raise ValidationError(f"{name} is past the double range: q1, q2 or 1 - p is too small")
    return float(x)


@dataclass(frozen=True)
class DerivedConstants:
    """The five constants the closed forms are written in.

    C  = ln(1/p)                                (natural-log scale)
    C0 = q1 + q2
    C1 = p(q1^2+q2^2)/(q1 q2) - 1
    C2 = (q1^2+q2^2) p^2 / (q1 q2 (p-1)) + p/(p-1) + 2(2p+1) q1 q2/(p-1)^3
    K  = (2 C0 C2 - C1^2 - C0^2) / (2 C C0^2)
    """

    C: float
    C0: float | Fraction
    C1: float | Fraction
    C2: float | Fraction

    @property
    def K(self) -> float:
        """Computed on use: only m(N) needs it, and it leaves the double range first."""
        C0, C1, C2 = self.C0, self.C1, self.C2
        try:
            K = float(2 * C0 * C2 - C1 * C1 - C0 * C0) / (2 * self.C * float(C0) ** 2)
        except (OverflowError, ZeroDivisionError):
            K = math.inf
        return finite_float(K, "K")


def derive_constants(dist: TrialDistribution) -> DerivedConstants:
    p, q1, q2 = dist.p, dist.q1, dist.q2
    C = math.log(1.0 / float(p)) if float(p) > 0 else math.inf
    if not 0 < C < math.inf:
        raise ValidationError(f"p is too close to 0 or 1 for C = ln(1/p) in doubles: {float(p)!r}")
    C0 = q1 + q2
    C1 = p * (q1 * q1 + q2 * q2) / (q1 * q2) - 1
    C2 = (
        (q1 * q1 + q2 * q2) * p * p / (q1 * q2 * (p - 1))
        + p / (p - 1)
        + 2 * (2 * p + 1) * q1 * q2 / (p - 1) ** 3
    )
    return DerivedConstants(C=C, C0=C0, C1=C1, C2=C2)


def check_window_length(m: int, minimum: int = 1) -> int:
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValidationError(f"window length must be an integer, got {m!r}")
    if m < minimum:
        raise ValidationError(f"window length must be >= {minimum}, got {m}")
    return m
