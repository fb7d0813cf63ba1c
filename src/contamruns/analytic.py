"""Closed-form probabilities and the limit/accompanying distributions.

Everything here is a pure function of a TrialDistribution and scalar
parameters.  Conventions:

* `log` without qualification means logarithm to base 1/p: a natural
  log divided by the constant C = ln(1/p) of :func:`derive_constants`.
* Window lengths are integers.  Exact Fraction inputs propagate exactly
  through the polynomial formulas (window probability, the joint
  survival sums, alpha).  Their cost grows with the size of p^m, so
  exact evaluation is refused past :data:`EXACT_MAX_BITS`.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

from .model import (
    SizeError,
    TrialDistribution,
    ValidationError,
    check_window_length,
    derive_constants,
    finite_float,
)

# Cap on m * bit_length(d), the size in bits of the exact power p^m, where d
# is the common denominator of (p, q1, q2).  Fraction arithmetic on such
# operands is dominated by big-integer gcds, superlinear in their size; at
# the cap the slowest accepted query, `analytic bounds`, takes under 1 s.
EXACT_MAX_BITS = 100_000


def _check_exact_size(dist: TrialDistribution, m: int) -> None:
    """Refuse exact closed forms whose power p^m would pass EXACT_MAX_BITS."""
    if not dist.is_exact:
        return
    d = math.lcm(dist.p.denominator, dist.q1.denominator, dist.q2.denominator)
    bits = m * d.bit_length()
    if bits > EXACT_MAX_BITS:
        raise SizeError(
            f"exact closed forms at m={m} need p^m with ~{bits} bits "
            f"(> cap {EXACT_MAX_BITS}); use a smaller m, or p, q1 and q2 with fewer digits "
            f"(a smaller common denominator)"
        )


def window_probability(dist: TrialDistribution, m: int):
    """P(A1): an m-window is at most 1+1 contaminated.

    p^m + m(1-p)p^(m-1) + m(m-1)p^(m-2) q1 q2; exact inputs stay exact.
    """
    check_window_length(m, 1)
    _check_exact_size(dist, m)
    p, q1, q2 = dist.p, dist.q1, dist.q2
    return p ** m + m * (1 - p) * p ** (m - 1) + m * (m - 1) * p ** (m - 2) * q1 * q2


@dataclass(frozen=True)
class AlphaBreakdown:
    """The alpha quotient with its numerator and denominator exposed."""

    numerator: float
    denominator: float
    alpha: float


def alpha_correction(dist: TrialDistribution, m: int) -> AlphaBreakdown:
    """Finite-m conditional no-recurrence rate; tends to C0 = q1+q2."""
    check_window_length(m, 2)
    p, q1, q2 = dist.p, dist.q1, dist.q2
    c = derive_constants(dist)
    num = c.C0 + c.C1 / m + c.C2 / (m * (m - 1))
    den = 1 + p * (1 - p) / ((m - 1) * q1 * q2) + p * p / (m * (m - 1) * q1 * q2)
    return AlphaBreakdown(numerator=num, denominator=den, alpha=num / den)


def joint_survival_aggregated(dist: TrialDistribution, m: int):
    """P(A1 Abar_2 ... Abar_m) via the simplified aggregate expressions:
    O(1) terms, and with exact inputs the same Fraction as the raw casewise
    sum of O(m^2) terms, `joint_survival_casewise` in tests/crosscheck.py,
    for every m >= 2.
    """
    check_window_length(m, 2)
    _check_exact_size(dist, m)
    p, q1, q2 = dist.p, dist.q1, dist.q2
    s2 = q1 * q1 + q2 * q2
    one_type = p ** (m - 1) * (
        s2 * ((m - 1) + p / (p - 1))
        + q1 * q2 / (p - 1)
        - s2 * p ** (m - 1) / (p - 1)
        + q1 * q2 * ((m - 2) * p ** (m - 2) - p ** (m - 2) / (p - 1))
    )
    two_type = q1 * q2 * p ** (m - 2) * (
        m * (m - 1) * (q1 + q2)
        - (m - 1)
        + 2 * (2 * p + 1) * q1 * q2 / (p - 1) ** 3
        + q1 * q2 * p ** (m - 2) / (p - 1) ** 3
        * (-3 * (p - 1) ** 2 * m * m + m * (p - 1) * (13 * p - 7) + (-14 * p * p + 12 * p - 4))
        + p ** (m - 1) * (m - 1)
    )
    return one_type + two_type


def _survival_and_pa1(dist: TrialDistribution, m: int):
    """(P(Abar_2 ... Abar_m | A1), P(A1)); a ValidationError where a float
    P(A1) has underflowed to 0.0 (an exact one never does)."""
    pa1 = window_probability(dist, m)
    if pa1 == 0:
        raise ValidationError(f"P(A1) at m={m} underflows to 0.0 in floating point, so "
                              f"P(Abar_2..Abar_m | A1) is undefined; give p, q1 and q2 "
                              f"as exact fractions")
    return joint_survival_aggregated(dist, m) / pa1, pa1


def conditional_survival(dist: TrialDistribution, m: int):
    """P(Abar_2 ... Abar_m | A1) = joint survival / window probability,
    the joint survival from its aggregated closed form."""
    return _survival_and_pa1(dist, m)[0]


@dataclass(frozen=True)
class Sandwich:
    """The sandwich lemma's bounds on P(no valid window among N), with its inputs."""

    lower: float
    upper: float
    alpha: float
    eps: float
    pA1: float
    degenerate: bool  # eps, and with it m P(A1), underflowed to 0.0


def sandwich(dist: TrialDistribution, m: int, N: int) -> Sandwich:
    """Csaki-Foldes-Komlos sandwich over N windows, with the smallest eps its
    hypotheses allow; a ValidationError unless eps < min(p/10, 1/42).

    (i) asks |P(Abar_2 ... Abar_m | A1) - alpha| <= eps, the difference taken
    before rounding (with exact inputs its terms agree to about p^m).  (ii) asks
    sum_{i=m+1..2m} P(A_i | A1) <= eps, where the windows do not overlap the
    first, so the sum is m P(A1); (iii), P(A1) < eps/m, is the same inequality.
    """
    alpha = alpha_correction(dist, m).alpha
    survival, pa1 = _survival_and_pa1(dist, m)
    eps = max(float(abs(survival - alpha)), m * float(pa1))
    limit = min(float(dist.p) / 10, 1 / 42)
    if not eps < limit:
        raise ValidationError(f"the sandwich lemma needs eps < min(p/10, 1/42) = {limit!r}; "
                              f"at m={m}, eps = max(|P(Abar_2..Abar_m | A1) - alpha|, "
                              f"m P(A1)) = {eps!r}")
    lower, upper = cfk_bounds(float(alpha), eps, N, m, float(pa1))
    return Sandwich(lower=lower, upper=upper, alpha=float(alpha), eps=eps, pA1=float(pa1),
                    degenerate=eps == 0.0)


def cfk_bounds(alpha: float, eps: float, N: int, m: int, pA1: float) -> tuple[float, float]:
    """Exponential sandwich for P(Abar_1 ... Abar_N) over N windows.

    The upper exponent is capped at 0: the upper bound is at most 1, as
    it bounds a probability, and exp of a large positive exponent would
    overflow.
    """
    if not (0 < alpha <= 1):
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")
    if eps < 0:
        raise ValidationError(f"eps must be >= 0, got {eps}")
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if N > sys.float_info.max:
        raise ValidationError(f"N must be at most {sys.float_info.max:.6g}, the double range")
    lower = math.exp(-(alpha + 10 * eps) * N * pA1 - 2 * m * pA1)
    upper = math.exp(min(0.0, -(alpha - 10 * eps) * N * pA1 + 2 * m * pA1))
    return lower, upper


def theorem1_limit_cdf(x: float) -> float:
    """Limiting CDF of tau_m * alpha * P(A1): standard exponential."""
    if math.isnan(x):
        raise ValidationError("x must be a number, got nan")
    return -math.expm1(-x) if x >= 0 else 0.0


@dataclass(frozen=True)
class ExpansionTerms:
    """A sum decomposed into labeled summands (total = exact sum)."""

    terms: dict[str, float] = field(repr=False)
    total: float

    @property
    def integer_part(self) -> int:
        return math.floor(self.total)

    @property
    def fractional_part(self) -> float:
        return self.total - math.floor(self.total)


@dataclass(frozen=True)
class AccompanyingValue:
    cdf: float
    exponent: float  # the value l with cdf = exp(-l)
    clamped: bool    # l overflowed/underflowed double range


class AccompanyingLaw:
    """The accompanying law of the longest run at one (dist, N), logs to base 1/p:
    P(mu(N) - [m(N)] < k) ~ exp(-(1/p)^(log(C0 p^-2 q1 q2) + H(k - {m(N)}))).

    Building it checks N and derives the constants, log N, log log N and
    r = (C1-C0)/(C C0) once.  m(N) needs K and is built on first use, so H
    stays available where K leaves the double range."""

    def __init__(self, dist: TrialDistribution, N: int):
        if N < 1:
            raise ValidationError(f"N must be >= 1, got {N}")
        c = derive_constants(dist)
        lN = math.log(N) / c.C  # math.log takes an integer N of any size
        if lN <= 1.0:
            raise ValidationError(
                f"need log_(1/p) N > 1 (i.e. N > 1/p) so that log log N is defined; "
                f"got N={N}, log N = {lN}"
            )
        self.dist, self.constants, self.lN, self.llN = dist, c, lN, math.log(lN) / c.C
        self.r = (finite_float(c.C1, "C1") - float(c.C0)) / (c.C * float(c.C0))

    @functools.cached_property
    def m(self) -> ExpansionTerms:
        """Centering sequence m(N) for the longest run, as ten labeled terms.

        The three trailing correction summands of the printed expansion
        share denominators with earlier ones and are folded into the
        (loglog N)^2/(log N)^3 and loglog N/(log N)^3 terms.
        """
        C, K, lN, llN, r = self.constants.C, self.constants.K, self.lN, self.llN, self.r
        terms = {
            "log N": lN,
            "2 loglog N": 2 * llN,
            "4 loglog N / (C log N)": 4 * llN / (C * lN),
            "(C1-C0)/(C C0) / log N": r / lN,
            "-4/C (loglog N)^2/(log N)^2": -4 / C * llN ** 2 / lN ** 2,
            "(8/C^2 - 2(C1-C0)/(C C0)) loglog N/(log N)^2": (8 / C ** 2 - 2 * r) * llN / lN ** 2,
            "(2(C1-C0)/(C^2 C0) + K) / (log N)^2": (2 * r / C + K) / lN ** 2,
            "16/(3C) (loglog N)^3/(log N)^3": 16 / (3 * C) * llN ** 3 / lN ** 3,
            "(4(C1-C0)/(C C0) - 24/C^2) (loglog N)^2/(log N)^3":
                (4 * r - 24 / C ** 2) * llN ** 2 / lN ** 3,
            "(16/C^3 - 4K - 12(C1-C0)/(C^2 C0)) loglog N/(log N)^3":
                (16 / C ** 3 - 4 * K - 12 * r / C) * llN / lN ** 3,
        }
        return ExpansionTerms(terms=terms, total=math.fsum(terms.values()))

    def h(self, x: float) -> ExpansionTerms:
        """Correction polynomial H(x) entering the accompanying CDF exponent,
        as eight labeled terms: six linear in x, then two quadratic."""
        C, lN, llN, r = self.constants.C, self.lN, self.llN, self.r
        terms = {
            "-x": -x,
            "2x/(C log N)": 2 * x / (C * lN),
            "-4/C loglog N/(log N)^2 x": -4 / C * llN / lN ** 2 * x,
            "-(C1-C0)/(C C0) x/(log N)^2": -r * x / lN ** 2,
            "(4(C1-C0)/(C C0) - 8/C^2) loglog N/(log N)^3 x":
                (4 * r - 8 / C ** 2) * llN / lN ** 3 * x,
            "8/C (loglog N)^2/(log N)^3 x": 8 / C * llN ** 2 / lN ** 3 * x,
            "-x^2/(C (log N)^2)": -x * x / (C * lN ** 2),
            "4/C loglog N/(log N)^3 x^2": 4 / C * llN / lN ** 3 * x * x,
        }
        if not all(map(math.isfinite, terms.values())):
            raise ValidationError(f"x must keep every term of H(x) a finite double, got {x!r}")
        return ExpansionTerms(terms=terms, total=math.fsum(terms.values()))

    @functools.cached_property
    def h_coefficients(self) -> tuple[float, float]:
        """(a1, a2) with H(x) = a1 x + a2 x^2: H's terms at x = 1 summed by power of x."""
        t = list(self.h(1.0).terms.values())
        return sum(t[:6]), sum(t[6:])

    def at(self, k: int) -> AccompanyingValue:
        """P(mu(N) - [m(N)] < k), computed through the exponent form.

        H is a truncated expansion, a1 x + a2 x^2: past its vertex, where
        H'(x) = a1 + 2 a2 x > 0, it turns back and the CDF would fall again.
        There the value is the tail the CDF tends to on that side, 0 left of
        the vertex and 1 right of it, and `clamped` is set.
        """
        c, (p, q1, q2) = self.constants, self.dist.as_floats()
        frac = self.m.fractional_part
        try:  # OverflowError: |k| past the double range; ValueError: H(k - frac) or
            # log(C0 q1 q2 / p^2) leaves it; ZeroDivisionError: p * p underflows
            x = k - frac
            L = math.log(float(c.C0) * q1 * q2 / (p * p)) / c.C + self.h(x).total
        except (OverflowError, ValueError, ZeroDivisionError):
            raise ValidationError("k, p, q1 or q2 puts the accompanying exponent past the "
                                  "double range") from None
        a1, a2 = self.h_coefficients
        if a1 + 2 * a2 * x > 0:  # a2 > 0: right of the vertex; else left of it
            return (AccompanyingValue(cdf=1.0, exponent=0.0, clamped=True) if a2 > 0
                    else AccompanyingValue(cdf=0.0, exponent=math.inf, clamped=True))
        log_l = c.C * L  # natural log of the exponent l = (1/p)^L
        l = math.inf if log_l > 700.0 else 0.0 if log_l < -745.0 else math.exp(log_l)
        return AccompanyingValue(cdf=math.exp(-l), exponent=l,
                                 clamped=log_l > 700.0 or log_l < -745.0)


# kept while perfbench patches montecarlo.m_of_n by name
def m_of_n(dist: TrialDistribution, N: int) -> ExpansionTerms:
    return AccompanyingLaw(dist, N).m


# kept while perfbench imports it by name
def accompanying_cdf(dist: TrialDistribution, N: int, k: int) -> float:
    return AccompanyingLaw(dist, N).at(k).cdf
