"""Closed forms against each other, against enumerations, and against
frozen high-precision evaluations (mpmath at 50 digits, computed once
and pinned here)."""
import math
from fractions import Fraction

import pytest

import contamruns.analytic
from contamruns.analytic import (
    AccompanyingLaw,
    accompanying_cdf,
    alpha_correction,
    cfk_bounds,
    conditional_survival,
    joint_survival_aggregated,
    m_of_n,
    sandwich,
    theorem1_limit_cdf,
    window_probability,
)
from contamruns.model import SizeError, TrialDistribution, ValidationError
from contamruns.oracle import dp_longest_cdf

from crosscheck import (
    enumerate_conditional,
    joint_survival_by_enumeration,
    joint_survival_casewise,
    swapped,
    window_probability_by_enumeration,
)

THIRDS = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
SKEWED = TrialDistribution(Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
PEAKED = TrialDistribution(Fraction(4, 5), Fraction(1, 10), Fraction(1, 10))
TRIPLES = (THIRDS, SKEWED, PEAKED)


# --- window probability -------------------------------------------------

def test_window_probability_trivial_window():
    for d in TRIPLES:
        assert window_probability(d, 1) == 1


def test_window_probability_known_value():
    assert window_probability(THIRDS, 3) == Fraction(13, 27)


def test_window_probability_rejects_short_windows():
    with pytest.raises(ValidationError):
        window_probability(THIRDS, 0)
    with pytest.raises(ValidationError):
        window_probability(THIRDS, 0.5)


def test_window_probability_symmetric_in_failure_types():
    for m in (2, 5, 9):
        assert window_probability(SKEWED, m) == window_probability(swapped(SKEWED), m)


# --- alpha ---------------------------------------------------------------

def test_alpha_known_value():
    assert alpha_correction(THIRDS, 10).alpha == Fraction(659, 1332)


def test_alpha_breakdown_consistent():
    b = alpha_correction(SKEWED, 7)
    assert b.alpha == b.numerator / b.denominator


def test_alpha_tends_to_c0():
    for d in TRIPLES:
        a = float(alpha_correction(d, 10 ** 6).alpha)
        assert a == pytest.approx(float(d.q1 + d.q2), abs=1e-4)


def test_alpha_rejects_m_below_two():
    with pytest.raises(ValidationError):
        alpha_correction(THIRDS, 1)


# --- joint survival sums ---------------------------------------------------

def test_casewise_equals_enumeration_exactly():
    for d in TRIPLES:
        for m in (2, 3, 4, 5):
            assert joint_survival_casewise(d, m) == joint_survival_by_enumeration(d, m)


def test_casewise_equals_aggregated():
    for d in TRIPLES:
        for m in range(2, 13):
            cw = float(joint_survival_casewise(d, m))
            ag = float(joint_survival_aggregated(d, m))
            assert ag == pytest.approx(cw, rel=1e-9)


def test_aggregated_rejects_short_windows():
    with pytest.raises(ValidationError):
        joint_survival_aggregated(THIRDS, 1)


def test_joint_survival_below_window_probability():
    for d in TRIPLES:
        for m in (3, 6, 9):
            assert 0 < joint_survival_casewise(d, m) < window_probability(d, m)


def test_joint_survival_scaling_approaches_alpha_polynomial():
    # joint survival / (m(m-1) p^(m-2) q1 q2) -> C0 + C1/m + C2/(m(m-1))
    def gap(d, m):
        lead = m * (m - 1) * float(d.p) ** (m - 2) * float(d.q1) * float(d.q2)
        poly = float(alpha_correction(d, m).numerator)
        return abs(float(joint_survival_casewise(d, m)) / lead - poly)

    for d in TRIPLES:
        assert gap(d, 24) < gap(d, 12) < gap(d, 6)


# --- conditional survival and the sandwich hypotheses ---------------------

def test_conditional_survival_equals_enumeration():
    for d in TRIPLES:
        assert conditional_survival(d, 4) == enumerate_conditional(d, 4)


def test_conditional_survival_equals_casewise_quotient():
    # the aggregated route (m >= 4) gives exactly the casewise Fraction
    triples = TRIPLES + (TrialDistribution(Fraction(7, 10), Fraction(1, 5), Fraction(1, 10)),)
    for d in triples:
        for m in range(2, 41):
            assert conditional_survival(d, m) == \
                joint_survival_casewise(d, m) / window_probability(d, m)


def test_exact_closed_forms_refuse_past_the_bit_cap():
    # p^m with m * bit_length(3) = 2m bits: m = 50000 sits at the cap
    assert window_probability(THIRDS, 50_000) > 0
    for fn in (window_probability, conditional_survival, joint_survival_aggregated):
        with pytest.raises(SizeError):
            fn(THIRDS, 50_001)
    # float inputs are not capped
    floats = TrialDistribution(*THIRDS.as_floats())
    assert window_probability(floats, 10 ** 6) == 0.0


def test_float_window_probability_underflow_is_refused():
    # (1/3)^1000 underflows to 0.0, and the conditional survival divides by P(A1)
    floats = TrialDistribution(1 / 3, 1 / 3, 1 / 3)
    with pytest.raises(ValidationError, match=r"m=1000 underflows to 0\.0"):
        sandwich(floats, 1000, 10)
    with pytest.raises(ValidationError, match=r"m=1000 underflows to 0\.0"):
        conditional_survival(floats, 1000)
    # the exact P(A1) is never 0: the sandwich is evaluated, with eps underflowed
    assert sandwich(THIRDS, 1000, 10).degenerate


def test_conditional_discrepancy_shrinks():
    d5 = abs(float(conditional_survival(THIRDS, 5)) - float(alpha_correction(THIRDS, 5).alpha))
    d7 = abs(float(conditional_survival(THIRDS, 7)) - float(alpha_correction(THIRDS, 7).alpha))
    assert d7 < d5


def test_every_admitted_sandwich_contains_the_dp_value():
    # N windows of length m are N + m - 1 symbols; at thirds, m = 10, N = 1e4,
    # P = 8.2518e-5 lies below the lower bound that eps = |survival - alpha| gives
    admitted = []
    for d in TRIPLES:
        for m in (10, 12, 16, 20):
            for N in (10 ** 2, 10 ** 4, 10 ** 5):
                try:
                    b = sandwich(d, m, N)
                except ValidationError:
                    continue
                value = dp_longest_cdf(d, N + m - 1, m, mode="float", budget=math.inf)
                assert b.lower <= value <= b.upper, (d, m, N)
                admitted.append((d, m, N))
    assert (THIRDS, 10, 10 ** 4) in admitted and len(admitted) == 18


def test_cfk_bounds_shape():
    lo, hi = cfk_bounds(alpha=0.5, eps=0.01, N=1000, m=10, pA1=1e-3)
    assert 0 < lo < hi < 1
    lo0, hi0 = cfk_bounds(alpha=0.5, eps=0.0, N=1000, m=10, pA1=1e-3)
    assert hi0 / lo0 == pytest.approx(math.exp(4 * 10 * 1e-3), rel=1e-12)
    lo2, hi2 = cfk_bounds(alpha=0.5, eps=0.01, N=2000, m=10, pA1=1e-3)
    assert hi2 < hi and lo2 < lo
    # alpha < 10 eps: the upper exponent grows with N; capped at 0, it
    # neither passes 1 nor overflows
    assert cfk_bounds(alpha=0.1, eps=0.1, N=10 ** 6, m=4, pA1=0.5) == (0.0, 1.0)


def test_cfk_bounds_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        cfk_bounds(alpha=0.0, eps=0.01, N=10, m=3, pA1=0.1)
    with pytest.raises(ValidationError):
        cfk_bounds(alpha=0.5, eps=-0.01, N=10, m=3, pA1=0.1)
    with pytest.raises(ValidationError):
        cfk_bounds(alpha=0.5, eps=0.01, N=0, m=3, pA1=0.1)


# --- Theorem 1 limit -------------------------------------------------------

def test_theorem1_limit_cdf():
    assert theorem1_limit_cdf(0.0) == 0.0
    assert theorem1_limit_cdf(-1.0) == 0.0
    assert theorem1_limit_cdf(math.log(2)) == pytest.approx(0.5, rel=1e-14)
    assert theorem1_limit_cdf(50.0) == pytest.approx(1.0, abs=1e-15)


def test_theorem1_limit_cdf_refuses_nan():
    with pytest.raises(ValidationError, match="x"):
        theorem1_limit_cdf(math.nan)
    assert theorem1_limit_cdf(math.inf) == 1.0
    assert theorem1_limit_cdf(-math.inf) == 0.0


# --- m(N), H, accompanying CDF: frozen high-precision values ---------------

N_FIG1 = 3_000_000


def test_m_of_n_frozen_value():
    r = m_of_n(THIRDS, N_FIG1)
    assert r.total == pytest.approx(18.844498540720505, rel=1e-13)
    assert r.integer_part == 18
    assert r.fractional_part == pytest.approx(0.8444985407205054, rel=1e-12)
    assert r.total == pytest.approx(math.fsum(r.terms.values()), abs=0)
    assert len(r.terms) == 10


def test_m_of_n_leading_terms_dominate():
    r = m_of_n(THIRDS, 3 ** 60)
    lead = r.terms["log N"] + r.terms["2 loglog N"]
    assert abs(r.total - lead) < 0.2


def test_m_of_n_rejects_small_n():
    with pytest.raises(ValidationError):
        m_of_n(THIRDS, 2)   # log_(1/p) N <= 1
    with pytest.raises(ValidationError):
        m_of_n(THIRDS, 0)


def test_h_function_frozen_values():
    law = AccompanyingLaw(THIRDS, N_FIG1)
    assert law.h(0.0).total == 0.0
    assert law.h(0.5).total == pytest.approx(-0.45060181884823843, rel=1e-12)
    assert len(law.h(1.0).terms) == 8


def test_h_function_approaches_minus_x():
    # all corrections vanish as N grows; H(1) -> -1
    assert abs(AccompanyingLaw(THIRDS, 3 ** 60).h(1.0).total + 1.0) < 0.05


def test_accompanying_cdf_frozen_values():
    table = {
        -3: 2.11497e-13,
        -2: 1.7187170611e-5,
        -1: 0.0163908882234,
        0: 0.21536676193732844,
        1: 0.564627710004,
        2: 0.808889606096,
        3: 0.924555083067,
    }
    for k, expected in table.items():
        assert accompanying_cdf(THIRDS, N_FIG1, k) == pytest.approx(expected, rel=1e-6, abs=0)
    assert accompanying_cdf(THIRDS, N_FIG1, 0) == pytest.approx(
        0.21536676193732844, rel=1e-9)


def test_accompanying_cdf_monotone_and_clamped_tails():
    # H is a quadratic in k that turns back past its vertex (near k = 55
    # at N = 200, near k = -300 at N = 3e6); the CDF must not
    for N in (200, 1000, 10 ** 6, N_FIG1):
        prev = -1.0
        for k in range(-700, 701):
            v = accompanying_cdf(THIRDS, N, k)
            assert 0.0 <= v <= 1.0
            assert v >= prev, (N, k)
            prev = v
    # mu(200) <= 200, so P(mu(200) - [m(200)] < 200) is 1
    for N, k, cdf, exponent in ((200, 200, 1.0, 0.0), (10 ** 6, -700, 0.0, math.inf)):
        d = AccompanyingLaw(THIRDS, N).at(k)
        assert (d.cdf, d.exponent, d.clamped) == (cdf, exponent, True)
    assert accompanying_cdf(THIRDS, N_FIG1, -40) == 0.0
    assert accompanying_cdf(THIRDS, N_FIG1, 40) == 1.0
    far = AccompanyingLaw(THIRDS, N_FIG1).at(500)
    assert far.cdf == 1.0 and far.clamped


def test_accompanying_cdf_symmetric_in_failure_types():
    for k in (-1, 0, 2):
        assert accompanying_cdf(SKEWED, N_FIG1, k) == pytest.approx(
            accompanying_cdf(swapped(SKEWED), N_FIG1, k), rel=1e-12)


def test_accompanying_law_derives_the_constants_once_per_query(monkeypatch):
    calls = []
    derive = contamruns.analytic.derive_constants
    monkeypatch.setattr(contamruns.analytic, "derive_constants",
                        lambda d: calls.append(d) or derive(d))
    for query in (lambda: m_of_n(THIRDS, N_FIG1), lambda: AccompanyingLaw(THIRDS, N_FIG1).h(0.5),
                  lambda: accompanying_cdf(THIRDS, N_FIG1, 0)):
        calls.clear()
        query()
        assert len(calls) == 1
    law = AccompanyingLaw(THIRDS, N_FIG1)
    calls.clear()
    assert [law.at(k).cdf for k in range(-3, 4)] == [
        accompanying_cdf(THIRDS, N_FIG1, k) for k in range(-3, 4)]
    assert len(calls) == 7  # the seven one-off laws, none for `law`


def test_h_coefficients_are_h_grouped_by_power_of_x():
    # the vertex clamp reads (a1, a2) off H's terms; H must stay a1 x + a2 x^2
    for d in TRIPLES:
        for N in (200, 10 ** 6, 10 ** 12):
            law = AccompanyingLaw(d, N)
            a1, a2 = law.h_coefficients
            for x in (-3.5, -0.25, 0.8, 2.0, 17.0):
                assert law.h(x).total == pytest.approx(a1 * x + a2 * x * x, rel=1e-14)


# --- the exact exponent l ---------------------------------------------------

def test_exponent_l_matches_accompanying_exponent():
    # the accompanying exponent expands l = alpha(m) N P(A1) to within a factor
    # 1 + O((log N)^-3); the measured constant over k in -3..3 at N = 3e6 stays
    # below 125
    law = AccompanyingLaw(THIRDS, N_FIG1)
    budget = 125.0 / math.log(N_FIG1, 3) ** 3
    for k in range(-3, 4):
        m = law.m.integer_part + k
        l_exact = float(alpha_correction(THIRDS, m).alpha * N_FIG1 * window_probability(THIRDS, m))
        assert abs(law.at(k).exponent - l_exact) <= budget * l_exact
