"""Enumeration and DP oracles: internal consistency and exactness."""
from fractions import Fraction

import pytest

from contamruns.model import TrialDistribution, ValidationError, is_window_valid
from contamruns.oracle import (
    SizeError,
    _dp_chain,
    dp_hitting_tail,
    dp_longest_cdf,
    enumerate_conditional,
    enumerate_event,
    joint_survival_by_enumeration,
    longest_cdf_by_enumeration,
    longest_run_distribution_by_enumeration,
    window_probability_by_enumeration,
)

THIRDS = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
SKEWED = TrialDistribution(Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


def test_enumerate_event_total_mass():
    for d in (THIRDS, SKEWED):
        assert enumerate_event(d, 5, lambda seq: True) == 1


def test_enumerate_event_window_validity():
    v = enumerate_event(THIRDS, 3, is_window_valid)
    assert v == Fraction(13, 27)
    assert v == window_probability_by_enumeration(THIRDS, 3)


def test_enumeration_is_exact_for_fractions():
    v = window_probability_by_enumeration(SKEWED, 6)
    assert isinstance(v, Fraction)
    assert 0 < v < 1


def test_enumeration_float_mode():
    d = TrialDistribution(0.5, 0.3, 0.2)
    exact = window_probability_by_enumeration(SKEWED, 5)
    assert window_probability_by_enumeration(d, 5) == pytest.approx(float(exact),
                                                                    rel=1e-12)


def test_enumeration_size_limit():
    with pytest.raises(SizeError):
        window_probability_by_enumeration(THIRDS, 15)
    with pytest.raises(SizeError):
        enumerate_conditional(THIRDS, 8)
    with pytest.raises(ValidationError):
        window_probability_by_enumeration(THIRDS, 0)


def test_joint_survival_definition_cross_check():
    # direct predicate enumeration over 2m-1 symbols, first window valid
    # and windows 2..m not
    m = 3

    def predicate(seq):
        if not is_window_valid(seq[:m]):
            return False
        return all(not is_window_valid(seq[j:j + m]) for j in range(1, m))

    assert joint_survival_by_enumeration(THIRDS, m) == enumerate_event(
        THIRDS, 2 * m - 1, predicate)


def test_conditional_in_unit_interval():
    for m in (2, 3, 4, 5):
        v = enumerate_conditional(THIRDS, m)
        assert 0 < v < 1


def test_longest_pmf_sums_to_one():
    pmf = longest_run_distribution_by_enumeration(SKEWED, 8)
    assert sum(pmf.values()) == 1
    assert min(pmf) >= 1 and max(pmf) <= 8


def test_dp_matches_enumeration_small():
    for d in (THIRDS, SKEWED):
        for N, m in ((5, 3), (7, 4), (9, 2)):
            assert dp_longest_cdf(d, N, m, mode="exact") == \
                longest_cdf_by_enumeration(d, N, m)


def test_dp_boundary_cases():
    # a window of the full length is the only way to reach m = N
    assert dp_longest_cdf(THIRDS, 4, 4, mode="exact") == \
        1 - window_probability_by_enumeration(THIRDS, 4)
    # every single symbol is itself a valid run
    assert dp_longest_cdf(THIRDS, 6, 1, mode="exact") == 0
    assert dp_longest_cdf(THIRDS, 6, 7, mode="exact") == 1


def test_dp_float_agrees_with_exact():
    for d, N, m in ((SKEWED, 50, 6), (THIRDS, 2000, 12)):
        exact = dp_longest_cdf(d, N, m, mode="exact")
        assert dp_longest_cdf(d, N, m, mode="float") == pytest.approx(
            float(exact), rel=1e-12)


def test_dp_cdf_monotone_in_m_and_n():
    vals = [float(dp_longest_cdf(THIRDS, 40, m)) for m in range(2, 9)]
    assert vals == sorted(vals)
    tails = [float(dp_hitting_tail(THIRDS, 5, N)) for N in (5, 10, 20, 40)]
    assert tails == sorted(tails, reverse=True)


def test_dp_hitting_tail_matches_enumeration():
    # P(tau_m > N) telescopes the longest-run law
    assert dp_hitting_tail(SKEWED, 4, 12, mode="exact") == \
        longest_cdf_by_enumeration(SKEWED, 12, 4)
    assert dp_hitting_tail(SKEWED, 4, 3, mode="exact") == 1


def test_dp_budget_refusal():
    with pytest.raises(SizeError):
        dp_longest_cdf(THIRDS, 10 ** 6, 12, budget=10 ** 6)
    # raising the budget un-refuses
    v = dp_longest_cdf(THIRDS, 1000, 12, mode="float", budget=10 ** 8)
    assert 0 < v < 1
    # exact operands grow to ~N log2(d) bits, and the budget charges for them
    with pytest.raises(SizeError):
        dp_longest_cdf(THIRDS, 10 ** 5, 10, mode="exact")
    assert 0 < dp_longest_cdf(THIRDS, 10 ** 5, 10, mode="float") < 1


def test_dp_chain_is_minimal_size():
    # (L+1)^2 gap pairs for each L < m, less the L pairs a = b < L, which
    # would put both failure types at one position
    for m in range(2, 26):
        assert _dp_chain(m).shape[1] == m * (m + 1) * (2 * m + 1) // 6 - m * (m - 1) // 2


def test_dp_rejects_bad_mode():
    with pytest.raises(ValidationError):
        dp_longest_cdf(THIRDS, 10, 3, mode="rational")
