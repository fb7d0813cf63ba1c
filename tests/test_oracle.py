"""Enumeration and DP oracles: internal consistency and exactness."""
import math
from fractions import Fraction

import numpy as np
import pytest

from contamruns.analytic import sandwich
from contamruns.model import TrialDistribution, ValidationError
from contamruns.oracle import (
    BUILD_COST,
    SizeError,
    _dp_chain,
    _dp_float,
    _dp_work,
    dp_longest_cdf,
)

from crosscheck import (
    _all_sequences,
    enumerate_conditional,
    enumerate_event,
    is_window_valid,
    joint_survival_by_enumeration,
    longest_cdf_by_enumeration,
    longest_run_distribution_by_enumeration,
    window_probability_by_enumeration,
)

THIRDS = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
SKEWED = TrialDistribution(Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
FIGURE_TRIPLES = (THIRDS,  # figures 1, 3 and 8
                  TrialDistribution(Fraction(1, 2), Fraction(2, 5), Fraction(1, 10)),
                  TrialDistribution(Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)))
# the q1 = q2 triples of the figure presets, which run on the lumped chain
SYMMETRIC_TRIPLES = (THIRDS,
                     TrialDistribution(Fraction(2, 5), Fraction(3, 10), Fraction(3, 10)),
                     TrialDistribution(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                     TrialDistribution(Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)),
                     TrialDistribution(Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)))


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


def test_dp_m1_is_zero_without_running_the_chain():
    # P(mu(N) < 1) = 0 for N >= 1, at any N and under any budget
    for d in (THIRDS, SKEWED):
        exact = dp_longest_cdf(d, 10 ** 6, 1, mode="exact")
        assert exact == 0 and isinstance(exact, Fraction)
        value = dp_longest_cdf(d, 10 ** 6, 1, mode="float", budget=1)
        assert value == 0.0 and isinstance(value, float)
    assert dp_longest_cdf(THIRDS, 10 ** 400, 1, mode="exact", budget=1) == 0


def test_dp_float_agrees_with_exact():
    for d, N, m in ((SKEWED, 50, 6), (THIRDS, 2000, 12)):
        exact = dp_longest_cdf(d, N, m, mode="exact")
        assert dp_longest_cdf(d, N, m, mode="float") == pytest.approx(
            float(exact), rel=1e-12)


def test_dp_cdf_monotone_in_m_and_n():
    vals = [float(dp_longest_cdf(THIRDS, 40, m)) for m in range(2, 9)]
    assert vals == sorted(vals)
    tails = [float(dp_longest_cdf(THIRDS, N, 5)) for N in (5, 10, 20, 40)]
    assert tails == sorted(tails, reverse=True)


def test_dp_hitting_tail_matches_enumeration():
    # P(tau_m > N) telescopes the longest-run law
    assert dp_longest_cdf(SKEWED, 12, 4, mode="exact") == \
        longest_cdf_by_enumeration(SKEWED, 12, 4)
    # no m-window fits in N < m trials
    assert dp_longest_cdf(SKEWED, 3, 4, mode="exact") == 1
    assert dp_longest_cdf(SKEWED, 3, 4, mode="float") == 1.0
    assert dp_longest_cdf(SKEWED, 3, 10 ** 6, budget=1) == 1.0


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
    # the budget is checked before the chain is built: at m = 1000 the
    # chain would have ~3.3e8 states
    with pytest.raises(SizeError):
        dp_longest_cdf(THIRDS, 10 ** 6, 240, mode="float")
    with pytest.raises(SizeError):
        dp_longest_cdf(THIRDS, 2000, 1000, mode="float")
    # each float step has a fixed cost: at m = 2 the 4 states are cheap,
    # the 10^7 steps are not.  Float mode stops once its bracket has
    # converged, so the N steps charged are an upper bound on its work
    with pytest.raises(SizeError):
        dp_longest_cdf(THIRDS, 10 ** 7, 2, mode="float")
    # work past the double range still makes a message (thirds at m = 10
    # runs on the 175-state lumped chain, .5/.3/.2 on the 340-state one)
    with pytest.raises(SizeError, match=r"~10\^303\.4 word"):
        dp_longest_cdf(THIRDS, 10 ** 300, 10, mode="float")
    with pytest.raises(SizeError, match=r"~10\^601\.2 word"):
        dp_longest_cdf(THIRDS, 10 ** 300, 10, mode="exact")
    with pytest.raises(SizeError, match=r"~10\^303\.5 word"):
        dp_longest_cdf(SKEWED, 10 ** 300, 10, mode="float")
    # weights over a ~1000-bit denominator make every product ~16x dearer
    tiny = TrialDistribution(Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10 ** 300),
                             Fraction(1, 10 ** 300))
    with pytest.raises(SizeError):
        dp_longest_cdf(tiny, 200, 10, mode="exact")
    # the exact (N=2000, m=12) case stays accepted
    assert 0 < dp_longest_cdf(THIRDS, 2000, 12, mode="exact") < 1


def test_dp_refuses_a_nan_budget():
    # work > nan is false, so a nan budget would admit a run of any size
    with pytest.raises(ValidationError, match="budget"):
        dp_longest_cdf(THIRDS, 20, 5, budget=math.nan)
    assert 0 < dp_longest_cdf(THIRDS, 20, 5, budget=math.inf) < 1


def test_dp_float_does_not_underflow():
    # f(0) would fall through the subnormal range: 3.177e-321 against
    # 3.187e-321 at N = 2120, and 1e-323 where the exact value is ~4e-1513
    for N in (2120, 10000):
        assert dp_longest_cdf(THIRDS, N, 3, mode="float") == \
            float(dp_longest_cdf(THIRDS, N, 3, mode="exact"))


def _float_bracket(dist, N, m):
    # the chain dp_longest_cdf builds: lumped when q1 = q2
    return _dp_float(_dp_chain(m, dist.q1 == dist.q2), np.array(dist.as_floats()), N)


def test_float_bracket_contains_exact_dp():
    # f_K(0) carries the rounding of the K steps taken, which the bracket
    # leaves out: each step rounds the three weights (u each) and their
    # three-term product (~3u), so the slack is 4 K u relative, u = 2^-53
    for dist in FIGURE_TRIPLES:
        for N, m in ((200, 6), (1000, 8), (2000, 12)):
            exact = float(dp_longest_cdf(dist, N, m, mode="exact", budget=math.inf))
            value, steps, lo, hi = _float_bracket(dist, N, m)
            slack = 4 * steps * 2.0 ** -53
            assert lo * (1 - slack) <= exact <= hi * (1 + slack), (dist, N, m)
            assert lo <= value <= hi


def test_float_dp_stops_at_convergence():
    # figure 8 at [m(N)]: the bracket reaches rounding noise near step 200
    # and then meets 2^-50 only by chance, so the stall rule stops it
    for dist, N, m, most_steps, width in ((THIRDS, 10 ** 5, 10, 199, 1e-9),
                                          (FIGURE_TRIPLES[2], 3 * 10 ** 6, 108, 300, 1e-8)):
        value, steps, lo, hi = _float_bracket(dist, N, m)
        assert steps <= most_steps, (dist, steps)
        assert 0 < lo <= value <= hi and hi - lo < width * value, dist
    # a forced run past the double range of step counts returns at once
    assert dp_longest_cdf(THIRDS, 10 ** 400, 10, budget=math.inf) == 0.0


def test_cfk_sandwich_at_the_paper_scale():
    # criterion 5 at thirds, N = 3e6, the paper's scale, where [m(N)] = 18:
    # the lemma's own bounds over the N - m + 1 windows, both of them below 1
    # (at m = 18 they are [0.218687, 0.218886] around 0.218783)
    N = 3 * 10 ** 6
    for m in range(16, 21):
        b = sandwich(THIRDS, m, N - m + 1)
        assert b.lower <= dp_longest_cdf(THIRDS, N, m, mode="float", budget=math.inf) <= b.upper
        assert b.upper < 1 and b.upper - b.lower < 1e-3, m


def test_dp_chain_is_minimal_size():
    # (L+1)^2 gap pairs for each L < m, less the L pairs a = b < L, which
    # would put both failure types at one position
    for m in range(2, 26):
        assert _dp_chain(m).shape[1] == m * (m + 1) * (2 * m + 1) // 6 - m * (m - 1) // 2


def test_lumped_dp_chain_size():
    # the lumped chain keeps one state of each mirror pair (L, a, b), (L, b, a),
    # and the m states a = b = L are their own mirrors
    for m in range(2, 26):
        assert 2 * _dp_chain(m, True).shape[1] == _dp_chain(m).shape[1] + m


def test_dp_work_charges_the_states_the_chain_builds():
    # with N = 0 the work is the build alone, BUILD_COST per state
    for symmetric in (False, True):
        for m in range(1, 31):
            assert _dp_work(0, m, None, symmetric) == BUILD_COST * _dp_chain(m, symmetric).shape[1]


def _exact_on_full_chain(dist, N, m):
    """P(mu(N) < m) by the integer recursion on the unlumped chain."""
    d = math.lcm(dist.p.denominator, dist.q1.denominator, dist.q2.denominator)
    weights = np.array([int(x * d) for x in (dist.p, dist.q1, dist.q2)], dtype=object)
    succ = _dp_chain(m, False)
    f = np.ones(succ.shape[1] + 1, dtype=object)
    f[-1] = 0
    for _ in range(N):
        f[:-1] = weights @ f[succ]
    return Fraction(f[0], d ** N)


def test_lumped_chain_exact_values_equal_the_full_chain():
    for dist in SYMMETRIC_TRIPLES:
        for N in (40, 100):
            for m in range(2, 13):
                assert dp_longest_cdf(dist, N, m, mode="exact") == \
                    _exact_on_full_chain(dist, N, m), (dist, N, m)
    assert dp_longest_cdf(THIRDS, 100, 10, mode="exact") == Fraction(
        157538194699726430057434651283137557079169642948,
        171792506910670443678820376588540424234035840667)
    # the full chain (q1 != q2)
    assert dp_longest_cdf(FIGURE_TRIPLES[1], 100, 10, mode="exact") == Fraction(
        2606557577954152953609558909113058265809393607508091,
        5902958103587056517120000000000000000000000000000000)


def test_all_sequences_rows_are_base3_digits():
    # row i holds the base-3 digits of i, most significant first
    for n in (1, 3, 7):
        codes = _all_sequences(n)
        assert codes.shape == (3 ** n, n) and codes.dtype == np.uint8
        assert (codes.astype(np.int64) @ 3 ** np.arange(n - 1, -1, -1) == np.arange(3 ** n)).all()


def test_dp_chain_is_closed_and_reachable():
    # a state formula is not closed or connected by construction: every
    # successor must be a state or the absorbing index S, and a walk from
    # (0, 0, 0) must reach all S states
    for symmetric in (False, True):
        for m in range(1, 26):
            succ = _dp_chain(m, symmetric)
            S = succ.shape[1]
            assert 0 <= succ.min() and succ.max() <= S
            reached = np.zeros(S + 1, dtype=bool)
            frontier = np.array([0])
            while frontier.size:
                reached[frontier] = True
                nxt = np.unique(succ[:, frontier])
                frontier = nxt[(nxt < S) & ~reached[nxt]]
            assert reached[:S].all(), (m, symmetric)


def test_dp_rejects_bad_mode():
    with pytest.raises(ValidationError):
        dp_longest_cdf(THIRDS, 10, 3, mode="rational")
