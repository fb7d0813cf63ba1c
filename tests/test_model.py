"""Domain types: distributions, constants, window validity."""
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import contamruns
from contamruns.model import (
    Outcome,
    TrialDistribution,
    ValidationError,
    check_window_length,
    derive_constants,
)

from crosscheck import is_window_valid, swapped

THIRDS = TrialDistribution(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
SKEWED = TrialDistribution(Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


def test_outcome_codes():
    assert int(Outcome.SUCCESS) == 0
    assert int(Outcome.FAIL_PLUS) == 1
    assert int(Outcome.FAIL_MINUS) == 2
    assert len(Outcome) == 3


@pytest.mark.parametrize("p,q1,q2", [
    (0.0, 0.5, 0.5),
    (0.5, 0.0, 0.5),
    (0.5, 0.5, 0.0),
    (0.5, -0.1, 0.6),
    (0.5, 0.3, 0.3),          # sums to 1.1
    (0.3, 0.3, 0.3),          # sums to 0.9
    # exact triples must sum to exactly 1, however close they come
    (Fraction(1, 3), Fraction(1, 3), Fraction(3333333333333333, 10 ** 16)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 10 ** 300)),
    (Fraction(1, 3), Fraction(10 ** 400), Fraction(1, 3)),  # past the double range
])
def test_distribution_rejects_bad_triples(p, q1, q2):
    with pytest.raises(ValidationError):
        TrialDistribution(p, q1, q2)


def test_distribution_accepts_float_and_fraction():
    d = TrialDistribution(0.5, 0.3, 0.2)
    assert not d.is_exact
    TrialDistribution(0.5, 0.5, 1e-300)  # floats keep the 1e-12 tolerance
    assert THIRDS.is_exact
    assert THIRDS.as_floats() == (pytest.approx(1 / 3), pytest.approx(1 / 3),
                                  pytest.approx(1 / 3))


def test_swapped_exchanges_failure_types():
    d = swapped(SKEWED)
    assert (d.p, d.q1, d.q2) == (Fraction(1, 2), Fraction(1, 5), Fraction(3, 10))


def test_constants_at_thirds_are_exact():
    c = derive_constants(THIRDS)
    assert c.C0 == Fraction(2, 3)
    assert c.C1 == Fraction(-1, 3)
    assert c.C2 == Fraction(-25, 12)
    assert c.C == pytest.approx(math.log(3), abs=0, rel=1e-15)
    assert c.K == pytest.approx(-3.41339709985064, rel=1e-12)


def test_k_matches_its_defining_quotient():
    for d in (THIRDS, SKEWED, TrialDistribution(0.8, 0.1, 0.1)):
        c = derive_constants(d)
        expected = float(2 * c.C0 * c.C2 - c.C1 * c.C1 - c.C0 * c.C0) / (
            2 * c.C * float(c.C0) ** 2)
        assert c.K == pytest.approx(expected, rel=1e-14)


def test_constants_symmetric_under_failure_swap():
    c1 = derive_constants(SKEWED)
    c2 = derive_constants(swapped(SKEWED))
    assert (c1.C0, c1.C1, c1.C2, c1.K) == (c2.C0, c2.C1, c2.C2, c2.K)


@pytest.mark.parametrize("window,valid", [
    ([0, 0, 0, 0], True),
    ([0, 1, 0, 0], True),
    ([0, 1, 0, 2], True),
    ([1, 2], True),
    ([1, 1], False),
    ([2, 0, 2], False),
    ([1, 2, 1], False),
])
def test_window_validity_examples(window, valid):
    assert is_window_valid(window) is valid


def test_window_validity_rejects_empty():
    with pytest.raises(ValidationError):
        is_window_valid([])


@given(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_window_validity_is_permutation_invariant(window, rng):
    shuffled = list(window)
    rng.shuffle(shuffled)
    assert is_window_valid(window) == is_window_valid(shuffled)


def test_check_window_length():
    assert check_window_length(3) == 3
    with pytest.raises(ValidationError):
        check_window_length(0)
    with pytest.raises(ValidationError):
        check_window_length(2, minimum=3)
    with pytest.raises(ValidationError):
        check_window_length(2.0)
    with pytest.raises(ValidationError):
        check_window_length(True)


def test_package_exports_functions_and_classes_only():
    # the submodules are reached as contamruns.<name>, not listed among the exports;
    # the references only the tests use live in tests/crosscheck.py; H(x) and the
    # accompanying value come from AccompanyingLaw, and the pre-expansion exponent
    # is alpha_correction(d, m).alpha * N * window_probability(d, m)
    moved = {"joint_survival_casewise", "enumerate_event", "longest_cdf_by_enumeration",
             "simulate_sequence", "is_window_valid", "swapped",
             "h_function_terms", "accompanying_cdf_details", "exponent_l"}
    assert not any(inspect.ismodule(getattr(contamruns, name)) for name in contamruns.__all__)
    assert moved.isdisjoint(contamruns.__all__)
    assert not hasattr(TrialDistribution, "swapped")
