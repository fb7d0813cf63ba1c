"""Property test of the command line: any argument vector exits 0-4 in time.

Integers reach +-10^350, floats include +-1e308, inf and nan, and the
probability triples include 1/10^300, 1 - 2/10^300 and garbage.  Each
call runs in-process under a hard deadline; an uncaught exception (a
traceback) fails the example.
"""
import contextlib
import io
import math
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contamruns.cli import main
from contamruns.files import write_empirical_csv
from contamruns.montecarlo import EmpiricalDistribution

DEADLINE_S = 20  # the slowest accepted calls (a DP at its budget) take ~2 s, the closed forms < 1 s
BIG = 10 ** 350
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


class Overdue(Exception):
    pass


def _alarm(signum, frame):
    raise Overdue(f"call took longer than {DEADLINE_S} s")


def call(argv: list[str]) -> int:
    """Exit code of one in-process CLI call under a hard deadline."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in range(5), f"exit code {code} for {argv}"
    return code


ints = st.one_of(st.integers(-5, 40), st.integers(-BIG, BIG),
                 st.sampled_from([0, 1, 2, 2 ** 63, 2 ** 1024, BIG, -BIG]))
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan, 0.0, 0.5]))
TINY = Fraction(1, 10 ** 300)
# (p, q1); q2 makes the triple sum to one, or a garbage string replaces it
PAIRS = [(Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2), Fraction(3, 10)),
         (Fraction(4, 5), Fraction(1, 10)), (Fraction(1, 2), Fraction(1, 2) - TINY),
         (Fraction(1, 2), TINY), (1 - 2 * TINY, TINY), (TINY, Fraction(1, 2)),
         (Fraction(1, 2), Fraction(1, 2))]
# triples off one by less than the float tolerance, 1e-12: as Fractions they are refused
NEAR = [("1/2", "0.5", "1e-300"), ("0.9999999999999", "1e-170", "1e-170"),
        ("0.9999999999999", "4e-14", "6e-14")]
garbage = st.sampled_from(["", "abc", "1/0", "-1", "nan", "inf", "1/10^300", "0x10",
                           "1e-99999999", "2", "0"]) | st.text(max_size=6)


@st.composite
def triples(draw):
    p, q1 = draw(st.sampled_from(PAIRS))
    values = list(draw(st.sampled_from([(str(p), str(q1), str(1 - p - q1)), *NEAR])))
    if draw(st.booleans()):
        values[draw(st.integers(0, 2))] = draw(garbage)
    return values


def flags(**values) -> list[str]:
    """--name value pairs for the values that are not None."""
    return [x for name, v in values.items() if v is not None for x in (f"--{name}", str(v))]


def maybe(strategy):
    return st.none() | strategy


@given(st.sampled_from(["pA1", "alpha", "mN", "H", "accompanying", "theorem1", "bounds",
                        "constants"]),
       triples(), maybe(ints), maybe(ints), maybe(floats.map(repr)), maybe(ints))
@FUZZ
def test_analytic_never_crashes(quantity, dist, m, N, x, k):
    p, q1, q2 = dist
    call(["analytic", quantity, *flags(p=p, q1=q1, q2=q2, m=m, N=N, x=x, k=k)])


@given(st.sampled_from(["longest-cdf", "hitting-tail", "conditional", "window"]),
       st.sampled_from(["exact", "float"]), triples(), maybe(ints), maybe(ints),
       st.sampled_from([None, "nan", "inf", "-inf", "-1", "0", "1e6", "1e9"]))
@FUZZ
def test_oracle_never_crashes(query, mode, dist, m, N, budget):
    if budget == "inf":  # a forced run takes as long as it is asked to (bignums included)
        m = None if m is None else min(abs(m), 10)
        N = None if N is None else min(abs(N), 60)
    p, q1, q2 = dist
    call(["oracle", query, "--mode", mode, *flags(p=p, q1=q1, q2=q2, m=m, N=N, budget=budget)])


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "small_empirical.csv"
    emp = EmpiricalDistribution(support=np.array([-1, 0, 2], dtype=np.int64),
                                weights=np.array([3, 5, 2], dtype=np.int64))
    write_empirical_csv(path, emp, {"mode": "longest", "p": "1/3", "q1": "1/3", "q2": "1/3",
                                    "N": 5000})
    return str(path)


@given(st.sampled_from([None, "exp1", "accompanying", "self", "/no/such.csv", "garbage"]),
       st.one_of(st.none(), triples()), maybe(ints))
@FUZZ
def test_compare_never_crashes(csv_path, ref, dist, N):
    p, q1, q2 = dist or (None, None, None)
    ref = csv_path if ref == "self" else ref
    call(["compare", csv_path, *flags(ref=ref, p=p, q1=q1, q2=q2, N=N)])


# Experiment sizes are kept tiny for run time, not to hide a defect: a
# legitimate experiment runs as long as its N, s and m ask for.
@given(st.sampled_from(["longest", "hitting"]), maybe(st.integers(0, 9)),
       st.sampled_from([None, 1e-6, 1e-5, 1e-4, 0.0, -1.0, 2.0, math.nan]),
       triples(), maybe(st.integers(-2, 400)), maybe(st.integers(-1, 4)),
       maybe(st.integers(-1, 9)), st.integers(1, 4), st.sampled_from([-1, 0, 7, BIG]))
@FUZZ
def test_experiment_never_crashes(tmp_path_factory, mode, figure, scale, dist, N, s, m,
                                  threads, seed):
    if figure is not None and scale is None:  # a preset runs at full size unless scaled
        scale = 1e-5
    p, q1, q2 = dist
    out = tmp_path_factory.mktemp("fuzz_out")
    call(["--out", str(out), "--threads", str(threads), "--seed", str(seed), "experiment",
          "--mode", mode, *flags(figure=figure, scale=scale, p=p, q1=q1, q2=q2, N=N, s=s, m=m)])
