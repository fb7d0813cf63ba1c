"""File formats and the command-line surface."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import contamruns.analytic
from contamruns.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from contamruns.files import (
    FileFormatError,
    read_empirical_csv,
    write_empirical_csv,
    write_manifest,
)
from contamruns.montecarlo import EmpiricalDistribution


# --- CSV / manifest round trips ----------------------------------------------

def test_empirical_csv_round_trip_integers(tmp_path):
    emp = EmpiricalDistribution(support=np.array([-2, 0, 3], dtype=np.int64),
                                weights=np.array([5, 1, 94], dtype=np.int64))
    path = tmp_path / "emp.csv"
    write_empirical_csv(path, emp, {"mode": "longest", "seed": 7})
    back, meta = read_empirical_csv(path)
    assert np.array_equal(back.support, emp.support)
    assert np.array_equal(back.weights, emp.weights)
    assert back.total == 100
    assert np.issubdtype(back.support.dtype, np.integer)
    assert meta["mode"] == "longest" and meta["seed"] == "7"


def test_empirical_csv_round_trip_floats(tmp_path):
    emp = EmpiricalDistribution.from_samples([0.25, 0.25, 1.75])
    path = tmp_path / "emp.csv"
    write_empirical_csv(path, emp, {})
    back, _ = read_empirical_csv(path)
    assert np.array_equal(back.support, emp.support)
    assert np.array_equal(back.weights, emp.weights)
    # blank lines between the rows are skipped
    path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n"), encoding="utf-8")
    again, _ = read_empirical_csv(path)
    assert np.array_equal(again.support, emp.support)
    assert np.array_equal(again.weights, emp.weights)


@pytest.mark.parametrize("body,bad_line", [
    ("value,count\n1,2\n", 1),
    ("value,count,ecdf\n1,2\n", 2),
    ("value,count,ecdf\n1,x,0.5\n", 2),
    ("value,count,ecdf\n2,1,0.5\n1,1,1.0\n", None),  # non-increasing support
    ("# only=metadata\n", None),                      # no header at all
    ("value,count,ecdf\n1,1,0.5\ninf,1,1.0\n", 3),     # non-finite values
    ("value,count,ecdf\nnan,1,1.0\n", 2),
    ("value,count,ecdf\n-inf,1,0.5\n1,1,1.0\n", 2),
    ("value,count,ecdf\n1,-1,0.5\n2,1,1.0\n", 2),     # counts below 1
    ("value,count,ecdf\n1,2,0.5\n2,0,1.0\n", 3),
    ("value,count,ecdf\n1,1,0.5\n9223372036854775808,1,1.0\n", 3),  # past int64
    ("value,count,ecdf\n-9223372036854775809,1,1.0\n", 2),
    ("value,count,ecdf\n1,9223372036854775808,1.0\n", None),
    ("\xff\xfevalue,count,ecdf\n1,1,1.0\n", 1),  # not UTF-8
    ("value,count,ecdf\n1,1,0.5\n2,1,1.0\xe9\n", 3),
    ("\xef\xbb\xbfvalue,count,ecdf\n1,1,0.5\n2,1,1.0\xe9\n", 3),  # after a byte-order mark
    ("value,count,ecdf\n1,1,1.0\n# late=1\n", 3),   # metadata after data rows
    ("value,count,ecdf\n", 1),                        # a header with no rows
])
def test_malformed_csv_raises_with_line(tmp_path, body, bad_line):
    path = tmp_path / "bad.csv"
    path.write_bytes(body.encode("latin-1"))  # one byte per character
    with pytest.raises(FileFormatError) as exc:
        read_empirical_csv(path)
    if bad_line is not None:
        assert exc.value.line == bad_line


def test_manifest_round_trip(tmp_path):
    manifest = {"config": {"mode": "hitting", "p": "1/3", "q1": "1/3", "q2": "1/3",
                           "N": None, "s": 10, "m": 8, "seed": 5, "scale": 1.0},
                "tool_version": "0.1.0", "rng_scheme": "pcg64-seedseq-spawnkey-invcdf-v1",
                "wall_time_s": 0.5, "excluded": 0, "outputs": {"empirical": "a.csv"}}
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == manifest
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


# --- CLI ------------------------------------------------------------------

def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analytic_pa1(capsys):
    code, out, _ = run_cli(capsys, "--json", "analytic", "pA1",
                           "--p", "1/3", "--q1", "1/3", "--q2", "1/3", "--m", "3")
    assert code == 0
    assert json.loads(out)["pA1"] == pytest.approx(13 / 27, rel=1e-12)


def test_analytic_constants(capsys):
    code, out, _ = run_cli(capsys, "--json", "analytic", "constants",
                           "--p", "1/3", "--q1", "1/3", "--q2", "1/3")
    assert code == 0
    assert json.loads(out)["C0"] == pytest.approx(2 / 3, rel=1e-15)


def test_analytic_theorem1(capsys):
    code, out, _ = run_cli(capsys, "--json", "analytic", "theorem1",
                           "--x", "0.693147")
    assert code == 0
    assert json.loads(out)["cdf"] == pytest.approx(0.5, abs=1e-6)


def test_analytic_theorem1_refuses_nan(capsys):
    code, _, err = run_cli(capsys, "analytic", "theorem1", "--x", "nan")
    assert code == EXIT_VALIDATION
    assert "x must be a number" in err
    code, out, _ = run_cli(capsys, "analytic", "theorem1", "--x", "inf")
    assert code == 0 and out.strip().endswith("-> 1.0")


def test_json_and_human_values_agree(capsys):
    _, human, _ = run_cli(capsys, "analytic", "alpha",
                          "--p", "1/3", "--q1", "1/3", "--q2", "1/3", "--m", "10")
    _, machine, _ = run_cli(capsys, "--json", "analytic", "alpha",
                            "--p", "1/3", "--q1", "1/3", "--q2", "1/3", "--m", "10")
    alpha = json.loads(machine)["alpha"]
    assert f"{alpha:.9g}" in human
    assert alpha == pytest.approx(659 / 1332, rel=1e-15)


def test_oracle_exact_fraction(capsys):
    code, out, _ = run_cli(capsys, "--json", "oracle", "longest-cdf",
                           "--p", "1/3", "--q1", "1/3", "--q2", "1/3",
                           "--N", "5", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert "/" in payload["exact"]
    assert 0 < payload["value"] < 1


def test_exit_code_usage(capsys):
    code, _, err = run_cli(capsys, "analytic", "pA1",
                           "--p", "1/3", "--q1", "1/3", "--q2", "1/3")
    assert code == EXIT_USAGE and "--m" in err
    code, _, _ = run_cli(capsys, "analytic", "nonsense")
    assert code == EXIT_USAGE


def test_exit_code_validation(capsys):
    code, _, err = run_cli(capsys, "analytic", "pA1",
                           "--p", "0.9", "--q1", "0.3", "--q2", "0.2", "--m", "3")
    assert code == EXIT_VALIDATION


def test_exit_code_budget(capsys):
    # 60000 windows of thirds need p^m with 120000 bits, past EXACT_MAX_BITS
    code, _, err = run_cli(capsys, "oracle", "conditional",
                           "--p", "1/3", "--q1", "1/3", "--q2", "1/3", "--m", "60000")
    assert code == EXIT_BUDGET and "exact closed forms at m=60000" in err


@pytest.mark.parametrize("query,m,exact", [("conditional", 8, "72086/159651"),
                                           ("window", 15, "241/14348907")])
def test_oracle_window_and_conditional_answer_past_small_m(capsys, query, m, exact):
    # the closed forms answer for every m the exact-size cap admits
    code, out, _ = run_cli(capsys, "--json", "oracle", query, *THIRDS_ARGS, "--m", str(m))
    assert code == 0 and json.loads(out)["exact"] == exact
    code, out, _ = run_cli(capsys, "oracle", query, *THIRDS_ARGS, "--m", str(m))
    assert code == 0 and f" = {exact} ~ " in out


@pytest.mark.parametrize("dist_args,m", [
    (("--p", "0.999998", "--q1", "0.000001", "--q2", "0.000001"), 100),  # alpha = -2.25e-6
    (("--p", "0.57", "--q1", "0.215", "--q2", "0.215"), 2),              # alpha = -0.22
])
def test_analytic_alpha_refuses_a_rate_outside_the_unit_interval(capsys, dist_args, m):
    code, out, err = run_cli(capsys, "analytic", "alpha", *dist_args, "--m", str(m))
    assert code == EXIT_VALIDATION and out == "" and "leaves (0, 1]" in err
    code, out, _ = run_cli(capsys, "--json", "analytic", "alpha", *THIRDS_ARGS, "--m", "10")
    assert code == 0 and json.loads(out)["alpha"] == pytest.approx(659 / 1332, rel=1e-15)


def test_exit_code_io(capsys):
    code, _, err = run_cli(capsys, "compare", "/no/such/file.csv")
    assert code == EXIT_IO


def test_experiment_writes_all_outputs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--json", "--seed", "5",
                           "--out", str(tmp_path), "experiment",
                           "--mode", "longest", "--p", "1/3", "--q1", "1/3",
                           "--q2", "1/3", "--N", "2000", "--s", "50")
    assert code == 0
    payload = json.loads(out)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert [n.rsplit("_", 1)[1] for n in written] == [
        "empirical.csv", "manifest.json", "reference.csv", "report.json"]
    emp, meta = read_empirical_csv(payload["outputs"]["empirical"])
    assert emp.total == 50
    assert meta["rng_scheme"] == "pcg64-seedseq-spawnkey-invcdf-v1"
    report = _read_json(payload["outputs"]["report"])
    assert report["sup_distance"] == payload["sup_distance"]
    assert set(_read_json(payload["manifest"])) == {
        "config", "excluded", "outputs", "rng_scheme", "tool_version", "wall_time_s"}


def test_experiment_reproducible_from_manifest(capsys, tmp_path):
    args = ["--seed", "21", "experiment", "--mode", "hitting", "--p", "1/3",
            "--q1", "1/3", "--q2", "1/3", "--N", "1", "--s", "20", "--m", "6"]
    run_cli(capsys, "--out", str(tmp_path / "a"), *args)
    cfg = _read_json(next((tmp_path / "a").glob("*_manifest.json")))["config"]
    assert cfg["N"] is None  # a hitting run has no N to rerun with
    # the thread count is not recorded: it must not change the output
    run_cli(capsys, "--out", str(tmp_path / "b"), "--threads", "2", "--seed", str(cfg["seed"]),
            "experiment", "--mode", cfg["mode"], "--p", cfg["p"], "--q1", cfg["q1"],
            "--q2", cfg["q2"], "--s", str(cfg["s"]), "--m", str(cfg["m"]))
    for output in ("*_empirical.csv", "*_report.json"):
        first = next((tmp_path / "a").glob(output)).read_bytes()
        second = next((tmp_path / "b").glob(output)).read_bytes()
        assert first == second, output


def test_experiment_scale_recorded(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "--out", str(tmp_path), "experiment",
                         "--figure", "1", "--scale", "0.001")
    assert code == 0
    config = _read_json(next(tmp_path.glob("*_manifest.json")))["config"]
    assert config["scale"] == 0.001
    assert config["N"] == 3000 and config["s"] == 3


def test_compare_file_against_itself(capsys, tmp_path):
    run_cli(capsys, "--out", str(tmp_path), "experiment", "--mode", "longest",
            "--p", "1/3", "--q1", "1/3", "--q2", "1/3", "--N", "1000", "--s", "30")
    emp = str(next(tmp_path.glob("*_empirical.csv")))
    code, out, _ = run_cli(capsys, "--json", "compare", emp, "--ref", emp)
    assert code == 0
    assert json.loads(out)["sup_distance"] == 0.0


def test_compare_against_accompanying_uses_metadata(capsys, tmp_path):
    run_cli(capsys, "--out", str(tmp_path), "experiment", "--mode", "longest",
            "--p", "1/3", "--q1", "1/3", "--q2", "1/3", "--N", "5000", "--s", "40")
    emp = str(next(tmp_path.glob("*_empirical.csv")))
    code, out, _ = run_cli(capsys, "--json", "compare", emp, "--ref", "accompanying")
    assert code == 0
    payload = json.loads(out)
    assert 0 <= payload["sup_distance"] <= 1
    assert all({"value", "ecdf", "reference_cdf"} <= set(row) for row in payload["table"])


def test_compare_reads_a_csv_that_starts_with_a_byte_order_mark(capsys, tmp_path):
    # as spreadsheet programs write UTF-8: the mark before the header or a metadata line
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfvalue,count,ecdf\n1,1,1.0\n")
    code, _, err = run_cli(capsys, "compare", str(path), "--ref", "exp1")
    assert code == 0, err
    path.write_bytes(b"\xef\xbb\xbf# mode=hitting\nvalue,count,ecdf\n1,1,1.0\n")
    code, out, err = run_cli(capsys, "--json", "compare", str(path))
    assert code == 0, err
    assert json.loads(out)["reference"] == "exp1"  # the law of the mode read from line 1


def test_compare_refuses_a_csv_that_is_not_utf8(capsys, tmp_path):
    binary = tmp_path / "bin.csv"
    binary.write_bytes(b"\xff\xfevalue,count,ecdf\n1,1,1.0\n")
    good = tmp_path / "good.csv"
    good.write_text("value,count,ecdf\n1,1,1.0\n", encoding="utf-8")
    for argv in ((str(binary),), (str(good), "--ref", str(binary))):
        code, _, err = run_cli(capsys, "compare", *argv)
        assert code == EXIT_VALIDATION
        assert err.startswith("parse error: line 1:") and "UTF-8" in err


@pytest.mark.parametrize("body", [b"", b"\xef\xbb\xbf"])  # nothing, or a byte-order mark only
def test_compare_reports_an_empty_csv_without_a_line_number(capsys, tmp_path, body):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(body)
    with pytest.raises(FileFormatError) as exc:
        read_empirical_csv(empty)
    assert exc.value.line is None
    code, _, err = run_cli(capsys, "compare", str(empty))
    assert code == EXIT_VALIDATION
    assert err == "parse error: empty file\n"


# --- exact values past the digit limit, size cap, measured eps ------------------

THIRDS_ARGS = ("--p", "1/3", "--q1", "1/3", "--q2", "1/3")


def test_oracle_exact_past_digit_limit_prints_float(capsys):
    # the exact denominators have more digits than Python converts to str
    code, out, _ = run_cli(capsys, "--json", "oracle", "longest-cdf", *THIRDS_ARGS,
                           "--N", "10000", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert "exact" not in payload and payload["value"] == 0.0  # true value ~4e-1513
    code, out, _ = run_cli(capsys, "--json", "oracle", "longest-cdf", "--p", "0.334",
                           "--q1", "0.333", "--q2", "0.333", "--N", "1500", "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert "exact" not in payload and 0 < payload["value"] < 1
    code, out, _ = run_cli(capsys, "oracle", "longest-cdf", *THIRDS_ARGS,
                           "--N", "10000", "--m", "3")
    assert code == 0 and "too long to print" in out


def test_analytic_pa1_past_digit_limit(capsys):
    code, out, _ = run_cli(capsys, "--json", "analytic", "pA1", *THIRDS_ARGS, "--m", "20000")
    assert code == 0 and json.loads(out)["pA1"] == 0.0
    code, out, _ = run_cli(capsys, "analytic", "pA1", *THIRDS_ARGS, "--m", "20000")
    assert code == 0 and "too long to print" in out


def test_huge_window_is_refused(capsys):
    for query in ("pA1", "bounds"):
        code, _, err = run_cli(capsys, "analytic", query, *THIRDS_ARGS,
                               "--m", "1000000", "--N", "1000")
        assert code == EXIT_BUDGET and "cap" in err


def test_exact_size_refusal_gives_advice_the_cli_can_follow(capsys, tmp_path):
    # parse_prob makes every probability a Fraction, so a CLI user cannot pass floats
    dist = ("--p", "0.3333333", "--q1", "0.3333333", "--q2", "0.3333334")
    for argv in (("analytic", "pA1", *dist, "--m", "5000"),
                 ("analytic", "bounds", *dist, "--m", "5000", "--N", "10000"),
                 ("--out", str(tmp_path), "experiment", "--mode", "hitting", *dist,
                  "--m", "5000", "--s", "1")):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_BUDGET and "smaller m" in err and "fewer digits" in err, err
        assert "float" not in err


def test_bounds_eps_is_the_smallest_the_lemma_allows(capsys):
    def bounds(m):
        code, out, _ = run_cli(capsys, "--json", "analytic", "bounds", *THIRDS_ARGS,
                               "--m", str(m), "--N", "1000000")
        assert code == 0
        return json.loads(out)

    # m P(A1) from hypotheses (ii) and (iii), larger than the discrepancy 3.6e-19 of (i)
    at40 = bounds(40)
    assert at40["eps"] == pytest.approx(5.3990628563562815e-15, rel=1e-9, abs=0)
    assert at40["eps"] == 40 * at40["pA1"]
    far = bounds(300)
    assert far["eps"] > 0 and not far["degenerate"]
    underflow = bounds(1000)  # P(A1) ~ 3^-1000 < 5e-324
    assert underflow["eps"] == 0.0 and underflow["degenerate"]
    _, human, _ = run_cli(capsys, "analytic", "bounds", *THIRDS_ARGS,
                          "--m", "1000", "--N", "1000000")
    assert "degenerate" in human


@pytest.mark.parametrize("m", [3, 4, 8, 9])
def test_bounds_refuses_where_the_lemma_does_not_apply(capsys, m):
    # at thirds m P(A1) >= 1/42 up to m = 9 (0.0416), so no eps meets the hypotheses
    code, _, err = run_cli(capsys, "analytic", "bounds", *THIRDS_ARGS,
                           "--m", str(m), "--N", "100")
    assert code == EXIT_VALIDATION
    assert f"m={m}" in err and "eps = " in err and "min(p/10, 1/42) = 0.0238" in err, err


def test_bounds_evaluates_alpha_and_the_window_probability_once(capsys, monkeypatch):
    calls = []
    for name in ("alpha_correction", "window_probability"):
        fn = getattr(contamruns.analytic, name)
        monkeypatch.setattr(contamruns.analytic, name,
                            lambda d, m, fn=fn, name=name: calls.append(name) or fn(d, m))
    code, _, _ = run_cli(capsys, "analytic", "bounds", *THIRDS_ARGS, "--m", "10", "--N", "10000")
    assert code == 0 and sorted(calls) == ["alpha_correction", "window_probability"]


# --- compare without metadata, hitting refusals, one reference path -------------

def test_compare_takes_missing_parameters_from_flags_or_refuses(capsys, tmp_path):
    body = "value,count,ecdf\n-1,2,0.5\n0,2,1.0\n"
    bare = tmp_path / "nometa.csv"
    bare.write_text(body, encoding="utf-8")
    code, _, err = run_cli(capsys, "compare", str(bare))
    assert code == EXIT_USAGE and "--p" in err
    no_n = tmp_path / "non.csv"
    no_n.write_text("# p=1/3\n# q1=1/3\n# q2=1/3\n" + body, encoding="utf-8")
    code, _, err = run_cli(capsys, "compare", str(no_n))
    assert code == EXIT_USAGE and "--N" in err
    bad_n = tmp_path / "badn.csv"
    bad_n.write_text("# p=1/3\n# q1=1/3\n# q2=1/3\n# N=x\n" + body, encoding="utf-8")
    code, _, err = run_cli(capsys, "compare", str(bad_n))
    assert code == EXIT_VALIDATION and "N" in err
    code, out, _ = run_cli(capsys, "--json", "compare", str(no_n), "--N", "5000")
    assert code == 0
    with_flags = json.loads(out)
    code, out, _ = run_cli(capsys, "--json", "compare", str(bare), *THIRDS_ARGS, "--N", "5000")
    assert code == 0 and json.loads(out) == with_flags
    # the exp1 and CSV references need no parameters
    code, _, _ = run_cli(capsys, "compare", str(bare), "--ref", "exp1")
    assert code == 0
    code, out, _ = run_cli(capsys, "--json", "compare", str(bare), "--ref", str(bare))
    assert code == 0 and json.loads(out)["sup_distance"] == 0.0


@pytest.mark.parametrize("dist_args,m,exit_code", [
    (THIRDS_ARGS, 1000, EXIT_BUDGET),  # alpha * P(A1) underflows to 0.0
    (THIRDS_ARGS, 25, EXIT_BUDGET),    # expected tau ~ 2.2e9 symbols, past the cap
    (("--p", "0.999998", "--q1", "0.000001", "--q2", "0.000001"), 100,
     EXIT_VALIDATION),                 # alpha < 0
])
def test_hitting_experiment_refused_before_drawing(capsys, tmp_path, dist_args, m, exit_code):
    code, _, err = run_cli(capsys, "--out", str(tmp_path), "experiment", "--mode", "hitting",
                           *dist_args, "--N", "1", "--s", "1", "--m", str(m))
    assert code == exit_code and "alpha" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode_args", [
    ("--mode", "longest", "--N", "5000", "--s", "60"),
    ("--mode", "hitting", "--N", "1", "--s", "60", "--m", "8"),
])
def test_experiment_report_equals_compare_on_its_csv(capsys, tmp_path, mode_args):
    code, out, _ = run_cli(capsys, "--json", "--seed", "3", "--out", str(tmp_path),
                           "experiment", *THIRDS_ARGS, *mode_args)
    assert code == 0
    outputs = json.loads(out)["outputs"]
    report = json.loads(open(outputs["report"], encoding="utf-8").read())
    with open(outputs["reference"], encoding="utf-8") as f:
        rows = [line.strip().split(",") for line in f if not line.startswith("#")][1:]
    code, out, _ = run_cli(capsys, "--json", "compare", outputs["empirical"])
    assert code == 0
    compared = json.loads(out)
    assert compared["reference"] == report["reference"]
    assert compared["sup_distance"] == report["sup_distance"]
    assert [float(c) for _, c in rows] == [row["reference_cdf"] for row in compared["table"]]


# --- ordinary inputs that must not crash ----------------------------------------

@pytest.mark.parametrize("N", ["0", "-3"])
def test_hitting_tail_rejects_nonpositive_n(capsys, N):
    for query in ("hitting-tail", "longest-cdf"):
        code, _, err = run_cli(capsys, "oracle", query, *THIRDS_ARGS, "--m", "5", "--N", N)
        assert code == EXIT_VALIDATION and "N must be >= 1" in err


def test_hitting_tail_is_the_longest_run_cdf(capsys):
    def value(query, N):
        code, out, _ = run_cli(capsys, "--json", "oracle", query, *THIRDS_ARGS,
                               "--m", "5", "--N", str(N))
        assert code == 0
        return json.loads(out)
    assert value("hitting-tail", 3) == {"value": 1.0, "exact": "1/1"}
    assert value("hitting-tail", 30) == value("longest-cdf", 30)


@pytest.mark.parametrize("m,N", [(10, 1), (10, 60), (12, 40)])
def test_bounds_upper_is_capped_at_one(capsys, m, N):
    # with few windows 2m P(A1) outweighs (alpha - 10 eps) N P(A1): the upper exponent is positive
    code, out, _ = run_cli(capsys, "--json", "analytic", "bounds", *THIRDS_ARGS,
                           "--m", str(m), "--N", str(N))
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == 1.0 and 0 <= payload["lower"] < 1


# --- inputs past the double range, the DP budget, the thread cap ----------------

BIG = str(10 ** 350)
TINY_Q2_ARGS = ("--p", "1/2", "--q1", "0.4" + "9" * 299, "--q2", "1e-300")  # sums to exactly 1


@pytest.mark.parametrize("argv,names", [
    (("accompanying", *THIRDS_ARGS, "--N", "100000", "--k", BIG), "k"),
    (("accompanying", *THIRDS_ARGS, "--N", "100000", "--k", "-" + BIG), "k"),
    (("bounds", *THIRDS_ARGS, "--m", "10", "--N", BIG), "N"),
    (("H", *THIRDS_ARGS, "--N", "100000", "--x", "1e308"), "x"),
    (("H", *THIRDS_ARGS, "--N", "100000", "--x", "inf"), "x"),
    (("constants", *TINY_Q2_ARGS), "q2"),   # K ~ -1e600
    (("mN", *TINY_Q2_ARGS, "--N", "1000"), "q2"),
    (("constants", "--p", "0.99999999999999999999", "--q1", "5e-21", "--q2", "5e-21"),
     "p is too close"),  # float(p) == 1.0, so C = ln(1/p) = 0
])
def test_out_of_range_inputs_are_refused_by_name(capsys, argv, names):
    code, _, err = run_cli(capsys, "analytic", *argv)
    assert code == EXIT_VALIDATION and names in err


@pytest.mark.parametrize("query", ["window", "pA1"])
def test_an_exact_triple_must_sum_to_exactly_one(capsys, query):
    # within 1e-12 of one, yet the enumeration and the closed form printed two
    # different "exact" values for it
    command = ("oracle",) if query == "window" else ("analytic",)
    code, _, err = run_cli(capsys, *command, query, "--p", "1/3", "--q1", "1/3",
                           "--q2", "0.3333333333333333", "--m", "3")
    assert code == EXIT_VALIDATION and "must equal 1" in err


@pytest.mark.parametrize("dist_args,message", [
    (("--p", "1e5000", "--q1", "1/3", "--q2", "1/3"), "p must be < 1, got 10^5000.0"),
    (("--p", "1/3", "--q1", "1e400", "--q2", "1/3"), "must equal 1, got 1 + (10^400.0)"),
    (("--p", "1/3", "--q1=-1e-5000", "--q2", "1/3"), "q1 must be > 0, got -0.0"),
    (("--p=-1e5000", "--q1", "1/3", "--q2", "1/3"), "p must be > 0, got -10^5000.0"),
])
def test_probabilities_past_the_double_range_are_refused_by_name(capsys, dist_args, message):
    # their str() passes the int-to-str digit limit, or float() overflows
    code, _, err = run_cli(capsys, "analytic", "pA1", *dist_args, "--m", "3")
    assert code == EXIT_VALIDATION and message in err, err


def test_huge_n_and_tiny_probabilities_give_finite_values(capsys):
    def value(*argv):
        code, out, err = run_cli(capsys, "--json", "analytic", *argv)
        assert code == 0, err
        return json.loads(out)

    # m(N) = log N + 2 loglog N + O(loglog N / log N), logs base 3; log N = 733.57
    lN = math.log(10 ** 350, 3)
    assert value("mN", *THIRDS_ARGS, "--N", BIG)["total"] == pytest.approx(
        lN + 2 * math.log(lN, 3), abs=0.05)
    assert math.isfinite(value("H", *THIRDS_ARGS, "--N", BIG, "--x", "0.5")["total"])
    assert 0 < value("accompanying", *THIRDS_ARGS, "--N", BIG, "--k", "2")["cdf"] < 1
    # alpha needs no K: both its parts are near 1e298, their quotient 4/11
    alpha = value("alpha", *TINY_Q2_ARGS, "--m", "10")
    assert alpha["alpha"] == pytest.approx(4 / 11, rel=1e-12)
    assert alpha["numerator"] == pytest.approx(2e299 / 9, rel=1e-12)
    bounds = value("bounds", *TINY_Q2_ARGS, "--m", "14", "--N", "1000")
    assert 0 < bounds["lower"] <= bounds["upper"] <= 1
    code, _, err = run_cli(capsys, "analytic", "bounds", *TINY_Q2_ARGS, "--m", "10", "--N", "1000")
    assert code == EXIT_VALIDATION and "m=10" in err  # m P(A1) = 0.107


def test_oracle_m1_answers_without_the_chain(capsys):
    # P(mu(N) < 1) = 0: no budget refusal, however large N is
    for mode, payload in (("float", {"value": 0.0}), ("exact", {"exact": "0/1", "value": 0.0})):
        code, out, _ = run_cli(capsys, "--json", "oracle", "longest-cdf", *THIRDS_ARGS,
                               "--N", "1000000", "--m", "1", "--mode", mode)
        assert code == 0 and json.loads(out) == payload


def test_nan_budget_is_refused(capsys):
    code, _, err = run_cli(capsys, "oracle", "longest-cdf", *THIRDS_ARGS,
                           "--N", "20", "--m", "5", "--budget", "nan")
    assert code == EXIT_VALIDATION and "budget" in err
    code, _, _ = run_cli(capsys, "oracle", "longest-cdf", *THIRDS_ARGS,
                         "--N", "20", "--m", "5", "--budget", "inf")
    assert code == 0


def test_thread_count_is_capped_before_any_thread_starts(capsys, tmp_path):
    for threads in ("1000000", "0", "-1"):
        code, _, err = run_cli(capsys, "--threads", threads, "--out", str(tmp_path),
                               "experiment", *THIRDS_ARGS, "--N", "200", "--s", "2")
        assert code == EXIT_VALIDATION and "--threads" in err
        assert list(tmp_path.iterdir()) == []
    code, _, _ = run_cli(capsys, "--threads", "8", "--out", str(tmp_path),
                         "experiment", *THIRDS_ARGS, "--N", "200", "--s", "2")
    assert code == 0


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# --- output names -----------------------------------------------------------------

@pytest.mark.parametrize("first,second", [
    (("experiment", "--mode", "hitting", *THIRDS_ARGS, "--s", "5", "--m", "5"),
     ("experiment", "--mode", "hitting", *THIRDS_ARGS, "--s", "5", "--m", "6")),
    (("experiment", "--p", "0.5", "--q1", "0.3", "--q2", "0.2", "--N", "2000", "--s", "5"),
     ("experiment", "--p", "0.5", "--q1", "0.25", "--q2", "0.25", "--N", "2000", "--s", "5")),
    (("--seed", "1", "experiment", *THIRDS_ARGS, "--N", "2000", "--s", "5"),
     ("--seed", "2", "experiment", *THIRDS_ARGS, "--N", "2000", "--s", "5")),
])
def test_runs_that_differ_in_results_write_different_files(capsys, tmp_path, first, second):
    outputs = []
    for argv in (first, second):
        code, out, _ = run_cli(capsys, "--json", "--out", str(tmp_path), *argv)
        assert code == 0
        outputs.append(json.loads(out)["outputs"])
    assert len(list(tmp_path.iterdir())) == 8
    assert all(outputs[0][name] != outputs[1][name] for name in outputs[0])


def test_names_past_the_file_name_limit_are_refused_before_the_run(capsys, tmp_path):
    code, _, err = run_cli(capsys, "--seed", str(10 ** 250), "--out", str(tmp_path),
                           "experiment", *THIRDS_ARGS, "--N", "2000", "--s", "5")
    assert code == EXIT_VALIDATION and "--seed" in err
    assert list(tmp_path.iterdir()) == []


def test_hitting_experiment_needs_no_n(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--json", "--out", str(tmp_path), "experiment",
                           "--mode", "hitting", *THIRDS_ARGS, "--s", "5", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert _read_json(payload["manifest"])["config"]["N"] is None
    _, meta = read_empirical_csv(payload["outputs"]["empirical"])
    assert meta["N"] == "" and meta["m"] == "5"
    # the longest-run law needs N
    code, _, err = run_cli(capsys, "--out", str(tmp_path), "experiment", *THIRDS_ARGS,
                           "--s", "5")
    assert code == EXIT_USAGE and "--N" in err


def test_hitting_runs_record_no_n(capsys, tmp_path):
    # the figure preset's N (or --N) does not bound a hitting run, so it is not recorded
    code, out, _ = run_cli(capsys, "--json", "--out", str(tmp_path), "experiment",
                           "--mode", "hitting", "--figure", "1", "--m", "10", "--s", "30")
    assert code == 0
    payload = json.loads(out)
    assert _read_json(payload["manifest"])["config"]["N"] is None
    with open(payload["outputs"]["empirical"], encoding="utf-8") as f:
        assert "# N=\n" in f.readlines()


def test_hitting_run_with_every_repetition_capped_is_refused(capsys, tmp_path, monkeypatch):
    # at thirds, m = 8, the expected hitting time is 199.3 symbols: under the
    # cap of 200, so the run starts, but some repetitions pass the cap
    monkeypatch.setattr("contamruns.montecarlo.HITTING_SAFETY_CAP", 200)
    argv = ("--mode", "hitting", *THIRDS_ARGS, "--m", "8")
    for seed in ("0", "3"):  # the one repetition of each seed is capped
        code, _, err = run_cli(capsys, "--seed", seed, "--out", str(tmp_path / "none"),
                               "experiment", *argv, "--s", "1")
        assert code == EXIT_BUDGET and "cap of 200 symbols" in err
        assert list(tmp_path.iterdir()) == []
    # with some repetitions left, the capped ones are counted as excluded
    code, out, err = run_cli(capsys, "--json", "--seed", "0", "--out", str(tmp_path / "some"),
                             "experiment", *argv, "--s", "10")
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["samples"], payload["excluded"]) == (6, 4)
    assert _read_json(payload["manifest"])["excluded"] == 4


# --- where a missing input comes from: flags first, then presets or metadata -------

def test_flags_override_the_figure_preset(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--json", "--out", str(tmp_path), "experiment",
                           "--figure", "1", "--scale", "0.001",
                           "--p", "0.5", "--q1", "0.3", "--q2", "0.2")
    assert code == 0
    name = "longest_p0.5_q10.3_q20.2_N3000_s3_seed20240817_empirical.csv"
    assert json.loads(out)["outputs"]["empirical"] == str(tmp_path / name)
    # the preset fills only what the flags leave unset
    code, out, _ = run_cli(capsys, "--json", "--out", str(tmp_path), "experiment",
                           "--mode", "hitting", "--figure", "1", "--scale", "0.001", "--m", "12")
    assert code == 0
    config = _read_json(json.loads(out)["manifest"])["config"]
    assert (config["p"], config["m"], config["s"]) == ("1/3", 12, 3)


@pytest.mark.parametrize("argv,name", [
    (("--figure", "9", "--scale", "0.001"), "--figure"),
    (("--mode", "hitting", *THIRDS_ARGS, "--s", "5"), "--m"),
])
def test_missing_or_unknown_experiment_inputs_are_usage_errors(capsys, tmp_path, argv, name):
    code, _, err = run_cli(capsys, "--out", str(tmp_path), "experiment", *argv)
    assert code == EXIT_USAGE and name in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode_args", [
    ("--N", "200", "--s", "2"),
    ("--mode", "hitting", "--m", "5", "--s", "2"),
])
@pytest.mark.parametrize("top,extra,named", [
    (("--seed", "-1"), (), "seed=-1"),
    ((), ("--s", "0"), "s=0"),
    ((), ("--scale", "0"), "--scale"),
    ((), ("--scale", "1.5"), "--scale"),
])
def test_negative_seed_or_no_repetitions_is_refused_by_name(capsys, tmp_path, mode_args,
                                                          top, extra, named):
    # the runner refuses it, and --out is not left behind
    code, _, err = run_cli(capsys, *top, "--out", str(tmp_path / "out"), "experiment",
                           *THIRDS_ARGS, *mode_args, *extra)
    assert code == EXIT_VALIDATION and named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode_args", [
    # one result slot per repetition: 10^14 slots take 800 TB, past any
    # machine's memory and past the 128 TiB a process can address
    ("--N", "10", "--s", str(10 ** 14)),
    ("--mode", "hitting", "--m", "3", "--s", str(10 ** 14)),
    # 10^18 symbols would draw for centuries, 10^8 hitting repetitions for
    # hours, and 10^9 slots take 8 GB before the first draw
    ("--N", str(10 ** 18), "--s", "1"),
    ("--mode", "hitting", "--m", "12", "--s", str(10 ** 8)),
    ("--N", "4", "--s", str(10 ** 9)),
])
def test_repetitions_past_memory_are_refused(capsys, tmp_path, mode_args):
    code, _, err = run_cli(capsys, "--out", str(tmp_path / "out"), "experiment",
                           *THIRDS_ARGS, *mode_args)
    assert code == EXIT_BUDGET and err.startswith("refused: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_refused_run_removes_only_the_directories_it_made(capsys, tmp_path):
    (tmp_path / "kept").mkdir()
    code, _, _ = run_cli(capsys, "--out", str(tmp_path / "kept" / "a" / "b"), "experiment",
                         *THIRDS_ARGS, "--N", str(10 ** 18), "--s", "1")
    assert code == EXIT_BUDGET
    assert list(tmp_path.rglob("*")) == [tmp_path / "kept"]


def test_out_under_a_regular_file_is_refused_before_the_run(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr("contamruns.montecarlo.run_longest_experiment", never)
    (tmp_path / "file").write_text("", encoding="utf-8")
    code, _, err = run_cli(capsys, "--out", str(tmp_path / "file" / "out"), "experiment",
                           *THIRDS_ARGS, "--N", "10", "--s", "2")
    assert code == EXIT_IO and err.startswith("I/O error")


def test_running_out_of_memory_is_refused(capsys, tmp_path, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("contamruns.montecarlo.run_longest_experiment", out_of_memory)
    code, _, err = run_cli(capsys, "--out", str(tmp_path / "out"), "experiment",
                           *THIRDS_ARGS, "--N", "10", "--s", "2")
    assert code == EXIT_BUDGET and err.startswith("refused: not enough memory")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_empty_metadata_counts_as_missing(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--json", "--out", str(tmp_path), "experiment",
                           "--mode", "hitting", *THIRDS_ARGS, "--s", "5", "--m", "5")
    assert code == 0
    emp = json.loads(out)["outputs"]["empirical"]
    assert read_empirical_csv(emp)[1]["N"] == ""
    code, _, err = run_cli(capsys, "compare", emp, "--ref", "accompanying")
    assert code == EXIT_USAGE and "--N" in err
    code, _, _ = run_cli(capsys, "compare", emp, "--ref", "accompanying", "--N", "100")
    assert code == 0


def test_compare_sees_a_lattice_gap_between_integers(capsys, tmp_path):
    path = tmp_path / "half.csv"
    path.write_text("value,count,ecdf\n-0.5,1,1.0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "compare", str(path), "--ref", "accompanying",
                           *THIRDS_ARGS, "--N", "100")
    assert code == 0
    assert out.splitlines()[0] == "sup-distance vs accompanying: 0.773835"


def test_integer_values_are_read_exactly_up_to_the_int64_range(capsys, tmp_path):
    # float() would round 2^63 - 1 up to 2^63, past int64, and 2^53 + 1 down
    values = [-2 ** 63, 2 ** 53 + 1, 2 ** 63 - 1]
    path = tmp_path / "wide.csv"
    path.write_text("value,count,ecdf\n" + "".join(f"{v},1,0\n" for v in values),
                    encoding="utf-8")
    emp, _ = read_empirical_csv(path)
    assert emp.support.tolist() == values
    code, _, err = run_cli(capsys, "compare", str(path), "--ref", "exp1")
    assert code == 0, err
    path.write_text(f"value,count,ecdf\n{2 ** 63},1,1.0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "compare", str(path), "--ref", "exp1")
    assert code == EXIT_VALIDATION and "line 2" in err


def test_compare_evaluates_the_lattice_law_once_per_point(capsys, tmp_path, monkeypatch):
    # support -3..3: the distance needs P(. < k) at k = -3..4 and the
    # reference column at k = -2..4, one call per distinct k, all from one law
    import contamruns.analytic
    law = contamruns.analytic.AccompanyingLaw
    calls, derived = [], []
    at, derive = law.at, contamruns.analytic.derive_constants
    monkeypatch.setattr(law, "at", lambda self, k: calls.append(k) or at(self, k))
    monkeypatch.setattr(contamruns.analytic, "derive_constants",
                        lambda d: derived.append(d) or derive(d))
    path = tmp_path / "ints.csv"
    write_empirical_csv(path, EmpiricalDistribution.from_samples(range(-3, 4)), {})
    code, _, err = run_cli(capsys, "compare", str(path), "--ref", "accompanying",
                           *THIRDS_ARGS, "--N", "1000")
    assert code == 0, err
    assert sorted(calls) == list(range(-3, 5))
    assert len(derived) == 1


def test_compare_prints_integer_values_exactly(capsys, tmp_path):
    # 2^53 + 1 has no double; it prints as the CSV holds it
    path = tmp_path / "wide.csv"
    path.write_text("value,count,ecdf\n-1,1,0.5\n9007199254740993,1,1.0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "compare", str(path), "--ref", "exp1")
    assert code == 0, err
    assert [line.split(",")[0] for line in out.splitlines()[2:]] == ["-1", "9007199254740993"]
    code, out, err = run_cli(capsys, "--json", "compare", str(path), "--ref", "exp1")
    assert code == 0, err
    assert [row["value"] for row in json.loads(out)["table"]] == [-1, 9007199254740993]


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_json_output_is_strict(capsys):
    # the exponent past the vertex is infinite; JSON has no Infinity
    code, out, err = run_cli(capsys, "--json", "analytic", "accompanying", *THIRDS_ARGS,
                             "--N", "1000000", "--k", "-700")
    assert code == 0, err
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert payload == {"cdf": 0.0, "clamped": True, "exponent": None}


@pytest.mark.parametrize("argv,line,values", [
    (("mN", *THIRDS_ARGS, "--N", "3000000"),
     "m(N) = 18.844498540720505  [m(N)] = 18  {m(N)} = 0.8444985407205046",
     {"total": 18.844498540720505, "integer_part": 18, "fractional_part": 0.8444985407205046}),
    (("H", *THIRDS_ARGS, "--N", "3000000", "--x", "0.5"),
     "H(0.5) = -0.4506018188482384", {"total": -0.4506018188482384}),
    (("accompanying", *THIRDS_ARGS, "--N", "3000000", "--k", "0"),
     "P(mu(N) - [m(N)] < 0) = 0.21536676193732868",
     {"cdf": 0.21536676193732868, "clamped": False, "exponent": 1.5354128347212874}),
    (("accompanying", "--p", ".8", "--q1", ".1", "--q2", ".1", "--N", "3000000", "--k", "-30"),
     "P(mu(N) - [m(N)] < -30) = 0.18075457225659197",
     {"cdf": 0.18075457225659197, "clamped": False, "exponent": 1.710615122237797}),
])
def test_accompanying_law_prints_pinned_values(capsys, argv, line, values):
    # the three queries that read AccompanyingLaw, pinned to the last digit in both forms
    code, out, err = run_cli(capsys, "analytic", *argv)
    assert code == 0, err
    assert out.splitlines()[0] == line
    code, out, err = run_cli(capsys, "--json", "analytic", *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert {k: payload[k] for k in values} == values


def test_h_is_answered_where_k_leaves_the_double_range(capsys):
    # K needs C1^2 ~ 10^400; H does not use K, m(N) and the CDF do
    tiny = Fraction(1, 10 ** 200)
    dist = ["--p", "1/2", "--q1", str(tiny), "--q2", str(Fraction(1, 2) - tiny)]
    code, out, err = run_cli(capsys, "analytic", "H", *dist, "--N", "1000", "--x", "0.5")
    assert code == 0, err
    assert out.splitlines()[0] == "H(0.5) = 1.2033079317726258e+197"
    for query in (("mN",), ("accompanying", "--k", "0")):
        code, _, err = run_cli(capsys, "analytic", *query, *dist, "--N", "1000")
        assert code == EXIT_VALIDATION and "K is past the double range" in err
