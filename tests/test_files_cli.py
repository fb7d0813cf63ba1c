"""File formats and the command-line surface."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

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
    RunManifest,
    read_empirical_csv,
    read_manifest,
    write_empirical_csv,
    write_manifest,
)
from contamruns.montecarlo import EmpiricalDistribution


# --- CSV / manifest round trips ----------------------------------------------

def test_empirical_csv_round_trip_integers(tmp_path):
    emp = EmpiricalDistribution(support=np.array([-2, 0, 3], dtype=np.int64),
                                weights=np.array([5, 1, 94], dtype=np.int64),
                                total=100)
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
])
def test_malformed_csv_raises_with_line(tmp_path, body, bad_line):
    path = tmp_path / "bad.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(FileFormatError) as exc:
        read_empirical_csv(path)
    if bad_line is not None:
        assert exc.value.line == bad_line


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        config={"mode": "hitting", "p": "1/3", "q1": "1/3", "q2": "1/3",
                "N": 1, "s": 10, "m": 8, "seed": 5, "scale": 1.0},
        tool_version="0.1.0",
        rng_scheme="pcg64-seedseq-spawnkey-invcdf-v1",
        wall_time_s=0.5,
        excluded=0,
        outputs={"empirical": "a.csv"},
    )
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    assert read_manifest(path) == manifest


def test_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FileFormatError):
        read_manifest(path)


# --- CLI ------------------------------------------------------------------

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
    code, _, err = run_cli(capsys, "oracle", "conditional",
                           "--p", "1/3", "--q1", "1/3", "--q2", "1/3", "--m", "9")
    assert code == EXIT_BUDGET and "m <= 7" in err


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
    report = json.loads((tmp_path / [n for n in written if "report" in n][0])
                        .read_text())
    assert report["sup_distance"] == payload["sup_distance"]


def test_experiment_reproducible_from_manifest(capsys, tmp_path):
    args = ["--seed", "21", "experiment", "--mode", "hitting", "--p", "1/3",
            "--q1", "1/3", "--q2", "1/3", "--N", "1", "--s", "20", "--m", "6"]
    run_cli(capsys, "--out", str(tmp_path / "a"), *args)
    manifest = read_manifest(next((tmp_path / "a").glob("*_manifest.json")))
    cfg = manifest.config
    run_cli(capsys, "--out", str(tmp_path / "b"), "--seed", str(cfg["seed"]),
            "experiment", "--mode", cfg["mode"], "--p", cfg["p"], "--q1", cfg["q1"],
            "--q2", cfg["q2"], "--N", str(cfg["N"]), "--s", str(cfg["s"]),
            "--m", str(cfg["m"]))
    first = next((tmp_path / "a").glob("*_empirical.csv")).read_text()
    second = next((tmp_path / "b").glob("*_empirical.csv")).read_text()
    assert first == second


def test_experiment_scale_recorded(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "--out", str(tmp_path), "experiment",
                         "--figure", "1", "--scale", "0.001")
    assert code == 0
    manifest = read_manifest(next(tmp_path.glob("*_manifest.json")))
    assert manifest.config["scale"] == 0.001
    assert manifest.config["N"] == 3000 and manifest.config["s"] == 3


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


def test_bounds_default_eps_is_the_exact_discrepancy(capsys):
    def bounds(m):
        code, out, _ = run_cli(capsys, "--json", "analytic", "bounds", *THIRDS_ARGS,
                               "--m", str(m), "--N", "1000000")
        assert code == 0
        return json.loads(out)

    assert bounds(40)["eps"] == pytest.approx(3.6107703098908e-19, rel=1e-9)
    far = bounds(300)
    assert far["eps"] > 0 and not far["degenerate"]
    underflow = bounds(1000)  # |survival - alpha| ~ 3^-1000 < 5e-324
    assert underflow["eps"] == 0.0 and underflow["degenerate"]
    _, human, _ = run_cli(capsys, "analytic", "bounds", *THIRDS_ARGS,
                          "--m", "1000", "--N", "1000000")
    assert "degenerate" in human


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


@pytest.mark.parametrize("m,N", [(3, 100_000), (4, 100_000), (4, 100)])
def test_bounds_upper_is_capped_at_one(capsys, m, N):
    # alpha < 10 eps at these small m, so the upper exponent is positive
    code, out, _ = run_cli(capsys, "--json", "analytic", "bounds", *THIRDS_ARGS,
                           "--m", str(m), "--N", str(N))
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == 1.0 and 0 <= payload["lower"] < 1


# --- inputs past the double range, the DP budget, the thread cap ----------------

BIG = str(10 ** 350)
TINY_Q2_ARGS = ("--p", "1/2", "--q1", "0.5", "--q2", "1e-300")


@pytest.mark.parametrize("argv,names", [
    (("accompanying", *THIRDS_ARGS, "--N", "100000", "--k", BIG), "k"),
    (("accompanying", *THIRDS_ARGS, "--N", "100000", "--k", "-" + BIG), "k"),
    (("bounds", *THIRDS_ARGS, "--m", "10", "--N", BIG), "N"),
    (("H", *THIRDS_ARGS, "--N", "100000", "--x", "1e308"), "x"),
    (("H", *THIRDS_ARGS, "--N", "100000", "--x", "inf"), "x"),
    (("constants", *TINY_Q2_ARGS), "q2"),   # K ~ -1e600
    (("mN", *TINY_Q2_ARGS, "--N", "1000"), "q2"),
])
def test_out_of_range_inputs_are_refused_by_name(capsys, argv, names):
    code, _, err = run_cli(capsys, "analytic", *argv)
    assert code == EXIT_VALIDATION and names in err


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
    bounds = value("bounds", *TINY_Q2_ARGS, "--m", "10", "--N", "1000")
    assert 0 < bounds["lower"] <= bounds["upper"] <= 1


def test_nan_budget_is_refused(capsys):
    code, _, err = run_cli(capsys, "oracle", "longest-cdf", *THIRDS_ARGS,
                           "--N", "20", "--m", "5", "--budget", "nan")
    assert code == EXIT_VALIDATION and "budget" in err
    code, _, _ = run_cli(capsys, "oracle", "longest-cdf", *THIRDS_ARGS,
                         "--N", "20", "--m", "5", "--budget", "inf")
    assert code == 0


def test_thread_count_is_capped_before_any_thread_starts(capsys, tmp_path):
    code, _, err = run_cli(capsys, "--threads", "1000000", "--out", str(tmp_path),
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
    assert read_manifest(payload["manifest"]).config["N"] is None
    _, meta = read_empirical_csv(payload["outputs"]["empirical"])
    assert meta["N"] == "" and meta["m"] == "5"
    # the longest-run law needs N
    code, _, err = run_cli(capsys, "--out", str(tmp_path), "experiment", *THIRDS_ARGS,
                           "--s", "5")
    assert code == EXIT_USAGE and "--N" in err


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
    config = read_manifest(json.loads(out)["manifest"]).config
    assert (config["p"], config["m"], config["s"]) == ("1/3", 12, 3)


@pytest.mark.parametrize("argv,name", [
    (("--figure", "9", "--scale", "0.001"), "--figure"),
    (("--mode", "hitting", *THIRDS_ARGS, "--s", "5"), "--m"),
])
def test_missing_or_unknown_experiment_inputs_are_usage_errors(capsys, tmp_path, argv, name):
    code, _, err = run_cli(capsys, "--out", str(tmp_path), "experiment", *argv)
    assert code == EXIT_USAGE and name in err
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
