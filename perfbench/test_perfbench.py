"""The benchmark's own tests: `python3 -m pytest perfbench`.

Smoke runs use the tiny size; they check the result line's shape, that
the printed metric names match BENCHMARK.json, and that a wrong answer
injected into the program is counted as a failure.
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import contamruns.analytic  # noqa: E402
import contamruns.oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from runner import Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_smoke_run(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0


def test_tiny_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "queries", "--seed", "3", "--seconds", "1",
                "--trace", "1", "--size", "tiny")
    res = _result(proc)
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == _names("per_layer")
    for name in wl.WORKLOADS:
        share = res["metrics"][f"trace.accounted_share.{name}"]["value"]
        assert 0.8 < share <= 1.0 + 1e-9
    assert sum(line.startswith("trace ") for line in proc.stdout.splitlines()) == 4


def test_layer_table_matches_benchmark_json():
    table = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert [row["metric"] for row in table] == _names("per_layer")
    end_to_end = set(_names("end_to_end"))
    for row in table:
        assert set(row["moves"]) <= end_to_end


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wrong_limit_cdf_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(contamruns.analytic, "theorem1_limit_cdf", lambda x: 0.5)
    result = Workload("queries", "tiny", 1, tmp_path).run(0)
    failed = {f.split(" [", 1)[0] for f in result.failures}
    assert {"analytic theorem1", "compare exp1"} <= failed
    assert len(result.failures) < len(result.latencies)


def test_wrong_dp_value_is_counted(tmp_path, monkeypatch):
    real = contamruns.oracle.dp_longest_cdf

    def off_by_a_little(dist, N, m, mode="float", budget=None):
        v = real(dist, N, m, mode=mode, budget=budget)
        return v * (1 + 1e-9) if mode == "float" else v

    monkeypatch.setattr(contamruns.oracle, "dp_longest_cdf", off_by_a_little)
    result = Workload("oracle-dp", "tiny", 1, tmp_path).run(0)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("oracle longest-cdf float [")


def test_injected_wrong_answer_reaches_the_result_line(monkeypatch, capsys):
    real = contamruns.analytic.window_probability
    monkeypatch.setattr(contamruns.analytic, "window_probability",
                        lambda dist, m: real(dist, m) + Fraction(1, 10 ** 6) if m == 3
                        else real(dist, m))
    assert run.main(["--workload", "queries", "--seed", "1", "--seconds", "0.1",
                     "--trace", "0", "--size", "tiny"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is False
    assert 1 <= res["failed"] < res["attempted"]


def test_attribute_splits_parallel_children():
    spans = [tracing.Span(0, "cli.main", "cli", None, 1, 0, 100),
             tracing.Span(1, "montecarlo.run", "montecarlo", 0, 1, 10, 90),
             tracing.Span(2, "scan.push", "scan", 1, 2, 20, 80),
             tracing.Span(3, "scan.push", "scan", 1, 3, 20, 60),
             tracing.Span(4, "analytic.x", "analytic", 1, 3, 60, 80)]
    totals = tracing.attribute(spans)
    assert totals["cli"] == pytest.approx(20e-9)
    assert totals["montecarlo"] == pytest.approx(20e-9)
    assert totals["scan"] == pytest.approx(50e-9)
    assert totals["analytic"] == pytest.approx(10e-9)
    assert sum(totals.values()) == pytest.approx(100e-9)


def test_speed_correction_scales_and_subtracts_kernel_time():
    probe = speed.SpeedProbe()
    # kernel at twice its nominal time around the op; two samples ran inside it
    probe.starts = [0.9, 1.1, 1.5, 2.1]
    probe.costs = [2 * speed.NOMINAL_S] * 4
    spent = 2 * 2 * speed.NOMINAL_S
    assert probe.correct(1.0, 2.0) == pytest.approx((1.0 - spent) / 2)
    # an operation with no sample in its window takes the nearest ones
    assert probe.correct(10.0, 10.001) == pytest.approx(0.001 / 2)


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.costs) >= 3
    assert probe.correct(t0, t0 + 0.2) > 0
