"""The traced run: per-layer metrics, each measured on the workload that
``layers.json`` names for it.

Every workload is traced in a fresh process of its own, as in the
untraced runs, so that one workload's allocations and caches do not
change another's numbers.  Each process runs one traced pass with spans
on (see ``tracing.py``); the Monte Carlo workloads also run a traced
pass at one thread, which gives the thread speed-up and the check that
the empirical law is bit-identical at 1 thread and at the benchmark's
thread count.  The process of the named workload first runs one
untraced pass, which gives the tracing overhead.  Spans are written to
``.bench_out/trace-<seed>-<workload>.json``.

    python3 perfbench/layers.py WORKLOAD SEED SIZE BASELINE WORKDIR
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from runner import Workload  # noqa: E402

LAYERS = ("cli", "montecarlo", "scan", "oracle", "analytic", "files")
BUILD_PROBES = 5
TIME_LIMIT_S = 170


def _named(spans, *names):
    return [s for s in spans if s.name in names]


def _seconds(spans) -> float:
    return sum(s.seconds for s in spans)


def _dp_build_seconds(m: int, mode: str) -> float:
    """dp_longest_cdf at N=1: the chain build plus a single step, untraced."""
    from contamruns.oracle import dp_longest_cdf

    thirds = wl.trial_distribution(wl.THIRDS)
    samples = []
    for _ in range(BUILD_PROBES):
        t0 = time.perf_counter()
        dp_longest_cdf(thirds, 1, m, mode=mode)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _replay_us_per_eval(spans) -> float:
    """Re-evaluate the recorded reference-CDF calls untraced."""
    from contamruns import analytic

    calls = [(getattr(analytic, s.name.split(".", 1)[1]), s.note) for s in spans]
    t0 = time.perf_counter()
    for fn, args in calls:
        fn(*args)
    return (time.perf_counter() - t0) / len(calls) * 1e6


def _mc_longest(run, spans, run_1t, size, self_s) -> dict:
    push, draw = _named(spans, "scan.push"), _named(spans, "montecarlo.outcome_chunks")
    op = run.latencies[0]
    return {
        "scan.ns_per_sym": _seconds(push) / sum(s.work for s in push) * 1e9,
        "scan.self_s": self_s["scan"],
        "montecarlo.draw_ns_per_sym": _seconds(draw) / sum(s.work for s in draw) * 1e9,
        "montecarlo.speedup_2t.longest": run_1t.latencies[0] / op,
        "montecarlo.sym_per_s.longest": size["longest"]["N"] * size["longest"]["s"] / op,
    }


def _mc_hitting(run, spans, run_1t, size, self_s) -> dict:
    hit, rng = _named(spans, "scan.push_until_hit"), _named(spans, "montecarlo.repetition_rng")
    refs = _named(spans, *(f"analytic.{n}" for n in tracing.REFERENCE_FUNCTIONS))
    writes = [s for s in spans if s.name.startswith("files.write_")]
    scanned = sum(s.work for s in hit)
    taus = sum(s.note for s in hit if s.note is not None)
    op = run.latencies[0]
    return {
        "scan.calls": len(hit),
        "scan.mean_chunk_len": scanned / len(hit),
        "scan.us_per_call": _seconds(hit) / len(hit) * 1e6,
        "montecarlo.rng_setup_us_per_rep": _seconds(rng) / len(rng) * 1e6,
        "montecarlo.overscan_ratio": scanned / taus,
        "montecarlo.speedup_2t.hitting": run_1t.latencies[0] / op,
        "montecarlo.sup_distance_s": _seconds(s for s in spans
                                              if s.name.startswith("montecarlo.sup_distance")),
        "montecarlo.reduce_s": _seconds(_named(spans, "montecarlo.from_samples")),
        "montecarlo.sym_per_s.hitting": taus / op,
        "montecarlo.self_s": self_s["montecarlo"],
        "analytic.reference_us_per_eval": _replay_us_per_eval(refs),
        "analytic.reference_evals": len(refs),
        "files.write_s": _seconds(writes),
        "files.bytes_written": sum(s.work for s in writes),
        "files.self_s": self_s["files"],
    }


def _oracle_dp(run, spans, run_1t, size, self_s) -> dict:
    dp = _named(spans, "oracle.dp_longest_cdf")
    (Ne, me), (Nf, mf) = size["dp_exact"], size["dp_float"]
    t_exact = _seconds(s for s in dp if s.note == "exact" and s.work == Ne)
    t_float = _seconds(s for s in dp if s.note == "float" and s.work == Nf)
    build_exact, build_float = _dp_build_seconds(me, "exact"), _dp_build_seconds(mf, "float")
    return {
        "oracle.dp_exact_build_s": build_exact,
        "oracle.dp_exact_step_ms": (t_exact - build_exact) / (Ne - 1) * 1e3,
        "oracle.dp_float_build_s": build_float,
        "oracle.dp_float_step_us": (t_float - build_float) / (Nf - 1) * 1e6,
        "oracle.self_s": self_s["oracle"],
    }


def _queries(run, spans, run_1t, size, self_s) -> dict:
    reads = _named(spans, "files.read_empirical_csv")
    return {
        "analytic.bounds_s": sum(t for t, k in zip(run.latencies, run.kinds)
                                 if k == "analytic bounds"),
        "analytic.self_s": self_s["analytic"],
        "files.read_s": _seconds(reads),
        "files.bytes_read": sum(s.work for s in reads),
        "cli.self_s": self_s["cli"],
    }


HOME_METRICS = {"mc-longest": _mc_longest, "mc-hitting": _mc_hitting,
                "oracle-dp": _oracle_dp, "queries": _queries}


def trace_workload(name: str, seed: int, size: str, baseline: bool, work: Path) -> dict:
    """One traced pass of a workload in this process; its per-layer metrics."""
    w = Workload(name, size, seed, work)
    w.warm_up()
    untraced = w.run(0) if baseline else None
    tracer = tracing.Tracer()
    run_1t = None
    with tracing.install(tracer):
        run = w.run(0, tracer)
        spans = tracer.take()
        if name in wl.MC_WORKLOADS:
            run_1t = w.run(0, tracer, threads=1, out="out-1t")
            tracer.take()

    runs = [r for r in (untraced, run, run_1t) if r is not None]
    failures = [f for r in runs for f in r.failures]
    if run_1t is not None and (run.ctx.get("empirical") is None
                               or run.ctx.get("empirical") != run_1t.ctx.get("empirical")):
        failures.append(f"{name}: empirical law differs between {wl.THREADS} threads "
                        f"and 1 thread")
    attributed = tracing.attribute(spans)
    self_s = {layer: attributed.get(layer, 0.0) for layer in LAYERS}
    share = sum(self_s.values()) / run.wall
    metrics = HOME_METRICS[name](run, spans, run_1t, wl.SIZES[size], self_s)
    metrics[f"trace.wall_s.{name}"] = run.wall
    metrics[f"trace.accounted_share.{name}"] = share
    if untraced is not None:
        metrics["trace.overhead_s"] = run.wall - untraced.wall
    dump = work.parent / f"trace-{seed}-{name}.json"
    dump.write_text(json.dumps([s.as_dict() for s in spans]), encoding="utf-8")
    summary = (f"trace {name}: wall {run.wall:.3f} s, layers + cli self {share:.1%} of it: "
               + ", ".join(f"{k} {v:.3f} s" for k, v in self_s.items()))
    return {"metrics": metrics, "attempted": sum(len(r.latencies) for r in runs),
            "failures": failures, "summary": summary}


def traced_run(args, work: Path) -> tuple[dict, int, list[str]]:
    """Trace every workload, each in a fresh process; merge their metrics."""
    metrics, attempted, failures = {}, 0, []
    deadline = time.monotonic() + TIME_LIMIT_S
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, name, str(args.seed), args.size,
             str(int(name == args.workload)), str(work)],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"traced {name} run failed:\n{proc.stderr[-3000:]}")
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        print(part["summary"])
        metrics.update(part["metrics"])
        attempted += part["attempted"]
        failures += part["failures"]
    return metrics, attempted, failures


if __name__ == "__main__":
    name, seed, size, baseline, work = sys.argv[1:6]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(trace_workload(name, int(seed), size, baseline == "1", Path(work))))
