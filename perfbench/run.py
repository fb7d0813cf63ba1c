"""contamruns benchmark: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload mc-longest --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it measures set-up time in fresh
interpreters, then repeats passes of the workload's operations for
``--seconds`` and prints the end-to-end metrics.  Operation times are
speed-corrected for the host's load (see ``speed.py``); the raw times are
printed on a line of their own.  With ``--trace 1`` it
traces one pass of every workload and prints the per-layer metrics
(each measured on the workload ``perfbench/layers.json`` names), plus
the tracing overhead of the named workload.  Every operation's output
is checked; the last line of standard output is the result object.
Scratch files go to ``.bench_out/`` and are removed at the end, except
the span dump of a traced run.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from runner import PassResult, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up probes before and after the timed passes, so that the median spans
# the run as wall_ref_s does; one more spawn first warms the file cache and bytecode
SETUP_RUNS = 3
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from contamruns import cli; cli.build_parser(); print('ready', flush=True)"
)


def measure_setup(runs: int) -> list[float]:
    """Seconds from spawning an interpreter until build_parser returns, per spawn."""
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed to import contamruns")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return samples


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(args, work: Path) -> tuple[dict, int, list[str]]:
    measure_setup(1)
    setup = measure_setup(SETUP_RUNS)
    from contamruns import cli
    cli.build_parser()
    workload = Workload(args.workload, args.size, args.seed, work)
    workload.warm_up()
    passes: list[PassResult] = []
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while True:
            passes.append(workload.run(len(passes)))
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.median(p.wall for p in passes) > args.seconds:
                break
        time.sleep(speed.WINDOW)    # samples after the last operation
    corrected = [[probe.correct(*t) for t in p.times] for p in passes]
    setup += measure_setup(SETUP_RUNS)
    latencies = [x for p in corrected for x in p]
    raw = [x for p in passes for x in p.latencies]
    print(json.dumps({"raw": {
        "wall_s": statistics.median(sum(p.latencies) for p in passes),
        "op_p50_ms": statistics.median(raw) * 1e3, "op_p90_ms": percentile(raw, 90) * 1e3,
        "probe_samples": len(probe.costs), "probe_median_us": statistics.median(probe.costs) * 1e6,
    }}))
    failures = [f for p in passes for f in p.failures]
    metrics = {
        "wall_ref_s": statistics.median(sum(p) for p in corrected),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ref_ms": statistics.median(latencies) * 1e3,
        "op_p90_ref_ms": percentile(latencies, 90) * 1e3,
    }
    return metrics, len(latencies), failures


def environment(args) -> dict:
    import numpy
    import scipy

    cpu_model, caches = None, {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "threads": wl.THREADS,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model or platform.processor(),
        "caches": caches, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit, "src_sha256": digest.hexdigest(), "loadavg": os.getloadavg(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                        help="'tiny' is for the benchmark's own smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "contamruns" / "__init__.py").is_file():
        print(f"no contamruns sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))
    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        metrics, attempted, failures = (layers.traced_run if args.trace else untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
