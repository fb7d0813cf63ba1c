"""Runs workload operations in-process through ``contamruns.cli.main``."""
from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl


@dataclass
class PassResult:
    wall: float
    latencies: list[float] = field(default_factory=list)
    times: list[tuple[float, float]] = field(default_factory=list)  # perf_counter at op start, end
    kinds: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    ctx: dict = field(default_factory=dict)   # what checks keep for later checks


def run_op(op: wl.Op, out_dir: Path, ctx: dict,
           tracer=None) -> tuple[float, float, str | None]:
    """One CLI operation; returns (start, end, failure message or None)."""
    from contamruns import cli

    argv = ["--json", "--seed", str(op.seed), "--threads", str(op.threads),
            "--out", str(out_dir), *op.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        span = tracer.begin("cli.main", "cli") if tracer else None
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            error = traceback.format_exc(limit=3)
        finally:
            if span:
                tracer.end(span)
    t1 = time.perf_counter()
    if error is None and rc != 0:
        error = f"exit code {rc}: {stderr.getvalue().strip()[:300]}"
    if error is None:
        try:
            op.check(json.loads(stdout.getvalue().strip().splitlines()[-1]), ctx)
        except (wl.CheckFailed, LookupError, ValueError, TypeError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return t0, t1, (f"{op.kind} [{' '.join(op.argv)}]: {error}" if error else None)


class Workload:
    """A workload's inputs for one seed, ready to run pass after pass."""

    def __init__(self, name: str, size: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work / name
        self.size = wl.SIZES[size]
        self.expected = wl.prepare(name, self.size, seed, self.work)

    def run(self, pass_index: int, tracer=None, threads: int = wl.THREADS,
            out: str = "out") -> PassResult:
        ops = wl.ops_for_pass(self.name, self.size, self.seed, pass_index, self.expected,
                              threads)
        out_dir = self.work / out
        out_dir.mkdir(parents=True, exist_ok=True)
        result = PassResult(wall=0.0)
        t0 = time.perf_counter()
        for op in ops:
            start, end, failure = run_op(op, out_dir, result.ctx, tracer)
            result.latencies.append(end - start)
            result.times.append((start, end))
            result.kinds.append(op.kind)
            if failure:
                result.failures.append(failure)
        result.wall = time.perf_counter() - t0
        return result

    def warm_up(self) -> None:
        """Untimed, unchecked passes: one at the tiny size (lazy imports, caches)
        and, for the Monte Carlo workloads, one at full size.  Their first full
        run in a process pays for growing the heap, and as one of the handful
        of single-run passes in a measurement it would set op_p90."""
        Workload(self.name, "tiny", self.seed, self.work / "warm").run(0)
        if self.name in wl.MC_WORKLOADS:
            self.run(-1, out="warm-full")
