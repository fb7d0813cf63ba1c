"""In-memory spans around the public entry points of each contamruns layer.

``install`` replaces names where their callers look them up: the ``an``,
``mc`` and ``orc`` module aliases and the file functions that ``cli``
bound at import, the names ``montecarlo`` calls (``repetition_rng``,
``outcome_chunks`` and the analytic functions it imported), and the
``ChunkScanner`` and ``EmpiricalDistribution`` class attributes.  The
original objects come back when the context ends.  Nothing under
``src/`` changes.

A span records name, layer, start, end, parent and thread.  A span
opened on a thread with no open span of its own (a worker of the
experiment thread pool) takes as parent the innermost open span of the
thread that created the tracer.

``attribute`` splits wall time among layers: at each instant the time
goes, in equal parts, to the open spans that have no open child, so the
layer totals add up to the wall time covered by root spans even when
worker threads run in parallel.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: int
    start: int
    end: int = 0
    work: int = 0          # symbols or bytes handled, where the span has them
    note: object = None    # a result or argument worth keeping

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer, "parent": self.parent,
                "thread": self.thread, "start_ns": self.start, "end_ns": self.end,
                "work": self.work}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        outer = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
        span = Span(next(self._ids), name, layer, outer.id if outer else None,
                    threading.get_ident(), time.perf_counter_ns())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _wrap(tracer: Tracer, fn, name: str, layer: str, measure=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if measure is not None:
            span.work, span.note = measure(args, kwargs, result)
        return result
    return traced


def _wrap_generator(tracer: Tracer, fn, name: str, layer: str):
    """One span per item drawn, so the time is where the item is made."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            span = tracer.begin(name, layer)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.end(span)
            span.work = len(item)
            yield item
    return traced


def _chunk_len(args, kwargs, result):
    return len(args[1]), result


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0]), None


def _call_args(args, kwargs, result):
    return 0, args


def _dp_args(args, kwargs, result):
    return args[1], kwargs.get("mode", "float")


def _proxy(module, tracer: Tracer, layer: str, names, measures=None):
    """A stand-in for `module` whose listed functions record spans."""
    measures = measures or {}
    proxy = types.SimpleNamespace(**vars(module))
    for n in names:
        setattr(proxy, n, _wrap(tracer, getattr(module, n), f"{layer}.{n}", layer,
                                measures.get(n)))
    return proxy


def _public_functions(module) -> list[str]:
    return [n for n, v in vars(module).items()
            if not n.startswith("_") and isinstance(v, types.FunctionType)
            and v.__module__ == module.__name__]


REFERENCE_FUNCTIONS = ("accompanying_cdf", "theorem1_limit_cdf")


@contextlib.contextmanager
def install(tracer: Tracer):
    from contamruns import analytic, cli, montecarlo, oracle, scan

    patches = []  # (owner, name, original, replacement)

    def patch(owner, name, replacement):
        patches.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                        else getattr(owner, name), replacement))

    measures = {n: _call_args for n in REFERENCE_FUNCTIONS}
    patch(cli, "an", _proxy(analytic, tracer, "analytic", _public_functions(analytic), measures))
    patch(cli, "mc", _proxy(montecarlo, tracer, "montecarlo",
                            ["run_longest_experiment", "run_hitting_experiment",
                             "sup_distance", "sup_distance_step", "sup_distance_lattice"]))
    patch(cli, "orc", _proxy(oracle, tracer, "oracle", _public_functions(oracle),
                             {"dp_longest_cdf": _dp_args}))
    for n in ("write_empirical_csv", "write_reference_csv", "write_manifest"):
        patch(cli, n, _wrap(tracer, getattr(cli, n), f"files.{n}", "files", _file_size))
    patch(cli, "read_empirical_csv", _wrap(tracer, cli.read_empirical_csv,
                                           "files.read_empirical_csv", "files", _file_size))

    patch(montecarlo, "repetition_rng", _wrap(tracer, montecarlo.repetition_rng,
                                              "montecarlo.repetition_rng", "montecarlo"))
    patch(montecarlo, "outcome_chunks", _wrap_generator(tracer, montecarlo.outcome_chunks,
                                                        "montecarlo.outcome_chunks",
                                                        "montecarlo"))
    for n in ("alpha_correction", "m_of_n", "window_probability"):
        patch(montecarlo, n, _wrap(tracer, getattr(montecarlo, n), f"analytic.{n}", "analytic"))
    from_samples = montecarlo.EmpiricalDistribution.__dict__["from_samples"].__func__
    patch(montecarlo.EmpiricalDistribution, "from_samples",
          classmethod(_wrap(tracer, from_samples, "montecarlo.from_samples", "montecarlo")))
    for n in ("push", "push_until_hit"):
        patch(scan.ChunkScanner, n, _wrap(tracer, getattr(scan.ChunkScanner, n),
                                          f"scan.{n}", "scan", _chunk_len))

    for owner, name, _, replacement in patches:
        setattr(owner, name, replacement)
    try:
        yield tracer
    finally:
        for owner, name, original, _ in reversed(patches):
            setattr(owner, name, original)


def attribute(spans: list[Span]) -> dict[str, float]:
    """Wall seconds per layer; each instant split among the open leaf spans."""
    by_id = {s.id: s for s in spans}
    events = sorted([(s.start, 1, s.id) for s in spans] + [(s.end, 0, s.id) for s in spans])
    open_children: dict[int, int] = defaultdict(int)
    open_ids: set[int] = set()
    leaves: set[int] = set()
    totals: dict[str, float] = defaultdict(float)
    last = None
    for t, is_start, sid in events:
        if last is not None and leaves and t > last:
            share = (t - last) * 1e-9 / len(leaves)
            for leaf in leaves:
                totals[by_id[leaf].layer] += share
        last = t
        parent = by_id[sid].parent
        parent = parent if parent in open_ids else None
        if is_start:
            open_ids.add(sid)
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return dict(totals)
