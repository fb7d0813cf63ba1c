"""The four benchmark workloads and the checks on their outputs.

A workload is a list of CLI operations for one pass, generated from the
workload seed and the pass index, plus a check for each operation's
output.  Operations run in-process through ``contamruns.cli.main`` with
``--json``, one at a time (a closed loop with one client).  A check
raises ``CheckFailed``; the runner counts that operation as failed.

``prepare`` does each workload's untimed set-up: it writes the CSVs that
``queries`` reads and computes the expected values the checks compare
against.  Expected values come from a route independent of the one the
operation takes (closed form vs enumeration, CFK sandwich vs DP, a
Kolmogorov-Smirnov statistic computed here vs ``compare``).
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("mc-longest", "mc-hitting", "oracle-dp", "queries")
MC_WORKLOADS = ("mc-longest", "mc-hitting")

# worker threads for the Monte Carlo operations: two, never above nproc
THREADS = max(1, min(2, len(os.sched_getaffinity(0))))

THIRDS = ("1/3", "1/3", "1/3")

# Massart's form of the DKW inequality: P(sup|F_n - F| > eps) <= 2 exp(-2 n eps^2)
DKW_MISS = 1e-3
# slack for the theory's own approximation error, from the acceptance
# criteria: 7 (lattice law of mu(N), 0.05) and 6 (Exp(1) law of tau_m, 0.03)
SLACK = {"longest": 0.05, "hitting": 0.03}

SIZES = {
    "full": {
        "longest": {"N": 300_000, "s": 300, "argv": ["--figure", "1", "--scale", "0.1"]},
        "hitting": {"m": 12, "s": 4000},
        "dp_exact": (100, 10),
        "dp_float": (100_000, 10),
        "query_reps": 2,
        "bounds_m": [60 + round(40 * i / 19) for i in range(20)],
        "window_m": (6, 7, 8, 9, 10),
        "conditional_m": (4, 5, 6),
        "csv_rows": {"hitting": 4000, "longest": 300},
    },
    # smoke-test size: every operation kind, a fraction of a second each
    "tiny": {
        "longest": {"N": 3000, "s": 30,
                    "argv": ["--figure", "1", "--N", "30000", "--s", "300", "--scale", "0.1"]},
        "hitting": {"m": 8, "s": 200},
        "dp_exact": (30, 8),
        "dp_float": (2000, 8),
        "query_reps": 1,
        "bounds_m": [30, 40],
        "window_m": (6, 7),
        "conditional_m": (4,),
        "csv_rows": {"hitting": 200, "longest": 30},
    },
}


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str                                # label for reports
    argv: list[str]                          # arguments after the global flags
    check: Callable[[dict, dict], None]      # (payload, pass context) -> raises CheckFailed
    seed: int = 0
    threads: int = 1


def pass_seed(seed: int, pass_index: int) -> int:
    return random.Random(f"{seed}:{pass_index}").getrandbits(31)


def dkw_band(n: int) -> float:
    return math.sqrt(math.log(2 / DKW_MISS) / (2 * n))


def _dist_argv(p, q1, q2) -> list[str]:
    return ["--p", str(p), "--q1", str(q1), "--q2", str(q2)]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float, what: str) -> None:
    _require(math.isfinite(a) and abs(a - b) <= rel * max(abs(b), 1e-300),
             f"{what}: got {a!r}, expected {b!r} (rel tol {rel:g})")


def trial_distribution(triple):
    from contamruns.model import TrialDistribution
    return TrialDistribution(*(Fraction(x) for x in triple))


# --- Monte Carlo ----------------------------------------------------------

def _csv_total(path: Path) -> int:
    """Sum of the count column of an empirical CSV."""
    total = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#") and line != "value,count,ecdf":
                total += int(line.split(",")[1])
    return total


def _check_experiment(mode: str, s: int, seed: int):
    def check(payload: dict, ctx: dict) -> None:
        samples, excluded = payload["samples"], payload["excluded"]
        _require(samples + excluded == s, f"samples {samples} + excluded {excluded} != s {s}")
        _require(excluded == 0, f"{excluded} repetitions excluded")
        band = dkw_band(samples) + SLACK[mode]
        distance = payload["sup_distance"]
        _require(0 <= distance <= band, f"sup-distance {distance} outside [0, {band:.4f}]")
        emp = Path(payload["outputs"]["empirical"])
        _require(_csv_total(emp) == samples, "empirical CSV counts != samples")
        manifest = json.loads(Path(payload["manifest"]).read_text(encoding="utf-8"))
        _require(manifest["config"]["seed"] == seed, "manifest seed differs from the run's")
        ctx["empirical"] = emp.read_bytes()
    return check


def _mc_ops(name: str, size: dict, seed: int, pass_index: int, threads: int) -> list[Op]:
    s_pass = pass_seed(seed, pass_index)
    if name == "mc-longest":
        cfg = size["longest"]
        argv = ["experiment", *cfg["argv"]]
        return [Op("experiment longest", argv, _check_experiment("longest", cfg["s"], s_pass),
                   seed=s_pass, threads=threads)]
    cfg = size["hitting"]
    argv = ["experiment", "--mode", "hitting", *_dist_argv(*THIRDS),
            "--N", "1", "--m", str(cfg["m"]), "--s", str(cfg["s"])]
    return [Op("experiment hitting", argv, _check_experiment("hitting", cfg["s"], s_pass),
               seed=s_pass, threads=threads)]


# --- exact DP oracle ----------------------------------------------------------

def _prepare_oracle(size: dict, expected: dict) -> None:
    """CFK sandwich for the large float run, with criterion 5's eps.

    Criterion 5 measures eps by enumerating m=7; the closed form gives the
    same Fraction (criterion 2) without the enumeration's 3^13-row arrays,
    which would change the allocator state of the measured process.
    """
    from contamruns.analytic import (alpha_correction, cfk_bounds, conditional_survival,
                                     window_probability)

    thirds = trial_distribution(THIRDS)
    N, m = size["dp_float"]
    alpha = float(alpha_correction(thirds, m).alpha)
    eps = abs(float(conditional_survival(thirds, 7)) - alpha)
    pa1 = float(window_probability(thirds, m))
    expected["cfk"] = cfk_bounds(alpha, eps, N - m + 1, m, pa1)


def _check_exact(payload: dict, ctx: dict) -> None:
    exact = Fraction(payload["exact"])
    _require(0 < exact < 1, f"P = {exact} outside (0, 1)")
    _close(payload["value"], float(exact), 1e-15, "float of exact value")
    ctx["exact"] = exact


def _check_float_vs_exact(payload: dict, ctx: dict) -> None:
    _require("exact" in ctx, "exact run missing from this pass")
    _close(payload["value"], float(ctx["exact"]), 1e-12, "float DP vs exact DP")


def _check_cfk(expected: dict):
    def check(payload: dict, ctx: dict) -> None:
        lo, hi = expected["cfk"]
        v = payload["value"]
        _require(lo <= v <= hi, f"DP value {v!r} outside CFK sandwich [{lo!r}, {hi!r}]")
    return check


def _oracle_ops(size: dict, expected: dict) -> list[Op]:
    dist = _dist_argv(*THIRDS)
    (Ne, me), (Nf, mf) = size["dp_exact"], size["dp_float"]
    base = ["oracle", "longest-cdf", *dist]
    return [
        Op("oracle longest-cdf exact", [*base, "--N", str(Ne), "--m", str(me)], _check_exact),
        Op("oracle longest-cdf float", [*base, "--N", str(Ne), "--m", str(me), "--mode", "float"],
           _check_float_vs_exact),
        Op("oracle longest-cdf float large", [*base, "--N", str(Nf), "--m", str(mf),
                                              "--mode", "float"],
           _check_cfk(expected)),
    ]


# --- short queries ------------------------------------------------------------

def _write_csv(path: Path, meta: dict, values: list) -> None:
    """An empirical CSV in the documented format, written without contamruns."""
    support = sorted(set(values))
    counts = {v: 0 for v in support}
    for v in values:
        counts[v] += 1
    with open(path, "w", encoding="utf-8") as f:
        for key, value in meta.items():
            f.write(f"# {key}={value}\n")
        f.write("value,count,ecdf\n")
        cum = 0
        for v in support:
            cum += counts[v]
            f.write(f"{v!r},{counts[v]},{cum / len(values)!r}\n")


def _ks_continuous(values: list, cdf) -> float:
    """sup |ECDF - F| for a continuous F: check both sides of every jump."""
    support = sorted(set(values))
    n = len(values)
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best, cum = 0.0, 0
    for v in support:
        f = cdf(v)
        best = max(best, abs(cum / n - f))
        cum += counts[v]
        best = max(best, abs(cum / n - f))
    return best


def _ks_lattice(values: list, below) -> float:
    """max over integers k of |P_emp(value < k) - below(k)|."""
    n = len(values)
    return max(abs(sum(1 for v in values if v < k) / n - below(k))
               for k in range(min(values), max(values) + 2))


def _prepare_queries(size: dict, seed: int, work: Path, expected: dict) -> None:
    from contamruns.analytic import accompanying_cdf, conditional_survival, window_probability

    rng = random.Random(f"{seed}:csv")
    rows = size["csv_rows"]
    work.mkdir(parents=True, exist_ok=True)

    hitting = [rng.expovariate(1.0) for _ in range(rows["hitting"])]
    hitting_path = work / "queries_hitting_empirical.csv"
    _write_csv(hitting_path, {"mode": "hitting", "p": "1/3", "q1": "1/3", "q2": "1/3",
                              "m": 12, "s": len(hitting)}, hitting)
    expected["ks_hitting"] = _ks_continuous(hitting, lambda x: -math.expm1(-x) if x >= 0 else 0.0)

    N = size["longest"]["N"]
    weights = (1, 4, 10, 12, 7, 3, 1)
    longest = rng.choices(range(-3, 4), weights=weights, k=rows["longest"])
    longest_path = work / "queries_longest_empirical.csv"
    _write_csv(longest_path, {"mode": "longest", "p": "1/3", "q1": "1/3", "q2": "1/3",
                              "N": N, "s": len(longest)}, longest)
    thirds = trial_distribution(THIRDS)
    expected["ks_longest"] = _ks_lattice(longest, lambda k: accompanying_cdf(thirds, N, k))
    expected["csv"] = {"hitting": str(hitting_path), "longest": str(longest_path)}

    expected["window"] = {}
    for triple in (THIRDS, ("0.5", "0.4", "0.1")):
        for m in size["window_m"]:
            expected["window"][triple, m] = window_probability(trial_distribution(triple), m)
    expected["conditional"] = {m: conditional_survival(trial_distribution(THIRDS), m)
                               for m in size["conditional_m"]}


def _check_exact_equals(value: Fraction):
    def check(payload: dict, ctx: dict) -> None:
        _require(Fraction(payload["exact"]) == value,
                 f"exact {payload['exact']} != independent route {value}")
    return check


def _check_value(key: str, value: float, rel: float):
    def check(payload: dict, ctx: dict) -> None:
        _close(payload[key], value, rel, key)
    return check


def _check_between(key: str, lo: float, hi: float):
    def check(payload: dict, ctx: dict) -> None:
        v = payload[key]
        _require(math.isfinite(v) and lo <= v <= hi, f"{key} = {v!r} outside [{lo}, {hi}]")
    return check


def _check_expansion(payload: dict, ctx: dict) -> None:
    _close(math.fsum(payload["terms"].values()), payload["total"], 1e-12, "sum of terms")
    if "integer_part" in payload:
        _require(payload["integer_part"] == math.floor(payload["total"]), "integer part")


def _check_constants(payload: dict, ctx: dict) -> None:
    _require(all(math.isfinite(v) for v in payload.values()), "non-finite constant")
    _require(payload["C"] > 0, "C = log(1/p) must be positive")


def _check_bounds(payload: dict, ctx: dict) -> None:
    lo, hi = payload["lower"], payload["upper"]
    _require(0 <= lo <= hi and math.isfinite(hi), f"bad sandwich [{lo!r}, {hi!r}]")
    _require(0 < payload["alpha"] <= 1, f"alpha = {payload['alpha']!r}")


def _queries_ops(size: dict, seed: int, pass_index: int, expected: dict) -> list[Op]:
    from contamruns.cli import FIGURE_PRESETS

    rng = random.Random(f"{seed}:queries:{pass_index}")
    ops: list[Op] = []
    for _ in range(size["query_reps"]):
        for p, q1, q2, _N, _s, m in FIGURE_PRESETS.values():
            dist = _dist_argv(p, q1, q2)
            N = str(rng.randrange(10 ** 5, 10 ** 7))
            x = rng.uniform(0.0, 4.0)
            ops += [
                Op("analytic pA1", ["analytic", "pA1", *dist, "--m", str(m)],
                   _check_between("pA1", 0.0, 1.0)),
                Op("analytic alpha", ["analytic", "alpha", *dist, "--m", str(m)],
                   _check_between("alpha", 1e-300, 1.0)),
                Op("analytic mN", ["analytic", "mN", *dist, "--N", N], _check_expansion),
                Op("analytic H", ["analytic", "H", *dist, "--N", N,
                                  "--x", f"{rng.uniform(-2.0, 2.0):.6f}"], _check_expansion),
                Op("analytic accompanying", ["analytic", "accompanying", *dist, "--N", N,
                                             "--k", str(rng.randint(-3, 3))],
                   _check_between("cdf", 0.0, 1.0)),
                Op("analytic theorem1", ["analytic", "theorem1", "--x", repr(x)],
                   _check_value("cdf", -math.expm1(-x), 1e-12)),
                Op("analytic constants", ["analytic", "constants", *dist], _check_constants),
            ]
    thirds = _dist_argv(*THIRDS)
    # known values from the README
    ops += [
        Op("analytic pA1", ["analytic", "pA1", *thirds, "--m", "3"],
           _check_value("pA1", 13 / 27, 1e-15)),
        Op("analytic alpha", ["analytic", "alpha", *thirds, "--m", "10"],
           _check_value("alpha", 659 / 1332, 1e-12)),
    ]
    for (triple, m), value in expected["window"].items():
        ops.append(Op("oracle window", ["oracle", "window", *_dist_argv(*triple), "--m", str(m)],
                      _check_exact_equals(value)))
    for m, value in expected["conditional"].items():
        ops.append(Op("oracle conditional", ["oracle", "conditional", *thirds, "--m", str(m)],
                      _check_exact_equals(value)))
    csv = expected["csv"]
    for _ in range(2):
        ops += [
            Op("compare exp1", ["compare", csv["hitting"]],
               _check_value("sup_distance", expected["ks_hitting"], 1e-9)),
            Op("compare accompanying", ["compare", csv["longest"]],
               _check_value("sup_distance", expected["ks_longest"], 1e-9)),
            Op("compare self", ["compare", csv["hitting"], "--ref", csv["hitting"]],
               _check_between("sup_distance", 0.0, 0.0)),
            Op("compare self", ["compare", csv["longest"], "--ref", csv["longest"]],
               _check_between("sup_distance", 0.0, 0.0)),
        ]
    for m in size["bounds_m"]:
        ops.append(Op("analytic bounds", ["analytic", "bounds", *thirds, "--m", str(m),
                                          "--N", str(rng.randrange(10 ** 5, 10 ** 7))],
                      _check_bounds))
    rng.shuffle(ops)
    return ops


# --- entry points -------------------------------------------------------------

def prepare(name: str, size: dict, seed: int, work: Path) -> dict:
    """Untimed set-up; returns the expected values the checks use."""
    expected: dict = {}
    if name == "oracle-dp":
        _prepare_oracle(size, expected)
    elif name == "queries":
        _prepare_queries(size, seed, work, expected)
    return expected


def ops_for_pass(name: str, size: dict, seed: int, pass_index: int, expected: dict,
                 threads: int = THREADS) -> list[Op]:
    if name in MC_WORKLOADS:
        return _mc_ops(name, size, seed, pass_index, threads)
    if name == "oracle-dp":
        return _oracle_ops(size, expected)
    if name == "queries":
        return _queries_ops(size, seed, pass_index, expected)
    raise ValueError(f"unknown workload {name!r}")
