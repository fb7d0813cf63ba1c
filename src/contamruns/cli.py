"""Command-line surface: analytic queries, exact oracles, experiments,
and empirical-vs-theoretical comparisons.

Exit codes: 0 success, 1 usage, 2 validation, 3 size/budget refusal,
4 I/O failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .files import (
    FileFormatError,
    read_empirical_csv,
    write_empirical_csv,
    write_manifest,
    write_reference_csv,
)
from .model import DEFAULT_BUDGET, SizeError, TrialDistribution, ValidationError, finite_float


# Every library call goes through the package's names, which import their
# submodule on first use: the analytic commands never load numpy.  One
# object under three names, so that a tracer can swap in each layer.
an = mc = orc = sys.modules[__package__]

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4

# --threads outside 1..this is refused before any worker starts; 8 is always allowed
MAX_THREADS = max(8, 4 * (os.cpu_count() or 1))

# (p, q1, q2, N, s, m) parameter sets for the eight figure presets
FIGURE_PRESETS = {
    1: ("1/3", "1/3", "1/3", 3_000_000, 3000, 16),
    2: ("0.4", "0.3", "0.3", 3_000_000, 3000, 19),
    3: ("0.5", "0.4", "0.1", 4_000_000, 3000, 25),
    4: ("0.5", "0.3", "0.2", 3_000_000, 3000, 23),
    5: ("0.5", "0.25", "0.25", 2_000_000, 2000, 25),
    6: ("0.6", "0.2", "0.2", 4_000_000, 3000, 34),
    7: ("0.7", "0.2", "0.1", 4_000_000, 3000, 47),
    8: ("0.8", "0.1", "0.1", 3_000_000, 3000, 72),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_prob(text: str) -> Fraction:
    """Accept '1/3' and decimal literals; both become exact fractions.  An
    exponent of five digits is refused: 10^e takes seconds past e = 10^6."""
    if re.search(r"[eE][-+]?0*[1-9]\d{4}", text):
        raise ValidationError(f"probability exponent past 9999 in {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse probability {text!r}") from None


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name} is required for this query")


def _fill_unset(args, pairs) -> None:
    """Default each flag of the (name, value) pairs: set it to the value
    only while it is unset and the value is not empty, so a flag given on
    the command line always wins and an empty value counts as missing."""
    for name, value in pairs:
        if getattr(args, name) is None and value not in (None, ""):
            setattr(args, name, value)


def _dist(args) -> TrialDistribution:
    _require(args, "p", "q1", "q2")
    return TrialDistribution(parse_prob(args.p), parse_prob(args.q1), parse_prob(args.q2))


def _emit(args, payload: dict, human) -> None:
    """Print the payload as JSON, or the human text (a string, or a
    callable that makes it only when it is printed)."""
    if args.json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        print(human() if callable(human) else human)


def _exact_str(v) -> str | None:
    """str(v), or None when a part of v is past the interpreter's
    int-to-str digit limit (4300 digits by default)."""
    try:
        return str(v)
    except ValueError:
        return None


# --- analytic ----------------------------------------------------------

def _term_table(header: str, terms: dict) -> str:
    """The header, then one line per expansion term: its signed value and name."""
    return "\n".join([header, *(f"  {v:+.9g}  {k}" for k, v in terms.items())])


def cmd_analytic(args) -> int:
    q = args.quantity
    if q == "constants":
        c = an.derive_constants(_dist(args))
        payload = {"C": c.C, "C0": float(c.C0), "C1": finite_float(c.C1, "C1"),
                   "C2": finite_float(c.C2, "C2"), "K": c.K}
        _emit(args, payload, "\n".join(f"{k} = {v}" for k, v in payload.items()))
    elif q == "pA1":
        _require(args, "m")
        v = an.window_probability(_dist(args), args.m)
        text = _exact_str(v)
        _emit(args, {"pA1": float(v)},
              f"P(A1) = {text} ~ {float(v):.9g}" if text is not None
              else f"P(A1) ~ {float(v):.9g} (exact value too long to print)")
    elif q == "alpha":
        _require(args, "m")
        b = an.alpha_correction(_dist(args), args.m)
        payload = {k: finite_float(getattr(b, k), k)
                   for k in ("alpha", "numerator", "denominator")}
        if not b.alpha > 0:
            raise ValidationError(f"alpha = {payload['alpha']:.9g} at m={args.m}: the finite-m "
                                  f"formula leaves (0, 1] here, so it gives no rate")
        _emit(args, payload,
              f"alpha = {payload['alpha']:.9g} (numerator {payload['numerator']:.9g} "
              f"/ denominator {payload['denominator']:.9g})")
    elif q == "mN":
        _require(args, "N")
        r = an.AccompanyingLaw(_dist(args), args.N).m
        payload = {"total": r.total, "integer_part": r.integer_part,
                   "fractional_part": r.fractional_part, "terms": r.terms}
        _emit(args, payload, _term_table(f"m(N) = {r.total!r}  [m(N)] = {r.integer_part}  "
                                         f"{{m(N)}} = {r.fractional_part!r}", r.terms))
    elif q == "H":
        _require(args, "N", "x")
        r = an.AccompanyingLaw(_dist(args), args.N).h(args.x)
        payload = {"total": r.total, "terms": r.terms}
        _emit(args, payload, _term_table(f"H({args.x}) = {r.total!r}", r.terms))
    elif q == "accompanying":
        _require(args, "N", "k")
        d = an.AccompanyingLaw(_dist(args), args.N).at(args.k)
        payload = {"cdf": d.cdf, "clamped": d.clamped,  # an infinite exponent prints as null
                   "exponent": d.exponent if math.isfinite(d.exponent) else None}
        _emit(args, payload,
              f"P(mu(N) - [m(N)] < {args.k}) = {d.cdf!r}"
              + (" (clamped)" if d.clamped else ""))
    elif q == "theorem1":
        _require(args, "x")
        v = an.theorem1_limit_cdf(args.x)
        _emit(args, {"cdf": v}, f"P(tau_m alpha P(A1) <= {args.x}) -> {v!r}")
    elif q == "bounds":
        _require(args, "m", "N")
        b = an.sandwich(_dist(args), args.m, args.N)
        _emit(args, dataclasses.asdict(b),
              f"{b.lower!r} < P(no valid window among {args.N}) < {b.upper!r} "
              f"(alpha={b.alpha:.9g}, eps={b.eps:.3g})"
              + (" (degenerate: eps underflowed to 0)" if b.degenerate else ""))
    return 0


# --- oracle ------------------------------------------------------------

def _print_prob(args, label: str, v) -> None:
    payload = {"value": float(v)}
    if not isinstance(v, Fraction):
        _emit(args, payload, f"{label} = {float(v)!r}")
        return
    text = _exact_str(v)
    if text is None:
        _emit(args, payload, f"{label} ~ {float(v):.12g} (exact value too long to print)")
        return
    payload["exact"] = f"{v.numerator}/{v.denominator}"
    _emit(args, payload, f"{label} = {text} ~ {float(v):.12g}")


def cmd_oracle(args) -> int:
    q = args.query
    dist = _dist(args)
    if q in ("longest-cdf", "hitting-tail"):  # P(mu(N) < m) = P(tau_m > N)
        _require(args, "N", "m")
        v = orc.dp_longest_cdf(dist, args.N, args.m, mode=args.mode, budget=args.budget)
        _print_prob(args, f"P(mu({args.N}) < {args.m})" if q == "longest-cdf"
                    else f"P(tau_{args.m} > {args.N})", v)
    elif q == "conditional":
        _require(args, "m")
        v = an.conditional_survival(dist, args.m)
        _print_prob(args, f"P(no recurrence in windows 2..{args.m} | A1)", v)
    elif q == "window":
        _require(args, "m")
        v = an.window_probability(dist, args.m)
        _print_prob(args, "P(A1)", v)
    return 0


# --- experiment --------------------------------------------------------

def _law_for(mode) -> str:
    """The theoretical law of an experiment mode: Exp(1) for the scaled
    hitting time, the accompanying CDF for the longest run."""
    return "exp1" if mode == "hitting" else "accompanying"


def _against(empirical, ref_name: str, dist=None, N=None):
    """(sup-distance, reference CDF at each support point) against a named law.

    ref_name is exp1, accompanying (which needs dist and N) or the path
    of another empirical CSV.  The law is cached, so the distance and the
    column share one evaluation per point.
    """
    if ref_name == "exp1":
        cdf = functools.cache(an.theorem1_limit_cdf)
        return mc.sup_distance(empirical, cdf), [cdf(float(x)) for x in empirical.support]
    if ref_name == "accompanying":
        law = an.AccompanyingLaw(dist, N)
        below = functools.cache(lambda k: law.at(k).cdf)  # P(mu - [m(N)] < k)
        column = [below(math.floor(x) + 1) for x in empirical.support.tolist()]
        return mc.sup_distance_lattice(empirical, below), column
    other, _ = read_empirical_csv(ref_name)
    return mc.sup_distance_step(empirical, other), other.cdf(empirical.support).tolist()


def cmd_experiment(args) -> int:
    if not 1 <= args.threads <= MAX_THREADS:
        raise ValidationError(f"--threads must be in 1..{MAX_THREADS}, got {args.threads}")
    if args.figure is not None:
        _fill_unset(args, zip(("p", "q1", "q2", "N", "s", "m"), FIGURE_PRESETS[args.figure]))
    _require(args, "s", "N" if args.mode == "longest" else "m")
    # hitting runs are unbounded; the longest run has no window
    N, m = (args.N, None) if args.mode == "longest" else (None, args.m)
    s, scale = args.s, args.scale
    if scale is not None:
        if not (0 < scale <= 1):
            raise ValidationError(f"--scale must lie in (0, 1], got {scale}")
        # exact products: an int N past the double range does not overflow
        N = None if N is None else max(1, round(N * Fraction(scale)))
        s = max(1, round(s * Fraction(scale)))
    dist = _dist(args)
    # named from every field that changes the results; floats by repr keep every digit
    p, q1, q2 = dist.as_floats()
    size = f"N{N}" if args.mode == "longest" else f"m{m}"
    prefix = f"{args.mode}_p{p!r}_q1{q1!r}_q2{q2!r}_{size}_s{s}_seed{args.seed}"
    if len(prefix) > 200:  # checked before the run: file names stop at 255 bytes
        raise ValidationError("--seed, --N or --s is too long for the output file names")
    out_dir = Path(args.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)  # before the run, so an unusable --out fails fast
    t0 = time.perf_counter()
    try:
        if args.mode == "longest":
            result = mc.run_longest_experiment(dist, N, s, args.seed, workers=args.threads)
        else:
            result = mc.run_hitting_experiment(dist, m, s, args.seed, workers=args.threads)
    except (SizeError, ValidationError, MemoryError):
        for d in made:  # a refused run leaves no directory behind that this call made
            try:
                d.rmdir()  # only while empty
            except OSError:
                break
        raise
    wall = time.perf_counter() - t0

    config = {"mode": args.mode, "p": args.p, "q1": args.q1, "q2": args.q2,
              "N": N, "s": s, "m": m, "seed": args.seed, "scale": 1.0 if scale is None else scale}
    meta = {**{k: "" if v is None else v for k, v in config.items()},
            "rng_scheme": mc.RNG_SCHEME_ID, "tool_version": __version__}
    emp_path = out_dir / f"{prefix}_empirical.csv"
    ref_path = out_dir / f"{prefix}_reference.csv"
    rep_path = out_dir / f"{prefix}_report.json"
    man_path = out_dir / f"{prefix}_manifest.json"

    write_empirical_csv(emp_path, result.empirical, meta)
    ref_name = _law_for(args.mode)
    distance, column = _against(result.empirical, ref_name, dist, N)
    write_reference_csv(ref_path, result.empirical.support.tolist(), column,
                        {**meta, "reference": ref_name})
    report = {"sup_distance": distance, "reference": ref_name,
              "samples": result.empirical.total, "excluded": result.excluded}
    write_manifest(rep_path, report)
    outputs = {"empirical": str(emp_path), "reference": str(ref_path), "report": str(rep_path)}
    write_manifest(man_path, {"config": config, "tool_version": __version__,
                              "rng_scheme": mc.RNG_SCHEME_ID, "wall_time_s": wall,
                              "excluded": result.excluded, "outputs": outputs})
    _emit(args, {**report, "outputs": outputs, "manifest": str(man_path)},
          f"sup-distance vs {ref_name}: {distance:.6f} "
          f"({result.empirical.total} samples, {result.excluded} excluded)\n"
          f"wrote {emp_path}, {ref_path}, {rep_path}, {man_path}")
    return 0


# --- compare -----------------------------------------------------------

def cmd_compare(args) -> int:
    empirical, meta = read_empirical_csv(args.empirical)
    ref_name = args.ref if args.ref is not None else _law_for(meta.get("mode"))
    dist = N = None
    if ref_name == "accompanying":
        _fill_unset(args, ((name, meta.get(name)) for name in ("p", "q1", "q2", "N")))
        dist = _dist(args)
        _require(args, "N")
        try:
            N = int(args.N)
        except ValueError:
            raise ValidationError(f"cannot parse N {args.N!r}") from None
    distance, ref_column = _against(empirical, ref_name, dist, N)
    rows = list(zip(empirical.support.tolist(),
                    empirical.cdf(empirical.support).tolist(), ref_column))
    _emit(args,
          {"sup_distance": distance, "reference": ref_name,
           "table": [{"value": v, "ecdf": e, "reference_cdf": r} for v, e, r in rows]},
          lambda: "\n".join([f"sup-distance vs {ref_name}: {distance:.6f}",
                             "value,ecdf,reference_cdf",
                             *(f"{v!r},{e!r},{r!r}" for v, e, r in rows)]))
    return 0


# --- wiring ------------------------------------------------------------

@functools.cache  # built once per process; main parses each argv with it
def build_parser() -> _Parser:
    parser = _Parser(prog="contamruns",
                     description="At most 1+1 contaminated runs: formulas, oracles, experiments")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=20240817, help="experiment master seed")
    parser.add_argument("--threads", type=int, default=1,
                        help=f"most workers, 1 to {MAX_THREADS}")
    parser.add_argument("--out", default="out", help="output directory for experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dist(p):
        p.add_argument("--p")
        p.add_argument("--q1")
        p.add_argument("--q2")

    pa = sub.add_parser("analytic", help="closed-form quantities")
    pa.add_argument("quantity",
                    choices=["pA1", "alpha", "mN", "H", "accompanying",
                             "theorem1", "bounds", "constants"])
    add_dist(pa)
    pa.add_argument("--m", type=int)
    pa.add_argument("--N", type=int)
    pa.add_argument("--x", type=float)
    pa.add_argument("--k", type=int)
    pa.set_defaults(fn=cmd_analytic)

    po = sub.add_parser("oracle", help="exact probabilities: the DP and the closed forms")
    po.add_argument("query", choices=["longest-cdf", "hitting-tail", "conditional", "window"])
    add_dist(po)
    po.add_argument("--m", type=int)
    po.add_argument("--N", type=int)
    po.add_argument("--mode", choices=["exact", "float"], default="exact")
    po.add_argument("--budget", type=float, default=DEFAULT_BUDGET)
    po.set_defaults(fn=cmd_oracle)

    pe = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    add_dist(pe)
    pe.add_argument("--figure", type=int, choices=sorted(FIGURE_PRESETS),
                    help="figure preset 1..8; flags override its fields")
    pe.add_argument("--mode", choices=["longest", "hitting"], default="longest")
    pe.add_argument("--N", type=int)
    pe.add_argument("--s", type=int)
    pe.add_argument("--m", type=int)
    pe.add_argument("--scale", type=float, help="multiply N and s down for desk-scale runs")
    pe.set_defaults(fn=cmd_experiment)

    pc = sub.add_parser("compare", help="empirical CSV vs a reference CDF")
    pc.add_argument("empirical", help="empirical distribution CSV")
    pc.add_argument("--ref", help="exp1 | accompanying | path to another empirical CSV")
    add_dist(pc)
    pc.add_argument("--N", type=int)
    pc.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("refused: not enough memory for this run", file=sys.stderr)
        return EXIT_BUDGET
    except FileFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
