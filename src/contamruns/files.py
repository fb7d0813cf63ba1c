"""CSV/JSON file formats for experiment outputs.

Distribution CSVs are UTF-8, comma-separated, with `#`-prefixed
`key=value` metadata lines before the header.  Counts are integers and
round-trip exactly; support values round-trip via repr.  Every
experiment output directory gets a JSON manifest sufficient to rerun
the experiment bit-identically.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .model import ValidationError
from .montecarlo import EmpiricalDistribution


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


class FileFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _write_csv(path, metadata: dict, header: str, rows) -> None:
    """The `# key=value` lines, the header, then the rows (each ends in a newline)."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines([*(f"# {key}={value}\n" for key, value in metadata.items()), header, *rows])


def write_empirical_csv(path, empirical: EmpiricalDistribution, metadata: dict) -> None:
    rows = zip(empirical.support.tolist(), empirical.weights.tolist(),
               empirical.cdf(empirical.support).tolist())
    _write_csv(path, metadata, "value,count,ecdf\n", (f"{x!r},{w},{c!r}\n" for x, w, c in rows))


def read_empirical_csv(path) -> tuple[EmpiricalDistribution, dict]:
    metadata: dict[str, str] = {}
    support: list[float] = []
    weights: list[int] = []
    integer_support = True
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    body_started = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if body_started:
                raise FileFormatError("metadata after data rows", lineno)
            key, _, value = line[1:].strip().partition("=")
            metadata[key.strip()] = value
            continue
        if not body_started:
            if line != "value,count,ecdf":
                raise FileFormatError(f"expected header 'value,count,ecdf', got {line!r}", lineno)
            body_started = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FileFormatError(f"expected 3 fields, got {len(parts)}", lineno)
        # an integer value is read exactly, not rounded through a double
        integer = parts[0].lstrip("+-").isdigit()
        integer_support = integer_support and integer
        try:
            x = int(parts[0]) if integer else float(parts[0])
            w = int(parts[1])
        except ValueError as exc:
            raise FileFormatError(str(exc), lineno) from None
        if integer and not _INT64_MIN <= x <= _INT64_MAX:
            raise FileFormatError(f"integer value past the int64 range, got {parts[0]!r}",
                                  lineno)
        if not math.isfinite(x):
            raise FileFormatError(f"value must be finite, got {parts[0]!r}", lineno)
        if w < 1:
            raise FileFormatError(f"count must be >= 1, got {w}", lineno)
        support.append(x)
        weights.append(w)
    if not body_started:
        raise FileFormatError("no header found", len(lines))
    if not support:
        raise FileFormatError("no data rows", len(lines))
    if sum(weights) > _INT64_MAX:  # counts are >= 1: refuses any one count past it too
        raise FileFormatError("the counts sum past the int64 range")
    arr = np.asarray(support, dtype=np.int64 if integer_support else np.float64)
    w = np.asarray(weights, dtype=np.int64)
    if not np.all(arr[1:] > arr[:-1]):  # np.diff wraps past int64
        raise FileFormatError("support values must be strictly increasing")
    return EmpiricalDistribution(support=arr, weights=w, total=int(w.sum())), metadata


def write_reference_csv(path, grid, cdf_values, metadata: dict) -> None:
    _write_csv(path, metadata, "value,cdf\n",
               (f"{x!r},{float(c)!r}\n" for x, c in zip(grid, cdf_values)))


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to rerun an experiment bit-identically."""

    config: dict            # mode, p, q1, q2, N, s, m, seed (strings/ints)
    tool_version: str
    rng_scheme: str
    wall_time_s: float
    excluded: int
    outputs: dict = field(default_factory=dict)  # logical name -> path


def write_manifest(path, manifest: RunManifest) -> None:
    text = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_manifest(path) -> RunManifest:
    try:
        return RunManifest(**json.loads(Path(path).read_text(encoding="utf-8")))
    except (json.JSONDecodeError, TypeError) as exc:
        raise FileFormatError(f"bad manifest: {exc}") from None
