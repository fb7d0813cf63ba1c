"""Single-pass scans: longest valid run and first hitting time.

Let f_1 < f_2 < ... be the failure positions and t_j their types, with
sentinels f_{-1} = f_0 = 0 of type 0 (no failure type) and one position
past the end.  The longest valid run whose last failure is f_j ends at
f_{j+1} - 1 and starts after f_{j-1} if t_{j-1} = t_j, else after
f_{j-2}.  mu(N) is the largest of these lengths and of the failure-free
stretch before f_1; tau_m, the end index of the first valid m-window,
lies in the first such run of length >= m, at max(f_j, start_j + m).

The chunk scanner finds a uint8 chunk's failures in one pass; its other
arrays are as long as the failure count.  Across chunks it carries the
position, the last two failures with their types and the current run's
start, so long pull-based sources are never materialized.
"""
from __future__ import annotations

import numpy as np

from .model import ValidationError, check_window_length


class ChunkScanner:
    """Carries the scan across numpy uint8 chunks; O(1) state, O(c) work."""

    def __init__(self):
        self.position = self.best = 0
        self.start = 0  # the current run begins at position start + 1
        self.failures, self.types = np.zeros(2, np.int64), np.zeros(2, np.uint8)

    def _scan(self, chunk: np.ndarray):
        """Advance; return F (2 carried failures, the new ones, the end) and the spans."""
        ev = np.flatnonzero(chunk != 0)
        F = np.empty(ev.size + 3, dtype=np.int64)
        F[:2] = self.failures
        np.add(ev, self.position + 1, out=F[2:-1])
        self.position += len(chunk)
        F[-1] = self.position + 1
        T = np.concatenate((self.types, chunk[ev]))
        g = np.diff(F)
        span = g[2:] + g[1:-1]  # per new failure: next failure - run start = run + 1
        g[:-2] *= T[2:] != T[1:-1]
        span += g[:-2]
        self.best = max(self.best, int(F[2]) - 1 - self.start, int(span.max(initial=1)) - 1)
        if ev.size:
            self.start = int(F[-1] - span[-1])
            self.failures, self.types = F[-3:-1].copy(), T[-2:].copy()
        return F, span

    def push(self, chunk: np.ndarray) -> None:
        self._scan(chunk)

    def push_until_hit(self, chunk: np.ndarray, m: int) -> int | None:
        """Advance; return the first absolute position with a run >= m, if any."""
        start, first = self.start, self.position + 1
        F, span = self._scan(chunk)
        if start + m < F[2]:  # the carried run reaches m before the next failure
            return max(first, start + m)
        hit = np.flatnonzero(span > m)[:1]
        return int(max(F[hit[0] + 2], F[hit[0] + 3] - span[hit[0]] + m)) if hit.size else None


def _as_array(seq) -> np.ndarray:
    """The sequence as uint8 outcomes; refuses any value but 0, 1 and 2."""
    arr = np.asarray(seq if isinstance(seq, np.ndarray) else list(seq))
    if arr.ndim != 1 or arr.dtype.kind not in "iuf" or not np.isin(arr, (0, 1, 2)).all():
        raise ValidationError("a sequence holds outcomes 0 (success), 1 and 2 (failures) only")
    return arr.astype(np.uint8)


def longest_run(seq) -> int:
    """mu(N): length of the longest at most 1+1 contaminated run."""
    arr = _as_array(seq)
    if arr.size == 0:
        raise ValidationError("sequence must be non-empty")
    scanner = ChunkScanner()
    scanner.push(arr)
    return scanner.best


def first_hitting(seq, m: int) -> int | None:
    """tau_m: end index of the first valid m-window, or None.

    The end-index convention makes {tau_m > N} coincide exactly with
    "no window among the first N - m + 1 is valid".
    """
    check_window_length(m, 1)
    return ChunkScanner().push_until_hit(_as_array(seq), m)
