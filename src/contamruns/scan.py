"""Single-pass scans: longest valid run and first hitting time.

The suffix recursion: with prevPlus/prevMinus the second most recent
occurrence of each failure type (0 while fewer than two have been
seen), the longest valid run ending at position t has length
L(t) = t - max(prevPlus, prevMinus).  Its running maximum is the
longest at most 1+1 contaminated run; the first t with L(t) >= m is
the end index of the first qualifying m-window.

The scan engine is a vectorized chunk scanner that consumes numpy
uint8 arrays and carries, across chunk borders, only the position and
the two most recent positions of each failure type, so arbitrarily
long pull-based sources never need to be materialized.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .model import Outcome, ValidationError, check_window_length

_FAILURES = (int(Outcome.FAIL_PLUS), int(Outcome.FAIL_MINUS))


class ChunkScanner:
    """Carries the scan across numpy uint8 chunks; O(1) state, O(c) work."""

    def __init__(self):
        self.position = 0
        self.best = 0
        # row i: the second most recent and the most recent position of
        # failure type _FAILURES[i] (0 while fewer have been seen)
        self.recent = np.zeros((2, 2), dtype=np.int64)

    def suffix_lengths(self, chunk: np.ndarray) -> np.ndarray:
        """Advance over the chunk; return L at each of its positions."""
        chunk = np.asarray(chunk)
        prev = []  # per failure type: its second most recent position at each t
        for recent, symbol in zip(self.recent, _FAILURES):
            mask = chunk == symbol
            occ = np.concatenate((recent, self.position + 1 + np.flatnonzero(mask)))
            recent[:] = occ[-2:]
            prev.append(occ.take(np.cumsum(mask)))
        positions = np.arange(self.position + 1, self.position + len(chunk) + 1, dtype=np.int64)
        self.position += len(chunk)
        start = np.maximum(*prev, out=prev[0])
        lengths = np.subtract(positions, start, out=start)
        self.best = max(self.best, int(lengths.max(initial=0)))
        return lengths

    def push(self, chunk: np.ndarray) -> None:
        self.suffix_lengths(chunk)

    def push_until_hit(self, chunk: np.ndarray, m: int) -> Optional[int]:
        """Advance; return the first absolute position with L >= m, if any."""
        start = self.position
        lengths = self.suffix_lengths(chunk)
        hit = np.flatnonzero(lengths >= m)
        return start + int(hit[0]) + 1 if hit.size else None


def _as_array(seq) -> np.ndarray:
    if isinstance(seq, np.ndarray):
        return seq
    return np.fromiter((int(x) for x in seq), dtype=np.uint8)


def longest_run(seq) -> int:
    """mu(N): length of the longest at most 1+1 contaminated run."""
    arr = _as_array(seq)
    if arr.size == 0:
        raise ValidationError("sequence must be non-empty")
    scanner = ChunkScanner()
    scanner.push(arr)
    return scanner.best


def first_hitting(seq, m: int) -> Optional[int]:
    """tau_m: end index of the first valid m-window, or None.

    The end-index convention makes {tau_m > N} coincide exactly with
    "no window among the first N - m + 1 is valid".
    """
    check_window_length(m, 1)
    arr = _as_array(seq)
    scanner = ChunkScanner()
    return scanner.push_until_hit(arr, m)
