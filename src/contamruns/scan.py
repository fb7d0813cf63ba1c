"""Single-pass scans: longest valid run and first hitting time.

The suffix recursion: with prevPlus/prevMinus the second most recent
occurrence of each failure type (0 while fewer than two have been
seen), the longest valid run ending at position t has length
L(t) = t - max(prevPlus, prevMinus).  Its running maximum is the
longest at most 1+1 contaminated run; the first t with L(t) >= m is
the end index of the first qualifying m-window.

The scan engine is a vectorized chunk scanner that consumes numpy
uint8 arrays and carries the four-index state across chunk borders, so
arbitrarily long pull-based sources never need to be materialized.
"""
from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .model import Outcome, ValidationError, check_window_length


class ChunkScanner:
    """Carries the scan across numpy uint8 chunks; O(1) state, O(c) work."""

    def __init__(self):
        self.position = 0
        self.last_plus = 0
        self.prev_plus = 0
        self.last_minus = 0
        self.prev_minus = 0
        self.best = 0

    def _prev_trace(self, chunk: np.ndarray, symbol: int) -> np.ndarray:
        """Second-most-recent occurrence of `symbol` at each chunk position."""
        if symbol == int(Outcome.FAIL_PLUS):
            prev_in, last_in = self.prev_plus, self.last_plus
        else:
            prev_in, last_in = self.prev_minus, self.last_minus
        hits = np.flatnonzero(chunk == symbol)
        occ = np.concatenate(([prev_in, last_in], self.position + 1 + hits))
        cnt = np.cumsum(chunk == symbol)
        prev_t = occ[cnt]
        if symbol == int(Outcome.FAIL_PLUS):
            self.prev_plus = int(occ[cnt[-1]]) if len(chunk) else prev_in
            self.last_plus = int(occ[cnt[-1] + 1]) if len(chunk) else last_in
        else:
            self.prev_minus = int(occ[cnt[-1]]) if len(chunk) else prev_in
            self.last_minus = int(occ[cnt[-1] + 1]) if len(chunk) else last_in
        return prev_t

    def suffix_lengths(self, chunk: np.ndarray) -> np.ndarray:
        """Advance over the chunk; return L at each of its positions."""
        chunk = np.asarray(chunk)
        if chunk.size == 0:
            return np.zeros(0, dtype=np.int64)
        prev_p = self._prev_trace(chunk, int(Outcome.FAIL_PLUS))
        prev_m = self._prev_trace(chunk, int(Outcome.FAIL_MINUS))
        positions = np.arange(self.position + 1, self.position + len(chunk) + 1, dtype=np.int64)
        self.position += len(chunk)
        lengths = positions - np.maximum(prev_p, prev_m)
        chunk_best = int(lengths.max())
        if chunk_best > self.best:
            self.best = chunk_best
        return lengths

    def push(self, chunk: np.ndarray) -> None:
        self.suffix_lengths(chunk)

    def push_until_hit(self, chunk: np.ndarray, m: int) -> Optional[int]:
        """Advance; return the first absolute position with L >= m, if any."""
        start = self.position
        lengths = self.suffix_lengths(chunk)
        hit = np.flatnonzero(lengths >= m)
        if hit.size:
            return start + int(hit[0]) + 1
        return None


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


def longest_run_chunked(chunks: Iterable[np.ndarray]) -> int:
    """Longest run over a pull-based chunk source; nothing is retained."""
    scanner = ChunkScanner()
    empty = True
    for chunk in chunks:
        if len(chunk):
            empty = False
        scanner.push(chunk)
    if empty:
        raise ValidationError("sequence must be non-empty")
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


def first_hitting_chunked(chunks: Iterable[np.ndarray], m: int) -> Optional[int]:
    check_window_length(m, 1)
    scanner = ChunkScanner()
    for chunk in chunks:
        hit = scanner.push_until_hit(chunk, m)
        if hit is not None:
            return hit
    return None
