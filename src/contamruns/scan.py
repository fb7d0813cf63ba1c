"""Single-pass scans: longest valid run and first hitting time.

Let f_1 < f_2 < ... be the failure positions and t_j their types, with
sentinels f_{-2} = f_{-1} = f_0 = 0 and one position past the end.  The
longest valid run whose last failure is f_j ends at f_{j+1} - 1 and starts
after f_{j-1} if t_{j-1} = t_j, else after f_{j-2}; for j = 0 it is the
failure-free stretch before f_1.  When f_{j-1} is a sentinel so is f_{j-2},
and both candidate starts are 0: a sentinel's type never decides a start,
so sentinels have none.  mu(N) is the largest of these lengths; tau_m, the
end index of the first valid m-window, lies in the first such run of
length >= m, at start_j + m.  (Runs start no earlier as j grows, so if
start_j + m < f_j the run before would already reach m.)

A valid run holds at most two failures, so the one whose last failure is
f_j lies strictly between f_{j-2} and f_{j+1} and is at most
f_{j+1} - f_{j-2} - 1 long.  Both scans test that bound on every failure
triple and read types only at the few candidates, in order.  The hitting
scan takes the j with f_{j+1} - f_{j-2} > m and stops at the first hit.
The longest-run scan takes those with f_{j+1} - f_{j-2} > best + 1, where
best is a floor on mu: the best carried from earlier blocks or, while
there is none, the longest run strictly between f_{j-1} and f_{j+1},
which holds the one failure f_j and so is always valid.  At thirds a
2^16-symbol block holds about 43,700 failures.  At N = 3e5 a median of 7
of them are candidates in the first block (at most 51 over 300
repetitions) and 0 in later ones (at most 13); traced `mc-longest` reads
2.9-3.7 ns per symbol for the scan, over the calling process's half of the
repetitions (the forked worker's spans stay in that worker).

The chunk scanner reads values against two thresholds: a symbol is a
failure when its value is at least `fail_at`, and of the second type when
it is at least `second_at`.  The defaults 1 and 2 read outcome codes 0, 1
and 2 (`longest_run`, `first_hitting`).  The experiments push the 32-bit
fields they draw against the thresholds of `montecarlo.outcome_scanner`,
so the scan makes the comparisons that map a field to its outcome, and
no code array is built.  Per block
it finds the failures in one pass over a bool mask; its other arrays are
as long as the failure count.  Across blocks it carries the position and
the last three failures with their types, so the run still open at the
end of a block is the first run the next block scans, and long pull-based
sources are never materialized.
"""
from __future__ import annotations

import numpy as np

from .model import ValidationError, check_window_length


class ChunkScanner:
    """Carries the scan across numpy blocks; O(1) state, O(c) work.

    A symbol is a failure when its value is at least `fail_at`, and of the
    second type when it is at least `second_at`: outcome codes 0, 1 and 2
    with the defaults, 32-bit fields with `montecarlo.outcome_scanner`'s.
    A scanner serves one mode: `push` keeps `best`, `push_until_hit` does not.
    """

    def __init__(self, fail_at=1, second_at=2):
        self.fail_at, self.second_at = fail_at, second_at
        self.position = self.best = 0
        self.failures, self.types = np.zeros(3, np.int64), np.zeros(3, bool)

    def _advance(self, block: np.ndarray):
        """Advance; return F (3 carried failures, the new ones, the end) and
        the new failures' offsets in the block."""
        ev = (block >= self.fail_at).nonzero()[0]
        F = np.empty(ev.size + 4, dtype=np.int64)
        F[:3] = self.failures
        np.add(ev, self.position + 1, out=F[3:-1])
        self.position += len(block)
        F[-1] = self.position + 1
        return F, ev

    def _runs(self, F: np.ndarray, ev: np.ndarray, block: np.ndarray, longer_than: int):
        """Yield (start, end) of each run whose last failure is F[i + 2] and
        F[i + 3] - F[i] > longer_than, in order: the run is start + 1 ..
        end - 1.  The others are at most longer_than - 1 symbols long."""
        carried, second_at = self.types.tolist(), self.second_at
        for i in (F[3:] - F[:-3] > longer_than).nonzero()[0].tolist():
            f0, f1, _, f3 = F[i:i + 4].tolist()
            # whether F[i + 1] and F[i + 2] are of the second type; F[k] is
            # carried for k < 3 and block[ev[k - 3]] otherwise
            t1 = carried[i + 1] if i < 2 else block[ev[i - 2]] >= second_at
            t2 = carried[i + 2] if i < 1 else block[ev[i - 1]] >= second_at
            yield (f1 if t1 == t2 else f0), f3

    def _carry(self, F: np.ndarray, ev: np.ndarray, block: np.ndarray) -> None:
        self.failures = F[-4:-1].copy()
        self.types = np.concatenate((self.types, block[ev[-3:]] >= self.second_at))[-3:]

    def push(self, block: np.ndarray) -> None:
        F, ev = self._advance(block)
        # a carried best is a floor; so is the longest run strictly between
        # F[j - 1] and F[j + 1], which holds the one failure F[j]
        best = self.best or int((F[2:] - F[:-2]).max()) - 1
        for start, end in self._runs(F, ev, block, best + 1):
            best = max(best, end - start - 1)
        self.best = best
        self._carry(F, ev, block)

    def push_until_hit(self, block: np.ndarray, m: int) -> int | None:
        """Advance; return the first absolute position with a run >= m, if any."""
        F, ev = self._advance(block)
        for start, end in self._runs(F, ev, block, m):
            if end - start > m:
                return start + m
        self._carry(F, ev, block)
        return None


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
