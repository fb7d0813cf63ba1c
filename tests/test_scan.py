"""Scans against a brute-force window oracle and against each other."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contamruns.model import ValidationError, is_window_valid
from contamruns.scan import ChunkScanner, first_hitting, longest_run

sequences = st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=24)


def brute_longest(seq) -> int:
    n = len(seq)
    return max(j - i for i in range(n) for j in range(i + 1, n + 1)
               if is_window_valid(seq[i:j]))


def brute_hitting(seq, m):
    for end in range(m, len(seq) + 1):
        if is_window_valid(seq[end - m:end]):
            return end
    return None


# --- worked examples ------------------------------------------------------

def test_longest_run_examples():
    assert longest_run([0] * 10) == 10
    assert longest_run([1, 0, 1, 0]) == 3
    assert longest_run([1, 2, 1, 2]) == 2
    assert longest_run([0, 1, 0, 2, 0]) == 5
    assert longest_run([1]) == 1


def test_suffix_trace_examples():
    scanner = ChunkScanner()
    trace = scanner.suffix_lengths(np.array([0, 1, 2, 0], dtype=np.uint8))
    assert trace.tolist() == [1, 2, 3, 4]
    scanner = ChunkScanner()
    trace = scanner.suffix_lengths(np.array([1, 1], dtype=np.uint8))
    assert trace.tolist() == [1, 1]
    # after the second type-I failure only positions 3..5 qualify
    scanner = ChunkScanner()
    trace = scanner.suffix_lengths(np.array([0, 1, 0, 2, 1], dtype=np.uint8))
    assert trace.tolist() == [1, 2, 3, 4, 3]
    assert scanner.best == 4


def test_first_hitting_examples():
    assert first_hitting([0, 0, 0], 3) == 3
    assert first_hitting([1, 1, 0, 0, 0], 3) == 4
    assert first_hitting([1, 2, 1, 2], 3) is None
    assert first_hitting([0, 1], 1) == 1


def test_empty_sequences_rejected():
    with pytest.raises(ValidationError):
        longest_run([])


def test_streaming_update_tracks_best():
    scanner = ChunkScanner()
    for x in [0, 1, 0, 2, 1]:
        trace = scanner.suffix_lengths(np.array([x], dtype=np.uint8))
    # after the second type-I failure only positions 3..5 qualify
    assert trace.tolist() == [3]
    assert scanner.best == 4


# --- property tests against brute force ------------------------------------

@given(sequences)
def test_longest_run_matches_brute_force(seq):
    assert longest_run(seq) == brute_longest(seq)


@given(sequences, st.integers(min_value=1, max_value=8))
def test_first_hitting_matches_brute_force(seq, m):
    assert first_hitting(seq, m) == brute_hitting(seq, m)


@given(sequences, st.integers(min_value=1, max_value=8))
def test_hitting_longest_duality(seq, m):
    # {tau_m > N} iff mu(N) < m
    hit = first_hitting(seq, m)
    assert (hit is None or hit > len(seq)) == (longest_run(seq) < m)


@given(sequences, st.sampled_from([0, 1, 2]))
def test_longest_run_monotone_under_extension(seq, extra):
    assert longest_run(seq + [extra]) >= longest_run(seq)


def scan_pieces(pieces, m=None):
    """Drive one ChunkScanner over the pieces: its best, or its first hit."""
    scanner = ChunkScanner()
    for piece in pieces:
        if m is None:
            scanner.push(piece)
        else:
            hit = scanner.push_until_hit(piece, m)
            if hit is not None:
                return hit
    return scanner.best if m is None else None


@settings(max_examples=100)
@given(sequences, st.lists(st.integers(min_value=0, max_value=24), max_size=5))
def test_chunk_split_is_invisible(seq, cuts):
    # cuts may repeat or fall on either end, so some pieces are empty
    arr = np.asarray(seq, dtype=np.uint8)
    pieces = np.split(arr, sorted(min(c, len(seq)) for c in cuts))
    assert scan_pieces(pieces) == longest_run(seq)
    for m in (1, 2, 3, 5):
        assert scan_pieces(pieces, m) == first_hitting(seq, m)


def test_chunked_scan_constant_state_across_many_chunks():
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 3, size=10_000, dtype=np.uint8).astype(np.uint8)
    whole = longest_run(arr)
    pieces = np.array_split(arr, 137)
    assert scan_pieces(pieces) == whole
    for m in (5, 8, 12):
        assert scan_pieces(pieces, m) == first_hitting(arr, m)
