"""Scans against a brute-force window oracle and against each other."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contamruns.model import ValidationError
from contamruns.scan import ChunkScanner, first_hitting, longest_run

from crosscheck import is_window_valid

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
    # the run length at each position of [0, 1, 0, 2, 1] is 1, 2, 3, 4, 3:
    # after the second type-I failure only positions 3..5 qualify
    for seq, best in (([0, 1, 2, 0], 4), ([1, 1], 1), ([0, 1, 0, 2, 1], 4)):
        assert scan_pieces([np.array(seq, dtype=np.uint8)]) == best
        assert scan_pieces([np.array(seq, dtype=np.uint8)], best) == best
        assert scan_pieces([np.array(seq, dtype=np.uint8)], best + 1) is None
    scanner = ChunkScanner()
    scanner.push(np.array([0, 1, 0, 2, 1], dtype=np.uint8))
    scanner.push(np.array([0, 0], dtype=np.uint8))
    assert scanner.best == 5  # the carried run of 3 grows to 5


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
        assert scanner.push_until_hit(np.array([x], dtype=np.uint8), 5) is None
    assert scanner.position == 5
    # after the second type-I failure only positions 3..5 qualify, so the
    # run reaches 4 again at position 6
    assert scanner.push_until_hit(np.array([0], dtype=np.uint8), 4) == 6


def test_streaming_push_tracks_best():
    # a scanner serves one mode: push keeps best, push_until_hit does not
    scanner = ChunkScanner()
    bests = []
    for x in [0, 1, 0, 2, 1]:
        scanner.push(np.array([x], dtype=np.uint8))
        bests.append(scanner.best)
    assert bests == [1, 2, 3, 4, 4] and scanner.position == 5


@pytest.mark.parametrize("seq", [[0, 3, 0], [0, -1], [0, 1.5], [0.0, 256], [0, float("nan")],
                                 np.array([0, 3], dtype=np.uint8), np.array([True, False]),
                                 ["0", "1"], [[0, 1]]])
def test_symbols_other_than_outcomes_rejected(seq):
    with pytest.raises(ValidationError):
        longest_run(seq)
    with pytest.raises(ValidationError):
        first_hitting(seq, 2)


def test_integral_symbols_of_any_dtype_accepted():
    assert longest_run(np.array([0.0, 1.0, 2.0, 1.0])) == 3
    assert longest_run(np.array([1, 0, 1, 0], dtype=np.int64)) == 3
    assert first_hitting((x for x in [1, 1, 0, 0, 0]), 3) == 4


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


def scan_pieces(pieces, m=None, thresholds=()):
    """Drive one ChunkScanner(*thresholds) over the pieces: its best, or its first hit."""
    scanner = ChunkScanner(*thresholds)
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


@st.composite
def uniforms_and_thresholds(draw):
    """Uniforms, some on the thresholds, with a triple's (p, p + q1) and cut points."""
    p = draw(st.floats(0, 1))
    q1 = draw(st.floats(0, 1 - p))
    values = st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from([p, p + q1]))
    u = np.array(draw(st.lists(values, min_size=1, max_size=40)))
    cuts = draw(st.lists(st.integers(0, len(u)), max_size=5))
    return u, (p, p + q1), np.split(np.arange(len(u)), sorted(cuts))


@settings(max_examples=200)
@given(uniforms_and_thresholds())
def test_threshold_scan_equals_code_scan(case):
    # a scanner on uniforms with thresholds (p, p + q1) sees the outcomes
    # (u >= p) + (u >= p + q1), whatever the cuts
    u, thresholds, index_pieces = case
    codes = (u >= thresholds[0]).view(np.uint8) + (u >= thresholds[1])
    uniform_pieces = [u[i] for i in index_pieces]
    code_pieces = [codes[i] for i in index_pieces]
    assert scan_pieces(uniform_pieces, thresholds=thresholds) == scan_pieces(code_pieces)
    for m in (1, 2, 3, 5, 8):
        assert (scan_pieces(uniform_pieces, m, thresholds)
                == scan_pieces(code_pieces, m) == first_hitting(codes, m))


def test_chunked_scan_constant_state_across_many_chunks():
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 3, size=10_000, dtype=np.uint8).astype(np.uint8)
    whole = longest_run(arr)
    pieces = np.array_split(arr, 137)
    assert scan_pieces(pieces) == whole
    for m in (5, 8, 12):
        assert scan_pieces(pieces, m) == first_hitting(arr, m)


def reference_scan(seq, ms):
    """The suffix recursion, one symbol at a time: with the second most
    recent position of each failure type (0 while fewer than two have been
    seen), the run ending at t has length L(t) = t - the larger of them."""
    second, last = [0, 0, 0], [0, 0, 0]
    best, hits = 0, dict.fromkeys(ms)
    for t, x in enumerate(seq, 1):
        if x:
            second[x], last[x] = last[x], t
        length = t - max(second[1], second[2])
        best = max(best, length)
        for m in ms:
            if hits[m] is None and length >= m:
                hits[m] = t
    return best, hits


@pytest.mark.parametrize("p, q1", [pytest.param(1 / 3, 1 / 3, id=str(1 / 3)),
                                   pytest.param(0.8, 0.1, id="0.8"), (0.5, 0.4), (0.1, 0.89)])
def test_scanner_matches_suffix_recursion(p, q1):
    rng = np.random.default_rng(2024)
    u = rng.random(100_000)
    arr = (u >= p).view(np.uint8) + (u >= p + q1).view(np.uint8)
    # cut at random points (some repeated, so some pieces are empty), at a
    # sample of the places where failures start or stop, and around a sample
    # of whole stretches of failures or of successes, so that some pieces
    # hold only failures, others none, and some just one or two failures
    switches = np.flatnonzero(np.diff(arr != 0)) + 1
    cuts = np.concatenate((rng.integers(0, arr.size + 1, 40), [0, 0, arr.size],
                           rng.choice(switches, 200, replace=False)))
    whole = rng.choice(switches.size - 1, 100, replace=False)
    cuts = np.concatenate((cuts, switches[whole], switches[whole + 1]))
    pieces = np.split(arr, np.sort(cuts))
    kinds = {(piece.size > 0, bool(piece.all()), bool(piece.any())) for piece in pieces}
    assert {(False, True, False), (True, True, True), (True, False, False)} <= kinds
    assert {1, 2} <= {int(np.count_nonzero(piece)) for piece in pieces}
    ms = (1, 2, 7, 12, 30)
    best, hits = reference_scan(arr.tolist(), ms)
    assert scan_pieces(pieces) == best
    for m in ms:
        assert scan_pieces(pieces, m) == hits[m]


# --- the candidate test of `push` at its edges ------------------------------

def bests_after_each(pieces, thresholds=()):
    """The scanner's best after each piece."""
    scanner, bests = ChunkScanner(*thresholds), []
    for piece in pieces:
        scanner.push(piece)
        bests.append(scanner.best)
    return bests


def prefix_bests(codes, pieces):
    """The suffix recursion's best on the codes up to the end of each piece."""
    ends = np.cumsum([len(piece) for piece in pieces])
    return [reference_scan(codes[:end].tolist(), ())[0] for end in ends]


@pytest.mark.parametrize("pieces, expected", [
    # the second piece's longest run (8..13) ties the carried best of 6; the
    # third piece's, 9..15, is one longer and its triple (8, 14, 15, 16)
    # holds two failures carried from the piece before
    ([[0, 0, 0, 1, 0, 0, 1], [1, 0, 0, 0, 0, 0, 1], [2, 1, 1]], [6, 6, 7]),
    # the record run 4..9 holds 4 and 5; its triple (3, 4, 5, 10) holds one
    # failure carried from the first piece
    ([[0, 0, 1], [1, 2, 0, 0, 0, 0, 2]], [3, 6]),
    # the first pieces hold no failures: the floor alone sets best
    ([[], [0, 0, 0], [0, 1, 0]], [0, 3, 6]),
    # the second piece holds the single failure 6, the third the single failure 10
    ([[1, 0, 1], [0, 0, 2, 0, 0], [0, 1]], [2, 7, 8]),
])
def test_push_at_the_edges_of_the_candidate_test(pieces, expected):
    pieces = [np.array(piece, dtype=np.uint8) for piece in pieces]
    assert bests_after_each(pieces) == prefix_bests(np.concatenate(pieces), pieces) == expected


@st.composite
def long_runs_in_short_pieces(draw):
    """Uniforms at p >= 0.8, so runs are long, cut into many short pieces."""
    p = draw(st.floats(0.8, 1, exclude_max=True))
    q1 = draw(st.floats(0, 1 - p))
    u = np.array(draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=300)))
    cuts = draw(st.lists(st.integers(0, len(u)), min_size=10, max_size=60))
    return u, (p, p + q1), np.split(u, sorted(cuts))


@settings(max_examples=100)
@given(long_runs_in_short_pieces())
def test_push_keeps_best_over_many_short_pieces(case):
    u, thresholds, pieces = case
    codes = (u >= thresholds[0]).view(np.uint8) + (u >= thresholds[1])
    assert bests_after_each(pieces, thresholds) == prefix_bests(codes, pieces)
