import numpy as np
import pytest

from chunkrec.chunking import (MAX_FRAME_ABS, StreamBuffer, as_frames, chunk_latency_ms,
                               chunk_spans, effective_latency_ms, final_len, frames_needed,
                               left_context_mask, num_chunks)
from chunkrec.decoding import beam_decode
from chunkrec.errors import (ContractError, EmptyInputError, GeometryError, NumericError,
                             ProtocolError)

from conftest import make_tiny_model


def enumerate_chunk_count(L, W, B):
    """Independent oracle: walk chunk starts until the chunk reaches L."""
    count = 0
    start = 0
    while True:
        count += 1
        if start + W >= L:
            return count
        start += W - B


def test_num_chunks_single():
    assert num_chunks(10, 10, 3) == 1


def test_num_chunks_formula_points():
    assert num_chunks(100, 10, 2) == 13
    assert num_chunks(100, 10, 3) == 14  # best-performing geometry point


def test_num_chunks_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        L = int(rng.integers(1, 501))
        W = int(rng.integers(1, L + 1))
        B = int(rng.integers(0, W))
        assert num_chunks(L, W, B) == enumerate_chunk_count(L, W, B), (L, W, B)


def test_num_chunks_geometry_errors():
    with pytest.raises(GeometryError):
        num_chunks(10, 5, 5)
    with pytest.raises(GeometryError):
        num_chunks(10, 0, 0)
    with pytest.raises(GeometryError):
        num_chunks(0, 5, 1)


def test_split_single_chunk():
    assert chunk_spans(10, 10, 3) == [(0, 10)]


def test_split_spans():
    assert chunk_spans(18, 10, 2) == [(0, 10), (8, 18)]
    assert chunk_spans(17, 10, 2) == [(0, 10), (8, 17)]


def test_split_truncated_last_chunk():
    assert [b - a for a, b in chunk_spans(17, 10, 2)] == [10, 9]


def test_split_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(50):
        L = int(rng.integers(1, 80))
        W = int(rng.integers(1, L + 1))
        B = int(rng.integers(0, W))
        spans = chunk_spans(L, W, B)
        assert len(spans) == num_chunks(L, W, B)
        # the spans cover [0, L): each overlaps its predecessor by exactly B
        assert spans[0][0] == 0 and spans[-1][1] == L
        assert all(prev_end - start == B for (_, prev_end), (start, _) in zip(spans, spans[1:]))
        # only the last span may be truncated
        assert all(b - a == W for a, b in spans[:-1])
        assert 0 < spans[-1][1] - spans[-1][0] <= W


def test_left_context_mask_diagonal():
    assert np.array_equal(left_context_mask(3, 0), np.eye(3, dtype=bool))


def test_left_context_mask_full_window():
    assert np.array_equal(left_context_mask(3, 10), np.tril(np.ones((3, 3), dtype=bool)))


def test_left_context_mask_row():
    m = left_context_mask(5, 2)
    assert m[4].tolist() == [False, False, True, True, True]
    assert m.any(axis=1).all()


def test_mask_monotone_in_context():
    small = left_context_mask(12, 3)
    large = left_context_mask(12, 7)
    assert (large | ~small).all()  # enlarging never removes a True


def test_final_len_inverts_frames_needed():
    for T in range(60):
        e = final_len(T)
        assert e == max([0] + [k for k in range(1, T) if frames_needed(k) <= T]), T


def test_stream_buffer_keeps_the_raw_frames_from_a_position_on():
    frames = np.arange(60.0)[:, None]
    buf = StreamBuffer(4, 1, 1)
    buf.push(frames[:25])
    buf.keep_from(3)  # encoded position 3 reads raw frames from 12 on
    assert (buf.raw_count, buf.end) == (13, 25)
    buf.push(frames[25:])
    assert np.array_equal(buf.frames, frames[12:])
    assert buf.flush() == [s for s in chunk_spans(15, 4, 1) if s[0] >= buf.next_start]


def test_stream_buffer_keep_from_only_moves_forward():
    frames = np.arange(25.0)[:, None]
    buf = StreamBuffer(4, 1, 1)
    buf.push(frames)
    buf.keep_from(3)
    buf.keep_from(3)  # the same position keeps the same frames
    with pytest.raises(ProtocolError):
        buf.keep_from(1)  # raw frames 4-11 are gone
    with pytest.raises(ProtocolError):
        buf.keep_from(7)  # raw frame 28 has not arrived
    assert np.array_equal(buf.frames, frames[12:])


def test_latency_values():
    assert chunk_latency_ms(10, 4, 10.0) == 400.0
    assert effective_latency_ms(10, 2, 4, 10.0) == 320.0
    assert chunk_latency_ms(1, 4, 10.0) == 40.0


def test_stream_buffer_equivalence_any_partition():
    rng = np.random.default_rng(2)
    for trial in range(30):
        T = int(rng.integers(4, 120))
        W = int(rng.integers(1, 8))
        B = int(rng.integers(0, W))
        frames = rng.normal(size=(T, 2))
        L = -(-(-(-T // 2)) // 2)
        offline = chunk_spans(L, W, B)
        n_cuts = int(rng.integers(0, min(T, 6)))
        cuts = sorted(rng.choice(np.arange(1, T), size=n_cuts, replace=False)) if n_cuts else []
        buf = StreamBuffer(W, B, 2)
        got = []
        for frag in np.split(frames, cuts):
            got += buf.push(frag)
        got += buf.flush()
        assert got == offline, (T, W, B, cuts)


def test_stream_buffer_all_at_once():
    buf = StreamBuffer(4, 1, 2)
    spans = buf.push(np.zeros((40, 2)))
    spans += buf.flush()
    assert spans == chunk_spans(10, 4, 1)


def test_stream_buffer_minimal_flush():
    buf = StreamBuffer(4, 1, 2)
    assert buf.push(np.zeros((4, 2))) == []
    assert buf.flush() == [(0, 1)]


def test_stream_buffer_push_after_flush():
    buf = StreamBuffer(4, 1, 2)
    buf.push(np.zeros((8, 2)))
    buf.flush()
    with pytest.raises(ProtocolError):
        buf.push(np.zeros((1, 2)))


def test_stream_buffer_push_checks_each_fragment():
    for bad in (np.zeros(40), "x" * 40):
        with pytest.raises(ContractError):
            StreamBuffer(4, 1, 2).push(bad)
    with pytest.raises(NumericError):
        StreamBuffer(4, 1, 2).push(np.full((40, 2), np.nan))
    with pytest.raises(ContractError):  # the first fragment is as wide as d_in too
        StreamBuffer(4, 1, 2).push(np.zeros((40, 3)))
    buf = StreamBuffer(4, 1)  # without d_in, the first fragment sets the width
    buf.push(np.zeros((8, 2)))
    with pytest.raises(ContractError):
        buf.push(np.zeros((40, 3)))
    assert buf.push(np.zeros((40, 2))) != []


def test_stream_buffer_empty_flush():
    buf = StreamBuffer(4, 1, 2)
    with pytest.raises(EmptyInputError):
        buf.flush()


def test_as_frames_rejects_non_finite_and_huge_values():
    for bad in (np.nan, np.inf, -np.inf, 2 * MAX_FRAME_ABS, -1e300):
        x = np.zeros((3, 4))
        x[2, 1] = bad
        with pytest.raises(NumericError):
            as_frames(x)
    # frames at the limit decode without overflow (pytest makes numpy warnings errors)
    x = np.full((16, 4), MAX_FRAME_ABS)
    x[::2] *= -1
    beam_decode(make_tiny_model(), as_frames(x))
