"""Front-end receptive field, chunk geometry, left-context masks, the raw
frame check, streaming chunk release and latency.

An encoded sequence of length L is cut into M windows of W frames whose
starts advance by W-B, so adjacent windows share B frames. The final window
is truncated at L rather than padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EmptyInputError, GeometryError, NumericError, ProtocolError

# The front end is two stride-2 time convolutions with right-only zero
# padding. This module holds all of its receptive field's arithmetic.
FRONT_END_KERNEL = 3
FRONT_END_STRIDE = 2
FRONT_END_DOWNSAMPLE = FRONT_END_STRIDE * FRONT_END_STRIDE

# Largest raw frame magnitude accepted. layer_norm squares deviations of
# the front end's outputs, which overflow float64 from about 1.3e154; this
# leaves 54 orders of magnitude for the front end's weights and sums.
MAX_FRAME_ABS = 1e100


def conv_len(T):
    """Output frames of one front-end convolution over T input frames (an int
    or an integer array)."""
    return -(-T // FRONT_END_STRIDE)


def encoded_len(T):
    """Encoded frames the front end makes from T raw frames."""
    return conv_len(conv_len(T))


def first_frame(e):
    """The first raw frame that encoded position e reads."""
    return FRONT_END_DOWNSAMPLE * e


def frames_needed(encoded_end):
    """Raw frames required for encoded positions < encoded_end to be final.

    Encoded frame i reads raw frames [4i, 4i + 3*(kernel-1)].
    """
    margin = (FRONT_END_STRIDE + 1) * (FRONT_END_KERNEL - 1)
    return first_frame(encoded_end - 1) + margin + 1


def final_len(T):
    """Encoded positions final once T raw frames have arrived: the largest e
    with frames_needed(e) <= T. Positions from e on read raw frames from
    first_frame(e) on, so a stream keeps only those."""
    return max(0, (T - frames_needed(1)) // FRONT_END_DOWNSAMPLE + 1)


def _check_geometry(W, B):
    if W <= 0:
        raise GeometryError(f"chunk length must be positive, got W={W}")
    if B < 0 or B >= W:
        raise GeometryError(f"overlap must satisfy 0 <= B < W, got B={B}, W={W}")


def num_chunks(L, W, B):
    """Number of chunks covering an encoded sequence of length L."""
    _check_geometry(W, B)
    if L < 1:
        raise GeometryError(f"encoded length must be >= 1, got L={L}")
    if L <= W:
        return 1
    return -(-(L - W) // (W - B)) + 1


def chunk_spans(L, W, B):
    """Half-open [start, end) encoded index ranges of every chunk."""
    step = W - B
    return [(s, min(s + W, L)) for s in range(0, num_chunks(L, W, B) * step, step)]


@dataclass(frozen=True)
class ChunkGeometry:
    W: int
    B: int
    L: int

    def __post_init__(self):
        num_chunks(self.L, self.W, self.B)  # raises GeometryError on a bad W, B or L

    @property
    def M(self):
        return num_chunks(self.L, self.W, self.B)

    @property
    def spans(self):
        return chunk_spans(self.L, self.W, self.B)


def left_context_mask(L, left):
    """Boolean (L, L) mask; row i may attend to columns [i-left, i]."""
    if left < 0:
        raise GeometryError(f"left context must be >= 0, got {left}")
    i = np.arange(L)[:, None]
    j = np.arange(L)[None, :]
    return (j <= i) & (j >= i - left)


def chunk_latency_ms(W, downsample=FRONT_END_DOWNSAMPLE, frame_shift_ms=10.0):
    """Raw-speech span covered by one chunk, in milliseconds."""
    if W <= 0 or downsample <= 0 or frame_shift_ms <= 0:
        raise GeometryError("latency arguments must be positive")
    return W * downsample * frame_shift_ms


def effective_latency_ms(W, B, downsample=FRONT_END_DOWNSAMPLE, frame_shift_ms=10.0):
    """Latency with the overlap discounted: only W-B frames are new per chunk."""
    _check_geometry(W, B)
    return (W - B) * downsample * frame_shift_ms


def as_frames(x, d_in=None):
    """Raw frames as a float64 (n, d_in) array; ContractError unless x is a real
    (bool, integer or float) 2-D array whose rows are d_in wide, if d_in is given,
    and NumericError unless every value is finite with magnitude <= MAX_FRAME_ABS."""
    try:
        a = np.asarray(x)
    except ValueError as e:  # ragged rows
        raise ContractError(f"frames are not an array: {e}") from e
    if a.dtype.kind not in "biuf" or a.ndim != 2 or d_in not in (None, a.shape[1]):
        raise ContractError(f"expected real (n, {d_in or 'd_in'}) frames, "
                            f"got {a.dtype} array of shape {a.shape}")
    a = a.astype(np.float64, copy=False)
    if not np.abs(a).max(initial=0.0) <= MAX_FRAME_ABS:  # a NaN max compares False
        raise NumericError(f"frames must be finite with magnitude <= {MAX_FRAME_ABS:g}")
    return a


class StreamBuffer:
    """Counts a stream's raw frames and releases each encoded chunk range exactly once.

    A chunk is released as soon as final_len covers it, so its last encoded
    frame is final and the chunk is not the (truncated) final one. Remaining
    chunks are released on flush(), when the true encoded length is known.
    Frames are d_in wide; without d_in, as wide as the first fragment.
    """

    def __init__(self, W, B, d_in=None):
        _check_geometry(W, B)
        self.W = W
        self.B = B
        self.d_in = d_in
        self.end = 0  # raw frames the stream has delivered
        self.next_start = 0  # the first encoded position of the next chunk
        self._flushed = False

    def push(self, frames):
        """Count raw frames, d_in wide (as_frames checks them); return the
        encoded [start, end) ranges now complete."""
        if self._flushed:
            raise ProtocolError("push after end-of-stream flush")
        frames = as_frames(frames, self.d_in)
        self.d_in = frames.shape[1]
        self.end += len(frames)
        out = []
        while self.next_start + self.W <= final_len(self.end):
            out.append((self.next_start, self.next_start + self.W))
            self.next_start += self.W - self.B
        return out

    def flush(self):
        """Mark end of stream; return every remaining chunk range."""
        if self._flushed:
            raise ProtocolError("flush called twice")
        self._flushed = True
        if self.end < 1:
            raise EmptyInputError("flush with no frames buffered")
        spans = chunk_spans(encoded_len(self.end), self.W, self.B)
        return [s for s in spans if s[0] >= self.next_start]
