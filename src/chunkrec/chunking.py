"""Front-end receptive field, chunk geometry, left-context masks, streaming
frame buffering and latency.

An encoded sequence of length L is cut into M windows of W frames whose
starts advance by W-B, so adjacent windows share B frames. The final window
is truncated at L rather than padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, GeometryError, ProtocolError

# The front end is two stride-2 time convolutions with right-only zero
# padding; this module is the one place that knows its receptive field.
FRONT_END_KERNEL = 3
FRONT_END_STRIDE = 2
FRONT_END_DOWNSAMPLE = FRONT_END_STRIDE * FRONT_END_STRIDE


def encoded_len(T):
    """Encoded frames the front end makes from T raw frames."""
    l1 = -(-T // FRONT_END_STRIDE)
    return -(-l1 // FRONT_END_STRIDE)


def frames_needed(encoded_end):
    """Raw frames required for encoded positions < encoded_end to be final.

    Encoded frame i reads raw frames [4i, 4i + 3*(kernel-1)].
    """
    margin = (FRONT_END_STRIDE + 1) * (FRONT_END_KERNEL - 1)
    return FRONT_END_DOWNSAMPLE * (encoded_end - 1) + margin + 1


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


class StreamBuffer:
    """Accumulates raw frames and releases encoded chunk ranges exactly once.

    A chunk is released as soon as frames_needed says its last encoded frame
    is final, which also guarantees the chunk is not the (truncated) final
    one. Remaining chunks are released on flush(), when the true encoded
    length is known.
    """

    def __init__(self, W, B):
        _check_geometry(W, B)
        self.W = W
        self.B = B
        self.frames = []
        self._next_start = 0
        self._flushed = False

    @property
    def raw_count(self):
        return len(self.frames)

    def push(self, frames):
        """Append raw frames; return encoded [start, end) ranges now complete."""
        if self._flushed:
            raise ProtocolError("push after end-of-stream flush")
        self.frames.extend(frames)
        out = []
        while frames_needed(self._next_start + self.W) <= self.raw_count:
            out.append((self._next_start, self._next_start + self.W))
            self._next_start += self.W - self.B
        return out

    def flush(self):
        """Mark end of stream; return every remaining chunk range."""
        if self._flushed:
            raise ProtocolError("flush called twice")
        self._flushed = True
        if self.raw_count < 1:
            raise EmptyInputError("flush with no frames buffered")
        spans = chunk_spans(encoded_len(self.raw_count), self.W, self.B)
        return [s for s in spans if s[0] >= self._next_start]
