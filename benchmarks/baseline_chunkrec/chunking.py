"""Chunk geometry, left-context masks, streaming frame buffering and latency.

An encoded sequence of length L is cut into M windows of W frames whose
starts advance by W-B, so adjacent windows share B frames. The final window
is truncated at L rather than padded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, GeometryError, ProtocolError


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
    _check_geometry(W, B)
    if L < 1:
        raise GeometryError(f"encoded length must be >= 1, got L={L}")
    spans = []
    start = 0
    while True:
        end = min(start + W, L)
        spans.append((start, end))
        if start + W >= L:
            break
        start += W - B
    return spans


@dataclass(frozen=True)
class ChunkGeometry:
    W: int
    B: int
    L: int

    def __post_init__(self):
        _check_geometry(self.W, self.B)
        if self.L < 1:
            raise GeometryError(f"encoded length must be >= 1, got L={self.L}")

    @property
    def M(self):
        return num_chunks(self.L, self.W, self.B)

    @property
    def spans(self):
        return chunk_spans(self.L, self.W, self.B)


@dataclass
class ChunkSet:
    """Views into an encoded state sequence, one per chunk."""

    geometry: ChunkGeometry
    chunks: list = field(default_factory=list)

    @classmethod
    def split(cls, states, W, B):
        states = np.asarray(states)
        geom = ChunkGeometry(W=W, B=B, L=states.shape[0])
        chunks = [states[a:b] for a, b in geom.spans]
        return cls(geometry=geom, chunks=chunks)

    def concatenate_without_overlap(self):
        """Rebuild s_{1:L}: full first chunk, then each chunk minus its overlap."""
        parts = [self.chunks[0]]
        for m, (start, _end) in enumerate(self.geometry.spans[1:], start=1):
            prev_end = self.geometry.spans[m - 1][1]
            parts.append(self.chunks[m][prev_end - start:])
        return np.concatenate(parts, axis=0)


def split_chunks(states, W, B):
    return ChunkSet.split(states, W, B)


def left_context_mask(L, left):
    """Boolean (L, L) mask; row i may attend to columns [i-left, i]."""
    if left < 0:
        raise GeometryError(f"left context must be >= 0, got {left}")
    i = np.arange(L)[:, None]
    j = np.arange(L)[None, :]
    return (j <= i) & (j >= i - left)


def chunk_latency_ms(W, downsample=4, frame_shift_ms=10.0):
    """Raw-speech span covered by one chunk, in milliseconds."""
    if W <= 0 or downsample <= 0 or frame_shift_ms <= 0:
        raise GeometryError("latency arguments must be positive")
    return W * downsample * frame_shift_ms


def effective_latency_ms(W, B, downsample=4, frame_shift_ms=10.0):
    """Latency with the overlap discounted: only W-B frames are new per chunk."""
    _check_geometry(W, B)
    return (W - B) * downsample * frame_shift_ms


class StreamBuffer:
    """Accumulates raw frames and releases encoded chunk ranges exactly once.

    The front end is two stride-2 convolutions with kernel size ``kernel``
    and right-only zero padding, so encoded frame i is fully determined once
    raw frame 4*i + 2*(kernel-1) + (kernel-1) has arrived; a chunk is
    released only when its last encoded frame is stable, which also
    guarantees the chunk is not the (truncated) final one. Remaining chunks
    are released on flush(), when the true encoded length is known.
    """

    def __init__(self, W, B, downsample=4, kernel=3):
        _check_geometry(W, B)
        self.W = W
        self.B = B
        self.kernel = kernel
        self.frames = []
        self._next_start = 0
        self._flushed = False
        self._done = False

    @property
    def raw_count(self):
        return len(self.frames)

    def _stable_encoded(self):
        # encoded frame i needs raw frames through index 4i + 3*(kernel-1)
        t = self.raw_count
        margin = 3 * (self.kernel - 1)
        if t < margin + 1:
            return 0
        return (t - 1 - margin) // 4 + 1

    def encoded_len(self, T=None):
        t = self.raw_count if T is None else T
        if t < 1:
            raise EmptyInputError("no frames buffered")
        return -(-(-(-t // 2)) // 2)

    def push(self, frames):
        """Append raw frames; return encoded [start, end) ranges now complete."""
        if self._flushed:
            raise ProtocolError("push after end-of-stream flush")
        self.frames.extend(frames)
        out = []
        stable = self._stable_encoded()
        while not self._done and self._next_start + self.W <= stable:
            span = (self._next_start, self._next_start + self.W)
            out.append(span)
            self._next_start += self.W - self.B
        return out

    def flush(self):
        """Mark end of stream; return every remaining chunk range."""
        if self._flushed:
            raise ProtocolError("flush called twice")
        self._flushed = True
        if self.raw_count < 1:
            raise EmptyInputError("flush with no frames buffered")
        L = self.encoded_len()
        out = []
        start = self._next_start
        while not self._done:
            end = min(start + self.W, L)
            out.append((start, end))
            if start + self.W >= L:
                self._done = True
            start += self.W - self.B
        return out
