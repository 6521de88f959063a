"""Outside-in layer tracing for the benchmark.

``Tracer.install()`` replaces the public entry points of each chunkrec
module with wrappers that record a span (name, start, end, parent span,
request id) and a few counters, and ``uninstall()`` puts the originals
back. Nothing in the package is edited: each wrapper is set on the object
where callers look the name up. The ``Tensor`` operators resolve the op
functions as ``autodiff`` module globals, ``model.py`` imports
``lattice_nll`` by name, and methods are looked up on their class, so those
are the attributes patched. An entry point that is missing, say because a
later change removed it, is listed in ``Tracer.absent`` and reported as
zero work rather than failing the run.

Spans are kept in memory and written out by ``save``; per-layer metrics
come from ``layer_metrics``. A span's self time is its duration minus the
durations of its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

AUTODIFF_OPS = ("matmul", "add", "mul", "scale", "masked_softmax", "log_softmax",
                "layer_norm", "glu", "relu", "conv1d_time", "reshape", "transpose",
                "take", "gather_pairs", "embedding", "stack")

# (module, attribute path, span name); a dotted path names a class method.
ENTRY_POINTS = (
    [("autodiff", op, f"autodiff.{op}") for op in AUTODIFF_OPS]
    + [
        ("autodiff", "Tensor.backward", "autodiff.backward"),
        ("model", "ChunkTransducerModel.front_end", "model.front_end"),
        ("model", "ChunkTransducerModel.encode_states", "model.encode_states"),
        ("model", "ChunkTransducerModel.decoder_forward", "model.decoder_forward"),
        ("model", "ChunkTransducerModel.decoder_step", "model.decoder_step"),
        ("model", "ChunkTransducerModel.lattice_probs_for", "model.lattice_probs_for"),
        ("model", "lattice_nll", "lattice.lattice_nll"),
        ("lattice", "lattice_grad", "lattice.lattice_grad"),
        ("lattice", "forward_pass", "lattice.forward_pass"),
        ("lattice", "backward_pass", "lattice.backward_pass"),
        ("training", "train_step", "training.train_step"),
        ("training", "batch_loss", "training.batch_loss"),
        ("training", "Adam.step", "training.Adam.step"),
        ("training", "clip_grad_norm", "training.clip_grad_norm"),
        ("decoding", "beam_decode", "decoding.beam_decode"),
        ("decoding", "greedy_decode", "decoding.greedy_decode"),
        ("decoding", "stream_decode", "decoding.stream_decode"),
        ("chunking", "StreamBuffer.push", "chunking.StreamBuffer.push"),
        ("chunking", "StreamBuffer.flush", "chunking.StreamBuffer.flush"),
    ]
)

SEARCHES = ("decoding.beam_decode", "decoding.greedy_decode", "decoding.stream_decode")


def self_times(spans):
    """Self time of each span: its duration minus its direct children's.

    spans: sequence of (name, start, end, parent index or -1, request).
    """
    out = [end - start for _name, start, end, _parent, _req in spans]
    for _name, start, end, parent, _req in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Records spans and counters around chunkrec's public entry points."""

    def __init__(self, chunkrec_modules, chunks_of):
        """chunkrec_modules: name -> imported chunkrec submodule.
        chunks_of: raw frame count -> number of chunks (for offline searches).
        """
        self.modules = chunkrec_modules
        self.chunks_of = chunks_of
        self.spans = []
        self.counters = defaultdict(float)
        self.request = -1
        self.absent = []
        self._stack = []
        self._saved = []

    # -- patching -----------------------------------------------------------

    def install(self):
        for module, path, name in ENTRY_POINTS:
            owner = self.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = self._counter(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if count is not None:
                count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _under_search(self):
        """Whether a search call encloses the call being counted."""
        return any(name in SEARCHES for _idx, name in self._stack)

    def _counter(self, name):
        c = self.counters
        if name.startswith("autodiff.") and name != "autodiff.backward":
            def count(args, out):
                c[f"{name}.bytes"] += out.data.nbytes
        elif name == "model.encode_states":
            def count(args, out):
                c["model.encode_states.frames_in"] += len(args[1])
        elif name == "model.decoder_forward":
            def count(args, out):
                c["model.decoder_forward.positions"] += len(args[1])
        elif name == "model.lattice_probs_for":
            def count(args, out):
                c["requests.frames"] += len(args[1])
        elif name == "lattice.lattice_grad":
            def count(args, out):
                c["lattice.cells"] += np.size(args[0])
        elif name in ("decoding.beam_decode", "decoding.greedy_decode"):
            def count(args, out):
                frames = len(args[1])
                c["requests.frames"] += frames
                if not self._under_search():
                    c["decoding.chunks"] += self.chunks_of(frames)
        elif name in ("chunking.StreamBuffer.push", "chunking.StreamBuffer.flush"):
            def count(args, out):
                buf = args[0]
                if name.endswith("push"):
                    c["requests.frames"] += len(args[1])
                c["chunking.chunks_released"] += len(out)
                c["decoding.chunks"] += len(out)
                raw = getattr(buf, "raw_count", 0)
                c["chunking.buffer_frames_max"] = max(c["chunking.buffer_frames_max"], raw)
        else:
            count = None
        return count

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics: {name: (value, unit)} for every traced layer."""
        calls = defaultdict(int)
        secs = defaultdict(float)
        for name, start, end, _parent, _req in self.spans:
            calls[name] += 1
            secs[name] += end - start
        selfs = self_times(self.spans)
        search_self = sum(s for span, s in zip(self.spans, selfs) if span[0] in SEARCHES)
        c = self.counters
        m = {}
        for _module, _path, name in ENTRY_POINTS:
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.s"] = (secs[name], "s")
        for op in AUTODIFF_OPS:
            m[f"autodiff.{op}.bytes"] = (c[f"autodiff.{op}.bytes"], "bytes")
        frames_in = c["model.encode_states.frames_in"]
        positions = c["model.decoder_forward.positions"]
        m["model.encode_states.frames_in"] = (frames_in, "frames")
        m["model.encode_states.frames_per_input_frame"] = (
            _ratio(frames_in, c["requests.frames"]), "ratio")
        m["model.decoder_forward.positions"] = (positions, "count")
        m["model.decoder_forward.positions_per_call"] = (
            _ratio(positions, calls["model.decoder_forward"]), "ratio")
        m["lattice.cells"] = (c["lattice.cells"], "count")
        m["decoding.search_self_s"] = (search_self, "s")
        m["decoding.decoder_steps_per_chunk"] = (
            _ratio(calls["model.decoder_step"], c["decoding.chunks"]), "ratio")
        m["chunking.chunks_released"] = (c["chunking.chunks_released"], "count")
        m["chunking.buffer_frames_max"] = (c["chunking.buffer_frames_max"], "frames")
        return m

    def save(self, path):
        """Write every span as compressed numpy arrays."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        arr = np.array([(index[n], a, b, p, r) for n, a, b, p, r in self.spans],
                       dtype=np.float64).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(names), name=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                            request=arr[:, 4].astype(np.int64))


def _ratio(num, den):
    return num / den if den else 0.0
