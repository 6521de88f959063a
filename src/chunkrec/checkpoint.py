"""Self-describing binary checkpoint container.

Layout (little-endian throughout):

    magic   4 bytes  b"CKTD"
    version u32
    hlen    u64      length of the JSON header in bytes
    header  JSON     {"config": ..., "vocab": [...], "params": [[name, shape], ...],
                      "optimizer": {...} | null}
    payload          float64 arrays, row-major, in header order
                     (parameters first, then optimizer slots)

A save/load round trip is bitwise lossless, including optimizer state.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, CorruptHeaderError, TruncatedFileError, VersionMismatchError
from .model import ChunkTransducerModel, ModelConfig, Vocabulary

MAGIC = b"CKTD"
VERSION = 1


def _array_bytes(a):
    return np.ascontiguousarray(a, dtype=np.float64).astype("<f8").tobytes()


def _slots_for(params):
    """The [name.m, shape] and [name.v, shape] slot entries of [name, shape] parameter
    entries, in payload order."""
    return [[f"{n}.{slot}", shape] for n, shape in params for slot in ("m", "v")]


def save_checkpoint(path, model, optimizer=None):
    names = sorted(model.params)
    header = {
        "config": asdict(model.cfg),
        "vocab": list(model.vocab.symbols),
        "params": [[n, list(model.params[n].shape)] for n in names],
        "optimizer": None,
    }
    blobs = [_array_bytes(model.params[n].data) for n in names]
    if optimizer is not None:
        header["optimizer"] = {"step": optimizer.step_count, "slots": _slots_for(header["params"])}
        blobs += [_array_bytes(optimizer.state[n][slot]) for n in names for slot in ("m", "v")]
    hjson = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(hjson)))
        f.write(hjson)
        for b in blobs:
            f.write(b)


def _read_exact(f, n, what):
    """Read n bytes; a length past the end raises before f.read can allocate it."""
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise TruncatedFileError(f"checkpoint truncated while reading {what}")
    return f.read(n)


def _read_array(f, shape, what):
    raw = _read_exact(f, 8 * math.prod(shape), what)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def _shapes_ok(entries):
    """Whether entries is a list of [name, shape], shape a list of ints >= 0."""
    return isinstance(entries, list) and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], list)
        and all(type(d) is int and d >= 0 for d in e[1]) for e in entries)


def _check_header(header):
    """Raise CorruptHeaderError unless header has the structure save_checkpoint writes."""
    h = header if isinstance(header, dict) else {}
    cfg, params, opt = h.get("config"), h.get("params"), h.get("optimizer")
    if not (isinstance(cfg, dict) and isinstance(h.get("vocab"), list) and _shapes_ok(params)
            and (opt is None or (isinstance(opt, dict) and type(opt.get("step")) is int
                                 and opt["step"] >= 0
                                 and opt.get("slots") == _slots_for(params)))):
        raise CorruptHeaderError("checkpoint header lacks the structure save_checkpoint writes")


def load_checkpoint(path):
    """Returns (model, optimizer_state_or_None).

    optimizer state is {"step": int, "slots": {name: {"m": arr, "v": arr}}}.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise CorruptHeaderError("bad checkpoint magic")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise VersionMismatchError(f"checkpoint version {version}, expected {VERSION}")
        (hlen,) = struct.unpack("<Q", _read_exact(f, 8, "header length"))
        raw = _read_exact(f, hlen, "header")
        try:
            header = json.loads(raw)
        except (ValueError, RecursionError) as e:
            raise CorruptHeaderError(f"unreadable checkpoint header: {e}") from e
        _check_header(header)
        params = {name: Tensor(_read_array(f, shape, f"parameter {name}"), requires_grad=True)
                  for name, shape in header["params"]}
        opt = None
        if header.get("optimizer") is not None:
            slots = {name: {slot: _read_array(f, shape, f"optimizer slot {name}.{slot}")
                            for slot in ("m", "v")}
                     for name, shape in header["params"]}
            opt = {"step": header["optimizer"]["step"], "slots": slots}
        extra = f.read(1)
        if extra:
            raise CorruptHeaderError("trailing bytes after checkpoint payload")
    try:
        cfg = ModelConfig(**header["config"])
    except (TypeError, ConfigError) as e:
        raise CorruptHeaderError(f"checkpoint config does not fit ModelConfig: {e}") from e
    vocab = Vocabulary(symbols=tuple(header["vocab"]))
    return ChunkTransducerModel(cfg, vocab, params=params), opt
