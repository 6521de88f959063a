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
import struct

import numpy as np

from .autodiff import Tensor
from .errors import CorruptHeaderError, TruncatedFileError, VersionMismatchError
from .model import ChunkTransducerModel, ModelConfig, Vocabulary

MAGIC = b"CKTD"
VERSION = 1


def _array_bytes(a):
    return np.ascontiguousarray(a, dtype=np.float64).astype("<f8").tobytes()


def save_checkpoint(path, model, optimizer=None):
    names = sorted(model.params)
    header = {
        "config": model.config_dict(),
        "vocab": list(model.vocab.symbols),
        "params": [[n, list(model.params[n].shape)] for n in names],
        "optimizer": None,
    }
    blobs = [_array_bytes(model.params[n].data) for n in names]
    if optimizer is not None:
        slots = []
        for n in names:
            for slot in ("m", "v"):
                slots.append([f"{n}.{slot}", list(model.params[n].shape)])
                blobs.append(_array_bytes(optimizer.state[n][slot]))
        header["optimizer"] = {"step": optimizer.step_count, "slots": slots}
    hjson = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(hjson)))
        f.write(hjson)
        for b in blobs:
            f.write(b)


def _read_exact(f, n, what):
    b = f.read(n)
    if len(b) != n:
        raise TruncatedFileError(f"checkpoint truncated while reading {what}")
    return b


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
        try:
            header = json.loads(_read_exact(f, hlen, "header"))
        except TruncatedFileError:
            raise
        except Exception as e:
            raise CorruptHeaderError(f"unreadable checkpoint header: {e}") from e
        params = {}
        for name, shape in header["params"]:
            n = int(np.prod(shape)) if shape else 1
            raw = _read_exact(f, 8 * n, f"parameter {name}")
            params[name] = Tensor(np.frombuffer(raw, dtype="<f8").reshape(shape).copy(),
                                  requires_grad=True)
        opt = None
        if header.get("optimizer"):
            slots = {}
            for name, shape in header["optimizer"]["slots"]:
                n = int(np.prod(shape)) if shape else 1
                raw = _read_exact(f, 8 * n, f"optimizer slot {name}")
                base, slot = name.rsplit(".", 1)
                slots.setdefault(base, {})[slot] = np.frombuffer(
                    raw, dtype="<f8").reshape(shape).copy()
            opt = {"step": int(header["optimizer"]["step"]), "slots": slots}
        extra = f.read(1)
        if extra:
            raise CorruptHeaderError("trailing bytes after checkpoint payload")
    cfg = ModelConfig(**header["config"])
    vocab = Vocabulary(symbols=tuple(header["vocab"]))
    return ChunkTransducerModel(cfg, vocab, params=params), opt
