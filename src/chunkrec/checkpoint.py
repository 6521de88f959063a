"""Binary checkpoint container; the header stores only what the config cannot derive.

Layout (little-endian throughout):

    magic   4 bytes  b"CKTD"
    version u32
    hlen    u64      length of the JSON header in bytes
    header  JSON     {"config": ..., "vocab": [...], "optimizer": {"step": int} | null}
    payload          float64 arrays, row-major: the parameters in
                     model.parameter_table(config) order, then, with an
                     optimizer, each parameter's Adam m and v in that order

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
from .errors import (CheckpointError, ConfigError, CorruptHeaderError, TruncatedFileError,
                     VersionMismatchError)
from .model import ChunkTransducerModel, ModelConfig, Vocabulary, check_parameters, parameter_table

MAGIC = b"CKTD"
VERSION = 2


def _array_bytes(a):
    return np.ascontiguousarray(a, dtype=np.float64).astype("<f8").tobytes()


def save_checkpoint(path, model, optimizer=None):
    """Write model, and optimizer's step and slots; ContractError naming the
    parameter unless model's parameters are the ones its config defines, and
    CheckpointError naming path if the file cannot be written."""
    check_parameters(model.cfg, model.params)
    names = [name for name, _shape, _init in parameter_table(model.cfg)]
    header = {"config": asdict(model.cfg), "vocab": list(model.vocab.symbols), "optimizer": None}
    blobs = [_array_bytes(model.params[n].data) for n in names]
    if optimizer is not None:
        header["optimizer"] = {"step": optimizer.step_count}
        blobs += [_array_bytes(optimizer.state[n][slot]) for n in names for slot in ("m", "v")]
    hjson = json.dumps(header).encode("utf-8")
    try:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", len(hjson)))
            f.write(hjson)
            for b in blobs:
                f.write(b)
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise CheckpointError(f"cannot write checkpoint {path}: {e}") from e


def _room(f):
    """Bytes left in f after its position."""
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_exact(f, n, what):
    """Read n bytes; a length past the end raises before f.read can allocate it."""
    if n > _room(f):
        raise TruncatedFileError(f"checkpoint truncated while reading {what}")
    return f.read(n)


def _read_array(f, shape, what):
    raw = _read_exact(f, 8 * math.prod(shape), what)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def _check_header(header):
    """Raise CorruptHeaderError unless header has the structure save_checkpoint writes."""
    h = header if isinstance(header, dict) else {}
    opt = h.get("optimizer")
    if not (h.keys() == {"config", "vocab", "optimizer"} and isinstance(h["config"], dict)
            and isinstance(h["vocab"], list)
            and (opt is None or (isinstance(opt, dict) and opt.keys() == {"step"}
                                 and type(opt["step"]) is int and opt["step"] >= 0))):
        raise CorruptHeaderError("checkpoint header lacks the structure save_checkpoint writes")


def load_checkpoint(path):
    """Returns (model, optimizer_state_or_None); the header's config fixes the
    payload's names and shapes through parameter_table.

    optimizer state is {"step": int, "slots": {name: {"m": arr, "v": arr}}}.
    A file that cannot be opened is a CheckpointError naming path.
    """
    try:
        f = open(path, "rb")
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    with f:
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
        try:
            cfg = ModelConfig(**header["config"])
        except (TypeError, ConfigError) as e:
            raise CorruptHeaderError(f"checkpoint config does not fit ModelConfig: {e}") from e
        # every block adds parameters of at least one float each, so a block
        # count past the payload's floats fails before parameter_table lists it
        if cfg.n_enc_blocks + cfg.n_dec_blocks > _room(f) // 8:
            raise TruncatedFileError("checkpoint config has more blocks than its payload holds")
        table = parameter_table(cfg)
        params = {name: Tensor(_read_array(f, shape, f"parameter {name}"), requires_grad=True)
                  for name, shape, _init in table}
        opt = None
        if header["optimizer"] is not None:
            slots = {name: {slot: _read_array(f, shape, f"optimizer slot {name}.{slot}")
                            for slot in ("m", "v")}
                     for name, shape, _init in table}
            opt = {"step": header["optimizer"]["step"], "slots": slots}
        if f.read(1):
            raise CorruptHeaderError("trailing bytes after checkpoint payload")
    vocab = Vocabulary(symbols=tuple(header["vocab"]))
    return ChunkTransducerModel(cfg, vocab, params=params), opt
