import functools
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkrec.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from chunkrec.errors import (ChunkrecError, CorruptHeaderError, TruncatedFileError,
                             VersionMismatchError)
from chunkrec.training import Adam, TrainConfig, gen_synthetic, train

from conftest import make_tiny_model
from test_training import spec_for_tiny


def test_roundtrip_bitwise(tmp_path):
    m = make_tiny_model(seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    loaded, opt = load_checkpoint(path)
    assert opt is None
    assert loaded.cfg == m.cfg
    assert loaded.vocab.symbols == m.vocab.symbols
    assert sorted(loaded.params) == sorted(m.params)
    for n in m.params:
        assert np.array_equal(loaded.params[n].data, m.params[n].data)


def test_roundtrip_with_optimizer_state(tmp_path):
    m = make_tiny_model(seed=13)
    opt = Adam(m.params)
    data = gen_synthetic(spec_for_tiny(), 8)
    cfg = TrainConfig(batch_size=2, total_steps=3, warmup_steps=10, eval_interval=0)
    train(m, data, cfg, optimizer=opt)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, opt)
    _, state = load_checkpoint(path)
    assert state["step"] == 3
    for n in m.params:
        assert np.array_equal(state["slots"][n]["m"], opt.state[n]["m"])
        assert np.array_equal(state["slots"][n]["v"], opt.state[n]["v"])


def test_truncated_file_rejected(tmp_path):
    m = make_tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    m = make_tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_corrupt_magic_rejected(tmp_path):
    m = make_tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptHeaderError):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    m = make_tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptHeaderError):
        load_checkpoint(path)


def test_resume_continues_identical_trajectory(tmp_path):
    data = gen_synthetic(spec_for_tiny(), 24)
    full_cfg = TrainConfig(batch_size=3, total_steps=12, warmup_steps=20,
                           eval_interval=0, seed=4)
    m_full = make_tiny_model(seed=21)
    _, hist_full = train(m_full, data, full_cfg)

    half_cfg = TrainConfig(batch_size=3, total_steps=6, warmup_steps=20,
                           eval_interval=0, seed=4)
    m_half = make_tiny_model(seed=21)
    opt_half, _ = train(m_half, data, half_cfg)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, m_half, opt_half)

    m_res, state = load_checkpoint(path)
    opt_res = Adam(m_res.params)
    opt_res.load_state(state)
    _, hist_res = train(m_res, data, full_cfg, optimizer=opt_res, start_step=7)
    assert hist_res == hist_full[6:]
    for n in m_full.params:
        assert np.array_equal(m_full.params[n].data, m_res.params[n].data)


@functools.lru_cache(maxsize=None)
def _valid_blob(optimizer):
    m = make_tiny_model()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "valid.ckpt"
        save_checkpoint(path, m, Adam(m.params) if optimizer else None)
        return path.read_bytes()


def saved_parts(optimizer=False):
    """(header dict, payload bytes) of a saved tiny model, with Adam slots if optimizer."""
    blob = _valid_blob(optimizer)
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + hlen]), blob[16 + hlen:]


def _prefix(hlen):
    return MAGIC + struct.pack("<IQ", VERSION, hlen)


def write_with_header(path, header, payload=b""):
    hjson = json.dumps(header).encode("utf-8")
    path.write_bytes(_prefix(len(hjson)) + hjson + payload)


def _set(keys, value):
    def mutate(h):
        for k in keys[:-1]:
            h = h[k]
        h[keys[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set(["params", 0, 1], [-1]),
    _set(["params", 0, 1], "ab"),
    _set(["params", 0, 1], [True]),
    _set(["params", 0], ["name-only"]),
    _set(["config", "d_modle"], 16),
    _set(["config", "W"], 2.5),
    _set(["config"], []),
    _set(["vocab"], "abc"),
    _set(["optimizer"], {"step": 1}),
    _set(["optimizer"], {"step": "1", "slots": []}),
    lambda h: h.pop("params"),
], ids=["negative-dim", "string-shape", "bool-dim", "no-shape", "unknown-config-key",
        "float-config-value", "config-list", "vocab-string", "optimizer-no-slots",
        "optimizer-string-step", "no-params"])
def test_misshapen_header_is_corrupt_header_error(tmp_path, mutate):
    header, payload = saved_parts()
    mutate(header)
    path = tmp_path / "bad.ckpt"
    write_with_header(path, header, payload)
    with pytest.raises(CorruptHeaderError):
        load_checkpoint(path)


def test_header_that_is_not_an_object_is_corrupt_header_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    write_with_header(path, [1, 2])
    with pytest.raises(CorruptHeaderError):
        load_checkpoint(path)


def test_slot_name_without_m_or_v_is_corrupt_header_error(tmp_path):
    header, payload = saved_parts(optimizer=True)
    header["optimizer"]["slots"][0][0] = "dec.out.b"
    path = tmp_path / "bad.ckpt"
    write_with_header(path, header, payload)
    with pytest.raises(CorruptHeaderError):
        load_checkpoint(path)


@pytest.mark.parametrize("hlen", [2 ** 40, 2 ** 64 - 1])
def test_header_length_past_the_end_is_truncated_file_error(tmp_path, hlen):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_prefix(hlen) + b"{}")
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_huge_declared_shape_is_truncated_file_error(tmp_path):
    header, payload = saved_parts()
    header["params"][0][1] = [2 ** 40, 2 ** 20]
    path = tmp_path / "bad.ckpt"
    write_with_header(path, header, payload)
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 100) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), optimizer=st.booleans())
def test_fuzzed_header_loads_or_raises_a_chunkrec_error(data, optimizer):
    header, payload = saved_parts(optimizer)
    root = node = {"": header}
    key = ""
    # walk to a random node of the header, then delete or replace it
    while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
        node, key = node[key], data.draw(st.sampled_from(
            sorted(node[key]) if isinstance(node[key], dict) else range(len(node[key]))))
    if node is not root and data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(_json)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzzed.ckpt"
        write_with_header(path, root[""], payload)
        try:
            load_checkpoint(path)
        except ChunkrecError:
            pass
