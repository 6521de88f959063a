import dataclasses
import functools
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkrec import checkpoint
from chunkrec.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from chunkrec.errors import (CheckpointError, ChunkrecError, CorruptHeaderError,
                             TruncatedFileError, VersionMismatchError)
from chunkrec.model import parameter_table
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


@pytest.mark.parametrize("where", ["missing", "directory", "nul"])
def test_a_path_that_cannot_be_opened_is_a_checkpoint_error_naming_it(tmp_path, where):
    path = {"missing": str(tmp_path / "no" / "model.ckpt"), "directory": str(tmp_path),
            "nul": str(tmp_path / "a\0b")}[where]
    with pytest.raises(CheckpointError, match="cannot read checkpoint") as read:
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="cannot write checkpoint") as write:
        save_checkpoint(path, make_tiny_model())
    assert all(type(e.value) is CheckpointError and path in str(e.value)
               for e in (read, write))


class _FailingFile:
    """A file whose second write raises, as a full disk's does."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        self.writes += 1
        if self.writes == 2:
            raise OSError(28, "No space left on device")
        return self.f.write(b)


def test_a_save_that_fails_partway_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_tiny_model(seed=1))
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: _FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(CheckpointError, match="cannot write checkpoint") as e:
        save_checkpoint(path, make_tiny_model(seed=2))
    assert type(e.value) is CheckpointError and str(path) in str(e.value)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file is left


def test_a_save_through_a_symlink_writes_its_target_and_keeps_the_link(tmp_path):
    real, link = tmp_path / "real.ckpt", tmp_path / "link.ckpt"
    save_checkpoint(real, make_tiny_model(seed=1))
    link.symlink_to(real)
    m = make_tiny_model(seed=2)
    save_checkpoint(link, m)
    assert link.is_symlink() and link.resolve() == real.resolve()
    loaded, _ = load_checkpoint(real)
    assert all(np.array_equal(loaded.params[n].data, m.params[n].data) for n in m.params)
    assert sorted(tmp_path.iterdir()) == [link, real]  # no temporary file is left


def test_a_save_keeps_the_permission_bits_of_the_checkpoint_it_replaces(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_tiny_model(seed=1))
    path.chmod(0o600)
    save_checkpoint(path, make_tiny_model(seed=2))
    assert path.stat().st_mode & 0o777 == 0o600


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
    _set(["config", "d_modle"], 16),
    _set(["config", "W"], 2.5),
    _set(["config"], []),
    _set(["vocab"], "abc"),
    _set(["optimizer"], {"step": "1"}),
    _set(["optimizer"], {"step": 0, "slots": []}),
    _set(["params"], []),
    lambda h: h.pop("optimizer"),
    lambda h: h["vocab"].pop(),
    _set(["vocab", 2], 7),
    _set(["vocab", 3], "s0"),
    _set(["vocab", 0], "x"),
], ids=["unknown-config-key", "float-config-value", "config-list", "vocab-string",
        "optimizer-string-step", "optimizer-extra-key", "extra-key", "no-optimizer",
        "vocab-one-short", "vocab-non-string-symbol", "vocab-duplicate-symbol", "vocab-no-blank"])
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


def test_negative_optimizer_step_is_corrupt_header_error(tmp_path):
    # Adam at step 0 divides by zero bias corrections and turns every parameter into NaN
    header, payload = saved_parts(optimizer=True)
    header["optimizer"]["step"] = -1
    path = tmp_path / "bad.ckpt"
    write_with_header(path, header, payload)
    with pytest.raises(CorruptHeaderError):
        load_checkpoint(path)


def test_a_decoder_without_blocks_is_corrupt_header_error(tmp_path):
    # a decoder reads its chunk only in a block's cross-attention
    header, payload = saved_parts()
    header["config"]["n_dec_blocks"] = 0
    path = tmp_path / "bad.ckpt"
    write_with_header(path, header, payload)
    with pytest.raises(CorruptHeaderError, match="n_dec_blocks"):
        load_checkpoint(path)


@pytest.mark.parametrize("hlen", [2 ** 40, 2 ** 64 - 1])
def test_header_length_past_the_end_is_truncated_file_error(tmp_path, hlen):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_prefix(hlen) + b"{}")
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_huge_config_dimension_is_truncated_file_error(tmp_path):
    # the first parameter would need 2**40 * d_in * kernel floats; the read
    # guard refuses it before anything is allocated
    header, payload = saved_parts()
    header["config"]["d_model"] = 2 ** 40
    path = tmp_path / "bad.ckpt"
    write_with_header(path, header, payload)
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_block_count_past_the_payload_is_truncated_file_error(tmp_path, monkeypatch):
    # parameter_table lists every block, so the count is refused before it runs
    def unreachable(cfg):
        raise AssertionError("parameter_table called for an impossible block count")

    monkeypatch.setattr(checkpoint, "parameter_table", unreachable)
    header, payload = saved_parts()
    header["config"]["n_enc_blocks"] = 2 ** 40
    path = tmp_path / "bad.ckpt"
    write_with_header(path, header, payload)
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_version_1_file_is_version_mismatch_error(tmp_path):
    # version 1 listed every parameter's name and shape, and each Adam slot's
    header, payload = saved_parts()
    header["params"] = [[name, [1]] for name in ("fe.conv1.w", "fe.conv1.b")]
    hjson = json.dumps(header).encode("utf-8")
    path = tmp_path / "v1.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IQ", 1, len(hjson)) + hjson + payload)
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_layout_is_the_parameter_table_then_interleaved_adam_slots(tmp_path):
    m = make_tiny_model(seed=3)
    opt = Adam(m.params)
    for i, n in enumerate(sorted(m.params)):
        opt.state[n]["m"] = np.full(m.params[n].shape, i + 0.25)
        opt.state[n]["v"] = np.full(m.params[n].shape, i + 0.5)
    opt.step_count = 7
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, opt)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    assert json.loads(blob[16:16 + hlen]) == {
        "config": dataclasses.asdict(m.cfg), "vocab": list(m.vocab.symbols),
        "optimizer": {"step": 7}}
    names = [name for name, _shape, _init in parameter_table(m.cfg)]
    arrays = ([m.params[n].data for n in names]
              + [opt.state[n][slot] for n in names for slot in ("m", "v")])
    assert blob[16 + hlen:] == b"".join(a.astype("<f8").tobytes() for a in arrays)


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
            model, state = load_checkpoint(path)
        except ChunkrecError:
            return
    if state is not None:
        Adam(model.params).load_state(state)
