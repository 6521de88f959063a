import contextlib
import io
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkrec import cli
from chunkrec.checkpoint import save_checkpoint
from chunkrec.cli import main
from chunkrec.decoding import BeamConfig
from chunkrec.errors import ContractError
from chunkrec.model import ModelConfig
from chunkrec.training import SyntheticTaskSpec, TrainConfig, save_features

from conftest import make_tiny_model
from test_checkpoint import saved_parts, write_with_header


def tiny_config_dict():
    return {
        "model": {"d_model": 16, "n_heads": 2, "n_enc_blocks": 1, "n_dec_blocks": 1,
                  "d_in": 4, "left_context": 4, "W": 3, "B": 1, "vocab_size": 8,
                  "ffn_inner": 16, "seed": 1},
        "train": dict(batch_size=2, total_steps=4, warmup_steps=10, eval_interval=0),
        "beam": {"width": 3},
        "synthetic": {"vocab_size": 8, "d_in": 4, "min_len": 2, "max_len": 3, "seed": 5},
        "n_train": 16,
        "n_decode": 2,
        "n_eval": 4,
    }


def tiny_config(tmp_path, **train_overrides):
    cfg = tiny_config_dict()
    cfg["train"].update(train_overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_latency_command(tmp_path, capsys):
    assert main(["latency"]) == 0
    out = capsys.readouterr().out
    assert "400 ms" in out
    assert "280 ms" in out


def test_oracle_check_command(capsys):
    assert main(["--seed", "0", "oracle-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "FAIL" not in out


def test_oracle_check_reports_each_check_on_its_own_line(capsys, monkeypatch):
    monkeypatch.setattr(cli, "diagonal_identity_check", lambda alpha, beta, log_prob: 1.0)
    assert main(["--seed", "0", "oracle-check"]) == 1
    forward, diagonal = capsys.readouterr().out.splitlines()
    assert forward.startswith("PASS forward vs enumeration")
    assert diagonal.startswith("FAIL diagonal identity")


def test_train_then_decode_and_eval(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["--config", cfg, "--checkpoint", ckpt, "train"]) == 0
    out_file = str(tmp_path / "hyp.txt")
    assert main(["--config", cfg, "--checkpoint", ckpt, "--out", out_file, "decode"]) == 0
    lines = [l for l in open(out_file, encoding="utf-8").read().splitlines() if l]
    assert len(lines) == 2
    for line in lines:
        assert line.count("\t") == 1  # transcript (may be empty) and score
    assert main(["--config", cfg, "--checkpoint", ckpt, "eval-cer"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"utterances", "cer"}


def test_stream_demo(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["--config", cfg, "stream-demo"]) == 0
    out = capsys.readouterr().out
    assert "# final" in out


def test_decode_with_manifest(tmp_path):
    cfg = tiny_config(tmp_path)
    feat = tmp_path / "u0.feat"
    save_features(feat, np.random.default_rng(0).normal(size=(12, 4)))
    man = tmp_path / "m.tsv"
    man.write_text(f"{feat}\ts0s1\n", encoding="utf-8")
    out_file = str(tmp_path / "hyp.txt")
    assert main(["--config", cfg, "--manifest", str(man), "--out", out_file, "decode"]) == 0
    assert len(open(out_file, encoding="utf-8").read().strip().splitlines()) == 1


@pytest.mark.parametrize("transcripts", [["", ""], []], ids=["empty-transcripts", "no-lines"])
def test_eval_cer_without_reference_units_is_undefined_metric(tmp_path, capsys, transcripts):
    cfg = tiny_config(tmp_path)
    lines = []
    for i, text in enumerate(transcripts):
        feat = tmp_path / f"u{i}.feat"
        save_features(feat, np.random.default_rng(i).normal(size=(12, 4)))
        lines.append(f"{feat}\t{text}\n")
    man = tmp_path / "m.tsv"
    man.write_text("".join(lines), encoding="utf-8")
    assert main(["--config", cfg, "--manifest", str(man), "eval-cer"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "undefined-metric"


@pytest.mark.parametrize("header", [None, b"ab cd f8\n", b"-1 8 f8\n"])
def test_bad_feature_file_is_contract_error(tmp_path, capsys, header):
    cfg = tiny_config(tmp_path)
    feat = tmp_path / "u0.feat"
    if header is not None:  # None: the manifest names a missing file
        feat.write_bytes(header + bytes(64))
    man = tmp_path / "m.tsv"
    man.write_text(f"{feat}\ts0s1\n", encoding="utf-8")
    assert main(["--config", cfg, "--manifest", str(man), "decode"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "contract"


def test_error_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    assert main(["--checkpoint", str(bad), "decode"]) == 1
    err = capsys.readouterr().err.strip()
    record = json.loads(err)
    assert record["error"] == "corrupt-header"


def _one_record(capsys):
    """The error category of the one JSON record main wrote to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("argv", [
    ["--checkpoint", "{tmp}/missing.ckpt", "decode"],
    ["--checkpoint", "{tmp}", "decode"],  # a directory
    ["--config", "{config}", "--checkpoint", "{tmp}/no/model.ckpt", "train"],
], ids=["missing", "directory", "missing-directory"])
def test_a_checkpoint_file_error_is_one_json_record(tmp_path, capsys, argv):
    args = [a.format(tmp=tmp_path, config=tiny_config(tmp_path, total_steps=1)) for a in argv]
    assert main(args) == 1
    assert _one_record(capsys) == "checkpoint"


@pytest.mark.parametrize("command", ["train", "decode", "stream-demo", "eval-cer", "gradcheck",
                                     "oracle-check", "latency"])
def test_a_negative_seed_is_one_config_record_under_every_command(tmp_path, capsys, command):
    assert main(["--config", tiny_config(tmp_path), "--seed", "-1", command]) == 1
    assert _one_record(capsys) == "config"


def test_an_out_file_that_cannot_be_opened_is_one_json_record(tmp_path, capsys):
    for out in (tmp_path / "no" / "x.txt", tmp_path):
        assert main(["--out", str(out), "latency"]) == 1
        assert _one_record(capsys) == "contract"


def _counted(monkeypatch, name):
    """Wrap cli's name so that each call is recorded; returns the list of calls."""
    calls, fn = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


@pytest.mark.parametrize("argv, work, record", [
    (["--out", "{tmp}/no/x.txt", "eval-cer"], "beam_decode", "contract"),
    (["--checkpoint", "{tmp}/no/model.ckpt", "train"], "train", "checkpoint"),
    (["--checkpoint", "{tmp}", "train"], "train", "checkpoint"),  # a directory
], ids=["eval-cer", "train", "train-into-a-directory"])
def test_an_output_that_cannot_be_written_fails_before_the_work(tmp_path, capsys, monkeypatch,
                                                                argv, work, record):
    calls = _counted(monkeypatch, work)
    args = ["--config", tiny_config(tmp_path, total_steps=1)]
    assert main(args + [a.format(tmp=tmp_path) for a in argv]) == 1
    assert calls == [] and _one_record(capsys) == record


def test_train_leaves_an_existing_checkpoint_until_training_ends(tmp_path, monkeypatch):
    cfg, ckpt = tiny_config(tmp_path, total_steps=1), tmp_path / "model.ckpt"
    ckpt.write_bytes(b"old")
    train = cli.train

    def checked(*args, **kw):
        assert ckpt.read_bytes() == b"old"
        return train(*args, **kw)

    monkeypatch.setattr(cli, "train", checked)
    assert main(["--config", cfg, "--checkpoint", str(ckpt), "train"]) == 0
    assert ckpt.read_bytes() != b"old"


def test_decode_with_a_nan_parameter_is_a_numeric_error_naming_its_sub_layer(tmp_path, capsys):
    m = make_tiny_model()
    m.params["dec.0.cross_attn.wv"].data[0, 0] = np.nan
    ckpt = str(tmp_path / "nan.ckpt")
    save_checkpoint(ckpt, m)
    assert main(["--config", tiny_config(tmp_path), "--checkpoint", ckpt, "decode"]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numeric"
    assert record["message"].endswith("dec.0.cross_attn")


def test_checkpoint_missing_a_parameter_is_contract_error(tmp_path):
    # the checkpoint stores no parameter names, so the mismatch fails at save
    m = make_tiny_model()
    del m.params["dec.out.b"]
    with pytest.raises(ContractError, match="dec.out.b"):
        save_checkpoint(tmp_path / "bad.ckpt", m)


def test_checkpoint_with_unknown_config_key_is_corrupt_header_error(tmp_path, capsys):
    header, payload = saved_parts()
    header["config"]["d_modle"] = 16
    bad = tmp_path / "bad.ckpt"
    write_with_header(bad, header, payload)
    assert main(["--checkpoint", str(bad), "decode"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "corrupt-header"


def _config_error(tmp_path, capsys, cfg, command="decode"):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(path), command]) == 1
    return json.loads(capsys.readouterr().err.strip())["error"]


def test_beam_width_zero_is_config_error(tmp_path, capsys):
    assert _config_error(tmp_path, capsys, {"beam": {"width": 0}}) == "config"


def test_unknown_beam_key_is_config_error(tmp_path, capsys):
    assert _config_error(tmp_path, capsys, {"beam": {"widht": 5}}) == "config"


@pytest.mark.parametrize("cfg, command", [
    ({"model": {"n_heads": 0}}, "decode"),
    ({"model": {"d_modle": 16}}, "decode"),
    ({"train": {"batch_sise": 2}}, "train"),
    ({"synthetic": {"max_lne": 3}}, "decode"),
    ({"model": {"n_enc_blocks": 2.5}}, "decode"),
    ({"model": {"W": "x"}}, "latency"),
    ({"model": {"d_model": 0}}, "decode"),
    ({"model": {"n_enc_blocks": -1}}, "decode"),
    ({"model": {"seed": -1}}, "stream-demo"),
    ({"beam": {"width": 2.5}}, "decode"),
    ({"beam": {"max_symbols_per_chunk": 1.5}}, "stream-demo"),
    ({"train": {"total_steps": "3"}}, "train"),
    ({"train": {"batch_size": 2.5}}, "train"),
    ({"train": {"checkpoint_path": 5}}, "train"),
    ({"synthetic": {"min_len": 2.5}}, "decode"),
    ({"fragment_frames": 0}, "stream-demo"),
    ({"n_decode": 1.5}, "decode"),
    ({"beem": {"width": 3}}, "decode"),
    ({"train": {"batch_sise": 2}}, "decode"),
    ({"beam": {"widht": 3}}, "latency"),
    ({"modle": {}}, "oracle-check"),
    ({"beam": [3]}, "decode"),
    ({"vocab_units": 5}, "decode"),
    ({"vocab_units": [2, 3]}, "decode"),
    ({"vocab_units": "s0 s1"}, "stream-demo"),
    ({"model": {"n_dec_blocks": 0}}, "train"),
])
def test_bad_section_is_config_error(tmp_path, capsys, cfg, command):
    assert _config_error(tmp_path, capsys, cfg, command) == "config"


@pytest.mark.parametrize("raw", [b"[1]", b'{"n_decode": 1}\xff', b"{"])
def test_config_that_is_not_a_json_object_is_config_error(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["--config", str(path), "decode"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


SECTIONS = {"model": ModelConfig, "beam": BeamConfig, "train": TrainConfig,
            "synthetic": SyntheticTaskSpec}
TOP_LEVEL = ["n_train", "n_decode", "fragment_frames"]  # section None: a top-level count


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(["decode", "train", "stream-demo"]),
       section=st.sampled_from([*SECTIONS, None]), data=st.data())
def test_fuzzed_config_value_runs_or_gives_a_json_record(tmp_path_factory, command, section,
                                                         data):
    keys = TOP_LEVEL if section is None else [f.name for f in fields(SECTIONS[section])]
    key = data.draw(st.sampled_from(keys))
    value = data.draw(st.one_of(st.integers(-2, 5), st.floats(-2, 5), st.booleans(), st.none(),
                                st.text(max_size=2)))
    cfg = tiny_config_dict()
    (cfg if section is None else cfg[section])[key] = value
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), command])
    assert code == 0 or (code == 1 and "error" in json.loads(err.getvalue().strip()))


def test_gradcheck_command(capsys):
    assert main(["--seed", "0", "gradcheck"]) == 0
    assert "PASS" in capsys.readouterr().out
