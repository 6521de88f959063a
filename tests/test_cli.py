import json

import numpy as np
import pytest

from chunkrec.checkpoint import save_checkpoint
from chunkrec.cli import main
from chunkrec.training import save_features

from conftest import make_tiny_model
from test_checkpoint import saved_parts, write_with_header


def tiny_config(tmp_path, **train_overrides):
    train = dict(batch_size=2, total_steps=4, warmup_steps=10, eval_interval=0)
    train.update(train_overrides)
    cfg = {
        "model": {"d_model": 16, "n_heads": 2, "n_enc_blocks": 1, "n_dec_blocks": 1,
                  "d_in": 4, "left_context": 4, "W": 3, "B": 1, "vocab_size": 8,
                  "ffn_inner": 16, "seed": 1},
        "train": train,
        "beam": {"width": 3},
        "synthetic": {"vocab_size": 8, "d_in": 4, "min_len": 2, "max_len": 3, "seed": 5},
        "n_train": 16,
        "n_decode": 2,
        "n_eval": 4,
    }
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


def test_error_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    assert main(["--checkpoint", str(bad), "decode"]) == 1
    err = capsys.readouterr().err.strip()
    record = json.loads(err)
    assert record["error"] == "corrupt-header"


def test_checkpoint_missing_a_parameter_is_contract_error(tmp_path, capsys):
    m = make_tiny_model()
    del m.params["dec.out.b"]
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, m)
    assert main(["--checkpoint", str(bad), "decode"]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "contract"
    assert "dec.out.b" in record["message"]


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
])
def test_bad_section_is_config_error(tmp_path, capsys, cfg, command):
    assert _config_error(tmp_path, capsys, cfg, command) == "config"


def test_gradcheck_command(capsys):
    assert main(["--seed", "0", "gradcheck"]) == 0
    assert "PASS" in capsys.readouterr().out
