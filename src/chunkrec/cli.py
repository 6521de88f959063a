"""Command-line surface: train, decode, stream-demo, eval-cer, gradcheck,
oracle-check, latency.

The --config file is JSON with optional sections "model", "train", "beam"
and "synthetic" (geometry W, B, left_context lives in "model") and optional
TOP_LEVEL keys; every command rejects any other key or section field.
Failures exit nonzero after printing a machine-readable JSON error record
to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import autodiff as ad
from .checkpoint import load_checkpoint, save_checkpoint
from .chunking import chunk_latency_ms, effective_latency_ms
from .decoding import BeamConfig, StreamSession, beam_decode, cer
from .errors import CheckpointError, ChunkrecError, ConfigError, ContractError
from .lattice import diagonal_identity_check, backward_pass, enumerate_paths, forward_pass
from .model import ChunkTransducerModel, ModelConfig, Vocabulary
from .training import SyntheticTaskSpec, TrainConfig, gen_synthetic, load_manifest, train


SECTIONS = {"model": ModelConfig, "train": TrainConfig, "beam": BeamConfig,
            "synthetic": SyntheticTaskSpec}
TOP_LEVEL = {"vocab_units", "n_train", "n_decode", "n_eval", "fragment_frames"}


def _load_config(path):
    """The --config object; an unknown key or section field is ConfigError."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg_dict = json.load(f)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg_dict, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    unknown = cfg_dict.keys() - SECTIONS.keys() - TOP_LEVEL
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    for key, cls in SECTIONS.items():
        section = cfg_dict.get(key, {})
        if not isinstance(section, dict) or section.keys() - {f.name for f in fields(cls)}:
            raise ConfigError(f"bad {key} section {section!r}: not an object of "
                              f"{cls.__name__} fields")
    units = cfg_dict.get("vocab_units", [])
    if not (isinstance(units, list) and all(isinstance(u, str) for u in units)):
        raise ConfigError(f"vocab_units must be a list of strings, got {units!r}")
    return cfg_dict


def _section(cfg_dict, key, **defaults):
    """The SECTIONS class of `key`, built from the config's section over defaults."""
    return SECTIONS[key](**{**defaults, **cfg_dict.get(key, {})})


def _count(cfg_dict, key, default):
    """The top-level count `key` of the config, an int >= 1; else ConfigError."""
    n = cfg_dict.get(key, default)
    if type(n) is not int or n < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {n!r}")
    return n


def _model_from_config(cfg_dict, seed=None):
    cfg = _section(cfg_dict, "model")
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    units = cfg_dict.get("vocab_units", [f"s{i}" for i in range(cfg.vocab_size - 2)])
    return ChunkTransducerModel(cfg, Vocabulary.from_units(units))


def _data_from_args(args, cfg_dict, model, n, seed):
    if args.manifest:
        return load_manifest(args.manifest, model.vocab)
    spec = _section(cfg_dict, "synthetic",
                    vocab_size=model.cfg.vocab_size, d_in=model.cfg.d_in)
    return gen_synthetic(spec, n, seed=seed)


def _out_stream(args):
    """The --out file, or stdout; ContractError if the file cannot be opened."""
    if args.out:
        try:
            return open(args.out, "w", encoding="utf-8")
        except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
            raise ContractError(f"cannot write output {args.out}: {e}") from e
    return contextlib.nullcontext(sys.stdout)


def cmd_train(args, cfg_dict):
    # the checkpoint is written only after training, so its path is checked first
    path = args.checkpoint
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise CheckpointError(f"cannot write checkpoint {path}: not a file in a directory")
    model = _model_from_config(cfg_dict, seed=args.seed)
    tc = _section(cfg_dict, "train")
    data = _data_from_args(args, cfg_dict, model,
                           n=_count(cfg_dict, "n_train", 2000), seed=model.cfg.seed + 101)
    eval_data = None
    if not args.manifest:
        eval_data = _data_from_args(args, cfg_dict, model, n=32, seed=model.cfg.seed + 202)
    optimizer = train(model, data, tc, eval_data=eval_data, log=lambda m: print(m, flush=True))[0]
    if args.checkpoint:
        save_checkpoint(args.checkpoint, model, optimizer)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _load_model(args, cfg_dict):
    if args.checkpoint:
        model, _ = load_checkpoint(args.checkpoint)
        return model
    return _model_from_config(cfg_dict, seed=args.seed)


def cmd_decode(args, cfg_dict):
    model = _load_model(args, cfg_dict)
    beam = _section(cfg_dict, "beam")
    data = _data_from_args(args, cfg_dict, model, n=_count(cfg_dict, "n_decode", 16),
                           seed=model.cfg.seed + 303)
    with _out_stream(args) as out:
        for x, _y in data:
            nbest = beam_decode(model, x, beam)
            ids, lp = nbest[0]
            out.write(f"{model.vocab.decode(ids)}\t{lp:.6f}\n")
    return 0


def cmd_stream_demo(args, cfg_dict):
    model = _load_model(args, cfg_dict)
    beam = _section(cfg_dict, "beam")
    data = _data_from_args(args, cfg_dict, model, n=1, seed=model.cfg.seed + 404)
    x, _y = data[0]
    frag_len = _count(cfg_dict, "fragment_frames", 5)
    session = StreamSession(model, beam)

    def emissions():
        for i in range(0, len(x), frag_len):
            yield from session.push(x[i:i + frag_len])
        yield from session.flush()

    with _out_stream(args) as out:
        for e in emissions():  # each line as soon as its push returns it
            out.write(e.as_line(model.vocab) + "\n")
            out.flush()
        best = session.hyps[0]
        out.write(f"# final\t{model.vocab.decode(best.prefix[1:])}\t{best.log_prob:.6f}\n")
    return 0


def cmd_eval_cer(args, cfg_dict):
    model = _load_model(args, cfg_dict)
    beam = _section(cfg_dict, "beam")
    data = _data_from_args(args, cfg_dict, model, n=_count(cfg_dict, "n_eval", 64),
                           seed=model.cfg.seed + 505)
    with _out_stream(args) as out:
        result = {"utterances": len(data),
                  "cer": cer((beam_decode(model, x, beam)[0][0], y) for x, y in data)}
        out.write(json.dumps(result) + "\n")
    return 0


def cmd_gradcheck(args, _cfg_dict):
    cfg = ModelConfig(d_model=16, n_heads=2, n_enc_blocks=1, n_dec_blocks=1, d_in=4,
                      left_context=4, W=3, B=1, vocab_size=8, ffn_inner=16,
                      seed=args.seed or 0)
    vocab = Vocabulary.from_units([f"s{i}" for i in range(cfg.vocab_size - 2)])
    model = ChunkTransducerModel(cfg, vocab)
    rng = np.random.default_rng(cfg.seed)
    x = rng.normal(size=(24, cfg.d_in))
    y = [2, 5]
    tensors = [model.params[n] for n in sorted(model.params)]
    ok, dev = ad.check_gradients(lambda: model.sequence_nll(x, y), tensors, tol=1e-4)
    print(f"{'PASS' if ok else 'FAIL'} end-to-end gradients, max deviation {dev:.3e}")
    return 0 if ok else 1


def cmd_oracle_check(args, _cfg_dict):
    rng = np.random.default_rng(args.seed or 0)
    max_dev = 0.0
    max_diag = 0.0
    for M in range(1, 6):
        for U in range(0, 6):
            for _ in range(20):
                blank = np.log(rng.uniform(0.05, 1.0, size=(M, U + 1)))
                label = np.log(rng.uniform(0.05, 1.0, size=(M, U)))
                alpha, lp = forward_pass(blank, label)
                ref = enumerate_paths(blank, label)
                max_dev = max(max_dev, abs(np.exp(lp) - np.exp(ref)) / np.exp(ref))
                beta = backward_pass(blank, label)
                max_diag = max(max_diag, diagonal_identity_check(alpha, beta, lp))
    checks = [(max_dev <= 1e-10, f"forward vs enumeration, max relative deviation {max_dev:.3e}"),
              (max_diag <= 1e-9, f"diagonal identity, max deviation {max_diag:.3e}")]
    for ok, what in checks:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
    return 0 if all(ok for ok, _ in checks) else 1


def cmd_latency(args, cfg_dict):
    mc = _section(cfg_dict, "model", W=10, B=3)
    W, B = mc.W, mc.B
    with _out_stream(args) as out:
        out.write(f"chunk latency: {chunk_latency_ms(W):.0f} ms\n")
        out.write(f"effective latency (overlap {B}): {effective_latency_ms(W, B):.0f} ms\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="chunkrec",
                                description="streaming chunk-transducer toolkit")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint", help="checkpoint path (input or output)")
    p.add_argument("--manifest", help="tab-separated (features, transcript) manifest")
    p.add_argument("--out", help="output file (default stdout)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in [("train", cmd_train), ("decode", cmd_decode),
                     ("stream-demo", cmd_stream_demo), ("eval-cer", cmd_eval_cer),
                     ("gradcheck", cmd_gradcheck), ("oracle-check", cmd_oracle_check),
                     ("latency", cmd_latency)]:
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except ChunkrecError as e:
        sys.stderr.write(json.dumps({"error": e.category, "message": str(e)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
