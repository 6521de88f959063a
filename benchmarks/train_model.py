"""Train the benchmark's decoding model and write it as numpy arrays.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/train_model.py

Trains the acceptance configuration (``synth.MODEL_CONFIG``) on 2-24 symbol
utterances from the benchmark's own generator, then writes
``benchmarks/model.npz`` (one array per parameter name) and
``benchmarks/model.json`` (config, vocabulary, recipe, dev CER and the
weights' sha256, which set-up checks). The weights are plain ``.npz``
rather than a chunkrec checkpoint so that a later change to the
checkpoint format cannot break the benchmark. Takes about four minutes on
one core.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from chunkrec import (BeamConfig, ChunkTransducerModel, ModelConfig, TrainConfig,
                      Vocabulary, edit_distance, greedy_decode, train)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import synth  # noqa: E402

RECIPE = dict(train_utterances=2000, min_len=2, max_len=24, data_seed=11, dev_seed=12,
              dev_repeats=3, batch_size=8, total_steps=600, warmup_steps=300,
              eval_interval=100)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def greedy_cer(model, utts):
    errs = refs = 0
    for x, y in utts:
        hyp, _ = greedy_decode(model, x, BeamConfig(width=1))
        errs += edit_distance(hyp, y)
        refs += len(y)
    return errs / refs


def main():
    r = RECIPE
    table = synth.symbol_table()
    rng = np.random.default_rng(r["data_seed"])
    data = synth.utterances(
        rng, synth.random_lengths(rng, r["train_utterances"], r["min_len"], r["max_len"]), table)
    dev_rng = np.random.default_rng(r["dev_seed"])
    dev = synth.utterances(
        dev_rng, synth.stratified_lengths(dev_rng, r["min_len"], r["max_len"], r["dev_repeats"]),
        table)
    cfg = ModelConfig(**synth.MODEL_CONFIG)
    model = ChunkTransducerModel(cfg, Vocabulary.from_units(synth.UNITS))
    tc = TrainConfig(batch_size=r["batch_size"], total_steps=r["total_steps"],
                     warmup_steps=r["warmup_steps"], eval_interval=r["eval_interval"],
                     target_eval_cer=0.0, seed=0)
    _, history = train(model, data, tc, eval_data=dev[:32], log=print)
    dev_cer = greedy_cer(model, dev)
    print(f"stopped after {history[-1][0]} steps; dev greedy CER {dev_cer:.4f}")
    npz = HERE / "model.npz"
    np.savez(npz, **{name: t.data for name, t in model.params.items()})
    meta = dict(config=synth.MODEL_CONFIG, vocab=list(model.vocab.symbols), recipe=RECIPE,
                steps=history[-1][0], dev_greedy_cer=dev_cer, sha256=sha256(npz))
    (HERE / "model.json").write_text(json.dumps(meta, indent=2) + "\n")


if __name__ == "__main__":
    main()
