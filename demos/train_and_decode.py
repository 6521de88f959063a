"""Train a small recognizer on the synthetic task, then decode with it.

Runs in about a minute on a laptop: generates data, trains with the
warmup schedule until the dev set is perfectly recognized, checkpoints,
reloads, and scores greedy and beam decoding on held-out utterances.
"""

import tempfile
from pathlib import Path

from chunkrec.checkpoint import load_checkpoint, save_checkpoint
from chunkrec.decoding import BeamConfig, beam_decode, cer, greedy_decode
from chunkrec.model import ChunkTransducerModel, ModelConfig, Vocabulary
from chunkrec.training import SyntheticTaskSpec, TrainConfig, gen_synthetic, train

cfg = ModelConfig(d_model=64, n_heads=4, n_enc_blocks=2, n_dec_blocks=2, d_in=8,
                  left_context=8, W=4, B=1, vocab_size=16, ffn_inner=128, seed=3)
vocab = Vocabulary.from_units([f"s{i}" for i in range(14)])
model = ChunkTransducerModel(cfg, vocab)

spec = SyntheticTaskSpec(vocab_size=16, d_in=8, seed=7)
data = gen_synthetic(spec, 2000)
dev = gen_synthetic(spec, 32, seed=999)

tc = TrainConfig(batch_size=8, total_steps=4000, warmup_steps=300, eval_interval=100,
                 target_eval_cer=0.0, seed=0)
print("training (stops early once dev CER reaches 0)...")
opt, history = train(model, data, tc, eval_data=dev, log=print)
print(f"stopped after {history[-1][0]} steps, final batch loss {history[-1][1]:.4f}")

with tempfile.TemporaryDirectory() as td:
    ckpt = Path(td) / "model.ckpt"
    save_checkpoint(ckpt, model, opt)
    model, _ = load_checkpoint(ckpt)
    print(f"checkpoint round-tripped through {ckpt.name}")

test = gen_synthetic(spec, 100, seed=12345)
g_cer = cer((greedy_decode(model, x)[0], y) for x, y in test)
b_cer = cer((beam_decode(model, x, BeamConfig(width=5))[0][0], y) for x, y in test)
print(f"held-out greedy CER: {g_cer:.4f}")
print(f"held-out beam(5) CER: {b_cer:.4f}")
x, y = test[0]
ids, lp = beam_decode(model, x, BeamConfig(width=5))[0]
print(f"sample decode: ref {vocab.decode(y)} -> hyp {vocab.decode(ids)} ({lp:.3f})")
