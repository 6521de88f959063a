"""Feed an utterance to the decoder in dribs and drabs.

Raw frames arrive in uneven fragments; the stream buffer tracks which
encoded frames are final under the convolutional receptive field and
releases chunks as soon as they are stable, and the decoder advances
through each chunk as it is released. Each frame is encoded about once:
the encoder runs over only the positions not yet final, with a bounded
cache of each block's last left_context rows as their left context, and
the buffer keeps only the raw frames those positions read. The streamed
transcript equals the offline decode of the whole utterance, and the
scores agree to 1e-10, not bit for bit.
"""

import numpy as np

from chunkrec.chunking import StreamBuffer, chunk_latency_ms, effective_latency_ms
from chunkrec.decoding import beam_decode, stream_decode
from chunkrec.model import ChunkTransducerModel, ModelConfig, Vocabulary
from chunkrec.training import SyntheticTaskSpec, gen_synthetic

cfg = ModelConfig(d_model=16, n_heads=2, n_enc_blocks=1, n_dec_blocks=1, d_in=4,
                  left_context=4, W=3, B=1, vocab_size=8, ffn_inner=16, seed=1)
vocab = Vocabulary.from_units([f"s{i}" for i in range(6)])
model = ChunkTransducerModel(cfg, vocab)

spec = SyntheticTaskSpec(vocab_size=8, d_in=4, min_len=3, max_len=3, seed=5)
x, y = gen_synthetic(spec, 1)[0]
print(f"utterance: {len(x)} raw frames, reference ids {y}")

# One fragment schedule of 1 to 6 frames each, used twice below.
rng = np.random.default_rng(0)
frags = []
pos = 0
while pos < len(x):
    frags.append(x[pos:pos + int(rng.integers(1, 7))])
    pos += len(frags[-1])

# First, watch the buffer release chunks as frames trickle in.
buf = StreamBuffer(W=cfg.W, B=cfg.B, d_in=cfg.d_in)
pos = 0
for frag in frags:
    pos += len(frag)
    spans = buf.push(frag)
    if spans:
        print(f"  after {pos:2d} raw frames: released encoded spans {spans}")
print(f"  flush releases the remainder: {buf.flush()}")

# Now decode the same fragment schedule and compare with offline.
ids, lp, emissions = stream_decode(model, frags)
off_ids, off_lp = beam_decode(model, x)[0]
# A symbol is emitted once every surviving hypothesis, and the greedy path
# the search carries as a floor, shares it (and the rest of the transcript
# at flush), so emissions never contradict the final transcript.
print("\nemissions (chunk, symbol, cumulative log-prob, wall-clock ms):")
if not emissions:
    print("  (none: the model is untrained, so the final transcript is empty;")
    print("   the point here is that streamed and offline results agree)")
for e in emissions:
    print("  " + e.as_line(vocab))
print(f"\nstreamed: {ids}  logp {lp:.6f}")
print(f"offline:  {off_ids}  logp {off_lp:.6f}")
print(f"same ids, |dlogp| <= 1e-10: {ids == off_ids and abs(lp - off_lp) <= 1e-10}")
print(f"emissions are a prefix of the final ids: "
      f"{[e.symbol for e in emissions] == ids[:len(emissions)]}")

print(f"\nalgorithmic latency at W=10: {chunk_latency_ms(10):.0f} ms; "
      f"with overlap B=3 the stride shrinks and the effective wait is "
      f"{effective_latency_ms(10, 3):.0f} ms.")
