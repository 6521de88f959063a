"""The benchmark's own input generator and task definition.

Inputs are made here, not with ``chunkrec.gen_synthetic``, so that a change
to the program's generator cannot change the benchmark's traffic. The task
is the same family as the package's synthetic task: each symbol has a fixed
feature row, repeated ``FRAMES_PER_SYMBOL`` times, plus Gaussian noise.
The symbol table is fixed (``TASK_SEED``) because the committed benchmark
model was trained on it; only the utterances drawn from it follow the
benchmark's ``--seed``.
"""

from __future__ import annotations

import numpy as np

TASK_SEED = 7
VOCAB_SIZE = 16          # blank, unk and 14 symbols
FIRST_SYMBOL = 2         # ids 0 and 1 are blank and unk
D_IN = 8
FRAMES_PER_SYMBOL = 8    # 80 ms of audio per symbol at 10 ms per frame
NOISE_STD = 0.05
FRAME_MS = 10.0

# The acceptance configuration: d=64, 2+2 blocks, W=4, B=1, left_context=8.
MODEL_CONFIG = dict(d_model=64, n_heads=4, n_enc_blocks=2, n_dec_blocks=2, d_in=D_IN,
                    left_context=8, W=4, B=1, vocab_size=VOCAB_SIZE, ffn_inner=128,
                    seed=3)
UNITS = tuple(f"s{i}" for i in range(VOCAB_SIZE - FIRST_SYMBOL))


def symbol_table():
    """Fixed symbol -> feature row map, shape (VOCAB_SIZE, D_IN)."""
    return np.random.default_rng(TASK_SEED).normal(0.0, 1.0, size=(VOCAB_SIZE, D_IN))


def utterance(rng, n_symbols, table):
    """One (features, label ids) pair with exactly n_symbols labels."""
    y = rng.integers(FIRST_SYMBOL, VOCAB_SIZE, size=n_symbols)
    x = np.repeat(table[y], FRAMES_PER_SYMBOL, axis=0)
    x = x + rng.normal(0.0, NOISE_STD, size=x.shape)
    return x, [int(s) for s in y]


def utterances(rng, lengths, table):
    return [utterance(rng, int(n), table) for n in lengths]


def random_lengths(rng, n, lo, hi):
    """n lengths drawn uniformly from [lo, hi]."""
    return rng.integers(lo, hi + 1, size=n)


def stratified_lengths(rng, lo, hi, repeats=1):
    """Every length in [lo, hi] `repeats` times, in a seeded order.

    The set's total work is then the same for every seed; only the symbols
    and the order change.
    """
    lengths = np.repeat(np.arange(lo, hi + 1), repeats)
    return rng.permutation(lengths)
