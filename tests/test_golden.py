"""Golden outputs: decoding and training results pinned against a recorded fixture.

``golden.json`` holds the seeded tiny model's beam(3), greedy and streaming
results on ten seeded inputs, the same of a tiny model with two decoder
blocks, whose later block's keys and values a search pass caches per
chunk, and five train_step losses. The decoding models' blank logits are
raised, by 1 and 0.5, so their paths mix blanks, symbols and the per-chunk
cap of 3. A change that should not alter results must reproduce them: ids
exactly, scores and losses within 1e-9. To see, entry by entry, whether
the code reproduces the fixture bit for bit, and how many ulps its scores
are off, without writing anything:

    PYTHONPATH=src python tests/test_golden.py --check

To re-record after a deliberate change of results:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from chunkrec.decoding import BeamConfig, beam_decode, greedy_decode, stream_decode
from chunkrec.training import Adam, SyntheticTaskSpec, TrainConfig, gen_synthetic, train_step

from conftest import make_tiny_model

FIXTURE = Path(__file__).with_name("golden.json")
TOL = 1e-9


def _decodes(model, seed, blank_bias):
    """beam(3), greedy and streaming results of model, its blank logit raised
    by blank_bias, on ten seeded inputs."""
    rng = np.random.default_rng(seed)
    bias = model.params["dec.out.b"]
    bias.data = bias.data + blank_bias * np.eye(len(bias.data))[model.vocab.blank_id]
    cfg = BeamConfig(width=3, max_symbols_per_chunk=3)
    decodes = []
    for _ in range(10):
        x = rng.normal(size=(int(rng.integers(8, 60)), 4))
        cuts = np.sort(rng.choice(np.arange(1, len(x)), size=3, replace=False))
        ids, lp, emissions = stream_decode(model, np.split(x, cuts), cfg)
        decodes.append(dict(
            beam=[[ids_, lp_] for ids_, lp_ in beam_decode(model, x, cfg)],
            greedy=list(greedy_decode(model, x, cfg)),
            stream=[ids, lp, [[e.chunk_index, e.symbol, e.cumulative_log_prob]
                              for e in emissions]]))
    return decodes


def record():
    """The results the fixture pins, as JSON-ready lists."""
    decodes = _decodes(make_tiny_model(seed=2), 2024, 1.0)
    model = make_tiny_model(seed=3)
    spec = SyntheticTaskSpec(vocab_size=8, d_in=4, min_len=2, max_len=4, seed=7)
    data = gen_synthetic(spec, 16)
    opt, cfg = Adam(model.params), TrainConfig(batch_size=4, warmup_steps=10)
    losses = [train_step(model, data[4 * (s % 4):4 * (s % 4) + 4], opt, s, cfg)
              for s in range(1, 6)]
    return dict(decodes=decodes, losses=losses,
                two_block_decodes=_decodes(make_tiny_model(seed=4, n_dec_blocks=2), 2025, 0.5))


def _scores_close(got, want):
    return got == pytest.approx(want, rel=0, abs=TOL)


def _assert_decodes_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert [ids for ids, _ in g["beam"]] == [ids for ids, _ in w["beam"]]
        assert _scores_close([lp for _, lp in g["beam"]], [lp for _, lp in w["beam"]])
        assert g["greedy"][0] == w["greedy"][0] and _scores_close(g["greedy"][1], w["greedy"][1])
        (ids, lp, em), (w_ids, w_lp, w_em) = g["stream"], w["stream"]
        assert ids == w_ids and _scores_close(lp, w_lp)
        assert [e[:2] for e in em] == [e[:2] for e in w_em]
        assert _scores_close([e[2] for e in em], [e[2] for e in w_em])


def test_outputs_match_the_golden_fixture():
    want, got = json.loads(FIXTURE.read_text()), record()
    _assert_decodes_match(got["decodes"], want["decodes"])
    _assert_decodes_match(got["two_block_decodes"], want["two_block_decodes"])
    assert _scores_close(got["losses"], want["losses"])


def _leaves(x):
    """Every leaf of x, a JSON tree, in order."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return [leaf for item in x for leaf in _leaves(item)]
    return [x]


def _ordered(x):
    """x, a float, as an integer that counts ulps: adjacent floats differ by 1."""
    i = int(np.float64(x).view(np.int64))
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def check():
    """One line per pinned entry: whether record() reproduces it bit for bit,
    else its ulp distance, the largest of its scores', or that its ids or
    shape differ."""
    want, got = json.loads(FIXTURE.read_text()), json.loads(json.dumps(record()))
    lines = []
    for key, entries in want.items():
        for i, (w, g) in enumerate(zip(entries, got[key])):
            w, g = _leaves(w), _leaves(g)
            same = len(w) == len(g) and all(
                type(a) is type(b) and (isinstance(a, float) or a == b) for a, b in zip(w, g))
            if same:
                ulps = max((abs(_ordered(a) - _ordered(b)) for a, b in zip(w, g)
                            if isinstance(a, float)), default=0)
                verdict = f"{ulps} ulp" if ulps else "exact"
            else:
                verdict = "ids or shape differ"
            lines.append(f"{key}[{i}]: {verdict}")
        if len(entries) != len(got[key]):
            lines.append(f"{key}: {len(got[key])} entries, {len(entries)} pinned")
    return lines


def test_ulp_distance_counts_adjacent_floats():
    for x in (9.666377783255884, -6.793207233650275, 0.0, -5e-324, np.inf):
        up = np.nextafter(x, np.inf)
        assert abs(_ordered(up) - _ordered(x)) == (x != up)
    assert _ordered(0.0) == _ordered(-0.0) == 0 and _ordered(5e-324) - _ordered(-5e-324) == 2


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        report = check()
        print("\n".join(report))
        sys.exit(any(not line.endswith(": exact") for line in report))
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
