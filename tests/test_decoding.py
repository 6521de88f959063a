import numpy as np
import pytest

from chunkrec.chunking import ChunkGeometry
from chunkrec.decoding import (BeamConfig, beam_decode, cer, edit_distance,
                               greedy_decode, stream_decode)
from chunkrec.errors import ConfigError, ContractError, UndefinedMetricError
from chunkrec.model import Vocabulary

from conftest import make_tiny_model


# -- CER --------------------------------------------------------------------


def test_cer_identical():
    assert cer("abc", "abc") == 0.0


def test_cer_substitution():
    assert cer("abc", "abd") == pytest.approx(1 / 3)


def test_cer_empty_hypothesis():
    assert cer("", "ab") == 1.0


def test_cer_empty_reference():
    with pytest.raises(UndefinedMetricError):
        cer("ab", "")


def test_edit_distance_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 4, size=rng.integers(0, 8)).tolist()
        b = rng.integers(0, 4, size=rng.integers(0, 8)).tolist()
        assert edit_distance(a, b) == edit_distance(b, a)


# -- scripted-model decoding ------------------------------------------------


class ScriptedModel:
    """Deterministic stand-in: decoder_steps maps a fixed log-distribution,
    optionally depending on (chunk span, prefix length), over the prefixes."""

    def __init__(self, dist_fn, W=4, B=1, L=8, vocab=None):
        self.vocab = vocab or Vocabulary.from_units("ab")
        self._dist_fn = dist_fn
        self._W, self._B, self._L = W, B, L

    def encode_states(self, x):
        return np.arange(self._L)[:, None].astype(float)

    def geometry_for(self, T):
        return ChunkGeometry(W=self._W, B=self._B, L=self._L)

    def decoder_steps(self, prefixes, chunk):
        return np.stack([self._dist_fn(prefix, chunk) for prefix in prefixes])


def _logdist(probs):
    p = np.asarray(probs, dtype=float)
    return np.log(p / p.sum())


def test_greedy_all_blank():
    dist = _logdist([0.8, 0.05, 0.1, 0.05])  # blank dominates
    m = ScriptedModel(lambda prefix, chunk: dist)
    ids, lp = greedy_decode(m, np.zeros((32, 1)))
    M = m.geometry_for(32).M
    assert ids == []
    assert lp == pytest.approx(M * dist[0])


def test_greedy_cap_forces_advance():
    dist = _logdist([0.05, 0.05, 0.8, 0.1])  # label id 2 always wins
    m = ScriptedModel(lambda prefix, chunk: dist)
    cfg = BeamConfig(width=1, max_symbols_per_chunk=10)
    ids, lp = greedy_decode(m, np.zeros((32, 1)), cfg)
    M = m.geometry_for(32).M
    assert len(ids) == 10 * M  # cap hit in every chunk
    assert lp == pytest.approx(10 * M * dist[2])  # no blank factors


def test_beam_keeps_duplicate_prefixes_without_merging():
    # two chunks; emitting 'a' in either chunk yields the same string
    def dist_fn(prefix, chunk):
        if len(prefix) == 1:
            return _logdist([0.5, 0.01, 0.48, 0.01])
        return _logdist([0.9, 0.02, 0.06, 0.02])

    m = ScriptedModel(dist_fn, W=4, B=0, L=8)
    nbest = beam_decode(m, np.zeros((32, 1)), BeamConfig(width=4))
    strings = [tuple(ids) for ids, _ in nbest]
    assert strings.count((2,)) >= 2
    scores = sorted(lp for ids, lp in nbest if tuple(ids) == (2,))
    assert scores[0] != scores[-1]


def test_ties_go_to_the_lower_symbol_id():
    # labels 2 and 3 tie exactly in the first round, then blank dominates
    def dist_fn(prefix, chunk):
        if len(prefix) == 1:
            return _logdist([0.1, 0.1, 0.4, 0.4])
        return _logdist([0.9, 0.02, 0.04, 0.04])

    m = ScriptedModel(dist_fn)
    x = np.zeros((32, 1))
    assert greedy_decode(m, x)[0] == [2]
    assert beam_decode(m, x, BeamConfig(width=1))[0][0] == [2]


def test_beam_decode_encodes_once():
    calls = []

    class CountingModel(ScriptedModel):
        def encode_states(self, x):
            calls.append(1)
            return super().encode_states(x)

    m = CountingModel(lambda prefix, chunk: _logdist([0.3, 0.05, 0.35, 0.3]))
    beam_decode(m, np.zeros((32, 1)), BeamConfig(width=5))
    assert len(calls) == 1


def test_beam_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        BeamConfig(width=0)
    with pytest.raises(ConfigError):
        BeamConfig(max_symbols_per_chunk=0)


def test_beam_search_batches_the_frontier():
    # labels stay likely, so several hypotheses keep emitting in every round
    dist = _logdist([0.3, 0.05, 0.35, 0.3])
    calls, rows = [], []

    class CountingModel(ScriptedModel):
        def decoder_steps(self, prefixes, chunk):
            calls.append(1)
            rows.append(len(prefixes))
            return super().decoder_steps(prefixes, chunk)

    m = CountingModel(lambda prefix, chunk: dist)
    x = np.zeros((32, 1))
    cfg = BeamConfig(width=5, max_symbols_per_chunk=4)
    beam_decode(m, x, cfg)
    beam_calls, beam_rows = len(calls), sum(rows)
    calls.clear()
    rows.clear()
    greedy_decode(m, x, cfg)  # the greedy floor inside beam_decode
    search_calls = beam_calls - len(calls)
    search_rows = beam_rows - sum(rows)
    M = m.geometry_for(32).M
    assert search_calls <= M * (cfg.max_symbols_per_chunk + 1)
    assert search_rows > search_calls


# -- real-model decoding ----------------------------------------------------


def test_width_one_equals_greedy():
    rng = np.random.default_rng(1)
    for seed in range(5):
        m = make_tiny_model(seed=seed)
        x = rng.normal(size=(int(rng.integers(8, 48)), 4))
        gids, glp = greedy_decode(m, x)
        nbest = beam_decode(m, x, BeamConfig(width=1))
        assert nbest[0][0] == gids
        assert nbest[0][1] == pytest.approx(glp, abs=1e-12)


def test_beam_dominates_greedy():
    rng = np.random.default_rng(2)
    m = make_tiny_model(seed=3)
    for _ in range(20):
        x = rng.normal(size=(int(rng.integers(8, 40)), 4))
        _, glp = greedy_decode(m, x)
        nbest = beam_decode(m, x, BeamConfig(width=5))
        assert nbest[0][1] >= glp - 1e-12


def test_beam_dominates_greedy_without_tolerance():
    rng = np.random.default_rng(7)
    m = make_tiny_model(seed=5)
    for _ in range(20):
        x = rng.normal(size=(int(rng.integers(8, 40)), 4))
        _, glp = greedy_decode(m, x)
        assert beam_decode(m, x, BeamConfig(width=5))[0][1] >= glp


def test_best_score_nondecreasing_in_width():
    rng = np.random.default_rng(3)
    m = make_tiny_model(seed=4)
    for _ in range(5):
        x = rng.normal(size=(24, 4))
        scores = [beam_decode(m, x, BeamConfig(width=w))[0][1] for w in (1, 2, 3, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_decode_terminates_within_step_budget():
    dist = _logdist([0.05, 0.05, 0.8, 0.1])
    calls = []

    def dist_fn(prefix, chunk):
        calls.append(1)
        return dist

    m = ScriptedModel(dist_fn)
    cfg = BeamConfig(width=1, max_symbols_per_chunk=10)
    greedy_decode(m, np.zeros((32, 1)), cfg)
    M = m.geometry_for(32).M
    assert len(calls) <= M * (cfg.max_symbols_per_chunk + 1)


# -- streaming --------------------------------------------------------------


def test_stream_single_fragment_matches_offline(tiny_model, rng):
    x = rng.normal(size=(37, 4))
    off = beam_decode(tiny_model, x)[0]
    ids, lp, _ = stream_decode(tiny_model, [x])
    assert ids == off[0] and lp == pytest.approx(off[1], abs=1e-12)


def test_stream_frame_by_frame_matches_offline(tiny_model, rng):
    x = rng.normal(size=(29, 4))
    off = beam_decode(tiny_model, x)[0]
    ids, lp, _ = stream_decode(tiny_model, [x[i:i + 1] for i in range(len(x))])
    assert ids == off[0] and lp == pytest.approx(off[1], abs=1e-10)


def test_stream_rejects_misshapen_fragments(tiny_model, rng):
    x = rng.normal(size=(24, 4))
    with pytest.raises(ContractError):
        stream_decode(tiny_model, [x[:8], x[8:14].T])  # transposed (d_in, n)
    with pytest.raises(ContractError):
        stream_decode(tiny_model, [x[:8], x[8]])  # one frame as a 1-D vector


def test_stream_emission_clock_respects_arrival(tiny_model, rng):
    x = rng.normal(size=(41, 4))
    pushed = {"n": 0}

    def clock():
        return float(pushed["n"])

    frags = []
    for i in range(len(x)):
        frags.append(x[i:i + 1])

    def counting_fragments():
        for f in frags:
            pushed["n"] += 1
            yield f

    _, _, emissions = stream_decode(tiny_model, counting_fragments(), clock=clock)
    geom = tiny_model.geometry_for(41)
    for e in emissions:
        _, end = geom.spans[e.chunk_index]
        required = min(tiny_model.frames_needed(end), len(x))
        # wall_clock_ms = (clock() - t0) * 1000 with t0 = 0 frames pushed
        assert e.wall_clock_ms / 1000.0 >= required


def test_stream_emissions_are_a_prefix_of_the_final_ids():
    rng = np.random.default_rng(11)
    for seed in range(40):
        m = make_tiny_model(seed=seed)
        x = rng.normal(size=(int(rng.integers(12, 60)), 4))
        cuts = np.sort(rng.choice(np.arange(1, len(x)), size=5, replace=False))
        ids, _, emissions = stream_decode(m, np.split(x, cuts), BeamConfig(width=4))
        emitted = [e.symbol for e in emissions]
        assert emitted == ids[:len(emitted)], seed
