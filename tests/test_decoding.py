from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from chunkrec import decoding
from chunkrec.chunking import ChunkGeometry, StreamBuffer
from chunkrec.decoding import (BeamConfig, Hypothesis, StreamSession, _advance_chunk,
                               beam_decode, cer, edit_distance, greedy_decode, stream_decode)
from chunkrec.errors import (ChunkrecError, ConfigError, ContractError, EmptyInputError,
                             NumericError, ProtocolError, UndefinedMetricError)
from chunkrec.decoder_cache import DecoderCache
from chunkrec.model import Vocabulary

from conftest import make_tiny_model


# -- CER --------------------------------------------------------------------


def test_cer_identical():
    assert cer([("abc", "abc")]) == 0.0


def test_cer_substitution():
    assert cer([("abc", "abd")]) == pytest.approx(1 / 3)


def test_cer_empty_hypothesis():
    assert cer([("", "ab")]) == 1.0


def test_cer_empty_reference():
    with pytest.raises(UndefinedMetricError):
        cer([("ab", "")])


def test_cer_is_total_edits_over_total_reference_length():
    assert cer([("a", "ab"), ("", "c")]) == 2 / 3
    assert cer([("ab", ""), ("a", "a")]) == 2.0


def test_cer_of_no_pairs_is_undefined():
    with pytest.raises(UndefinedMetricError):
        cer([])


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
        # what stream_decode and DecoderCache read
        self.cfg = SimpleNamespace(W=W, B=B, d_in=1, d_model=1, n_dec_blocks=1,
                                   vocab_size=len(self.vocab))
        self._dist_fn = dist_fn
        self._W, self._B, self._L = W, B, L

    def encode_states(self, x, cache=None):
        return np.arange(self._L)[:, None].astype(float)

    def geometry_for(self, T):
        return ChunkGeometry(W=self._W, B=self._B, L=self._L)

    def decoder_steps(self, prefixes, chunk, cache=None):
        """(n, vocab) rows against one chunk. It keeps no rows in the cache,
        so every round makes its pass."""
        return np.array([self._dist_fn(prefix, chunk) for prefix in prefixes])


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


def test_ties_go_to_finished_then_earlier_row_then_lower_symbol_id():
    # binary log-probs, so every sum is exact. Round 0 keeps a, b and the
    # start finished by blank; in round 1 that finished hypothesis ties at
    # -1.0 with the four extensions of rows a and b by blank or a
    def dist_fn(prefix, chunk):
        if len(prefix) == 1:
            return np.array([-1.0, -8.0, -0.5, -0.5])
        return np.array([-0.5, -8.0, -0.5, -8.0])

    m = ScriptedModel(dist_fn)
    cfg = BeamConfig(width=3, max_symbols_per_chunk=2)
    finished, _ = _advance_chunk(m, [Hypothesis((0,), 0.0)], [], None, cfg)
    # row b's blank loses to row a's a, though its symbol id is lower
    assert finished == [Hypothesis((0,), -1.0), Hypothesis((0, 2), -1.0),
                        Hypothesis((0, 2, 2), -1.0)]


def test_greedy_floor_ranks_as_a_width_one_beam():
    # -3.0 + -0.5 and -3.0 + nextafter(-0.5, 0) round to the same sum, so the
    # beam takes the lower id 2, though symbol 3's own score is higher
    row = np.array([-5.0, -9.0, -0.5, np.nextafter(-0.5, 0.0)])
    m = ScriptedModel(lambda prefix, chunk: row)
    h = Hypothesis((0,), -3.0)
    cfg = BeamConfig(width=1, max_symbols_per_chunk=1)
    beam, _ = _advance_chunk(m, [h], [], None, cfg)
    _, floor = _advance_chunk(m, [], [h], None, cfg)
    assert beam == floor == [Hypothesis((0, 2), -3.5)]


def test_search_extends_at_most_width_plus_one_hypotheses_per_pass(monkeypatch):
    # labels stay likely, so the frontier stays full for several rounds; only
    # the width survivors of each round's ranking and the greedy path extend
    m = ScriptedModel(lambda prefix, chunk: _logdist([0.3, 0.05, 0.35, 0.3]))
    rows, extends = _counting(m), []
    rank, extend = decoding._rank, decoding._extend

    def ranked(finished, frontier, dists, width, *args):
        if width > 1:  # a round ranks the beam, then the floor, with or without a pass
            extends.append(0)
        return rank(finished, frontier, dists, width, *args)

    def counted(*args):
        extends[-1] += 1
        return extend(*args)

    monkeypatch.setattr(decoding, "_rank", ranked)
    monkeypatch.setattr(decoding, "_extend", counted)
    cfg = BeamConfig(width=5, max_symbols_per_chunk=4)
    beam_decode(m, np.zeros((32, 1)), cfg)
    assert max(rows) >= cfg.width
    assert max(extends) <= cfg.width + 1


def test_beam_decode_encodes_once():
    calls = []

    class CountingModel(ScriptedModel):
        def encode_states(self, x, cache=None):
            calls.append(1)
            return super().encode_states(x, cache)

    m = CountingModel(lambda prefix, chunk: _logdist([0.3, 0.05, 0.35, 0.3]))
    x = np.zeros((32, 1))
    for decode in (lambda: beam_decode(m, x, BeamConfig(width=5)),
                   lambda: greedy_decode(m, x),
                   lambda: stream_decode(m, [x])):
        calls.clear()
        decode()
        assert len(calls) == 1


def test_beam_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        BeamConfig(width=0)
    with pytest.raises(ConfigError):
        BeamConfig(max_symbols_per_chunk=0)


def _counting(model):
    """Wrap model.decoder_steps; returns the list of each pass's distinct prefix
    count, the rows the pass reads (a repeated prefix shares its trie nodes)."""
    rows = []
    steps = model.decoder_steps

    def counted(prefixes, chunk, cache=None):
        rows.append(len(set(map(tuple, prefixes))))
        return steps(prefixes, chunk, cache)

    model.decoder_steps = counted
    return rows


def test_beam_search_batches_the_frontier():
    # labels stay likely, so several hypotheses keep emitting in every round
    m = ScriptedModel(lambda prefix, chunk: _logdist([0.3, 0.05, 0.35, 0.3]))
    rows = _counting(m)
    cfg = BeamConfig(width=5, max_symbols_per_chunk=4)
    beam_decode(m, np.zeros((32, 1)), cfg)  # the greedy floor included
    M = m.geometry_for(32).M
    assert len(rows) <= M * (cfg.max_symbols_per_chunk + 1)
    assert sum(rows) > len(rows)


def _beam_only(m, cfg):
    """The beam search over 32 frames without the greedy floor."""
    hyps = [Hypothesis((m.vocab.start_id,), 0.0)]
    for a, b in m.geometry_for(32).spans:
        hyps, _ = _advance_chunk(m, hyps, [], m.encode_states(None)[a:b], cfg)
    return hyps


def _pruned_greedy_model():
    """Width 2 prunes the greedy path in chunk 0; it wins back in chunk 1.

    Chunk 0: greedy takes a (0.5) then blank (0.3), 0.15 in all, but the
    beam keeps b+blank (0.264) and b+b (0.167). Chunk 1: after a the blank
    is near certain, after b every symbol is 0.25, so greedy ends best.
    """
    s, a, b = 0, 2, 3

    def dist_fn(prefix, chunk):
        prefix = tuple(prefix)
        if int(chunk[0, 0]) == 0:
            table = {(s,): [0.05, 0.01, 0.5, 0.44], (s, a): [0.3, 0.2, 0.25, 0.25],
                     (s, b): [0.6, 0.01, 0.01, 0.38]}
            return _logdist(table.get(prefix, [0.9, 0.04, 0.03, 0.03]))
        if prefix[:2] == (s, b):
            return _logdist([0.25, 0.25, 0.25, 0.25])
        if prefix == (s, a):
            return _logdist([0.99, 0.003, 0.004, 0.003])
        return _logdist([0.97, 0.01, 0.01, 0.01])

    return ScriptedModel(dist_fn, W=4, B=0, L=8)


def test_greedy_path_adds_no_row_while_the_beam_holds_its_prefix():
    # a dominant label keeps the greedy path (a up to the cap in every chunk)
    # the beam's best path
    m = ScriptedModel(lambda prefix, chunk: _logdist([0.1, 0.05, 0.8, 0.05]))
    cfg = BeamConfig(width=3, max_symbols_per_chunk=4)
    rows = _counting(m)
    _beam_only(m, cfg)
    without = list(rows)
    rows.clear()
    # fed one frame at a time, as offline, every pass scores one chunk
    stream_decode(m, [np.zeros((1, 1))] * 32, cfg)
    assert rows == without


def test_beam_keeps_the_greedy_path_it_pruned():
    m = _pruned_greedy_model()
    x = np.zeros((32, 1))
    cfg = BeamConfig(width=2)
    rows = _counting(m)
    beam_only = _beam_only(m, cfg)
    without = list(rows)
    rows.clear()
    # fed one frame at a time, as offline, every pass scores one chunk
    nbest = stream_decode(m, _one_frame_at_a_time(x), cfg)[:2]
    # the same passes, and one more row, in chunk 1's first round, where the
    # beam no longer holds the greedy prefix
    assert [n - w for n, w in zip(rows, without)] == [0, 0, 0, 1, 0]
    assert len(rows) == len(without)
    assert beam_decode(m, x, cfg)[0] == nbest
    g_ids, g_lp = greedy_decode(m, x)
    assert g_ids == [2] and all(h.prefix != (0, 2) for h in beam_only)
    assert nbest == (g_ids, g_lp) and g_lp > beam_only[0].log_prob


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
    passes = _counting(m)
    cfg = BeamConfig(width=1, max_symbols_per_chunk=10)
    greedy_decode(m, np.zeros((32, 1)), cfg)
    budget = m.geometry_for(32).M * (cfg.max_symbols_per_chunk + 1)
    assert len(passes) <= budget
    assert len(calls) == len(passes)  # a pass scores one prefix against one chunk


def _one_frame_at_a_time(x):
    return [x[i:i + 1] for i in range(len(x))]


def _computing(model):
    """Wrap model._decode; returns a list with the trie's node count of each
    pass that computes rows. A pass whose rows the cache holds computes nothing."""
    passes = []
    decode = model._decode

    def counted(ids, *args, **kwargs):
        passes.append(len(ids))
        return decode(ids, *args, **kwargs)

    model._decode = counted
    return passes


def test_offline_decoding_makes_the_passes_of_a_frame_by_frame_stream():
    # offline decoding searches one chunk per pass, as a stream fed one frame
    # at a time does, although one push releases all its chunks but the
    # last: the same decoder_steps calls, the same passes that compute rows,
    # and the same n-best list, its scores to the stream's 1e-10 (a stream
    # encodes a position in other matrix shapes). 40 frames make 4 full
    # chunks and a truncated one; a blank bias makes the hypotheses stop
    # within a chunk, as a trained model's do
    x = np.random.default_rng(9).normal(size=(40, 4))
    for blocks in (1, 2):
        for seed in range(3):
            m = make_tiny_model(seed=seed, n_dec_blocks=blocks)
            m.params["dec.out.b"].data[m.vocab.blank_id] = 1.0
            assert [b - a for a, b in m.geometry_for(len(x)).spans] == [3] * 4 + [2]
            steps, passes = _counting(m), _computing(m)
            for cfg, decode in ((BeamConfig(width=5), beam_decode),
                                (BeamConfig(width=1), greedy_decode)):
                steps.clear()
                passes.clear()
                offline = decode(m, x, cfg)
                offline_steps, offline_passes = list(steps), list(passes)
                steps.clear()
                passes.clear()
                session = StreamSession(m, cfg)
                for frame in _one_frame_at_a_time(x):
                    session.push(frame)
                session.flush()
                assert offline_steps == steps and offline_passes == passes, (blocks, seed, cfg)
                assert len(steps) >= 5 and passes
                offline = offline if cfg.width > 1 else [offline]
                assert [list(h.prefix[1:]) for h in session.hyps] == [ids for ids, _ in offline]
                assert [h.log_prob for h in session.hyps] == pytest.approx(
                    [lp for _, lp in offline], rel=0, abs=1e-10)


def test_a_chunk_searched_without_next_chunk_is_a_protocol_error():
    # with a blank bias, round 0 of the first chunk finishes the start
    # hypothesis; the second chunk's round 0 then asks the cache for the same
    # prefix, whose rows the cache holds for the first chunk only
    m = make_tiny_model(seed=3, n_dec_blocks=2)
    m.params["dec.out.b"].data[m.vocab.blank_id] = 5.0
    x = np.random.default_rng(9).normal(size=(36, 4))
    states = m.encode_states(x).data
    a, b = (states[s:e] for s, e in m.geometry_for(len(x)).spans[:2])
    cfg, cache = BeamConfig(width=1), DecoderCache(m.cfg)
    hyps, _ = _advance_chunk(m, [Hypothesis((m.vocab.start_id,), 0.0)], [], a, cfg, cache)
    assert hyps[0].prefix == (m.vocab.start_id,)
    with pytest.raises(ProtocolError, match="next_chunk"):
        _advance_chunk(m, hyps, [], b, cfg, cache)
    cache.next_chunk([h.prefix for h in hyps])
    assert _advance_chunk(m, hyps, [], b, cfg, cache) == _advance_chunk(m, hyps, [], b, cfg)


def test_an_infinite_parameter_is_a_numeric_error_not_a_warning(rng):
    # pytest turns RuntimeWarnings into errors (pyproject.toml), so a numpy
    # warning from the op that meets the inf would fail this before any check
    x = rng.normal(size=(24, 4))
    for param, sublayer in (("enc.0.ln1.g", "enc.0.attn"),
                            ("dec.0.self_attn.wv", "dec.0.self_attn")):
        m = make_tiny_model()
        m.params[param].data.flat[0] = np.inf
        named = rf"non-finite value in (attention scores of )?{sublayer}$"
        with pytest.raises(NumericError, match=named):
            greedy_decode(m, x)
        with pytest.raises(NumericError, match=named):
            m.sequence_nlls([(x, [2, 3])])


# -- streaming --------------------------------------------------------------


def test_stream_single_fragment_matches_offline(tiny_model, rng):
    x = rng.normal(size=(37, 4))
    off = beam_decode(tiny_model, x)[0]
    ids, lp, _ = stream_decode(tiny_model, [x])
    assert ids == off[0] and lp == pytest.approx(off[1], abs=1e-12)


def test_width_one_stream_equals_greedy_bitwise():
    rng = np.random.default_rng(5)
    cfg = BeamConfig(width=1)
    for seed in range(8):
        m = make_tiny_model(seed=seed)
        x = rng.normal(size=(int(rng.integers(12, 60)), 4))
        cuts = np.sort(rng.choice(np.arange(1, len(x)), size=4, replace=False))
        for frags in ([x], np.split(x, cuts), [x[i:i + 1] for i in range(len(x))]):
            ids, lp, emissions = stream_decode(m, frags, cfg)
            assert (ids, lp) == greedy_decode(m, x)
            assert [e.symbol for e in emissions] == ids


def test_stream_frame_by_frame_matches_offline(tiny_model, rng):
    x = rng.normal(size=(29, 4))
    off = beam_decode(tiny_model, x)[0]
    ids, lp, _ = stream_decode(tiny_model, [x[i:i + 1] for i in range(len(x))])
    assert ids == off[0] and lp == pytest.approx(off[1], abs=1e-10)


def _logging_encoder(model):
    """Wrap model.encode_states; returns the list of each call's (cache start,
    raw frames handed in, states)."""
    calls = []
    encode = model.encode_states

    def logged(x, lengths=None, cache=None):
        start = cache.start
        states = encode(x, lengths, cache)
        calls.append((start, len(x), states.data))
        return states

    model.encode_states = logged
    return calls


def _cached_prefixes(cache):
    """The prefix of each node in a DecoderCache's trie, by number."""
    return sorted(cache.nodes, key=cache.nodes.get)


def test_long_stream_encodes_each_frame_once():
    # 2,000 frames in 8-frame fragments: every push but the first releases a
    # chunk of the tiny model (W=3, B=1, 4 raw frames per encoded frame), and
    # flush reuses the last push's states
    m = make_tiny_model(seed=2)
    x = np.random.default_rng(3).normal(size=(2000, 4))
    cfg = BeamConfig(width=2, max_symbols_per_chunk=1)
    calls = _logging_encoder(m)
    session, kept = StreamSession(m, cfg), []
    for i in range(0, len(x), 8):
        session.push(x[i:i + 8])
        kept.append(session.buf.raw_count)
        # the decoder cache holds the paths of the live hypotheses and no more
        cache = session.decoder_cache
        live = {h.prefix[:k] for h in session.hyps + session.floor
                for k in range(1, len(h.prefix) + 1)}
        assert set(_cached_prefixes(cache)) <= live
        assert not cache.session["held"][len(cache.nodes):].any()
        # and no chunk's keys or rows between chunks
        assert cache.chunk is None and cache.cross == []
        assert not any(a.any() for a in cache.tier.values())
    session.flush()
    del m.encode_states
    # the work per release and the raw frames kept do not grow along the stream
    handed = [n for _start, n, _states in calls]
    assert len(handed) == len(x) // 8 - 1
    assert handed[1:21] == handed[-20:] and max(handed[1:]) <= 16
    assert kept[1:21] == kept[-20:] and max(kept) <= 16
    # the streamed states of each position, the last encode's for the provisional ones
    starts = [start for start, _n, _states in calls]
    streamed = np.concatenate([states[:nxt - start] for (start, _n, states), nxt
                               in zip(calls, starts[1:] + [len(x)])])
    assert np.abs(streamed - m.encode_states(x).data).max() <= 1e-12
    ids, lp = beam_decode(m, x, cfg)[0]
    assert list(session.hyps[0].prefix[1:]) == ids
    assert abs(session.hyps[0].log_prob - lp) <= 1e-10


def test_stream_minimum_frame_count_is_on_the_whole_stream(tiny_model, rng):
    # W=3, B=1: the push of 39 frames releases chunks up to encoded frame 9
    # and keeps raw frames from 36 on; a last fragment of r frames leaves a
    # tail of 3 + r raw frames, r of them new, for flush to encode
    x = rng.normal(size=(42, 4))
    for r in (0, 1, 2, 3):
        ids, lp = beam_decode(tiny_model, x[:39 + r])[0]
        calls = _logging_encoder(tiny_model)
        got = stream_decode(tiny_model, [x[:39], x[39:39 + r]])
        del tiny_model.encode_states
        assert [(start, n) for start, n, _states in calls] == [(0, 39)] + [(9, 3 + r)] * (r > 0)
        assert got[0] == ids and abs(got[1] - lp) <= 1e-10, r
    for n in (1, 2, 3):  # too short to encode, fed whole or frame by frame
        for frags in ([x[:n]], [x[i:i + 1] for i in range(n)]):
            with pytest.raises(EmptyInputError):
                stream_decode(tiny_model, frags)


def test_session_pushes_return_what_stream_decode_emits(rng):
    cfg, early = BeamConfig(width=3), 0
    for seed in range(6):
        m = make_tiny_model(seed=seed)
        x = rng.normal(size=(61, 4))
        frags = np.split(x, [5, 19, 20, 33, 47, 52])
        buf = StreamBuffer(m.cfg.W, m.cfg.B, m.cfg.d_in)
        released = [len(buf.push(f)) for f in frags] + [len(buf.flush())]
        session = StreamSession(m, cfg, clock=lambda: 0.0)
        returned = [session.push(f) for f in frags] + [session.flush()]
        # each emission comes back from the push that released its chunk
        first = np.cumsum([0] + released)
        for emissions, a, b in zip(returned, first, first[1:]):
            assert all(a <= e.chunk_index < b for e in emissions), seed
        assert sum(returned, []) == stream_decode(m, frags, cfg, clock=lambda: 0.0)[2]
        early += sum(map(len, returned[:-1]))
    assert early > 0  # some symbols are emitted before the flush


def test_session_protocol_errors(tiny_model, rng):
    with pytest.raises(EmptyInputError):
        StreamSession(tiny_model, BeamConfig()).flush()
    session = StreamSession(tiny_model, BeamConfig())
    session.push(rng.normal(size=(20, 4)))
    session.flush()
    with pytest.raises(ProtocolError):
        session.push(rng.normal(size=(4, 4)))
    with pytest.raises(ProtocolError):
        session.flush()
    # a stream too short to encode fails at flush, a fragment of the wrong width at its push
    session = StreamSession(tiny_model, BeamConfig())
    session.push(rng.normal(size=(3, 4)))
    with pytest.raises(EmptyInputError):
        session.flush()
    with pytest.raises(ContractError):
        StreamSession(tiny_model, BeamConfig()).push(rng.normal(size=(20, 5)))
    # a session flushed after its only push takes no further push
    session = StreamSession(tiny_model, BeamConfig())
    session.push(rng.normal(size=(20, 4)))
    session.flush()
    with pytest.raises(ProtocolError):
        session.push(rng.normal(size=(4, 4)))


def test_stream_rejects_misshapen_fragments(tiny_model, rng):
    x = rng.normal(size=(24, 4))
    with pytest.raises(ContractError):
        stream_decode(tiny_model, [x[:8, :3]])  # a first fragment narrower than d_in
    with pytest.raises(ContractError):
        stream_decode(tiny_model, [x[:8], x[8:14].T])  # transposed (d_in, n)
    with pytest.raises(ContractError):
        stream_decode(tiny_model, [x[:8], x[8]])  # one frame as a 1-D vector
    for bad in (x[8:14] * 1j, x[8:14].astype(str), [[0.0] * 4, [0.0] * 3]):
        with pytest.raises(ContractError):
            stream_decode(tiny_model, [x[:8], bad])


# Any values: a NaN, infinite or huge frame is a NumericError from as_frames.
_ELEMENTS = {"f8": st.floats(), "f4": st.floats(width=32), "i8": st.integers(-2**63, 2**63 - 1),
             "u1": st.integers(0, 255), "?": st.booleans(), "c16": st.complex_numbers(),
             "U2": st.text(max_size=2), "O": st.none() | st.floats() | st.text(max_size=1)}
_REAL = st.sampled_from(["f8", "f8", "f4", "i8", "u1", "?"]).flatmap(lambda dt: hnp.arrays(
    dt, st.tuples(st.integers(0, 12), st.just(4)), elements=_ELEMENTS[dt]))
_ANY = st.sampled_from(sorted(_ELEMENTS)).flatmap(lambda dt: hnp.arrays(
    dt, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5), elements=_ELEMENTS[dt]))
# nested lists of rows, ragged unless every row is as wide
_NESTED = st.lists(st.lists(st.floats(), min_size=3, max_size=5), max_size=12)
_FRAGMENTS = st.one_of(_REAL, _REAL, _REAL, _REAL, _ANY, _NESTED)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fragments=st.lists(_FRAGMENTS, max_size=4))
def test_fuzzed_fragments_decode_or_raise_a_chunkrec_error(fragments):
    try:
        ids, _, emissions = stream_decode(make_tiny_model(), fragments,
                                          BeamConfig(width=2, max_symbols_per_chunk=2))
    except ChunkrecError:
        return
    assert [e.symbol for e in emissions] == ids


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
        assert [e.symbol for e in emissions] == ids, seed
    # the greedy floor wins at flush: chunk 0 ends with every beam hypothesis
    # starting with b and the greedy path with a, so nothing is emitted early
    m = _pruned_greedy_model()
    x = np.zeros((32, 1))
    cfg = BeamConfig(width=2)
    ids, lp, emissions = stream_decode(m, [x[i:i + 1] for i in range(len(x))], cfg)
    assert (ids, lp) == greedy_decode(m, x) == tuple(beam_decode(m, x, cfg)[0])
    assert [(e.chunk_index, e.symbol) for e in emissions] == [(1, 2)]
