import copy
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkrec import autodiff as ad
from chunkrec.autodiff import Tensor
from chunkrec.decoder_cache import DecoderCache
from chunkrec.errors import (AvailabilityError, ConfigError, ContractError, NumericError,
                             ProtocolError, ShapeError, VocabError)
from chunkrec.lattice import lattice_nll
from chunkrec.model import (ChunkTransducerModel, EncoderCache, ModelConfig, Vocabulary,
                            sinusoidal_positions)

from conftest import make_tiny_model


def test_config_validation():
    for bad in [dict(d_model=10, n_heads=4), dict(W=3, B=3), dict(d_model=0),
                dict(d_model=5, n_heads=1), dict(n_enc_blocks=-1), dict(seed=-1),
                dict(W=4.0), dict(n_heads=True)]:
        with pytest.raises(ConfigError):
            ModelConfig(**bad)


def test_model_rejects_params_that_differ_from_config():
    m = make_tiny_model()
    ChunkTransducerModel(m.cfg, m.vocab, dict(m.params))
    missing = dict(m.params)
    del missing["dec.out.b"]
    with pytest.raises(ContractError, match="dec.out.b"):
        ChunkTransducerModel(m.cfg, m.vocab, missing)
    wrong_shape = dict(m.params, **{"dec.0.ffn.b1": Tensor(np.zeros(3))})
    with pytest.raises(ContractError, match="dec.0.ffn.b1"):
        ChunkTransducerModel(m.cfg, m.vocab, wrong_shape)
    unknown = dict(m.params, **{"dec.2.ln1.g": Tensor(np.ones(16))})
    with pytest.raises(ContractError, match="dec.2.ln1.g"):
        ChunkTransducerModel(m.cfg, m.vocab, unknown)


def test_vocab_roundtrip():
    v = Vocabulary.from_units("abc")
    assert v.blank_id != v.unk_id
    assert v.start_id == v.blank_id
    assert v.encode("abz") == [2, 3, v.unk_id]
    assert v.decode([2, 3, 4]) == "abc"
    units = Vocabulary.from_units(["s0", "s1", "s12"])  # multi-character units
    assert units.encode("s1 s12  s0\tx") == [3, 4, 2, units.unk_id]
    assert units.decode([3, 4, 2]) == "s1 s12 s0"
    for ids in ([-1, 2], [2, len(v)]):  # a negative id must not read from the end
        with pytest.raises(VocabError):
            v.decode(ids)
    for bad in (["s0", "s 1"], ["ab", ""], ["a", ""], [3, "a"]):
        with pytest.raises(VocabError):
            Vocabulary.from_units(bad)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=8, unique=True),
       st.data())
def test_vocab_text_round_trips(units, data):
    units = [u for u in units if u not in ("<blk>", "<unk>")]
    multi = any(len(u) > 1 for u in units)
    if not units or (multi and any(u.split() != [u] for u in units)):
        with pytest.raises(VocabError):
            Vocabulary.from_units(units)
        return
    v = Vocabulary.from_units(units)
    ids = data.draw(st.lists(st.sampled_from(range(2, len(v))), max_size=12))
    text = v.decode(ids)
    assert v.encode(text) == ids
    assert v.decode(v.encode(text)) == text
    assert text == (" " if multi else "").join(units[i - 2] for i in ids)


def test_front_end_lengths(tiny_model):
    assert tiny_model.front_end(np.zeros((16, 4))).shape[0] == 4
    assert tiny_model.front_end(np.zeros((17, 4))).shape[0] == 5
    assert tiny_model.encoded_len(16) == 4
    assert tiny_model.encoded_len(17) == 5


def test_front_end_zero_input_gives_positions(tiny_model):
    # zero frames and zero conv biases: output is exactly the positional table
    out = tiny_model.front_end(np.zeros((16, 4)))
    pe = sinusoidal_positions(np.arange(4), tiny_model.cfg.d_model)
    assert np.allclose(out.data, pe, atol=1e-15)


def test_front_end_too_short(tiny_model):
    from chunkrec.errors import EmptyInputError
    with pytest.raises(EmptyInputError):
        tiny_model.front_end(np.zeros((2, 4)))


@pytest.mark.parametrize("x", [np.zeros((16, 4), dtype=complex), np.zeros((16, 4)).astype(str),
                               [[0.0] * 4] * 15 + [[0.0] * 3], np.zeros((16, 5)), np.zeros(16)])
def test_frames_that_are_not_real_2d_are_contract_errors(tiny_model, x):
    for encode in (tiny_model.front_end, lambda x: tiny_model.encode_chunk(x, 0),
                   lambda x: tiny_model.lattice_probs([(x, [2])])[0]):
        with pytest.raises(ContractError):
            encode(x)


def test_encoder_self_only_with_zero_context(rng):
    m = make_tiny_model(left_context=0)
    x = rng.normal(size=(24, 4))
    base = m.encode_states(x).data.copy()
    # position i of the encoder output may react only to encoded inputs <= i;
    # with left_context=0 attention is self-only, checked via front-end inputs
    x2 = x.copy()
    x2[20:] += 1.0  # affects encoded frames >= ceil((20-6)/4) = 4
    out2 = m.encode_states(x2).data
    assert np.array_equal(base[:4], out2[:4])


def test_encoder_causality_perturbation(tiny_model, rng):
    x = rng.normal(size=(40, 4))
    geom = tiny_model.geometry_for(40)
    m_idx = 1
    a, b = geom.spans[m_idx]
    chunk = tiny_model.encode_chunk(x, m_idx).states.data.copy()
    x2 = x.copy()
    first_safe = tiny_model.frames_needed(b)
    x2[first_safe:] += rng.normal(size=x2[first_safe:].shape)
    chunk2 = tiny_model.encode_chunk(x2, m_idx).states.data
    assert np.array_equal(chunk, chunk2)


def test_encode_chunk_bad_index(tiny_model):
    with pytest.raises(AvailabilityError):
        tiny_model.encode_chunk(np.zeros((16, 4)), 99)


def test_streaming_offline_encoder_equivalence(tiny_model, rng):
    x = rng.normal(size=(53, 4))
    full = tiny_model.encode_states(x).data
    # encode a prefix long enough that encoded frames < e are stable
    for e in (3, 7, 10):
        t = tiny_model.frames_needed(e)
        prefix = tiny_model.encode_states(x[:t]).data
        assert np.abs(prefix[:e] - full[:e]).max() <= 1e-10


def test_decoder_distribution_normalizes(tiny_model, rng):
    chunk = tiny_model.encode_chunk(rng.normal(size=(16, 4)), 0).states
    dist = tiny_model.decoder_step([tiny_model.vocab.start_id, 3], chunk)
    assert abs(np.exp(dist).sum() - 1.0) <= 1e-9
    assert (dist <= 0).all()


def test_decoder_sensitive_to_chunk(tiny_model, rng):
    x = rng.normal(size=(40, 4))
    c0 = tiny_model.encode_chunk(x, 0).states
    c1 = tiny_model.encode_chunk(x, 2).states
    prefix = [tiny_model.vocab.start_id, 2]
    d0 = tiny_model.decoder_step(prefix, c0)
    d1 = tiny_model.decoder_step(prefix, c1)
    assert not np.allclose(d0, d1)


def test_decoder_prefix_extension_causal(tiny_model, rng):
    chunk = tiny_model.encode_chunk(rng.normal(size=(16, 4)), 0).states
    v = tiny_model.vocab
    short = tiny_model.decoder_forward([v.start_id, 2, 3], chunk).data
    long = tiny_model.decoder_forward([v.start_id, 2, 3, 4], chunk).data
    assert np.abs(long[:3] - short).max() <= 1e-12


def test_decoder_steps_match_single_prefix_passes(tiny_model, rng):
    x = rng.normal(size=(40, 4))
    chunk = tiny_model.encode_chunk(x, 1).states
    start = tiny_model.vocab.start_id
    prefixes = [[start], [start, 3, 4, 2, 7, 5], [start, 2], [start, 6, 6, 3]]
    batched = tiny_model.decoder_steps(prefixes, chunk)
    assert batched.shape == (len(prefixes), tiny_model.cfg.vocab_size)
    for prefix, row in zip(prefixes, batched):
        full = tiny_model.decoder_forward(prefix, chunk).data[-1]
        alone = tiny_model.decoder_steps([prefix], chunk)[0]
        assert np.max(np.abs(row - full)) <= 1e-12
        assert np.max(np.abs(row - alone)) <= 1e-12
    with pytest.raises(ContractError):
        tiny_model.decoder_steps([], chunk)
    with pytest.raises(ContractError):
        tiny_model.decoder_steps([[start, 2], [3]], chunk)


@pytest.mark.parametrize("overrides", [
    {},
    dict(d_model=64, n_heads=4, n_enc_blocks=2, n_dec_blocks=2, left_context=8, W=4,
         vocab_size=16, ffn_inner=128),  # the benchmark model's shape
], ids=["tiny", "benchmark-shaped"])
def test_decoder_steps_rows_are_batch_invariant(overrides):
    # search scores the greedy path inside the beam's batch, and beam >= greedy
    # holds with no tolerance only if batching changes no bit of any row. If
    # this fails, the BLAS in use sums differently by batch shape: the search
    # then needs its greedy floor back as a separate width-1 pass.
    m = make_tiny_model(seed=2, **overrides)
    rng = np.random.default_rng(5)
    V, W, d = m.cfg.vocab_size, m.cfg.W, m.cfg.d_model
    for trial in range(40):
        prefixes = [[m.vocab.start_id] + rng.integers(1, V, size=rng.integers(0, 25)).tolist()
                    for _ in range(int(rng.integers(1, 7)))]
        chunk = rng.normal(size=(int(rng.integers(1, W + 1)), d))
        batched = m.decoder_steps(prefixes, chunk)
        for prefix, row in zip(prefixes, batched):
            alone = m.decoder_steps([prefix], chunk)[0]
            assert np.array_equal(row, alone), (
                f"trial {trial}: a {len(prefix)}-symbol prefix scored among {len(prefixes)} "
                f"differs from the same prefix scored alone by "
                f"{np.max(np.abs(row - alone)):.3g}")


def test_decoder_steps_rejects_misshapen_chunk_states(tiny_model):
    d, start = tiny_model.cfg.d_model, tiny_model.vocab.start_id
    for shape in [(d,), (3, d + 1), (2, 3, d), (2, 3, d - 1), (1, 2, 3, d), (0, d), (2, 0, d)]:
        with pytest.raises(ShapeError):
            tiny_model.decoder_steps([[start, 2]], np.zeros(shape))


# beam-shaped prefix sets, as symbol lists after the start symbol
TRIE_SETS = {
    "duplicates": [[3, 4], [3, 4], [2], [3, 4]],
    "read-on-an-interior-node": [[3, 4, 2], [3], [3, 4], [5]],
    "siblings-differing-in-the-last-symbol": [[5, 2, 3], [5, 2, 4], [5, 2, 6]],
    "start-only-among-longer": [[4, 4], [], [4]],
    "lone-start-only": [[]],
    "one-node": [[], [], []],
}


@pytest.mark.parametrize("overrides", [{}, dict(n_dec_blocks=2), dict(n_dec_blocks=0)],
                         ids=["one-block", "two-blocks", "no-block"])
@pytest.mark.parametrize("symbols", TRIE_SETS.values(), ids=TRIE_SETS.keys())
def test_decoder_steps_rows_over_beam_shaped_tries(symbols, overrides, rng):
    m = make_tiny_model(seed=3, **overrides)
    chunk = rng.normal(size=(m.cfg.W, m.cfg.d_model))
    prefixes = [[m.vocab.start_id, *s] for s in symbols]
    batched = m.decoder_steps(prefixes, chunk)
    assert batched.shape == (len(prefixes), m.cfg.vocab_size)
    for prefix, row in zip(prefixes, batched):
        assert np.array_equal(row, m.decoder_steps([prefix], chunk)[0])
        assert np.max(np.abs(row - m.decoder_forward(prefix, chunk).data[-1])) <= 1e-12


def test_decoder_steps_scores_each_distinct_prefix_once(monkeypatch):
    # the pass runs one row per distinct prefix of a prefix, and its last block
    # one per distinct prefix, each at least two
    m = make_tiny_model(n_dec_blocks=2)
    chunk = np.random.default_rng(0).normal(size=(m.cfg.W, m.cfg.d_model))
    start = m.vocab.start_id
    seen = []
    decode, ffn = m._decode, m._ffn

    def recorded_decode(ids, memory, cross_mask=True, rows=None):
        seen.append(ids.shape)
        return decode(ids, memory, cross_mask, rows)

    def recorded_ffn(prefix, x):
        seen.append((prefix, x.shape[0]))
        return ffn(prefix, x)

    monkeypatch.setattr(m, "_decode", recorded_decode)
    monkeypatch.setattr(m, "_ffn", recorded_ffn)
    rng = np.random.default_rng(7)
    beams = [[start, *rng.integers(1, 4, size=rng.integers(0, 6)).tolist()]
             for _ in range(60)]
    sets = [[[start, *s] for s in symbols] for symbols in TRIE_SETS.values()]
    sets += [beams[i:i + 6] for i in range(0, 60, 6)]
    for prefixes in sets:
        seen.clear()
        m.decoder_steps(prefixes, chunk)
        nodes = {tuple(p[:k]) for p in prefixes for k in range(1, len(p) + 1)}
        rows, read = max(2, len(nodes)), max(2, len({tuple(p) for p in prefixes}))
        assert seen == [(rows,), ("dec.0.ffn", rows), ("dec.1.ffn", read)]


def test_a_cache_searched_on_another_chunk_is_a_protocol_error():
    # the chunk tier records the chunk states it was made for: a pass on other
    # states must not read its rows, and after next_chunk the next chunk's
    # pass makes the tier anew
    m = make_tiny_model(n_dec_blocks=2)
    a, b = np.random.default_rng(8).normal(size=(2, m.cfg.W, m.cfg.d_model))
    start = m.vocab.start_id
    prefixes = [(start, 2, 3), (start, 4)]
    cache = DecoderCache(m.cfg)
    m.decoder_steps(prefixes, a, cache)
    for other in (b, a[:-1]):  # another chunk, and a truncated one
        with pytest.raises(ProtocolError, match="next_chunk"):
            m.decoder_steps(prefixes, other, cache)
    # the same states in another array are the tier's chunk
    assert np.array_equal(m.decoder_steps(prefixes, a.copy(), cache), m.decoder_steps(prefixes, a))
    cache.next_chunk(prefixes)
    assert np.array_equal(m.decoder_steps(prefixes, b, cache), m.decoder_steps(prefixes, b))
    with pytest.raises(ProtocolError, match="next_chunk"):
        m.decoder_steps(prefixes, a, cache)


def test_a_non_integer_id_is_a_vocab_error(tiny_model, rng):
    # numpy would truncate 2.9 to 2 and parse "2" as 2
    chunk = tiny_model.encode_chunk(rng.normal(size=(16, 4)), 0).states
    start = tiny_model.vocab.start_id
    for bad in ([start, 2.9], [start, "2"], [start, 2.0], [start, None]):
        with pytest.raises(VocabError):
            tiny_model.decoder_steps([bad], chunk)
        with pytest.raises(VocabError):
            tiny_model.decoder_step(bad, chunk)
        with pytest.raises(VocabError):
            tiny_model.decoder_forward(bad, chunk)
    x = rng.normal(size=(16, 4))
    for y in ([2.5, 3], np.array([2.0, 3.0]), ["2", "3"]):
        with pytest.raises(VocabError):
            tiny_model.sequence_nll(x, y)
    # integer ids of any integer type are accepted
    assert np.array_equal(tiny_model.decoder_steps([(start, np.int32(2))], chunk),
                          tiny_model.decoder_steps([(start, 2)], chunk))
    tiny_model.sequence_nll(x, np.array([2, 3], dtype=np.uint8))


def _rows_run(monkeypatch, m):
    """Record the rows of each pass's sub-layers: (name, rows) per
    self-attention (its query rows) and FFN call."""
    seen, attend, ffn = [], m._attend, m._ffn

    def recorded_attend(prefix, q_in, k, v, mask):
        if prefix.endswith("self_attn"):
            seen.append((prefix, q_in.shape[-2]))
        return attend(prefix, q_in, k, v, mask)

    def recorded_ffn(prefix, x):
        seen.append((prefix, x.shape[-2]))
        return ffn(prefix, x)

    monkeypatch.setattr(m, "_attend", recorded_attend)
    monkeypatch.setattr(m, "_ffn", recorded_ffn)
    return seen


def _block_0_run(monkeypatch, m):
    """Record block 0's layer norms by name and its linear layers by (name, suffix)."""
    seen, ln, linear = [], m._ln, m._linear

    def recorded_ln(prefix, x):
        if prefix.startswith("dec.0."):
            seen.append(prefix)
        return ln(prefix, x)

    def recorded_linear(prefix, x, suffix=""):
        if prefix.startswith("dec.0."):
            seen.append((prefix, suffix))
        return linear(prefix, x, suffix)

    monkeypatch.setattr(m, "_ln", recorded_ln)
    monkeypatch.setattr(m, "_linear", recorded_linear)
    return seen


def test_a_cached_pass_computes_only_what_the_cache_lacks(monkeypatch):
    m = make_tiny_model(n_dec_blocks=2)
    rng = np.random.default_rng(4)
    chunks = rng.normal(size=(2, m.cfg.W, m.cfg.d_model))
    start = m.vocab.start_id
    beam = [(start, 2, 3, 4), (start, 2, 3, 5), (start, 2, 6)]  # 6 nodes
    cache = DecoderCache(m.cfg)
    seen, block_0 = _rows_run(monkeypatch, m), _block_0_run(monkeypatch, m)
    m.decoder_steps(beam, chunks[0], cache)
    assert seen == [("dec.0.self_attn", 6), ("dec.0.ffn", 6), ("dec.1.self_attn", 3),
                    ("dec.1.ffn", 3)]
    assert {"dec.0.ln2", ("dec.0.cross_attn", "q")} <= set(block_0)
    # the next chunk's first round: every node is in the session tier, so no
    # block-0 row up to its cross-attention query; every node is new to the chunk
    cache.next_chunk(beam)
    seen.clear()
    block_0.clear()
    got = m.decoder_steps(beam, chunks[1], cache)
    assert seen == [("dec.0.ffn", 6), ("dec.1.self_attn", 3), ("dec.1.ffn", 3)]
    assert "dec.0.ln2" not in block_0 and ("dec.0.cross_attn", "q") not in block_0
    assert np.array_equal(got, m.decoder_steps(beam, chunks[1]))
    # a later round runs block 0 and the rest only on the nodes new to the chunk
    later = [p + (s,) for p in beam for s in (2, 7)]
    seen.clear()
    got = m.decoder_steps(later, chunks[1], cache)
    assert seen == [("dec.0.self_attn", 6), ("dec.0.ffn", 6), ("dec.1.self_attn", 6),
                    ("dec.1.ffn", 6)]
    assert np.array_equal(got, m.decoder_steps(later, chunks[1]))
    # re-reading the six leaves computes their output rows again from the
    # cache's keys and values, with no block-0 self-attention
    seen.clear()
    got = m.decoder_steps(later[::-1], chunks[1], cache)
    assert seen == [("dec.0.ffn", 6), ("dec.1.self_attn", 6), ("dec.1.ffn", 6)]
    assert np.array_equal(got, m.decoder_steps(later[::-1], chunks[1]))


@pytest.mark.parametrize("n_dec_blocks", [1, 2])
def test_a_pass_with_one_missing_node_computes_two_rows(monkeypatch, n_dec_blocks):
    # one row alone would take BLAS's matrix-vector path, which sums in
    # another order: the pass adds a second node it could read instead
    m = make_tiny_model(n_dec_blocks=n_dec_blocks)
    chunk = np.random.default_rng(6).normal(size=(m.cfg.W, m.cfg.d_model))
    start = m.vocab.start_id
    for held, asked in [([(start, 3, 4)], [(start, 3, 4, 5)]),  # a new leaf
                        ([(start, 3, 4, 5), (start, 6)], [(start, 3, 4)]),  # a held node, read
                        ([(start,)], [(start, 3)])]:  # the root held, as a pass's pad
        cache = DecoderCache(m.cfg)
        m.decoder_steps(held, chunk, cache)
        seen = _rows_run(monkeypatch, m)
        got = m.decoder_steps(asked, chunk, cache)
        monkeypatch.undo()
        assert np.array_equal(got, m.decoder_steps(asked, chunk))
        assert seen and all(rows == 2 for _name, rows in seen), (held, asked, seen)


def test_decoder_contract_errors(tiny_model, rng):
    chunk = tiny_model.encode_chunk(rng.normal(size=(16, 4)), 0).states
    with pytest.raises(ContractError):
        tiny_model.decoder_forward([], chunk)
    with pytest.raises(ContractError):
        tiny_model.decoder_forward([3, 2], chunk)  # must start with blank
    with pytest.raises(VocabError):
        tiny_model.decoder_forward([tiny_model.vocab.start_id, 99], chunk)


def test_lattice_probs_shapes_and_range(tiny_model, rng):
    x = rng.normal(size=(40, 4))
    y = [2, 5, 3]
    blank_lp, label_lp = tiny_model.lattice_probs([(x, y)])[0]
    M = tiny_model.geometry_for(40).M
    assert blank_lp.shape == (M, 4)
    assert label_lp.shape == (M, 3)
    assert (blank_lp.data <= 0).all() and np.isfinite(blank_lp.data).all()
    assert (label_lp.data <= 0).all() and np.isfinite(label_lp.data).all()


@pytest.mark.parametrize("T, y, chunk_lens", [
    (8, [2, 5], [2]),              # L=2 < W: one truncated chunk
    (24, [2, 5, 3], [3, 3, 2]),    # L=6: the last chunk is truncated
    (20, [4, 6], [3, 3]),          # L=5: an exact fit
    (24, [], [3, 3, 2]),           # U = 0
])
def test_lattice_probs_match_per_chunk_decoder_passes(tiny_model, rng, T, y, chunk_lens):
    m = tiny_model
    x = rng.normal(size=(T, 4))
    spans = m.geometry_for(T).spans
    assert [b - a for a, b in spans] == chunk_lens
    blank_lp, label_lp = m.lattice_probs([(x, y)])[0]
    assert blank_lp.shape == (len(spans), len(y) + 1) and label_lp.shape == (len(spans), len(y))
    states = m.encode_states(x)
    for row, (a, b) in enumerate(spans):
        ref = m.decoder_forward([m.vocab.start_id] + y, states[a:b]).data
        assert np.max(np.abs(blank_lp.data[row] - ref[:, m.vocab.blank_id])) <= 1e-12
        assert np.max(np.abs(label_lp.data[row] - ref[np.arange(len(y)), y]), initial=0.0) <= 1e-12


def test_lattice_probs_make_one_decoder_pass(tiny_model, rng, monkeypatch):
    # one _decode call per batch: its ids hold one row of prefixes per
    # utterance, its memory one entry per chunk of every utterance
    calls = []
    decode = tiny_model._decode

    def counted(ids, memory, *args, **kwargs):
        calls.append((ids.shape[0], [k.shape[0] for k, _v in memory]))
        return decode(ids, memory, *args, **kwargs)

    monkeypatch.setattr(tiny_model, "_decode", counted)
    for lengths in ([8], [24], [64], [8, 24, 64]):
        calls.clear()
        tiny_model.lattice_probs([(rng.normal(size=(T, 4)), [2, 5]) for T in lengths])
        chunks = sum(tiny_model.geometry_for(T).M for T in lengths)
        assert calls == [(len(lengths), [chunks] * tiny_model.cfg.n_dec_blocks)]


def _per_chunk_tables(m, batch):
    """lattice_probs as one _decode pass with every decoder row computed per
    chunk: each utterance's prefix repeated for each of its chunks, no row plan."""
    prefixes = [np.array([m.vocab.start_id, *y]) for _, y in batch]
    T = np.array([len(x) for x, _ in batch])
    frames = np.zeros((len(batch), T.max(), m.cfg.d_in))
    ids = np.full((len(batch), max(map(len, prefixes))), m.vocab.start_id)
    for n, ((x, _), p) in enumerate(zip(batch, prefixes)):
        frames[n, :len(x)], ids[n, :len(p)] = x, p
    states = m.encode_states(frames, T)
    spans = [np.array(m.geometry_for(t).spans) for t in T]
    M = [len(s) for s in spans]
    utt, spans = np.repeat(np.arange(len(batch)), M), np.concatenate(spans)
    pos = spans[:, :1] + np.arange(m.cfg.W)
    chunks = states[utt[:, None], np.minimum(pos, spans[:, 1:] - 1)]
    ld = m._decode(ids[utt], m._memory(chunks), (pos < spans[:, 1:])[:, None, None, :])
    ends = np.cumsum(M)
    return [(ld[a:b, :len(p), m.vocab.blank_id], ld[a:b, np.arange(len(p) - 1), p[1:]])
            for a, b, p in zip(ends - M, ends, prefixes)]


# parameters of block 0 up to its cross-attention query, which teacher
# forcing runs once per utterance rather than once per chunk
_BLOCK_0 = re.compile(r"dec\.embed|dec\.0\.(ln1|self_attn|ln2)\..*|dec\.0\.cross_attn\.[wb]q")


@pytest.mark.parametrize("overrides", [
    {}, dict(n_dec_blocks=0), dict(n_dec_blocks=2),
    dict(d_model=64, n_heads=4, n_enc_blocks=2, n_dec_blocks=2, d_in=8, left_context=8, W=4,
         vocab_size=16, ffn_inner=128),
])
def test_lattice_probs_equal_per_chunk_decoder_rows(overrides):
    # the tables and every gradient past block 0's query are bitwise those of
    # the per-chunk pass; block 0's gradients sum their chunks in another order
    m = make_tiny_model(**overrides)
    rng = np.random.default_rng(8)
    d_in, V = m.cfg.d_in, m.cfg.vocab_size
    batch = [(rng.normal(size=(T, d_in)), rng.integers(2, V, size=U).tolist())
             for T, U in [(8, 2), (24, 3), (64, 5), (20, 0), (40, 4), (13, 1)]]
    runs = []
    for tables in (m.lattice_probs(batch), _per_chunk_tables(m, batch)):
        for p in m.params.values():
            p.zero_grad()
        nlls = [lattice_nll(b, l) for b, l in tables]
        sum(nlls[1:], nlls[0]).backward()
        runs.append(([t.data for pair in tables for t in pair],
                     {n: p.grad for n, p in m.params.items()}))
    (tables, got), (ref_tables, ref) = runs
    assert len(tables) == len(ref_tables) == 2 * len(batch)
    assert all(np.array_equal(a, b) for a, b in zip(tables, ref_tables))
    assert sum(bool(_BLOCK_0.fullmatch(n)) for n in got) == (15 if m.cfg.n_dec_blocks else 1)
    for n in got:
        if got[n] is None or ref[n] is None:
            assert got[n] is None and ref[n] is None, n
        elif _BLOCK_0.fullmatch(n):
            dev = np.abs(got[n] - ref[n]) / np.maximum(1.0, np.abs(ref[n]))
            assert dev.max() <= 1e-13, n
        else:
            assert np.array_equal(got[n], ref[n]), n


def test_lattice_probs_empty_target(tiny_model, rng):
    blank_lp, label_lp = tiny_model.lattice_probs([(rng.normal(size=(16, 4)), [])])[0]
    assert blank_lp.shape[1] == 1 and label_lp.shape[1] == 0


def test_lattice_probs_vocab_error(tiny_model, rng):
    with pytest.raises(VocabError):
        tiny_model.lattice_probs([(rng.normal(size=(16, 4)), [99])])


def test_single_chunk_loss_is_teacher_forced_product(rng):
    m = make_tiny_model(W=6, B=0)
    x = rng.normal(size=(16, 4))  # L=4 <= W: one chunk
    y = [2, 4]
    blank_lp, label_lp = m.lattice_probs([(x, y)])[0]
    assert blank_lp.shape[0] == 1
    direct = float(label_lp.data[0, 0] + label_lp.data[0, 1] + blank_lp.data[0, 2])
    nll = m.sequence_nll(x, y).item()
    assert abs(nll + direct) <= 1e-12


def test_op_budget_of_a_decoder_pass_and_an_encode(rng, monkeypatch):
    # attention and linear layers are single autodiff ops: a 2+2-block model
    # makes at most 44 ops per decoder_steps pass and 32 per encode; finiteness
    # is checked at sub-layer boundaries, not after every op: at most 14 and 12 scans
    m = make_tiny_model(n_enc_blocks=2, n_dec_blocks=2)
    x = rng.normal(size=(24, 4))
    start = m.vocab.start_id
    ops, scans = [], []
    make, check = ad._make, ad.check_finite

    def counted(*args):
        ops.append(1)
        return make(*args)

    def counted_scan(data, where):
        scans.append(where)
        check(data, where)

    monkeypatch.setattr(ad, "_make", counted)
    monkeypatch.setattr(ad, "check_finite", counted_scan)
    states = m.encode_states(x)
    assert len(ops) <= 32 and len(scans) <= 12
    ops.clear()
    scans.clear()
    m.decoder_steps([[start, 2, 3], [start]], states[0:3])
    assert len(ops) <= 44 and len(scans) <= 14


def _cross_projections(monkeypatch, m):
    """Record the name of each cross-attention key or value weight that a
    linear op is called with, once per chunk-matrix it projects."""
    names = {id(t): name for name, t in m.params.items()
             if re.fullmatch(r"dec\.\d+\.cross_attn\.w[kv]", name)}
    seen, linear = [], ad.linear

    def recorded(x, w, b):
        if id(w) in names:
            seen.extend([names[id(w)]] * math.prod(np.shape(getattr(x, "data", x))[:-2]))
        return linear(x, w, b)

    monkeypatch.setattr(ad, "linear", recorded)
    return seen


def _cross_case(seed=10):
    """A 2-block tiny model, two chunks, a search's rounds of prefixes, and
    the names of every cross-attention key and value weight."""
    m = make_tiny_model(n_dec_blocks=2)
    chunks = np.random.default_rng(seed).normal(size=(2, m.cfg.W, m.cfg.d_model))
    s = m.vocab.start_id
    rounds = [[(s,)], [(s, 2), (s, 3)], [(s, 2, 4), (s, 3, 5), (s, 3)]]
    every = sorted(f"dec.{i}.cross_attn.w{kv}" for i in range(2) for kv in "kv")
    return m, chunks, rounds, every


def test_a_chunks_cross_attention_keys_are_projected_once_per_tier(monkeypatch):
    # every round of a chunk computes rows, and only the first projects each
    # block's cross-attention keys and values; after next_chunk the next
    # chunk's first round projects its own
    m, chunks, rounds, every = _cross_case()
    expected = [[m.decoder_steps(prefixes, chunk) for prefixes in rounds] for chunk in chunks]
    cache = DecoderCache(m.cfg)
    seen = _cross_projections(monkeypatch, m)
    for chunk, want in zip(chunks, expected):
        for prefixes, rows in zip(rounds, want):
            assert np.array_equal(m.decoder_steps(prefixes, chunk, cache), rows)
        assert sorted(seen) == every
        seen.clear()
        cache.next_chunk(rounds[-1])


# every autodiff op but take, which only copies values that were checked
INJECTED_OPS = ("add", "mul", "linear", "tsum", "relu", "glu", "attention", "log_softmax",
                "layer_norm", "conv1d_time")


def _inject(monkeypatch, target, value, rng):
    """Patch the ops so that op call number target gets value in one entry of its
    output; returns the list of op calls made."""
    calls = []
    for name in INJECTED_OPS:
        def injected(*args, _op=getattr(ad, name), **kwargs):
            out = _op(*args, **kwargs)
            if len(calls) == target:
                out.data.flat[rng.integers(out.data.size)] = value
            calls.append(_op.__name__)
            return out

        monkeypatch.setattr(ad, name, injected)
    return calls


def test_a_non_finite_op_output_anywhere_is_a_numeric_error(monkeypatch):
    # relu, glu and the final layer norms would hide or pass on such a value
    # if the checks sat after every op instead of at sub-layer boundaries
    m = make_tiny_model(n_enc_blocks=2, n_dec_blocks=2)
    rng = np.random.default_rng(3)
    x, x2 = rng.normal(size=(26, 4)), rng.normal(size=(13, 4))
    start = m.vocab.start_id
    warm = EncoderCache()
    m.encode_states(x[:14], cache=warm)
    chunk = rng.normal(size=(m.cfg.W, m.cfg.d_model))
    padded = np.zeros((2, 26, 4))
    padded[0], padded[1, :13] = x, x2
    prefixes = [[start, 2, 3], [start, 2], [start, 4]]
    filled = DecoderCache(m.cfg)  # holds the start, 2 and 5 and their outputs, not 2 3 or 4
    m.decoder_steps([[start, 2], [start, 5]], chunk, filled)
    runs = {
        "offline encode": lambda: m.encode_states(x),
        "padded encode": lambda: m.encode_states(padded, [26, 13]),
        "cached encode": lambda: m.encode_states(x[4 * warm.start:],
                                                 cache=dataclasses.replace(warm)),
        "decoder_steps": lambda: m.decoder_steps(prefixes, chunk),
        "cached decoder_steps": lambda: m.decoder_steps(prefixes, chunk, copy.deepcopy(filled)),
        "sequence_nlls": lambda: m.sequence_nlls([(x, [2, 3, 4]), (x2, [5])]),
    }
    named = {what: set() for what in runs}
    for what, run in runs.items():
        with monkeypatch.context() as mp:
            calls = _inject(mp, -1, 0.0, rng)
            run()
        assert len(calls) > 20, what
        for target, op in enumerate(calls):
            for value in (np.nan, np.inf, -np.inf):
                # inf - inf on the way to a check raises no RuntimeWarning, which
                # pytest makes an error: the model's entry points turn it off
                with monkeypatch.context() as mp, pytest.raises(NumericError) as caught:
                    _inject(mp, target, value, rng)
                    run()
                    pytest.fail(f"{what}: {value} in the output of op call {target} ({op}) "
                                "passed unchecked")
                named[what].add(str(caught.value))
    # a pass that reads part of its rows from the cache reports the same sub-layers
    assert named["cached decoder_steps"] == named["decoder_steps"]


@pytest.mark.parametrize("param, sublayer", [
    ("fe.conv1.w", "fe.conv1"), ("fe.conv1.b", "fe.conv1"),
    ("enc.1.attn.wq", "enc.1.attn"), ("enc.1.attn.wv", "enc.1.attn"),
    ("enc.0.ffn.w1", "enc.0.ffn"), ("enc.0.ffn.b2", "enc.0.ffn"),
    ("dec.0.cross_attn.wk", "dec.0.cross_attn"), ("dec.0.cross_attn.bo", "dec.0.cross_attn"),
    ("dec.1.ffn.b1", "dec.1.ffn"), ("dec.1.ffn.w2", "dec.1.ffn"),
    ("dec.out.w", "dec.out"), ("dec.out.b", "dec.out"),
])
def test_a_nan_parameter_is_reported_under_its_sub_layer(param, sublayer, rng):
    m = make_tiny_model(n_enc_blocks=2, n_dec_blocks=2)
    m.params[param].data.flat[1] = np.nan
    x = rng.normal(size=(24, 4))
    named = rf"non-finite value in (attention scores of )?{re.escape(sublayer)}$"
    with pytest.raises(NumericError, match=named):
        m.sequence_nlls([(x, [2, 3])])
    if param.startswith("dec."):
        chunk = rng.normal(size=(m.cfg.W, m.cfg.d_model))
        with pytest.raises(NumericError, match=named):
            m.decoder_steps([[m.vocab.start_id, 2]], chunk)


def test_decoder_position_table_rows_equal_sinusoidal_positions():
    m = make_tiny_model()
    d = m.cfg.d_model
    for depths in (np.array([0, 1, 1, 2]), np.array([3, 0, 2]), np.arange(40)[::-1]):
        size = len(m._depth_table)
        assert (m._depth_positions(depths) == sinusoidal_positions(depths, d)).all()
        table = m._depth_table
        assert (table == sinusoidal_positions(np.arange(len(table)), d)).all()
    assert size < 40 <= len(table)  # the last read grew the table
