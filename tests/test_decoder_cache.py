"""The decoder cache's node table, chunk tier and cross-attention memory,
and the op budget of a pass on a tier that holds its keys."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chunkrec import autodiff as ad
from chunkrec.autodiff import Tensor
from chunkrec.decoder_cache import DecoderCache
from chunkrec.errors import NumericError

from conftest import make_tiny_model
from test_model import _cross_case, _cross_projections


_BENCHMARK_SHAPED = dict(d_model=64, n_heads=4, n_enc_blocks=2, n_dec_blocks=2, left_context=8,
                         W=4, vocab_size=16, ffn_inner=128)

# a search's passes: per chunk, passes of beam-shaped prefixes over one shared
# history, each prefix a cut of the history and its own tail
_SEARCH = st.tuples(
    st.lists(st.integers(1, 7), max_size=12),
    st.lists(st.lists(st.lists(st.tuples(st.integers(0, 12),
                                         st.lists(st.integers(1, 7), max_size=3)),
                               min_size=1, max_size=7),
                      min_size=1, max_size=4), min_size=1, max_size=3))


@pytest.mark.parametrize("overrides", [
    dict(n_dec_blocks=0), {}, dict(n_dec_blocks=2), _BENCHMARK_SHAPED,
], ids=["no-block", "one-block", "two-blocks", "benchmark-shaped"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(search=_SEARCH, seed=st.integers(0, 2**16))
def test_cached_passes_equal_uncached_passes(overrides, search, seed):
    # a pass that reads rows from a DecoderCache, and computes the rest, gives
    # the bits of the pass that computes every row; the chunk tier's
    # cross-attention keys are _memory of its chunk until next_chunk drops them
    m = make_tiny_model(seed=2, **overrides)
    history, chunks = search
    states = np.random.default_rng(seed).normal(size=(len(chunks), m.cfg.W, m.cfg.d_model))
    cache = DecoderCache(m.cfg)
    for chunk, passes in zip(states, chunks):
        for cuts in passes:
            prefixes = [(m.vocab.start_id, *history[:cut], *tail) for cut, tail in cuts]
            assert np.array_equal(m.decoder_steps(prefixes, chunk, cache),
                                  m.decoder_steps(prefixes, chunk))
            assert _tier_holds_memory(m, cache, chunk)
        cache.next_chunk(prefixes)
        assert cache.chunk is None and cache.cross == []


def _tier_holds_memory(m, cache, chunk):
    """Whether the cache's chunk tier is chunk's, its cross-attention keys and
    values bitwise _memory of chunk."""
    return cache.chunk == chunk.tobytes() and len(cache.cross) == m.cfg.n_dec_blocks and all(
        np.array_equal(held, fresh.data)
        for kv, fresh_kv in zip(cache.cross, m._memory(chunk)) for held, fresh in zip(kv, fresh_kv))


def _node_table(cache):
    """Check a DecoderCache's trie against the prefix relation; returns its
    prefixes by node number."""
    prefixes = list(cache.nodes)
    n = len(prefixes)
    assert list(cache.nodes.values()) == list(range(n))
    assert cache.ids[:n].tolist() == [p[-1] for p in prefixes]
    assert cache.depth[:n].tolist() == [len(p) - 1 for p in prefixes]
    # ancestor rows are the prefix relation, and ancestors come first
    assert cache.anc[:n, :n].tolist() == [[p[:len(q)] == q for q in prefixes] for p in prefixes]
    assert all(cache.nodes[p[:k]] < j for j, p in enumerate(prefixes) for k in range(1, len(p)))
    # nothing past the nodes
    assert not cache.anc[n:].any() and not cache.anc[:, n:].any()
    assert not cache.ids[n:].any() and not cache.depth[n:].any()
    assert not any(a[n:].any() for a in cache.session.values())
    assert not any(a[n:].any() for a in cache.tier.values())
    return prefixes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(search=_SEARCH, live=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8)), max_size=4),
       seed=st.integers(0, 2**16))
@example(search=([], [[[(0, [])]]]), live=[], seed=0)  # the start node alone
def test_decoder_cache_node_table_is_the_prefix_relation(search, live, seed):
    # the trie a DecoderCache keeps over a search's passes and next_chunk calls
    m = make_tiny_model(seed=2, n_dec_blocks=2)
    history, chunks = search
    states = np.random.default_rng(seed).normal(size=(len(chunks), m.cfg.W, m.cfg.d_model))
    cache = DecoderCache(m.cfg)
    for chunk, passes in zip(states, chunks):
        for cuts in passes:
            prefixes = [(m.vocab.start_id, *history[:cut], *tail) for cut, tail in cuts]
            m.decoder_steps(prefixes, chunk, cache)
            table = _node_table(cache)
            assert set(prefixes) <= set(table)
        # the live hypotheses: some of the last pass's prefixes, one maybe
        # extended by a symbol no pass scored (a forced advance)
        ends = [prefixes[i % len(prefixes)] + (sym,) * (sym < m.cfg.vocab_size)
                for i, sym in live]
        before = {p: (cache.session["held"][j], cache.session["a0"][j].copy())
                  for j, p in enumerate(table)}
        cache.next_chunk(ends)
        # the kept nodes are exactly those on the live paths, in their order,
        # with their session rows; the chunk tier is empty
        kept = _node_table(cache)
        assert kept == [q for q in table if any(e[:len(q)] == q for e in ends)]
        for j, p in enumerate(kept):
            held, a0 = before[p]
            assert cache.session["held"][j] == held and np.array_equal(cache.session["a0"][j], a0)
        assert not any(a.any() for a in cache.tier.values()) and cache.chunk is None


def test_op_budget_of_a_pass_on_a_tier_that_holds_its_keys(rng, monkeypatch):
    # the chunk tier holds each block's cross-attention keys and values, so a
    # later pass on the chunk skips their 4 linear ops: at most 40, where a
    # pass on a fresh cache makes at most 44 (above)
    m = make_tiny_model(n_enc_blocks=2, n_dec_blocks=2)
    states = m.encode_states(rng.normal(size=(24, 4)))[0:3]
    start = m.vocab.start_id
    cache = DecoderCache(m.cfg)
    m.decoder_steps([[start, 2, 3], [start]], states, cache)
    ops, make = [], ad._make

    def counted(*args):
        ops.append(1)
        return make(*args)

    monkeypatch.setattr(ad, "_make", counted)
    m.decoder_steps([[start, 2, 3, 4], [start, 5]], states, cache)
    assert 0 < len(ops) <= 40


def test_a_failed_pass_keeps_its_tiers_cross_attention_keys(monkeypatch):
    # a tier's keys are made with the tier, before its pass: after a pass that
    # ends in a NumericError they are _memory of the tier's chunk, and the
    # next pass reads them, with the bits of a pass on a fresh cache. The
    # failed pass is a decode's first, or the first on its second chunk
    m, (a, b), rounds, _ = _cross_case()
    expected = m.decoder_steps(rounds[1], b)
    for first in ([], [rounds[0]]):
        cache = DecoderCache(m.cfg)
        for prefixes in first:
            m.decoder_steps(prefixes, a, cache)
            cache.next_chunk(prefixes)
        with monkeypatch.context() as mp:
            mp.setattr(ad, "log_softmax", lambda t: Tensor(np.full(t.shape, np.nan)))
            with pytest.raises(NumericError, match="dec.out"):
                m.decoder_steps(rounds[1], b, cache)
        assert _tier_holds_memory(m, cache, b)
        seen = _cross_projections(monkeypatch, m)
        assert np.array_equal(m.decoder_steps(rounds[1], b, cache), expected)
        monkeypatch.undo()
        assert seen == []
