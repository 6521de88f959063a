"""Chunk-synchronous inference and CER scoring.

Hypotheses advance chunk by chunk: within a chunk the decoder keeps
emitting symbols until it predicts blank (adding the blank's
log-probability) or hits the per-chunk symbol cap (advancing without a
score factor). Alignment paths with identical prefixes are kept separate
by default; merging is an opt-in experiment.

Search moves through a chunk in lock-step rounds. Each round scores the
whole frontier (the hypotheses still emitting in this chunk) with one
padded ``decoder_steps`` pass, ranks every hypothesis's next symbols with
one argsort over the resulting (n, vocab) array, and prunes extended and
finished candidates together to the beam width. A chunk therefore costs
at most ``max_symbols_per_chunk + 1`` decoder passes, whatever the width.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .chunking import StreamBuffer
from .errors import AvailabilityError, ConfigError, ContractError, UndefinedMetricError


@dataclass(frozen=True)
class BeamConfig:
    width: int = 5
    max_symbols_per_chunk: int = 10
    merge_prefixes: bool = False

    def __post_init__(self):
        if self.width < 1 or self.max_symbols_per_chunk < 1:
            raise ConfigError("beam width and per-chunk cap must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    prefix: tuple
    log_prob: float
    chunk_index: int
    emitted_in_chunk: int


@dataclass(frozen=True)
class Emission:
    chunk_index: int
    symbol: int
    cumulative_log_prob: float
    wall_clock_ms: float

    def as_line(self, vocab=None):
        sym = self.symbol if vocab is None else vocab.symbols[self.symbol]
        return f"{self.chunk_index}\t{sym}\t{self.cumulative_log_prob:.6f}\t{self.wall_clock_ms:.3f}"


# -- edit distance / CER ----------------------------------------------------


def edit_distance(a, b):
    """Levenshtein distance with unit costs."""
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def cer(hyp, ref):
    """Edit distance divided by reference length; empty references are undefined."""
    ref = list(ref)
    if len(ref) == 0:
        raise UndefinedMetricError("CER undefined for an empty reference")
    return edit_distance(hyp, ref) / len(ref)


# -- greedy -----------------------------------------------------------------


def greedy_decode(model, x, cfg=None):
    """Argmax decoding; returns (label ids, log_prob)."""
    cfg = cfg or BeamConfig(width=1)
    with ad.no_grad():
        states = model.encode_states(x)
        spans = model.geometry_for(np.asarray(x).shape[0]).spans
        blank = model.vocab.blank_id
        prefix = [model.vocab.start_id]
        log_prob = 0.0
        for a, b in spans:
            chunk = states[a:b]
            emitted = 0
            while True:
                dist = model.decoder_steps([prefix], chunk)[0]
                best = int(np.argmax(dist))
                if best == blank:
                    log_prob += float(dist[blank])
                    break
                prefix.append(best)
                log_prob += float(dist[best])
                emitted += 1
                if emitted >= cfg.max_symbols_per_chunk:
                    break  # forced advance, no blank factor
    return prefix[1:], log_prob


# -- beam -------------------------------------------------------------------


def _advance_chunk(model, hyps, chunk, chunk_index, cfg):
    """Push every hypothesis through one chunk, chunk-synchronously.

    Each round scores the whole frontier with one decoder_steps call.
    Active and already-finished candidates compete in one pool each round,
    pruned to the beam width; with width 1 this reproduces greedy exactly.
    """
    blank = model.vocab.blank_id
    frontier = [replace(h, chunk_index=chunk_index, emitted_in_chunk=0) for h in hyps]
    finished = []
    for _round in range(cfg.max_symbols_per_chunk + 1):
        if not frontier:
            break
        # pool entries: (hypothesis, done-with-this-chunk flag)
        pool = [(h, True) for h in finished]
        dists = model.decoder_steps([list(h.prefix) for h in frontier], chunk)
        orders = np.argsort(dists, axis=1)[:, ::-1][:, :cfg.width + 1]
        for h, dist, row in zip(frontier, dists, orders):
            order = row.tolist()
            if blank not in order:
                order.append(blank)
            for sym in order:
                lp = h.log_prob + float(dist[sym])
                if sym == blank:
                    pool.append((replace(h, log_prob=lp), True))
                elif h.emitted_in_chunk + 1 >= cfg.max_symbols_per_chunk:
                    # cap reached: forced advance, the symbol still scores
                    pool.append((Hypothesis(h.prefix + (sym,), lp, chunk_index,
                                            cfg.max_symbols_per_chunk), True))
                else:
                    pool.append((Hypothesis(h.prefix + (sym,), lp, chunk_index,
                                            h.emitted_in_chunk + 1), False))
        pool = sorted(pool, key=lambda e: -e[0].log_prob)[:cfg.width]
        finished = [h for h, done in pool if done]
        frontier = [h for h, done in pool if not done]
    if cfg.merge_prefixes:
        merged = {}
        for h in finished:
            if h.prefix in merged:
                merged[h.prefix] = replace(
                    h, log_prob=float(np.logaddexp(merged[h.prefix].log_prob, h.log_prob)))
            else:
                merged[h.prefix] = h
        finished = list(merged.values())
    return sorted(finished, key=lambda h: -h.log_prob)[:cfg.width]


def _with_greedy_floor(model, hyps, x, last_chunk, cfg):
    """Add the greedy path to the n-best list unless it is already there.

    The floor is a separate greedy_decode pass rather than a protected row in
    the batched search: padding a prefix into a batch changes the softmax
    summation and BLAS blocking, so the same path scored inside a batch can
    differ from its greedy score in the last bits, and beam >= greedy must
    hold exactly.
    """
    greedy_ids, greedy_lp = greedy_decode(model, x, cfg)
    g = Hypothesis((model.vocab.start_id,) + tuple(greedy_ids), greedy_lp, last_chunk, 0)
    if not any(h.prefix == g.prefix and h.log_prob >= g.log_prob for h in hyps):
        hyps = sorted(hyps + [g], key=lambda h: -h.log_prob)[:cfg.width]
    return hyps


def beam_decode(model, x, cfg=None):
    """Chunk-synchronous beam search; returns the n-best list of Hypothesis.

    The greedy path is always included in the candidate pool, so the best
    beam score never falls below the greedy score.
    """
    cfg = cfg or BeamConfig()
    with ad.no_grad():
        states = model.encode_states(x)
        spans = model.geometry_for(np.asarray(x).shape[0]).spans
        hyps = [Hypothesis((model.vocab.start_id,), 0.0, 0, 0)]
        for m, (a, b) in enumerate(spans):
            hyps = _advance_chunk(model, hyps, states[a:b], m, cfg)
    hyps = _with_greedy_floor(model, hyps, x, len(spans) - 1, cfg)
    return [(list(h.prefix[1:]), h.log_prob) for h in hyps]


# -- streaming --------------------------------------------------------------


def stream_decode(model, fragments, cfg=None, clock=None, collect_emissions=True):
    """Decode raw-frame fragments as they arrive.

    fragments: iterable of 2-D (n_i, d_in) arrays, any other shape raises
    ContractError; the stream is flushed after the last one. Returns
    (label ids, log_prob, emissions); the transcript equals offline
    beam_decode of the concatenated stream and the score agrees to 1e-10.
    """
    cfg = cfg or BeamConfig()
    clock = clock or time.monotonic
    t0 = clock()
    buf = StreamBuffer(model.cfg.W, model.cfg.B)
    hyps = [Hypothesis((model.vocab.start_id,), 0.0, 0, 0)]
    emissions = []
    chunk_index = 0
    reported = 0

    def process(spans):
        nonlocal hyps, chunk_index, reported
        if not spans:
            return
        with ad.no_grad():
            frames = np.asarray(buf.frames, dtype=np.float64)
            states = model.encode_states(frames)
            for a, b in spans:
                if b > states.shape[0]:
                    raise AvailabilityError(f"chunk end {b} beyond encoded prefix")
                hyps = _advance_chunk(model, hyps, states[a:b], chunk_index, cfg)
                if collect_emissions:
                    now_ms = (clock() - t0) * 1000.0
                    best = hyps[0]
                    for sym in best.prefix[1 + reported:]:
                        emissions.append(Emission(chunk_index, int(sym),
                                                  best.log_prob, now_ms))
                    reported = max(reported, len(best.prefix) - 1)
                chunk_index += 1

    d_in = model.cfg.d_in
    for frag in fragments:
        frag = np.asarray(frag, dtype=np.float64)
        if frag.ndim != 2 or frag.shape[1] != d_in:
            raise ContractError(f"expected (n, {d_in}) fragment, got shape {frag.shape}")
        process(buf.push(frag))
    process(buf.flush())
    full = np.asarray(buf.frames, dtype=np.float64)
    best = _with_greedy_floor(model, hyps, full, chunk_index - 1, cfg)[0]
    return list(best.prefix[1:]), best.log_prob, emissions
