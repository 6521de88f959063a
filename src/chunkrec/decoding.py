"""Chunk-synchronous inference and CER scoring.

One loop, ``_advance_chunk``, scores every chunk for greedy, beam and
streaming decoding. Within a chunk a hypothesis keeps emitting symbols
until it predicts blank (adding the blank's log-probability) or hits the
per-chunk symbol cap (advancing without a score factor). Alignment paths
with identical prefixes are kept separate.

Search moves through a chunk in lock-step rounds. Each round scores the
whole frontier (the hypotheses still emitting in this chunk) with one
padded ``decoder_steps`` pass, ranks every hypothesis's next symbols with
one stable argsort over the resulting (n, vocab) array, and prunes
extended and finished candidates together to the beam width. A chunk
therefore costs at most ``max_symbols_per_chunk + 1`` decoder passes,
whatever the width. Width 1 is greedy decoding, and beam results take the
greedy path, a width-1 pass over the same chunk states, as a floor.
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


# -- the chunk-synchronous search --------------------------------------------


def _advance_chunk(model, hyps, chunk, chunk_index, cfg):
    """Push every hypothesis through one chunk, chunk-synchronously.

    Each round scores the whole frontier with one decoder_steps call.
    Active and already-finished candidates compete in one pool each round,
    pruned to the beam width; ties go to the lower symbol id, so width 1
    reproduces greedy (argmax) decoding exactly.
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
        orders = np.argsort(-dists, axis=1, kind="stable")[:, :cfg.width + 1]
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
    return finished


def _search(model, chunks, cfg):
    """Run _advance_chunk over encoded chunks; returns the n-best Hypothesis list."""
    hyps = [Hypothesis((model.vocab.start_id,), 0.0, 0, 0)]
    for m, chunk in enumerate(chunks):
        hyps = _advance_chunk(model, hyps, chunk, m, cfg)
    return hyps


def _encode_chunks(model, x):
    """Encode an utterance once and cut its states into chunks."""
    states = model.encode_states(x)
    return [states[a:b] for a, b in model.geometry_for(np.asarray(x).shape[0]).spans]


def _with_greedy_floor(model, hyps, chunks, cfg):
    """Add the greedy path to the n-best list unless it is already there.

    The floor is a separate width-1 search over the same chunk states rather
    than a protected row in the batched search: padding a prefix into a
    batch changes the softmax summation and BLAS blocking, so the same path
    scored inside a batch can differ from its greedy score in the last bits,
    and beam >= greedy must hold exactly.
    """
    g = _search(model, chunks, replace(cfg, width=1))[0]
    if not any(h.prefix == g.prefix and h.log_prob >= g.log_prob for h in hyps):
        hyps = sorted(hyps + [g], key=lambda h: -h.log_prob)[:cfg.width]
    return hyps


def greedy_decode(model, x, cfg=None):
    """Argmax decoding, the width-1 search; returns (label ids, log_prob)."""
    cfg = replace(cfg or BeamConfig(), width=1)
    with ad.no_grad():
        best = _search(model, _encode_chunks(model, x), cfg)[0]
    return list(best.prefix[1:]), best.log_prob


def beam_decode(model, x, cfg=None):
    """Chunk-synchronous beam search; returns the n-best list of (ids, log_prob).

    The greedy path is always included in the candidate pool, so the best
    beam score never falls below the greedy score.
    """
    cfg = cfg or BeamConfig()
    with ad.no_grad():
        chunks = _encode_chunks(model, x)
        hyps = _with_greedy_floor(model, _search(model, chunks, cfg), chunks, cfg)
    return [(list(h.prefix[1:]), h.log_prob) for h in hyps]


# -- streaming --------------------------------------------------------------


def _shared_prefix(hyps):
    """The longest prefix that every hypothesis starts with."""
    n = 0
    for column in zip(*(h.prefix for h in hyps)):
        if len(set(column)) > 1:
            break
        n += 1
    return hyps[0].prefix[:n]


def stream_decode(model, fragments, cfg=None, clock=None, collect_emissions=True):
    """Decode raw-frame fragments as they arrive.

    fragments: iterable of 2-D (n_i, d_in) arrays, any other shape raises
    ContractError; the stream is flushed after the last one. Returns
    (label ids, log_prob, emissions); the transcript equals offline
    beam_decode of the concatenated stream and the score agrees to 1e-10.

    A symbol is emitted once every surviving hypothesis shares it, and the
    rest of the transcript at flush, so the emitted symbols are a prefix of
    the final ids. The one exception is the greedy floor replacing the
    beam's best at flush: the greedy path need not extend what was emitted.
    """
    cfg = cfg or BeamConfig()
    clock = clock or time.monotonic
    t0 = clock()
    buf = StreamBuffer(model.cfg.W, model.cfg.B)
    hyps = [Hypothesis((model.vocab.start_id,), 0.0, 0, 0)]
    chunks = []
    emissions = []

    def emit(settled, log_prob):
        now_ms = (clock() - t0) * 1000.0
        emissions.extend([Emission(len(chunks) - 1, int(sym), log_prob, now_ms)
                          for sym in settled[1 + len(emissions):]])

    def process(spans):
        nonlocal hyps
        if not spans:
            return
        with ad.no_grad():
            states = model.encode_states(np.asarray(buf.frames, dtype=np.float64))
            for a, b in spans:
                if b > states.shape[0]:
                    raise AvailabilityError(f"chunk end {b} beyond encoded prefix")
                chunks.append(states[a:b])
                hyps = _advance_chunk(model, hyps, chunks[-1], len(chunks) - 1, cfg)
                if collect_emissions:
                    emit(_shared_prefix(hyps), hyps[0].log_prob)

    d_in = model.cfg.d_in
    for frag in fragments:
        frag = np.asarray(frag, dtype=np.float64)
        if frag.ndim != 2 or frag.shape[1] != d_in:
            raise ContractError(f"expected (n, {d_in}) fragment, got shape {frag.shape}")
        process(buf.push(frag))
    process(buf.flush())
    with ad.no_grad():
        best = _with_greedy_floor(model, hyps, chunks, cfg)[0]
    if collect_emissions:
        emit(best.prefix, best.log_prob)
    return list(best.prefix[1:]), best.log_prob, emissions
