"""Chunk-synchronous inference and CER scoring.

Every decode is a ``StreamSession``: it feeds raw-frame fragments through
a ``StreamBuffer``, encodes each frame about once, and passes each chunk
the buffer releases through ``_advance_chunk``, one chunk per pass.
Offline decoding is a stream of one fragment, pushed and then flushed,
and encoded once.

Within a chunk a hypothesis keeps emitting symbols until it predicts
blank (adding the blank's log-probability) or hits the per-chunk symbol
cap (advancing without a score factor). Alignment paths with identical
prefixes are kept separate. The chunk moves in lock-step rounds; in round
r every hypothesis still emitting has emitted r symbols, so a hypothesis
is only a prefix and a score. A round scores that frontier with one
``decoder_steps`` pass over its prefix trie, which scores a history the
hypotheses share once, and ranks the finished hypotheses and every
extension with one stable argsort, keeping the first ``width``: at most
``max_symbols_per_chunk`` passes per chunk, whatever the width. Width 1
is greedy decoding.

Above width 1 the result takes the greedy path as a floor, a width-1 beam
ranked by the same rule in the same passes; ``decoder_steps`` is
batch-invariant, so its rows score bit for bit as greedy decoding does.

A session keeps a DecoderCache (``decoder_cache``), so a pass computes only
the rows of the prefix nodes it has not met: block 0 up to its
cross-attention query once per node for the whole session, the rest once
per node and chunk, and the output rows it reads. After each chunk,
next_chunk drops that chunk's tier, and keeps the nodes on the paths of
the live hypotheses and the floor in their order. A row depends only on
(prefix, chunk), so results stay bitwise. On the benchmark's decode seed 5
sets 0-1, beam(5) makes 1,105 passes and greedy 996, all computing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .chunking import StreamBuffer
from .decoder_cache import DecoderCache
from .errors import UndefinedMetricError, check_fields
from .model import EncoderCache


@dataclass(frozen=True)
class BeamConfig:
    width: int = 5
    max_symbols_per_chunk: int = 10

    def __post_init__(self):
        check_fields(self, width=1, max_symbols_per_chunk=1)


@dataclass(frozen=True)
class Hypothesis:
    prefix: tuple
    log_prob: float


@dataclass(frozen=True)
class Emission:
    chunk_index: int
    symbol: int
    cumulative_log_prob: float
    wall_clock_ms: float

    def as_line(self, vocab):
        return (f"{self.chunk_index}\t{vocab.symbols[self.symbol]}\t"
                f"{self.cumulative_log_prob:.6f}\t{self.wall_clock_ms:.3f}")


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


def cer(pairs):
    """Corpus CER of (hypothesis, reference) pairs: total edit distance over total
    reference length. References with no symbol at all make it undefined."""
    errs = refs = 0
    for hyp, ref in pairs:
        errs += edit_distance(hyp, ref)
        refs += len(ref)
    if refs == 0:
        raise UndefinedMetricError("CER undefined: the references hold no symbol")
    return errs / refs


# -- the chunk-synchronous search --------------------------------------------


def _extend(h, sym, dist, blank, at_cap):
    """(h followed by sym, done with this chunk): done on blank or, at the
    cap, as a forced advance where the symbol still scores."""
    lp = h.log_prob + float(dist[sym])
    if sym == blank:
        return Hypothesis(h.prefix, lp), True
    return Hypothesis(h.prefix + (sym,), lp), at_cap


def _rank(finished, frontier, dists, width, blank, at_cap):
    """One round of a beam (finished, frontier) of the given width; returns the next.

    One stable ranking of the finished log-probs and every extension by dists
    keeps the first width: ties go to a finished hypothesis, then the earlier
    row, then the lower symbol id, so width 1 is greedy (argmax) decoding.
    finished is in ranked order, so a beam with no frontier comes back unchanged.
    """
    # finished log-probs, then every (row, symbol) extension in row-major order
    lps = np.array([h.log_prob for h in finished + frontier])
    n_done = len(finished)
    scores = np.concatenate([lps[:n_done], (lps[n_done:, None] + dists).ravel()])
    kept = []
    for k in np.argsort(-scores, kind="stable")[:width].tolist():
        if k < n_done:
            kept.append((finished[k], True))
        else:
            row, sym = divmod(k - n_done, dists.shape[1])
            kept.append(_extend(frontier[row], sym, dists[row], blank, at_cap))
    return [h for h, done in kept if done], [h for h, done in kept if not done]


def _advance_chunk(model, hyps, floor, chunk, cfg, cache=None):
    """Push the hypotheses, and the greedy floor (a width-1 beam of at most one
    hypothesis), through one chunk; returns both, finished. Round r scores both
    frontiers, whose hypotheses have all emitted r symbols in this chunk, with
    one decoder_steps call on the chunk; a floor prefix that the search's
    frontier holds shares its trie nodes, so it costs no extra row. cache is
    the decode's DecoderCache, its chunk tier this chunk's (without one, each
    pass makes its own).
    """
    blank, cap = model.vocab.blank_id, cfg.max_symbols_per_chunk
    beam, floor = ([], hyps), ([], floor)
    for r in range(cap):
        prefixes = [h.prefix for h in beam[1] + floor[1]]
        if not prefixes:
            break
        dists = model.decoder_steps(prefixes, chunk, cache)
        n = len(beam[1])
        beam = _rank(*beam, dists[:n], cfg.width, blank, r + 1 >= cap)
        floor = _rank(*floor, dists[n:], 1, blank, r + 1 >= cap)
    return beam[0], floor[0]


def _with_floor(hyps, floor, width):
    """The n-best list with the floor in place of the worst entry, unless there."""
    if all(any(h.prefix == f.prefix and h.log_prob >= f.log_prob for h in hyps) for f in floor):
        return hyps
    return sorted(hyps + floor, key=lambda h: -h.log_prob)[:width]


def _shared_prefix(hyps):
    """The longest prefix that every hypothesis starts with."""
    n = 0
    for column in zip(*(h.prefix for h in hyps)):
        if len(set(column)) > 1:
            break
        n += 1
    return hyps[0].prefix[:n]


class StreamSession:
    """One decode as a session: push raw-frame fragments as they arrive, then flush.

    Each chunk the StreamBuffer releases goes through _advance_chunk. A push
    that releases one, or a flush after new frames, encodes the positions
    not yet final from the raw frames the buffer keeps for them and the
    EncoderCache, so one fragment is encoded once; the DecoderCache keeps
    the search's decoder rows. Above width 1 the greedy path is carried as
    floor; at width 1 the search is the greedy path.

    A symbol is emitted once every surviving hypothesis and the floor
    share it, and the rest of the transcript at flush, so the emitted
    symbols are always a prefix of the final ids. After flush, hyps is the
    n-best list.
    """

    def __init__(self, model, cfg, clock=None):
        self.model, self.cfg = model, cfg
        self.clock = clock or time.monotonic
        self.t0 = self.clock()
        self.buf = StreamBuffer(model.cfg.W, model.cfg.B, model.cfg.d_in)
        self.cache, self.decoder_cache = EncoderCache(), DecoderCache(model.cfg)
        # the states of encoded positions _first onward, from _n_encoded raw frames
        self._states, self._first, self._n_encoded = None, 0, 0
        start = Hypothesis((model.vocab.start_id,), 0.0)
        self.hyps, self.floor = [start], [start] if cfg.width > 1 else []
        self._chunk, self._emitted = -1, 0  # the last chunk searched, symbols emitted

    def push(self, fragment):
        """Take the next fragment; returns the Emissions of the chunks it released."""
        return self._search(self.buf.push(fragment))

    def flush(self):
        """End the stream; returns the last Emissions."""
        out = self._search(self.buf.flush())
        self.hyps = _with_floor(self.hyps, self.floor, self.cfg.width)
        return out + self._emit(self.hyps[0].prefix)

    def _search(self, spans):
        if not spans:
            return []
        out = []
        with ad.no_grad():
            if self.buf.end > self._n_encoded:
                start = self.cache.start
                new = ad._as_tensor(self.model.encode_states(self.buf.frames,
                                                             cache=self.cache)).data
                if self._states is not None:
                    new = np.concatenate([self._states[:start - self._first], new])
                self._states, self._n_encoded = new, self.buf.end
                self.buf.keep_from(self.cache.start)
            for a, b in spans:
                chunk = self._states[a - self._first:b - self._first]
                self.hyps, self.floor = _advance_chunk(self.model, self.hyps, self.floor, chunk,
                                                       self.cfg, self.decoder_cache)
                self.decoder_cache.next_chunk([h.prefix for h in self.hyps + self.floor])
                self._chunk += 1
                out += self._emit(_shared_prefix(self.hyps + self.floor))
        # the next chunk reads states from next_start, the next encode adds them at cache.start
        keep = min(self.buf.next_start, self.cache.start)
        self._states, self._first = self._states[keep - self._first:], keep
        return out

    def _emit(self, settled):
        new = settled[1 + self._emitted:]
        self._emitted += len(new)
        now_ms = (self.clock() - self.t0) * 1000.0
        return [Emission(self._chunk, int(sym), self.hyps[0].log_prob, now_ms) for sym in new]


def _session(model, fragments, cfg, clock=None):
    """A flushed session fed every fragment, and the Emissions it returned."""
    session = StreamSession(model, cfg, clock)
    emissions = [e for frag in fragments for e in session.push(frag)]
    return session, emissions + session.flush()


def greedy_decode(model, x, cfg=None):
    """Argmax decoding, the width-1 search; returns (label ids, log_prob)."""
    best = _session(model, [x], replace(cfg or BeamConfig(), width=1))[0].hyps[0]
    return list(best.prefix[1:]), best.log_prob


def beam_decode(model, x, cfg=None):
    """Chunk-synchronous beam search; returns the n-best list of (ids, log_prob).

    The greedy path is always included in the candidate pool, so the best
    beam score never falls below the greedy score.
    """
    hyps = _session(model, [x], cfg or BeamConfig())[0].hyps
    return [(list(h.prefix[1:]), h.log_prob) for h in hyps]


def stream_decode(model, fragments, cfg=None, clock=None, collect_emissions=True):
    """Decode raw-frame fragments as they arrive.

    fragments: iterable of real 2-D (n_i, d_in) arrays, anything else raises
    ContractError; the stream is flushed after the last one. Returns
    (label ids, log_prob, emissions), emissions as StreamSession describes
    them, or [] without collect_emissions. The transcript equals offline
    beam_decode of the concatenated stream and the score agrees to 1e-10.
    """
    session, emissions = _session(model, fragments, cfg or BeamConfig(), clock)
    best = session.hyps[0]
    return list(best.prefix[1:]), best.log_prob, emissions if collect_emissions else []
