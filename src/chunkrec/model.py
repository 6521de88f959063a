"""Streaming chunk-transducer network.

Convolutional front end (two stride-2 time convolutions, ReLU, sinusoidal
positions), a left-context-masked pre-norm transformer encoder, and a
decoder whose cross-attention sees exactly one encoded chunk at a time.
The decoder output is a log-distribution over vocabulary + blank, from
which the training lattice tables are extracted by teacher forcing. A
whole batch is scored in one padded pass: the utterances' frames are
right-padded and encoded together, and one decoder pass scores every
label prefix against every chunk of its utterance.
``parameter_table`` is the one list of parameter names and shapes; the
initializer walks it and the model checks given parameters against it.

Search passes score prefix tries (``decoder_steps``) against a
``DecoderCache``. Block 0's self-attention depends on the prefix alone and
everything after it on the prefix and the chunk, so a node's block-0 keys,
values and output serve the whole decode and its later keys, values and
output row serve one chunk. A pass computes only the rows its cache lacks,
in the same one block loop (``_decode``) that teacher forcing runs on
every row.

Finiteness is checked at sub-layer boundaries, not after every autodiff
op, and a NumericError names the sub-layer, as in "non-finite value in
dec.1.cross_attn". Each check scans a whole tensor before any of its rows
are selected, so no row escapes it. The checks sit where a bad value
could first be lost and where it leaves the model: each conv output
before its relu (``fe.conv1``, ``fe.conv2``) and each FFN's first linear
output before its glu, since relu maps NaN and -inf to 0 and glu maps a
-inf gate to 0; the front-end output (``fe``) and the decoder input
(``dec.embed``); every residual sub-layer output; and the encoder
(``enc.final_ln``) and decoder (``dec.out``) outputs. Layer norms,
attention and linear layers propagate a non-finite input to the next
check, except that the masked softmax would drop a masked score, so
attention scans its scores, reported under its sub-layer. The forward
entry points run with numpy's overflow and invalid-value warnings off
(``_quiet``), so a non-finite parameter reaches those checks as a value,
not as a RuntimeWarning from the op that first makes it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import chunking
from .chunking import (FRONT_END_DOWNSAMPLE, FRONT_END_KERNEL, FRONT_END_STRIDE, ChunkGeometry,
                       as_frames, left_context_mask)
from .errors import (AvailabilityError, ConfigError, ContractError, EmptyInputError,
                     NumericError, ShapeError, VocabError, check_fields)
from .lattice import lattice_nll


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    n_enc_blocks: int = 2
    n_dec_blocks: int = 2
    d_in: int = 8
    left_context: int = 8
    W: int = 4
    B: int = 1
    vocab_size: int = 16
    ffn_inner: int = 128
    seed: int = 0

    def __post_init__(self):
        # vocab_size 3 holds blank, unk and one symbol
        check_fields(self, d_model=2, n_heads=1, n_enc_blocks=0, n_dec_blocks=0, d_in=1,
                     left_context=0, B=0, vocab_size=3, ffn_inner=1, seed=0)
        if self.d_model % self.n_heads or self.d_model % 2:
            raise ConfigError("d_model must be even and divisible by n_heads")
        if self.W <= self.B:
            raise ConfigError("chunk geometry requires W > B >= 0")


BLANK = "<blk>"
UNK = "<unk>"


@dataclass(frozen=True)
class Vocabulary:
    """Dense symbol<->id bijection containing blank and unk.

    The start symbol shares the blank id. Text is one unit per character
    when every unit is a single character, and whitespace-separated units
    when any unit is longer (``separator``); encode and decode agree.
    """

    symbols: tuple

    def __post_init__(self):
        if not all(isinstance(s, str) for s in self.symbols):
            raise VocabError("vocabulary symbols must be strings")
        if len(set(self.symbols)) != len(self.symbols):
            raise VocabError("duplicate symbols in vocabulary")
        if BLANK not in self.symbols or UNK not in self.symbols:
            raise VocabError("vocabulary must contain <blk> and <unk>")
        bad = [u for u in self.symbols if u not in (BLANK, UNK)
               and (u.split() != [u] if self.separator else not u)]
        if bad:
            raise VocabError(f"units {bad!r} are empty, or hold whitespace while some unit "
                             "is longer than one character")

    @classmethod
    def from_units(cls, units):
        return cls(symbols=(BLANK, UNK) + tuple(units))

    @property
    def blank_id(self):
        return self.symbols.index(BLANK)

    @property
    def unk_id(self):
        return self.symbols.index(UNK)

    @property
    def start_id(self):
        return self.blank_id

    def __len__(self):
        return len(self.symbols)

    @property
    def separator(self):
        """" " if any unit is longer than one character, else ""."""
        return " " if any(len(s) > 1 for s in self.symbols if s not in (BLANK, UNK)) else ""

    def encode(self, text):
        """Map the units of text to ids; unknown units become unk."""
        table = {s: i for i, s in enumerate(self.symbols)}
        unk = self.unk_id
        return [table.get(u, unk) for u in (text.split() if self.separator else text)]

    def decode(self, ids):
        """The text of ids; VocabError for an id outside [0, len(self))."""
        ids = list(ids)
        bad = [i for i in ids if not 0 <= i < len(self)]
        if bad:
            raise VocabError(f"ids {bad} outside the vocabulary [0, {len(self)})")
        return self.separator.join(self.symbols[i] for i in ids)


def sinusoidal_positions(positions, d_model):
    """Standard sine/cosine positional table for the given positions."""
    positions = np.asarray(positions, dtype=np.float64)
    pe = np.zeros((positions.shape[0], d_model))
    div = np.exp(-np.log(10000.0) * np.arange(0, d_model, 2) / d_model)
    pe[:, 0::2] = np.sin(positions[:, None] * div)
    pe[:, 1::2] = np.cos(positions[:, None] * div)
    return pe


def parameter_table(cfg):
    """(name, shape, init) of every parameter cfg defines, in init_parameters' draw order.

    init is "zeros", "ones", or the fan-in of a uniform draw.
    """
    d, k, f = cfg.d_model, FRONT_END_KERNEL, cfg.ffn_inner
    table = [("fe.conv1.w", (k, cfg.d_in, d), k * cfg.d_in), ("fe.conv1.b", (d,), "zeros"),
             ("fe.conv2.w", (k, d, d), k * d), ("fe.conv2.b", (d,), "zeros")]

    def attn(prefix):
        for nm in "qkvo":
            table.extend([(f"{prefix}.w{nm}", (d, d), d), (f"{prefix}.b{nm}", (d,), "zeros")])

    def ln(prefix):
        table.extend([(f"{prefix}.g", (d,), "ones"), (f"{prefix}.b", (d,), "zeros")])

    def ffn(prefix):
        table.extend([(f"{prefix}.w1", (d, 2 * f), d), (f"{prefix}.b1", (2 * f,), "zeros"),
                      (f"{prefix}.w2", (f, d), f), (f"{prefix}.b2", (d,), "zeros")])

    for i in range(cfg.n_enc_blocks):
        ln(f"enc.{i}.ln1")
        attn(f"enc.{i}.attn")
        ln(f"enc.{i}.ln2")
        ffn(f"enc.{i}.ffn")
    ln("enc.final_ln")

    table.append(("dec.embed", (cfg.vocab_size, d), d))
    for i in range(cfg.n_dec_blocks):
        ln(f"dec.{i}.ln1")
        attn(f"dec.{i}.self_attn")
        ln(f"dec.{i}.ln2")
        attn(f"dec.{i}.cross_attn")
        ln(f"dec.{i}.ln3")
        ffn(f"dec.{i}.ffn")
    ln("dec.final_ln")
    table.extend([("dec.out.w", (d, cfg.vocab_size), d),
                  ("dec.out.b", (cfg.vocab_size,), "zeros")])
    return table


def init_parameters(cfg):
    """Uniform fan-in-scaled init; deterministic for a given config seed."""
    rng = np.random.default_rng(cfg.seed)
    params = {}
    for name, shape, init in parameter_table(cfg):
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            a = np.sqrt(1.0 / init)
            data = rng.uniform(-a, a, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def check_parameters(cfg, params):
    """Raise ContractError unless params holds exactly cfg's names and shapes."""
    expected = {name: shape for name, shape, _init in parameter_table(cfg)}
    given = {name: tuple(t.shape) for name, t in params.items()}
    if given != expected:
        bad = sorted(n for n in expected.keys() | given.keys() if expected.get(n) != given.get(n))
        raise ContractError("parameters differ from the config: " + ", ".join(
            f"{n} {given.get(n, 'missing')} (config: {expected.get(n, 'none')})" for n in bad))


def _checked(name, t):
    """t, unless an entry of it is not finite: then a NumericError naming sub-layer name."""
    ad.check_finite(t.data, name)
    return t


def _quiet(method):
    """method under numpy's errstate with overflow and invalid-value warnings off."""
    return np.errstate(invalid="ignore", over="ignore")(method)


def _right_pad(rows, fill):
    """Arrays of differing lengths stacked as (n, longest, ...), filled after each."""
    out = np.full((len(rows), max(map(len, rows))) + rows[0].shape[1:], fill,
                  dtype=rows[0].dtype)
    for row, r in zip(out, rows):
        row[:len(r)] = r
    return out


_Trie = namedtuple("_Trie", "ids mask ends parents numbers")


def _prefix_trie(rows, numbers=None):
    """Id sequences as one trie: its node ids, ancestor mask, each row's last
    node, each node's parent (-1 for a root) and each node's number.

    There is one node per distinct prefix of a row, keyed by (parent node,
    id) and numbered in walk order, so every ancestor precedes its
    descendants; equal rows share their nodes. mask[j, i] is True iff node
    i is node j or an ancestor of it, so row j is its parent's row plus j.
    numbers, a dict from (parent's number, id) to number, numbers prefixes
    across calls (a DecoderCache's) and gains the new ones; by default a
    node's number is its index.
    """
    nodes, ends = {}, []
    for row in rows:
        node = -1
        for tok in row:
            node = nodes.setdefault((node, tok), len(nodes))
        ends.append(node)
    numbers = {} if numbers is None else numbers
    # walk order sets a parent's row and number before any child reads them; a root's parent is -1
    mask, number = np.eye(len(nodes), dtype=bool), []
    for (parent, tok), node in nodes.items():
        if parent >= 0:
            mask[node] |= mask[parent]
        number.append(numbers.setdefault((number[parent] if parent >= 0 else -1, tok),
                                         len(numbers)))
    parents, ids = zip(*nodes) if nodes else ((), ())
    return _Trie(np.array(ids, dtype=np.intp), mask, ends, list(parents),
                 np.array(number, dtype=np.intp))


@dataclass
class EncoderCache:
    """A stream's encoder state: start, the first encoded position not yet
    final, and per encoder block the ln1 rows of the last left_context before it."""
    start: int = 0
    rows: list = field(default_factory=list)


class _Tier:
    """Rows by node number: a (size, width) array per name, grown on demand;
    have holds the numbers that have rows under every name but "out", and
    read those that have an "out" row."""

    def __init__(self, widths, size):
        self.size, self.have, self.read = size, set(), set()
        self.rows = {name: np.zeros((size, width)) for name, width in widths.items()}

    def reserve(self, n):
        """Room for the numbers below n."""
        if n > self.size:
            self.size = max(n, 2 * self.size)
            for name, a in self.rows.items():
                self.rows[name] = np.concatenate([a, np.zeros((self.size - len(a), a.shape[1]))])

    def keep(self, old):
        """Keep the rows of numbers old, renumbered 0, 1, ... in their order."""
        for a in self.rows.values():
            a[:len(old)] = a[old]
        self.have = {new for new, number in enumerate(old.tolist()) if number in self.have}
        self.read = {new for new, number in enumerate(old.tolist()) if number in self.read}


@dataclass
class DecoderCache:
    """A decode's decoder rows by prefix node, so that a search pass computes
    only the rows it lacks (decoder_steps).

    numbers numbers each prefix node it has met, as _prefix_trie does. The
    session tier holds each node's block-0 self-attention keys, values and
    residual output, which depend on the prefix alone. chunks holds a tier
    for the chunk being searched, then one for the next (the look-ahead's):
    each node's self-attention keys and values of every later block against
    that chunk, and the output row of each node a pass read. Each tier holds
    the paths to the nodes it holds; a pass makes the tiers it lacks.
    """
    numbers: dict = field(default_factory=dict)
    session: _Tier = None
    chunks: list = field(default_factory=list)

    def outputs(self, prefixes):
        """The output rows of prefixes against the chunk being searched, if the
        cache holds them all; else None."""
        read = self.chunks[0].read if self.chunks else ()
        nodes = []
        for row in prefixes:
            number = -1
            for tok in row:
                number = self.numbers.get((number, tok), -2)
            if number not in read:
                return None
            nodes.append(number)
        return self.chunks[0].rows["out"][nodes]

    def next_chunk(self, prefixes):
        """Drop the searched chunk's tier, and every node off the paths of
        prefixes; the rest are renumbered in walk order."""
        kept, old = {}, []  # the new numbers by (new parent, id), and each one's old number
        for row in prefixes:
            number = was = -1
            for tok in row:
                was = self.numbers.setdefault((was, tok), len(self.numbers))
                number = kept.setdefault((number, tok), len(kept))
                if number == len(old):
                    old.append(was)
        if old != list(range(len(self.numbers))):  # else every node is kept as numbered
            for tier in self.chunks[1:] + [self.session] * (self.session is not None):
                tier.reserve(len(self.numbers))
                tier.keep(np.array(old, dtype=np.intp))
        self.numbers, self.chunks = kept, self.chunks[1:]


def _lacking(nodes, parents, numbers, have):
    """Those of nodes whose numbers have lacks, and their ancestors up to the
    first it holds, sorted. A tier holds the paths to the nodes it holds."""
    out = set()
    for node in nodes:
        while node >= 0 and node not in out and numbers[node] not in have:
            out.add(node)
            node = parents[node]
    return sorted(out)


def _two(nodes):
    """Sorted trie nodes as an array, with a second if there is one: the root,
    or its first child if nodes is the root. Neither has an ancestor outside
    the other."""
    return np.array([0, max(1, nodes[0])] if len(nodes) == 1 else nodes, dtype=np.intp)


class _EveryRow:
    """The rows a decoder pass without a cache computes: all of them."""

    def __init__(self, self_mask):
        self.fresh, self.mask = np.arange(len(self_mask)), self_mask

    def keys(self, i, k, v):
        return k, v

    def queries(self, i, h, n):
        return h, n, self.mask

    def residual(self, h):
        return h


class _TriePass:
    """The rows a decoder_steps pass over a prefix trie computes against a
    DecoderCache, which it adds there.

    ask: the read nodes that lack an output row in a chunk tier of the pass;
    they run the last block's queries and the output. todo: ask and its
    ancestors that lack a chunk tier's rows; they run everything from block
    0's cross-attention on. fresh: todo and its ancestors that the session
    tier lacks; they run block 0's self-attention. Each is empty or at least
    two nodes (_two), so that every row is a row of a matrix product. The
    cache's rows and the computed ones give every node's keys.

    A computed row goes into the cache as it is made, and its node is
    marked as having rows once the pass has succeeded. A node that had
    rows and is computed again gets the same bits.
    """

    def __init__(self, cache, cfg, shape, trie, read):
        d, self.last = cfg.d_model, cfg.n_dec_blocks - 1
        n_chunks = shape[0] if len(shape) == 3 else 1
        size = max(64, 2 * len(cache.numbers))  # room to grow without reallocating
        if cache.session is None:
            cache.session = _Tier({"k0": d, "v0": d, "a0": d} if self.last >= 0 else {}, size)
        widths = {f"{kv}{i}": d for i in range(1, self.last + 1) for kv in "kv"}
        cache.chunks += [_Tier({**widths, "out": cfg.vocab_size}, size)
                         for _ in range(n_chunks - len(cache.chunks))]
        self.session, self.tiers = cache.session, cache.chunks[:n_chunks]
        for tier in [self.session] + self.tiers:
            tier.reserve(len(cache.numbers))
        self.numbers, self.mask, self.read = trie.numbers, trie.mask, read
        number = trie.numbers.tolist()
        read_by_all = set.intersection(*(tier.read for tier in self.tiers))
        self.ask = self.todo = self.fresh = _two(sorted(
            node for node in read if number[node] not in read_by_all))
        if len(self.ask) and self.last > 0:
            held = set.intersection(*(tier.have for tier in self.tiers))
            above = [trie.parents[node] for node in self.ask]
            self.todo = _two(sorted(set(self.ask.tolist()).union(
                _lacking(above, trie.parents, number, held))))
        if len(self.ask) and self.last >= 0:
            self.fresh = _two(_lacking(self.todo.tolist(), trie.parents, number,
                                       self.session.have))

    def keys(self, i, k, v):
        """Every node's keys and values of block i: k and v in the rows the
        pass computes, the cache's in the others."""
        tiers, at = ([self.session], self.fresh) if i == 0 else (self.tiers, self.todo)
        every, at = len(at) == len(self.numbers), self.numbers[at]
        out = []
        for name, t in ((f"k{i}", k), (f"v{i}", v)):
            for tier, rows in zip(tiers, t.data.reshape(len(tiers), len(at), -1)):
                tier.rows[name][at] = rows
            if not every:
                full = [tier.rows[name][self.numbers] for tier in tiers]
                t = Tensor(full[0] if len(full) == 1 else np.stack(full))
            out.append(t)
        return out

    def queries(self, i, h, n):
        """The residual, normed input and mask rows of block i's self-attention queries."""
        if i == 0:
            return h, n, self.mask[self.fresh]
        mask = self.mask[self.todo]
        if i < self.last:
            return h, n, mask
        at = np.searchsorted(self.todo, self.ask)
        return Tensor(h.data[..., at, :]), Tensor(n.data[..., at, :]), mask[at]

    def residual(self, h):
        """Block 0's self-attention output of todo: h in fresh, the cache's elsewhere."""
        rows = self.session.rows["a0"]
        if h is not None:
            rows[self.numbers[self.fresh]] = h.data
        return Tensor(rows[self.numbers[self.todo]])

    def outputs(self, out=None):
        """Add out, the output rows of ask, to the cache and mark the pass's
        nodes; then return the read nodes' output rows, (chunks, read, vocab)."""
        ask, read = self.numbers[self.ask], self.numbers[self.read]
        if out is not None:
            rows = out.data if out.data.ndim == 3 else [out.data] * len(self.tiers)
            todo = self.numbers[self.todo].tolist()
            for tier, r in zip(self.tiers, rows):
                tier.rows["out"][ask] = r
                tier.have.update(todo)
                tier.read.update(ask.tolist())
            self.session.have.update(self.numbers[self.fresh].tolist())
        if len(self.tiers) == 1:
            return self.tiers[0].rows["out"][read][None]
        return np.stack([tier.rows["out"][read] for tier in self.tiers])


@dataclass
class EncodedChunk:
    states: Tensor


class ChunkTransducerModel:
    """Ties parameters, vocabulary and geometry into one forward surface."""

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, params=None):
        if len(vocab) != cfg.vocab_size:
            raise ConfigError(f"vocab size {len(vocab)} != config {cfg.vocab_size}")
        if params is None:
            params = init_parameters(cfg)
        else:
            check_parameters(cfg, params)
        self.cfg = cfg
        self.vocab = vocab
        self.params = params
        self._depth_table = np.zeros((0, cfg.d_model))

    # -- front end ----------------------------------------------------------

    def _frames(self, x, start=0):
        """Raw frames checked by as_frames. From a stream's first frame (start 0)
        they must be long enough to encode; a later tail need not be."""
        x = as_frames(x, self.cfg.d_in)
        if start == 0 and x.shape[0] < FRONT_END_DOWNSAMPLE:
            raise EmptyInputError(f"need at least {FRONT_END_DOWNSAMPLE} frames, got {x.shape[0]}")
        return x

    def front_end(self, x, lengths=None, start=0):
        """Raw frames (T, d_in) -> encoded inputs (L, d_model).

        With start, x is a stream's raw frames from frame FRONT_END_DOWNSAMPLE
        * start on, and the output is positions start onward.

        With lengths, x is instead N utterances' frames right-padded with zeros
        to (N, T, d_in), lengths[n] (at least FRONT_END_DOWNSAMPLE) the frame
        count of utterance n, and the output is (N, L, d_model). Encoded
        frames of utterance n up to encoded_len(lengths[n]) equal its
        unbatched front end; those past it are filler.
        """
        if lengths is None:
            x = self._frames(x, start)
        p = self.params
        h = ad.conv1d_time(Tensor(x), p["fe.conv1.w"], FRONT_END_STRIDE)
        h = ad.relu(_checked("fe.conv1", h + p["fe.conv1.b"]))
        if lengths is not None:
            # Conv 2 must read conv-1 frames past an utterance's end as the
            # zeros of the right padding, as the unbatched path does, not as
            # the relu(b1) that the padded input frames make.
            live = np.arange(h.shape[-2]) < -(-np.asarray(lengths)[:, None] // FRONT_END_STRIDE)
            h = h * Tensor(np.broadcast_to(live[..., None], h.shape))
        h = ad.conv1d_time(h, p["fe.conv2.w"], FRONT_END_STRIDE)
        h = ad.relu(_checked("fe.conv2", h + p["fe.conv2.b"]))
        L = h.shape[-2]
        return _checked("fe", h + Tensor(sinusoidal_positions(start + np.arange(L),
                                                               self.cfg.d_model)))

    encoded_len = staticmethod(chunking.encoded_len)
    frames_needed = staticmethod(chunking.frames_needed)

    # -- attention plumbing -------------------------------------------------
    #
    # Activations are (..., t, d): the encoder passes one (L, d) sequence or
    # an (N, L, d) padded batch, search passes one (nodes, d) prefix trie
    # against one (W, d) chunk or a (C, W, d) stack, and teacher forcing
    # passes (sum of M, U+1, d) prefixes against (sum of M, W, d) chunks.

    def _linear(self, prefix, x, suffix=""):
        p = self.params
        return ad.linear(x, p[f"{prefix}.w{suffix}"], p[f"{prefix}.b{suffix}"])

    def _mha(self, prefix, q_in, kv_in, mask):
        return self._attend(prefix, q_in, self._linear(prefix, kv_in, "k"),
                            self._linear(prefix, kv_in, "v"), mask)

    def _attend(self, prefix, q_in, k, v, mask):
        try:
            context = ad.attention(self._linear(prefix, q_in, "q"), k, v, mask, self.cfg.n_heads)
        except NumericError as e:
            raise NumericError(f"{e} of {prefix}") from None
        return self._linear(prefix, context, "o")

    def _ln(self, prefix, x):
        return ad.layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def _ffn(self, prefix, x):
        return self._linear(prefix, ad.glu(_checked(prefix, self._linear(prefix, x, "1"))), "2")

    # -- encoder ------------------------------------------------------------

    @_quiet
    def encode_states(self, x, lengths=None, cache=None):
        """Full causal encoding of a raw (prefix of a) feature sequence.

        The left-context mask is strictly causal, so state i is identical
        whether computed from the prefix or the whole utterance. For the same
        reason a right-padded batch (x and lengths as front_end takes them)
        needs no key mask: no state of an utterance reads its padding.

        With an EncoderCache, x is a stream's raw frames from frame
        FRONT_END_DOWNSAMPLE * cache.start on, the output is positions
        cache.start onward, and each block's attention also reads the cached
        rows, outside the autodiff graph. An empty cache computes what no
        cache does. The cache then moves on to the first position not yet
        final (chunking.final_len).
        """
        start, past = (0, []) if cache is None else (cache.start, cache.rows)
        s = self.front_end(x, lengths, start)
        P, left, keys = len(past[0]) if past else 0, self.cfg.left_context, []
        mask = left_context_mask(P + s.shape[-2], left)[P:]  # rows of the new positions
        for i in range(self.cfg.n_enc_blocks):
            n = self._ln(f"enc.{i}.ln1", s)
            kv = Tensor(np.concatenate([past[i], n.data])) if P else n
            s = _checked(f"enc.{i}.attn", s + self._mha(f"enc.{i}.attn", n, kv, mask))
            s = _checked(f"enc.{i}.ffn",
                         s + self._ffn(f"enc.{i}.ffn", self._ln(f"enc.{i}.ln2", s)))
            keys.append(kv.data)  # the rows of positions start - P onward
        if cache is not None:
            # positions from final_len on read raw frames still to come
            cache.start = chunking.final_len(FRONT_END_DOWNSAMPLE * start + len(x))
            end = P + cache.start - start  # the first such row in keys
            cache.rows = [k[max(0, end - left):end] for k in keys]
        return _checked("enc.final_ln", self._ln("enc.final_ln", s))

    def geometry_for(self, T):
        return ChunkGeometry(W=self.cfg.W, B=self.cfg.B, L=self.encoded_len(T))

    def encode_chunk(self, x, m):
        """Encode chunk m of an utterance (offline path)."""
        states = self.encode_states(x)
        geom = ChunkGeometry(W=self.cfg.W, B=self.cfg.B, L=states.shape[0])
        if not 0 <= m < geom.M:
            raise AvailabilityError(f"chunk {m} outside [0, {geom.M})")
        a, b = geom.spans[m]
        return EncodedChunk(states=states[a:b])

    # -- decoder ------------------------------------------------------------

    def _check_prefix(self, prefix_ids):
        if len(prefix_ids) == 0 or prefix_ids[0] != self.vocab.start_id:
            raise ContractError("decoder prefix must start with the blank start symbol")
        ids = np.asarray(prefix_ids, dtype=np.intp)
        if (ids < 0).any() or (ids >= self.cfg.vocab_size).any():
            raise VocabError("prefix id out of vocabulary")
        return ids

    def _decode(self, ids, chunk_states, cross_mask=True, self_mask=None, rows=None):
        """Decoder blocks over ids of shape (..., P) -> (..., P, vocab) log-softmax.

        self_mask is a (P, P) ancestor mask, by default the chain
        left_context_mask(P, P); a row sits at position (rows it sees) - 1.
        Row j depends on its ancestors' ids and the chunk alone, so right
        padding reaches no real row. cross_mask broadcasts against the (...,
        heads, P, W) cross-attention scores; chunk positions it marks False
        get exactly zero attention. rows, a _TriePass of a decoder_steps
        pass (under no_grad), has the blocks compute only the rows that its
        DecoderCache lacks, the others' keys and values coming from the
        cache, and the output is ask's rows, (..., len(ask), vocab).
        Without it every row is computed.
        """
        if self_mask is None:
            self_mask = left_context_mask(ids.shape[-1], ids.shape[-1])
        rows = rows or _EveryRow(self_mask)
        h, at = None, rows.fresh
        if len(at):
            h = _checked("dec.embed", ad.take(self.params["dec.embed"], ids[..., at]) + Tensor(
                self._depth_positions(np.count_nonzero(self_mask[at], axis=-1) - 1)))
        for i in range(self.cfg.n_dec_blocks):
            sa = f"dec.{i}.self_attn"
            if h is not None:  # none when block 0 has no fresh row
                n = self._ln(f"dec.{i}.ln1", h)
                k, v = rows.keys(i, self._linear(sa, n, "k"), self._linear(sa, n, "v"))
                h, n, mask = rows.queries(i, h, n)
                h = _checked(sa, h + self._attend(sa, n, k, v, mask))
            if i == 0:
                h = rows.residual(h)
            h = _checked(f"dec.{i}.cross_attn", h + self._mha(
                f"dec.{i}.cross_attn", self._ln(f"dec.{i}.ln2", h), chunk_states, cross_mask))
            h = _checked(f"dec.{i}.ffn", h + self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", h)))
        return _checked("dec.out", ad.log_softmax(
            self._linear("dec.out", self._ln("dec.final_ln", h))))

    def _depth_positions(self, depths):
        """sinusoidal_positions(depths) read from a table of the model's, grown on demand.

        sinusoidal_positions is elementwise in the positions, so each row is
        bitwise the row a direct call gives. The encoder computes its own:
        a stream's positions grow without bound.
        """
        n = int(depths.max()) + 1
        if n > len(self._depth_table):
            n = max(n, 2 * len(self._depth_table))
            self._depth_table = sinusoidal_positions(np.arange(n), self.cfg.d_model)
        return self._depth_table[depths]

    @_quiet
    def decoder_forward(self, prefix_ids, chunk_states):
        """Log-distributions at every prefix position against one chunk.

        prefix_ids must start with the start symbol (= blank id). Output is
        (len(prefix), vocab_size) log-softmax rows.
        """
        return self._decode(self._check_prefix(prefix_ids), chunk_states)

    @_quiet
    def decoder_steps(self, prefixes, chunk_states, cache=None):
        """Next-symbol log-distributions for n prefixes in one decoder pass.

        The pass runs the prefixes' trie (_prefix_trie) as one sequence under
        its ancestor mask, so a symbol that several prefixes share, and a
        prefix repeated, is scored once. The last block carries on only the
        distinct last nodes, the rows read. chunk_states is one (W', d_model)
        chunk, and the result an (n, vocab_size) numpy array; or a (C, W',
        d_model) stack of C chunks, and the result (C, n, vocab_size), the
        rows against each chunk. The trie stays one sequence, so block 0's
        self-attention runs once and the chunk axis starts at its
        cross-attention. Anything else is a ShapeError. Prefixes are checked
        as decoder_forward checks them, once per pass: the start symbol per
        prefix, then the range over the trie's ids.

        With a DecoderCache, whose chunk tiers' first C are the C chunks',
        the pass computes only the rows the cache lacks (_TriePass): block
        0's self-attention on the nodes new to the session, the rest on the
        nodes new to a chunk, the output on the read nodes new to a chunk;
        it adds them to the cache. A pass that finds every row computes
        nothing.

        Batch-invariant: row i is bitwise equal to decoder_steps([prefixes[i]],
        chunk_states)[0], and row [c, i] of a stack to decoder_steps(prefixes,
        chunk_states[c])[i], cache or none. Masked keys add exact zeros to the
        softmax's sequential sum, a node's ancestors keep their depth order,
        a stack's products run one chunk's matrix at a time, and every
        computed row set has at least two rows, which keeps each row a row of
        a matrix product, off BLAS's matrix-vector path, which sums in another
        order. So a row the cache holds is the row the pass would compute.
        Rows equal decoder_forward(...)[-1] up to summation order.
        """
        chunk = ad._as_tensor(chunk_states)
        d = self.cfg.d_model
        if chunk.data.ndim not in (2, 3) or chunk.shape[-1] != d or not chunk.data.size:
            raise ShapeError(f"chunk states must be (W', {d}) or (C, W', {d}), got {chunk.shape}")
        if len(prefixes) == 0:
            raise ContractError("decoder_steps needs at least one prefix")
        start = self.vocab.start_id
        if not all(len(pre) and pre[0] == start for pre in prefixes):
            raise ContractError("decoder prefix must start with the blank start symbol")
        rows = list(prefixes)
        if max(map(len, rows)) == 1:  # a trie of the start node alone gets a second node
            rows.append((start, start))
        cache = cache or DecoderCache()
        trie = _prefix_trie(rows, cache.numbers)
        if trie.ids.min() < 0 or trie.ids.max() >= self.cfg.vocab_size:  # every id, once
            raise VocabError("prefix id out of vocabulary")
        read = {}  # the distinct last nodes, and each prefix's place among them
        back = [read.setdefault(end, len(read)) for end in trie.ends[:len(prefixes)]]
        rows = _TriePass(cache, self.cfg, chunk.shape, trie, list(read))
        out = None
        if len(rows.ask):
            with ad.no_grad():
                out = self._decode(trie.ids, chunk, self_mask=trie.mask, rows=rows)
        out = rows.outputs(out)[:, back]
        return out if chunk.data.ndim == 3 else out[0]

    def decoder_step(self, prefix_ids, chunk_states):
        """Log-distribution (numpy vector) for the next symbol."""
        return self.decoder_steps([prefix_ids], chunk_states)[0]

    # -- training surface ---------------------------------------------------

    @_quiet
    def lattice_probs(self, batch):
        """Teacher-forced lattice tables for (features, labels) pairs, in one padded pass.

        Returns one (blank_lp, label_lp) pair of Tensors per pair, of shapes
        (M, U+1) and (M, U). The frames are right-padded and encoded as one
        batch, and one decoder pass scores every chunk of every utterance with
        the chunk as the batch axis, (sum of M, max U + 1). Padded labels come
        after the real ones, so the causal self-attention mask hides them. A
        truncated last chunk is padded to W states and the cross-attention
        mask hides the padding. Padding gets exactly zero attention and zero
        gradient.
        """
        if not batch:
            raise ContractError("empty batch")
        prefixes = [self._check_prefix([self.vocab.start_id, *y]) for _, y in batch]
        xs = [self._frames(x) for x, _ in batch]
        T = np.array([len(x) for x in xs])
        states = self.encode_states(_right_pad(xs, 0.0), T)
        spans = [np.array(self.geometry_for(t).spans) for t in T]
        M = np.array([len(s) for s in spans])
        utt, spans = np.repeat(np.arange(len(xs)), M), np.concatenate(spans)
        pos = spans[:, :1] + np.arange(self.cfg.W)
        valid = pos < spans[:, 1:]
        chunks = states[utt[:, None], np.minimum(pos, spans[:, 1:] - 1)]
        ld = self._decode(_right_pad(prefixes, self.vocab.start_id)[utt], chunks,
                          valid[:, None, None, :])
        ends = np.cumsum(M)
        return [(ld[a:b, :len(p), self.vocab.blank_id], ld[a:b, np.arange(len(p) - 1), p[1:]])
                for a, b, p in zip(ends - M, ends, prefixes)]

    def sequence_nlls(self, batch):
        """Negative log-probability of each y given its x (scalar Tensors), in one padded pass."""
        return [lattice_nll(blank_lp, label_lp) for blank_lp, label_lp in self.lattice_probs(batch)]

    def sequence_nll(self, x, y_ids):
        """Negative log-probability of y given x (scalar Tensor)."""
        return self.sequence_nlls([(x, y_ids)])[0]
