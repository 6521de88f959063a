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

Search passes score prefixes (``decoder_steps``) against a
``DecoderCache``, which keeps the decode's prefix trie as a node table: a
dict from prefix to node number, and each node's id, depth and ancestor
row. A pass finds its nodes with one dict lookup per prefix, and its rows,
masks and positions with a fixed number of array operations. Block 0's
self-attention depends on the prefix alone and everything after it on the
prefix and the chunk, so a node's block-0 keys, values and output serve
the whole decode and its later keys, values and output row serve one chunk
tier, which serves only the chunk it was made for. Rows leave the cache
only through ``decoder_steps``, which checks the chunk. A pass computes
only the rows its cache lacks, in the same one block loop (``_decode``)
that teacher forcing runs on every row.

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

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import chunking
from .chunking import (FRONT_END_DOWNSAMPLE, FRONT_END_KERNEL, FRONT_END_STRIDE, ChunkGeometry,
                       as_frames, left_context_mask)
from .errors import (AvailabilityError, ConfigError, ContractError, EmptyInputError,
                     NumericError, ProtocolError, ShapeError, VocabError, check_fields)
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


@dataclass
class EncoderCache:
    """A stream's encoder state: start, the first encoded position not yet
    final, and per encoder block the ln1 rows of the last left_context before it."""
    start: int = 0
    rows: list = field(default_factory=list)


def _grown(a, axis, size):
    """a with zeros appended along axis up to size."""
    out = np.zeros(a.shape[:axis] + (size,) + a.shape[axis + 1:], dtype=a.dtype)
    out[tuple(map(slice, a.shape))] = a
    return out


def _compact(a, old, n):
    """Move a's rows old (ascending) to the front in their order, and zero its
    other rows below n."""
    a[:len(old)] = a.take(old, 0)
    a[len(old):n] = 0


class DecoderCache:
    """A decode's prefix trie and its decoder rows by trie node, so that a
    search pass computes only the rows it lacks (decoder_steps).

    nodes maps each prefix the trie holds, a tuple of ids, to its node
    number; ids[j] is node j's last id, depth[j] its length less one (its
    position), and anc[j, i] is True iff node i is node j or an ancestor of
    it. A node is added from its parent's entry, after its parent, so
    ancestors are numbered before descendants, and its id is checked once,
    as it is added. The root, the start symbol, is node
    0. Every array is indexed by node number, and is zero past the nodes.

    session holds each node's block-0 self-attention keys, values and
    residual output ("k0", "v0", "a0"), which depend on the prefix alone;
    held marks the nodes that have them. tiers holds, per chunk tier, each
    node's self-attention keys and values of every later block against
    that tier's chunk, and the output row of each node a pass read; have
    and read mark the nodes that have the former and the latter. chunks
    holds the bytes of each tier's chunk states: the chunk being searched,
    then the next (the look-ahead's). Each tier, and the session, holds the
    paths to the nodes it holds; a pass makes the tiers it lacks. Rows
    leave the cache only through decoder_steps, which checks chunks.
    """

    def __init__(self):
        self.nodes, self.size = {}, 64
        self.ids, self.depth = np.zeros(64, dtype=np.intp), np.zeros(64, dtype=np.intp)
        self.anc = np.zeros((64, 64), dtype=bool)
        self.session, self.tiers, self.chunks = {}, {}, []

    def _deepest(self, prefix):
        """(k, node): the longest start prefix[:k] of prefix, a tuple, that the
        trie holds, and its node (-1 for k = 0)."""
        for k in range(len(prefix), 0, -1):
            number = self.nodes.get(prefix[:k])
            if number is not None:
                return k, number
        return 0, -1

    def number(self, prefix, vocab_size):
        """The node number of prefix, a tuple, after adding the nodes it lacks;
        VocabError, with none of them added, for an id to add that is not an
        integer in [0, vocab_size)."""
        known, number = self._deepest(prefix)
        if known == len(prefix):
            return number
        if not all((type(t) is int or isinstance(t, np.integer)) and 0 <= t < vocab_size
                   for t in prefix[known:]):
            raise VocabError(f"prefix ids {prefix[known:]!r} are not integers in the "
                             f"vocabulary [0, {vocab_size})")
        n = len(self.nodes)
        if n + len(prefix) - known > self.size:
            self._grow(max(n + len(prefix) - known, 2 * self.size))
        for j in range(known, len(prefix)):
            parent, number = number, len(self.nodes)
            if parent >= 0:
                self.anc[number] = self.anc[parent]
            self.anc[number, number] = True
            self.ids[number], self.depth[number] = prefix[j], j
            self.nodes[prefix[:j + 1]] = number
        return number

    def _grow(self, size):
        self.ids, self.depth = _grown(self.ids, 0, size), _grown(self.depth, 0, size)
        self.anc = _grown(_grown(self.anc, 0, size), 1, size)
        self.session = {name: _grown(a, 0, size) for name, a in self.session.items()}
        self.tiers = {name: _grown(a, 1, size) for name, a in self.tiers.items()}
        self.size = size

    def _make(self, cfg, n_tiers):
        """Room for cfg's rows in at least n_tiers chunk tiers."""
        d = cfg.d_model
        if not self.session:
            names = ("k0", "v0", "a0") if cfg.n_dec_blocks else ()
            self.session = {name: np.zeros((self.size, d)) for name in names}
            self.session["held"] = np.zeros(self.size, dtype=bool)
            widths = {f"{kv}{i}": d for i in range(1, cfg.n_dec_blocks) for kv in "kv"}
            self.tiers = {name: np.zeros((0, self.size, width))
                          for name, width in {**widths, "out": cfg.vocab_size}.items()}
            self.tiers.update(have=np.zeros((0, self.size), dtype=bool),
                              read=np.zeros((0, self.size), dtype=bool))
        if n_tiers > len(self.tiers["out"]):
            self.tiers = {name: _grown(a, 0, n_tiers) for name, a in self.tiers.items()}

    def next_chunk(self, prefixes):
        """Drop the searched chunk's tier, and every node off the paths of
        prefixes; the rest keep their order, renumbered 0, 1, ..."""
        n = len(self.nodes)
        ends = [node for known, node in map(self._deepest, map(tuple, prefixes)) if known]
        keep = np.logical_or.reduce(self.anc.take(ends, 0)[:, :n], axis=0)
        old = keep.nonzero()[0]
        m = len(old)
        if m < n:
            self.nodes = dict(zip(compress(self.nodes, keep), range(m)))
            square = self.anc[:n, :n]
            for a in [self.ids, self.depth, square, square.T, *self.session.values()]:
                _compact(a, old, n)
        for a in self.tiers.values():  # tier t + 1 becomes tier t
            a[:-1, :m] = a[1:, :m] if m == n else a[1:].take(old, 1)
            a[:-1, m:n] = a[-1, :n] = 0
        self.chunks = self.chunks[1:]


def _two(nodes):
    """Sorted trie nodes, with a second if there is one: the root, or its first
    child (node 1) if nodes is the root. Neither has an ancestor outside the
    other."""
    return np.array([0, max(1, nodes[0])], dtype=np.intp) if len(nodes) == 1 else nodes


class _EveryRow:
    """The rows a decoder pass without a cache computes: all P of them, row j
    under the chain mask at position j."""

    def __init__(self, P):
        self.fresh = self.depth = np.arange(P)
        self.mask = left_context_mask(P, P)

    def keys(self, i, k, v):
        return k, v

    def queries(self, i, h, n):
        return h, n, self.mask

    def residual(self, h):
        return h


class _TriePass:
    """The rows a decoder_steps pass over a DecoderCache's trie computes,
    which it adds there. Its keys are every node of the trie, a row's mask
    is its node's ancestor row, and its position its node's depth.

    ask: the read nodes (ends) that lack an output row in a chunk tier of the
    pass; they run the last block's queries and the output. todo: ask and
    its ancestors that lack a chunk tier's rows; they run everything from
    block 0's cross-attention on. fresh: todo and its ancestors that the
    session lacks; they run block 0's self-attention. Each is empty or at
    least two nodes (_two), so that every row is a row of a matrix product.
    The cache's rows and the computed ones give every node's keys.

    A computed row goes into the cache as it is made, and its node is
    marked as having rows once the pass has succeeded. A node that had
    rows and is computed again gets the same bits.
    """

    def __init__(self, cache, cfg, chunk, ends):
        states = [c.tobytes() for c in (chunk if chunk.ndim == 3 else [chunk])]
        if any(made != s for made, s in zip(cache.chunks, states)):
            raise ProtocolError("the DecoderCache's chunk tiers hold other chunks' rows: "
                                "call next_chunk before a pass on the next chunk")
        cache.chunks += states[len(cache.chunks):]
        cache._make(cfg, len(states))
        self.cache, self.last, self.stack = cache, cfg.n_dec_blocks - 1, chunk.ndim == 3
        n, c = len(cache.nodes), len(states)
        self.n, self.c, self.ends = n, c, ends
        anc, tiers = cache.anc, cache.tiers
        nodes = np.array(sorted(set(ends)), dtype=np.intp)
        read = np.logical_and.reduce(tiers["read"][:c].take(nodes, 1), axis=0)
        self.ask = self.todo = self.fresh = _two(nodes[~read])
        if len(self.ask) and self.last >= 0:
            # ask and its ancestors: every ancestor of todo, which holds ask
            up = np.logical_or.reduce(anc.take(self.ask, 0)[:, :n], axis=0)
            if self.last > 0:
                todo = up & ~np.logical_and.reduce(tiers["have"][:c, :n], axis=0)
                todo[self.ask] = True
                self.todo = todo.nonzero()[0]
            self.fresh = _two((up & ~cache.session["held"][:n]).nonzero()[0])
        self.depth = cache.depth

    def keys(self, i, k, v):
        """Every node's keys and values of block i: k and v in the rows the
        pass computes, the cache's in the others."""
        n, out = self.n, []
        for name, t in ((f"k{i}", k), (f"v{i}", v)):
            if i == 0:
                rows = self.cache.session[name]
                rows[self.fresh] = t.data
            else:
                rows = self.cache.tiers[name][:self.c]
                rows[:, self.todo] = t.data
                rows = rows if self.stack else rows[0]
            out.append(Tensor(rows[..., :n, :]))
        return out

    def queries(self, i, h, n):
        """The residual, normed input and mask rows of block i's self-attention queries."""
        if i == 0:
            return h, n, self.cache.anc.take(self.fresh, 0)[:, :self.n]
        mask = self.cache.anc.take(self.todo, 0)[:, :self.n]
        if i < self.last or len(self.todo) == len(self.ask):  # todo holds ask
            return h, n, mask
        at = np.searchsorted(self.todo, self.ask)
        return Tensor(h.data[..., at, :]), Tensor(n.data[..., at, :]), mask[at]

    def residual(self, h):
        """Block 0's self-attention output of todo: h in fresh, the cache's elsewhere."""
        rows = self.cache.session["a0"]
        if h is not None:
            rows[self.fresh] = h.data
        return Tensor(rows.take(self.todo, 0))

    def outputs(self, out=None):
        """Add out, the output rows of ask, to the cache and mark the pass's
        nodes; then return the output rows of ends, (chunks, len(ends), vocab)."""
        tiers, c = self.cache.tiers, self.c
        if out is not None:
            tiers["out"][:c, self.ask] = out.data
            tiers["have"][:c, self.todo] = tiers["read"][:c, self.ask] = True
            self.cache.session["held"][self.fresh] = True
        return tiers["out"][:c].take(self.ends, 1)


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
        ids = np.asarray(prefix_ids)
        if ids.dtype.kind not in "iu" or (ids < 0).any() or (ids >= self.cfg.vocab_size).any():
            raise VocabError(f"prefix ids must be integers in the vocabulary, got {ids!r}")
        return ids.astype(np.intp, copy=False)

    def _decode(self, ids, chunk_states, cross_mask=True, rows=None):
        """Decoder blocks over ids of shape (..., P) -> (..., P, vocab) log-softmax.

        Row j attends to rows 0..j and sits at position j (_EveryRow), so it
        depends on its ancestors' ids and the chunk alone, and right padding
        reaches no real row. cross_mask broadcasts against the (...,
        heads, P, W) cross-attention scores; chunk positions it marks False
        get exactly zero attention. rows, a _TriePass of a decoder_steps
        pass (under no_grad), has the blocks compute only the rows that its
        DecoderCache lacks, each node under its ancestor row and at its
        depth, the others' keys and values coming from the cache, and the
        output is ask's rows, (..., len(ask), vocab).
        """
        rows = rows or _EveryRow(ids.shape[-1])
        h, at = None, rows.fresh
        if len(at):
            h = _checked("dec.embed", ad.take(self.params["dec.embed"], ids[..., at]) + Tensor(
                self._depth_positions(rows.depth[at])))
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

        The pass runs a DecoderCache's prefix trie, without one a trie of the
        prefixes alone, as one sequence under its ancestor mask, so a symbol
        that several prefixes share, and a prefix repeated, is scored once.
        The last block carries on only the distinct last nodes, the rows
        read. chunk_states is one (W', d_model) chunk, and the result an (n,
        vocab_size) numpy array; or a (C, W', d_model) stack of C chunks, and
        the result (C, n, vocab_size), the rows against each chunk. The trie
        stays one sequence, so block 0's self-attention runs once and the
        chunk axis starts at its cross-attention. Anything else is a
        ShapeError. Each prefix must start with the start symbol
        (ContractError), and each id the trie adds must be an integer in the
        vocabulary (VocabError), checked as its node is added.

        With a cache, the pass computes only the rows it lacks (_TriePass):
        block 0's self-attention on the nodes new to the session, the rest on
        the nodes new to a chunk, the output on the read nodes new to a
        chunk; it adds them to the cache. A pass that finds every row
        computes nothing. The cache's first C chunk tiers must be the C
        chunks', so a pass on other chunk states than the tiers were made
        for is a ProtocolError: call cache.next_chunk between chunks.

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
        start, V = self.vocab.start_id, self.cfg.vocab_size
        prefixes = [tuple(pre) for pre in prefixes]
        if not all(len(pre) and pre[0] == start for pre in prefixes):
            raise ContractError("decoder prefix must start with the blank start symbol")
        cache = cache or DecoderCache()
        ends = [cache.number(pre, V) for pre in prefixes]
        if len(cache.nodes) == 1:  # a trie of the start node alone gets a second node
            cache.number((start, start), V)
        rows = _TriePass(cache, self.cfg, chunk.data, ends)
        out = None
        if len(rows.ask):
            with ad.no_grad():
                out = self._decode(cache.ids[:rows.n], chunk, rows=rows)
        out = rows.outputs(out)
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
