"""Streaming chunk-transducer network.

Convolutional front end (two stride-2 time convolutions, ReLU, sinusoidal
positions), a left-context-masked pre-norm transformer encoder, and a
decoder whose cross-attention sees exactly one encoded chunk at a time.
The decoder output is a log-distribution over vocabulary + blank, from
which the training lattice tables are extracted by teacher forcing. A
whole batch is scored in one padded pass: the utterances' frames are
right-padded and encoded together, and one decoder pass scores every
label prefix against every chunk of its utterance. Block 0 up to its
cross-attention query reads the prefix alone, so that pass runs it once
per utterance and gathers its rows to the utterance's chunks only where
block 0 first reads the chunk (``log_prob_table``).
``parameter_table`` is the one list of parameter names and shapes; the
initializer walks it and the model checks given parameters against it.

The decoder's memory, each block's cross-attention keys and values of the
chunk (``_memory``), is an argument of the one block loop (``_decode``),
which teacher forcing runs on every row (``_EveryRow``) and a search pass
(``decoder_steps``) on the rows its decoder cache lacks (``decoder_cache``).

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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import chunking
from .chunking import (FRONT_END_KERNEL, FRONT_END_STRIDE, ChunkGeometry, as_frames,
                       left_context_mask)
from .decoder_cache import DecoderCache
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


@dataclass
class EncoderCache:
    """A stream's encoder state: start, the first encoded position not yet
    final, and per encoder block the ln1 rows of the last left_context before it."""
    start: int = 0
    rows: list = field(default_factory=list)


class _EveryRow:
    """The rows a decoder pass without a cache computes: all P of them, row j
    under the chain mask at position j.

    With chunk_of, the ids hold one row of prefixes per utterance, and
    chunk_of[c] is the utterance of chunk c, memory's batch entry c: block 0
    runs up to its cross-attention query per utterance, and ``chunked``
    gathers its rows to the chunks there.
    """

    def __init__(self, P, chunk_of=None):
        self.fresh = self.depth = np.arange(P)
        self.mask = left_context_mask(P, P)
        self.chunk_of = chunk_of

    def keys(self, i, k, v):
        return k, v

    def queries(self, i, h, n):
        return h, n, self.mask

    def residual(self, h):
        return h

    def chunked(self, t):
        """t, rows by utterance, as the rows of each chunk."""
        return t if self.chunk_of is None else ad.take(t, self.chunk_of)


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
        x, need = as_frames(x, self.cfg.d_in), chunking.first_frame(1)
        if start == 0 and x.shape[0] < need:
            raise EmptyInputError(f"need at least {need} frames, got {x.shape[0]}")
        return x

    def front_end(self, x, lengths=None, start=0):
        """Raw frames (T, d_in) -> encoded inputs (L, d_model).

        With start, x is a stream's raw frames from frame first_frame(start)
        on, and the output is positions start onward.

        With lengths, x is instead N utterances' frames right-padded with zeros
        to (N, T, d_in), lengths[n] (at least first_frame(1)) the frame
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
            live = np.arange(h.shape[-2]) < chunking.conv_len(np.asarray(lengths)[:, None])
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
    # against one (W, d) chunk, and teacher forcing passes (N, U+1, d)
    # prefixes, gathered to (sum of M, U+1, d) at block 0's cross-attention,
    # against (sum of M, W, d) chunks.

    def _linear(self, prefix, x, suffix=""):
        p = self.params
        return ad.linear(x, p[f"{prefix}.w{suffix}"], p[f"{prefix}.b{suffix}"])

    def _kv(self, prefix, x):
        return self._linear(prefix, x, "k"), self._linear(prefix, x, "v")

    def _mha(self, prefix, q_in, kv_in, mask):
        return self._attend(prefix, self._linear(prefix, q_in, "q"), *self._kv(prefix, kv_in),
                            mask)

    def _attend(self, prefix, q, k, v, mask):
        """Attention of the projected queries q over k and v, then the output projection."""
        try:
            context = ad.attention(q, k, v, mask, self.cfg.n_heads)
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
        chunking.first_frame(cache.start) on, the output is positions
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
            cache.start = chunking.final_len(chunking.first_frame(start) + len(x))
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

    def _memory(self, chunks):
        """Each decoder block's cross-attention keys and values of chunks, (k, v) pairs."""
        return [self._kv(f"dec.{i}.cross_attn", chunks) for i in range(self.cfg.n_dec_blocks)]

    def _decode(self, ids, memory, cross_mask=True, rows=None):
        """Decoder blocks over ids of shape (..., P) -> (..., P, vocab) log-softmax.

        memory is each block's cross-attention keys and values of the chunk
        (_memory). Row j attends to rows 0..j and sits at position j
        (_EveryRow), so it depends on its ancestors' ids and the chunk alone,
        and right padding reaches no real row. cross_mask broadcasts against
        the (..., heads, P, W) cross-attention scores; chunk positions it marks
        False get exactly zero attention. rows, a decoder cache's pass
        (decoder_cache._TriePass, under no_grad), has the blocks compute only
        the rows the cache lacks, each node under its ancestor row and at its
        depth, with the other nodes' keys and values from the cache; the
        output is then the rows of its read nodes that the cache lacks.
        Block 0's residual and query rows pass rows.chunked where its
        cross-attention first reads the chunk, the embedding's when there is
        no block: an _EveryRow with chunk_of gathers them there (teacher forcing).
        """
        rows = rows or _EveryRow(ids.shape[-1])
        h, at = None, rows.fresh
        if len(at):
            h = _checked("dec.embed", ad.take(self.params["dec.embed"], ids[..., at]) + Tensor(
                self._depth_positions(rows.depth[at])))
        if not self.cfg.n_dec_blocks:
            h = rows.chunked(h)
        for i in range(self.cfg.n_dec_blocks):
            sa, ca = f"dec.{i}.self_attn", f"dec.{i}.cross_attn"
            if h is not None:  # none when block 0 has no fresh row
                n = self._ln(f"dec.{i}.ln1", h)
                k, v = rows.keys(i, *self._kv(sa, n))
                h, n, mask = rows.queries(i, h, n)
                h = _checked(sa, h + self._attend(sa, self._linear(sa, n, "q"), k, v, mask))
            if i == 0:
                h = rows.residual(h)
            q = self._linear(ca, self._ln(f"dec.{i}.ln2", h), "q")
            if i == 0:
                h, q = rows.chunked(h), rows.chunked(q)
            h = _checked(ca, h + self._attend(ca, q, *memory[i], cross_mask))
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
        return self._decode(self._check_prefix(prefix_ids), self._memory(chunk_states))

    @_quiet
    def decoder_steps(self, prefixes, chunk_states, cache=None):
        """Next-symbol log-distributions for n prefixes in one decoder pass.

        The pass runs a DecoderCache's prefix trie, without one a trie of the
        prefixes alone, as one sequence under its ancestor mask, so a symbol
        that several prefixes share, and a prefix repeated, is scored once.
        The last block carries on only the distinct last nodes, the rows
        read. chunk_states is one (W', d_model) chunk, anything else a
        ShapeError, and the result an (n, vocab_size) numpy array. Each
        prefix must start with the start symbol (ContractError), and each id
        the trie adds must be an integer in the vocabulary (VocabError),
        checked as its node is added.

        With a DecoderCache, the pass computes only the rows the cache lacks
        and adds them there, so a pass that finds every row computes nothing.
        The cache's chunk tier must be the chunk's, so a pass on other chunk
        states than the tier was made for is a ProtocolError: call
        cache.next_chunk between chunks.

        Batch-invariant: row i is bitwise equal to decoder_steps([prefixes[i]],
        chunk_states)[0], cache or none (decoder_cache says why). Rows equal
        decoder_forward(...)[-1] up to summation order.
        """
        chunk = ad._as_tensor(chunk_states)
        d = self.cfg.d_model
        if chunk.data.ndim != 2 or chunk.shape[-1] != d or not chunk.data.size:
            raise ShapeError(f"chunk states must be (W', {d}), got {chunk.shape}")
        if len(prefixes) == 0:
            raise ContractError("decoder_steps needs at least one prefix")
        prefixes = [tuple(pre) for pre in prefixes]
        if not all(len(pre) and pre[0] == self.vocab.start_id for pre in prefixes):
            raise ContractError("decoder prefix must start with the blank start symbol")
        return (cache or DecoderCache(self.cfg)).steps(self, prefixes, chunk.data)

    def decoder_step(self, prefix_ids, chunk_states):
        """Log-distribution (numpy vector) for the next symbol."""
        return self.decoder_steps([prefix_ids], chunk_states)[0]

    # -- training surface ---------------------------------------------------

    @_quiet
    def log_prob_table(self, batch):
        """The decoder's teacher-forced log-probabilities for (features, labels)
        pairs, in one padded pass: (table, cells).

        table is a (sum of M, max U + 1, vocab_size) Tensor, one row per chunk
        of every utterance in batch order. cells holds per pair a (blank,
        label) pair of indices into table: table[blank] is the pair's (M, U+1)
        blank_lp and table[label] its (M, U) label_lp. The frames are
        right-padded and encoded as one batch. The decoder runs block 0 up to
        its cross-attention query once per utterance, on the (N, max U + 1)
        padded prefixes, and the rest once per chunk (_EveryRow). Padded
        labels come after the real ones, so the causal self-attention mask
        hides them. A truncated last chunk is padded to W states and the
        cross-attention mask hides the padding. Padding gets exactly zero
        attention and zero gradient.
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
        ids = _right_pad(prefixes, self.vocab.start_id)
        table = self._decode(ids, self._memory(chunks), valid[:, None, None, :],
                             _EveryRow(ids.shape[-1], utt))
        ends, blank = np.cumsum(M), self.vocab.blank_id
        return table, [((slice(a, b), slice(None, len(p)), blank),
                        (slice(a, b), np.arange(len(p) - 1), p[1:]))
                       for a, b, p in zip(ends - M, ends, prefixes)]

    def lattice_probs(self, batch):
        """Teacher-forced lattice tables for (features, labels) pairs, in one padded pass.

        Returns one (blank_lp, label_lp) pair of Tensors per pair, of shapes
        (M, U+1) and (M, U): the cells of log_prob_table that the lattice reads.
        """
        table, cells = self.log_prob_table(batch)
        return [(table[blank], table[label]) for blank, label in cells]

    def sequence_nlls(self, batch):
        """Negative log-probability of each y given its x (scalar Tensors), in one padded pass."""
        return [lattice_nll(blank_lp, label_lp) for blank_lp, label_lp in self.lattice_probs(batch)]

    def sequence_nll(self, x, y_ids):
        """Negative log-probability of y given x (scalar Tensor)."""
        return self.sequence_nlls([(x, y_ids)])[0]
