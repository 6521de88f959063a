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


def _prefix_trie(rows):
    """Id sequences as one trie: (node ids, ancestor mask, each row's last node).

    There is one node per distinct prefix of a row, keyed by (parent node,
    id) and numbered in walk order, so every ancestor precedes its
    descendants; equal rows share their nodes. mask[j, i] is True iff node
    i is node j or an ancestor of it, so row j is its parent's row plus j.
    """
    nodes, ends = {}, []
    for row in rows:
        node = -1
        for tok in row:
            node = nodes.setdefault((node, tok), len(nodes))
        ends.append(node)
    # walk order sets a parent's row before any child copies it; a root's parent is -1
    mask = np.eye(len(nodes), dtype=bool)
    for (parent, _tok), node in nodes.items():
        if parent >= 0:
            mask[node] |= mask[parent]
    ids = np.array([tok for _parent, tok in nodes], dtype=np.intp)
    return ids, mask, np.array(ends)


@dataclass
class EncoderCache:
    """A stream's encoder state: start, the first encoded position not yet
    final, and per encoder block the ln1 rows of the last left_context before it."""
    start: int = 0
    rows: list = field(default_factory=list)


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
        q = self._linear(prefix, q_in, "q")
        k = self._linear(prefix, kv_in, "k")
        v = self._linear(prefix, kv_in, "v")
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

    def _decode(self, ids, chunk_states, cross_mask=True, self_mask=None, read=None):
        """Decoder blocks over ids of shape (..., P) -> (..., P, vocab) log-softmax.

        self_mask is a (P, P) ancestor mask, by default the chain
        left_context_mask(P, P); a row sits at position (rows it sees) - 1.
        Row j depends on its ancestors' ids and the chunk alone, so right
        padding reaches no real row. cross_mask broadcasts against the (...,
        heads, P, W) cross-attention scores; chunk positions it marks False
        get exactly zero attention. With read, row indices, the last block
        carries only the read rows past its keys and values, outside the
        autodiff graph (decoder_steps runs it under no_grad), and the output
        is (..., len(read), vocab).
        """
        if self_mask is None:
            self_mask = left_context_mask(ids.shape[-1], ids.shape[-1])
        h = _checked("dec.embed", ad.take(self.params["dec.embed"], ids) + Tensor(
            self._depth_positions(np.count_nonzero(self_mask, axis=-1) - 1)))
        last = self.cfg.n_dec_blocks - 1
        if read is not None and last < 0:
            h = Tensor(h.data[..., read, :])
        for i in range(self.cfg.n_dec_blocks):
            n = q_in = self._ln(f"dec.{i}.ln1", h)
            if read is not None and i == last:
                h, q_in = Tensor(h.data[..., read, :]), Tensor(n.data[..., read, :])
                self_mask = self_mask[read]
            h = _checked(f"dec.{i}.self_attn",
                         h + self._mha(f"dec.{i}.self_attn", q_in, n, self_mask))
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
    def decoder_steps(self, prefixes, chunk_states):
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

        Batch-invariant: row i is bitwise equal to decoder_steps([prefixes[i]],
        chunk_states)[0], and row [c, i] of a stack to decoder_steps(prefixes,
        chunk_states[c])[i]. Masked keys add exact zeros to the softmax's
        sequential sum, a node's ancestors keep their depth order, and a
        stack's products run one chunk's matrix at a time. At least two nodes
        and two read rows keep every row a row of a matrix product, off
        BLAS's matrix-vector path, which sums in another order. Rows equal
        decoder_forward(...)[-1] up to summation order.
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
        ids, mask, ends = _prefix_trie(rows)
        if ids.min() < 0 or ids.max() >= self.cfg.vocab_size:  # every prefix id, once
            raise VocabError("prefix id out of vocabulary")
        read, back = np.unique(ends[:len(prefixes)], return_inverse=True)
        if len(read) == 1:  # and one read row a second
            read = np.append(read, int(read[0] == 0))
        with ad.no_grad():
            out = self._decode(ids, chunk, self_mask=mask, read=read).data[..., back, :]
        if out.ndim < chunk.data.ndim:  # no decoder block reads the chunks
            out = np.stack([out] * len(chunk.data))
        return out

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
