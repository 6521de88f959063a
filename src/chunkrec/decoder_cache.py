"""The search's decoder cache: a decode's prefix trie and each trie node's
decoder rows, so that a search pass computes only the rows it lacks.

The trie is a node table. ``nodes`` maps each prefix the cache holds, a
tuple of ids, to its node number; ``ids[j]`` is node j's last id,
``depth[j]`` its length less one (its position), and ``anc[j, i]`` is True
iff node i is node j or an ancestor of it. A node is added from its
parent's entry, after its parent, so ancestors are numbered before
descendants, and its id is checked once, as it is added. The root, the
start symbol, is node 0. Every array is indexed by node number and is zero
past the nodes. A pass finds its nodes with one dict lookup per prefix,
and its rows, masks and positions with a fixed number of array operations.

Block 0's self-attention depends on the prefix alone and everything after
it on the prefix and the chunk. So the session tier holds each node's
block-0 self-attention keys, values and residual output ("k0", "v0",
"a0") for the whole decode, and "held" marks the nodes that have them. A
chunk tier holds each node's self-attention keys and values of every later
block against the tier's chunk, and the output row of each node a pass
read; "have" and "read" mark the nodes that have the former and the
latter. The chunk tiers are the chunk being searched, then the next (the
look-ahead's). ``cross`` holds each decoder block's cross-attention keys
and values of the tiers' chunks, a [k, v] pair of (tiers, W', d_model)
arrays: a tier is made, its keys with it, once, before the first pass that
reads it, and they leave with it (``next_chunk``). ``chunks`` holds the
bytes of each tier's chunk states, and a pass on other states is a
ProtocolError, so no row is read against a chunk it was not made for.

A pass (``steps``) runs the trie as one sequence, each node under its
ancestor row and at its depth, through the model's block loop
(``_decode``), and computes only the rows its tiers lack (``_TriePass``):
block 0's self-attention on the nodes new to the session, the rest on the
nodes new to a chunk, and the output on the read nodes new to a chunk. A
computed row goes into its tier as it is made, and its node is marked as
having it once the pass has succeeded. A row the cache holds is bitwise
the row the pass would compute: masked keys add exact zeros to the
softmax's sequential sum, a node's ancestors keep their depth order, a
stack's products run one chunk's matrix at a time, and every computed row
set has at least two rows (``_two``), which keeps each row a row of a
matrix product, off BLAS's matrix-vector path, which sums in another order.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ProtocolError, VocabError


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


def _two(nodes):
    """Sorted trie nodes, with a second if there is one: the root, or its first
    child (node 1) if nodes is the root. Neither has an ancestor outside the
    other."""
    return np.array([0, max(1, nodes[0])], dtype=np.intp) if len(nodes) == 1 else nodes


class DecoderCache:
    """A decode's prefix trie and its decoder rows, shaped by cfg, a ModelConfig."""

    def __init__(self, cfg):
        size, d = 64, cfg.d_model
        self.blocks, self.vocab_size, self.nodes = cfg.n_dec_blocks, cfg.vocab_size, {}
        self.ids, self.depth = np.zeros(size, dtype=np.intp), np.zeros(size, dtype=np.intp)
        self.anc = np.zeros((size, size), dtype=bool)
        names = ("k0", "v0", "a0") if self.blocks else ()
        self.session = {name: np.zeros((size, d)) for name in names}
        self.session["held"] = np.zeros(size, dtype=bool)
        widths = {f"{kv}{i}": d for i in range(1, self.blocks) for kv in "kv"}
        self.tiers = {name: np.zeros((1, size, width))
                      for name, width in {**widths, "out": cfg.vocab_size}.items()}
        self.tiers.update(have=np.zeros((1, size), dtype=bool),
                          read=np.zeros((1, size), dtype=bool))
        self.chunks, self.cross = [], []

    def _deepest(self, prefix):
        """(k, node): the longest start prefix[:k] of prefix, a tuple, that the
        trie holds, and its node (-1 for k = 0)."""
        for k in range(len(prefix), 0, -1):
            number = self.nodes.get(prefix[:k])
            if number is not None:
                return k, number
        return 0, -1

    def number(self, prefix):
        """The node number of prefix, a tuple, after adding the nodes it lacks;
        VocabError, with none of them added, for an id to add that is not an
        integer in the vocabulary."""
        known, number = self._deepest(prefix)
        if known == len(prefix):
            return number
        if not all((type(t) is int or isinstance(t, np.integer)) and 0 <= t < self.vocab_size
                   for t in prefix[known:]):
            raise VocabError(f"prefix ids {prefix[known:]!r} are not integers in the "
                             f"vocabulary [0, {self.vocab_size})")
        n = len(self.nodes)
        if n + len(prefix) - known > len(self.ids):
            self._grow(max(n + len(prefix) - known, 2 * len(self.ids)))
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

    def steps(self, model, prefixes, chunk):
        """model.decoder_steps(prefixes, chunk, self) once its arguments are
        checked: prefixes are tuples, chunk a (W', d_model) or (C, W', d_model)
        array. ProtocolError if the first chunk tiers are other chunks'."""
        ends = [self.number(pre) for pre in prefixes]
        if len(self.nodes) == 1:  # a trie of the start node alone gets a second node
            self.number((model.vocab.start_id,) * 2)
        stack = chunk if chunk.ndim == 3 else chunk[None]
        states = [c.tobytes() for c in stack]
        if any(made != s for made, s in zip(self.chunks, states)):
            raise ProtocolError("the DecoderCache's chunk tiers hold other chunks' rows: "
                                "call next_chunk before a pass on the next chunk")
        old = len(self.chunks)
        with ad.no_grad():
            if old < len(states):  # make the tiers the cache lacks, with their keys
                if len(states) > len(self.tiers["out"]):
                    self.tiers = {name: _grown(a, 0, len(states))
                                  for name, a in self.tiers.items()}
                new = [[t.data for t in kv] for kv in model._memory(stack[old:])]
                self.cross = [[np.concatenate(pair) for pair in zip(*kvs)]
                              for kvs in zip(self.cross, new)] if old else new
                self.chunks += states[old:]
            memory = [[Tensor(a[:len(states)] if chunk.ndim == 3 else a[0]) for a in kv]
                      for kv in self.cross]
            rows = _TriePass(self, chunk, ends)
            out = model._decode(self.ids[:rows.n], memory, rows=rows) if len(rows.ask) else None
        out = rows.outputs(out)
        return out if chunk.ndim == 3 else out[0]

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
        self.cross = [[a[1:] for a in kv] for kv in self.cross]


class _TriePass:
    """The rows a pass over a DecoderCache's trie computes, as _decode reads them.

    ask: the read nodes (ends) that lack an output row in a chunk tier of the
    pass; they run the last block's queries and the output. todo: ask and
    its ancestors that lack a chunk tier's rows; they run everything from
    block 0's cross-attention on. fresh: todo and its ancestors that the
    session lacks; they run block 0's self-attention. Each is empty or at
    least two nodes (_two).
    """

    def __init__(self, cache, chunk, ends):
        self.cache, self.last, self.stack = cache, cache.blocks - 1, chunk.ndim == 3
        n, c = len(cache.nodes), len(chunk) if self.stack else 1
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

    def chunked(self, t):
        """t: the trie's rows broadcast against every chunk of the pass."""
        return t

    def outputs(self, out=None):
        """Add out, the output rows of ask, to the cache and mark the pass's
        nodes; then return the output rows of ends, (chunks, len(ends), vocab)."""
        tiers, c = self.cache.tiers, self.c
        if out is not None:
            tiers["out"][:c, self.ask] = out.data
            tiers["have"][:c, self.todo] = tiers["read"][:c, self.ask] = True
            self.cache.session["held"][self.fresh] = True
        return tiers["out"][:c].take(self.ends, 1)
