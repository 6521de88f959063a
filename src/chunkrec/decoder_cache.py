"""The search's decoder cache: a decode's prefix trie and each trie node's
decoder keys and values, so that a search pass computes only those it lacks.

The trie is a node table. ``nodes`` maps each prefix the cache holds, a
tuple of ids, to its node number; ``ids[j]`` is node j's last id,
``depth[j]`` its length less one (its position), and ``anc[j, i]`` is True
iff node i is node j or an ancestor of it. A node is added from its
parent's entry, after its parent, so ancestors are numbered before
descendants, and its id is checked once, as it is added. The root, the
start symbol, is node 0. Every array is indexed by node number and is zero
past the nodes. A pass finds its nodes with one dict lookup per prefix,
and its rows, masks and positions with a fixed number of array operations.

Block 0 up to its cross-attention query depends on the prefix alone and
everything after it on the prefix and the chunk. So the session tier holds
each node's block-0 self-attention keys and values, residual output and
cross-attention query ("k0", "v0", "a0", "q0") for the whole decode, and
"held" marks the nodes that have them. The chunk tier (``tier``) holds
each node's self-attention keys and values of every later block against
the chunk being searched, and "have" marks the nodes that have them.
``chunk`` holds the bytes of that chunk's states, and ``cross`` each
decoder block's cross-attention keys and values of it, a (k, v) pair of
(W', d_model) Tensors: the first pass on a chunk makes them, once, and
``next_chunk`` drops them with the tier's rows. A pass on other states is
a ProtocolError, so no row is read against a chunk it was not made for.

A pass (``steps``) runs the trie as one sequence, each node under its
ancestor row and at its depth, through the model's block loop
(``_decode``), and computes only the rows the cache lacks (``_TriePass``):
block 0 up to its cross-attention query on the nodes new to the session,
the rest on the nodes new to the chunk, and the last block's queries and
the output on the read nodes, in every pass. A computed row goes into its
tier as it is made, and its node is marked as having it once the pass has
succeeded. A row the cache holds is bitwise the row the pass would
compute: masked keys add exact zeros to the softmax's sequential sum, a
node's ancestors keep their depth order, and every computed row set has
at least two rows (``_two``), which keeps each row a row of a matrix
product, off BLAS's matrix-vector path, which sums in another order.
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


def _kept(tier, name, at, t):
    """tier[name], with t's rows written in its rows at unless t is None."""
    if t is not None:
        tier[name][at] = t.data
    return tier[name]


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
        names = ("k0", "v0", "a0", "q0") if self.blocks else ()
        self.session = {name: np.zeros((size, d)) for name in names}
        self.session["held"] = np.zeros(size, dtype=bool)
        self.tier = {f"{kv}{i}": np.zeros((size, d)) for i in range(1, self.blocks) for kv in "kv"}
        self.tier["have"] = np.zeros(size, dtype=bool)
        self.chunk, self.cross = None, []

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
        self.tier = {name: _grown(a, 0, size) for name, a in self.tier.items()}

    def steps(self, model, prefixes, chunk):
        """model.decoder_steps(prefixes, chunk, self) once its arguments are
        checked: prefixes are tuples, chunk a (W', d_model) array.
        ProtocolError if the chunk tier is another chunk's."""
        ends = [self.number(pre) for pre in prefixes]
        if len(self.nodes) == 1:  # a trie of the start node alone gets a second node
            self.number((model.vocab.start_id,) * 2)
        state = chunk.tobytes()
        if self.chunk is not None and self.chunk != state:
            raise ProtocolError("the DecoderCache's chunk tier holds another chunk's rows: "
                                "call next_chunk before a pass on the next chunk")
        with ad.no_grad():
            if self.chunk is None:  # make the tier's cross-attention keys
                self.cross, self.chunk = model._memory(chunk), state
            rows = _TriePass(self, ends)
            return rows.outputs(model._decode(self.ids[:rows.n], self.cross, rows=rows))

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
        for a in self.tier.values():
            a[:n] = 0
        self.chunk, self.cross = None, []


class _TriePass:
    """The rows a pass over a DecoderCache's trie computes, as _decode reads them.

    ask: the distinct read nodes (ends); they run the last block's queries
    and the output. todo: ask and its ancestors that lack the chunk tier's
    rows; they run everything from block 0's cross-attention on. fresh:
    todo and its ancestors that the session lacks; they run block 0 up to
    its cross-attention query. ask and todo are at least two nodes (_two),
    fresh empty or at least two. _decode calls attending once per block and
    chunked once, where block 0 meets the chunk.
    """

    def __init__(self, cache, ends):
        self.cache, self.last, self.ends = cache, cache.blocks - 1, ends
        n = self.n = len(cache.nodes)
        self.ask = self.todo = self.fresh = _two(np.array(sorted(set(ends)), dtype=np.intp))
        if self.last >= 0:
            # ask and its ancestors: every ancestor of todo, which holds ask
            up = np.logical_or.reduce(cache.anc.take(self.ask, 0)[:, :n], axis=0)
            if self.last > 0:
                todo = up & ~cache.tier["have"][:n]
                todo[self.ask] = True
                self.todo = todo.nonzero()[0]
            self.fresh = _two((up & ~cache.session["held"][:n]).nonzero()[0])
        self.depth = cache.depth

    def attending(self, i, h, n, k, v):
        """Block i's self-attention: the residual, normed input and mask rows
        of its queries, and every node's keys and values, k and v in the rows
        the pass computes and the cache's in the others."""
        tier, at = (self.cache.session, self.fresh) if i == 0 else (self.cache.tier, self.todo)
        k, v = [Tensor(_kept(tier, name, at, t)[:self.n])
                for name, t in ((f"k{i}", k), (f"v{i}", v))]
        mask = self.cache.anc.take(at, 0)[:, :self.n]
        if 0 < i == self.last and len(self.todo) > len(self.ask):  # the last block's: ask's
            at = np.searchsorted(self.todo, self.ask)
            h, n, mask = Tensor(h.data[at]), Tensor(n.data[at]), mask[at]
        return h, n, k, v, mask

    def chunked(self, h, q):
        """Block 0's residual and cross-attention query rows of todo: h and q
        in fresh, the session's elsewhere; with no block, h and q as they are."""
        if self.last < 0:
            return h, q
        return [Tensor(_kept(self.cache.session, name, self.fresh, t).take(self.todo, 0))
                for name, t in (("a0", h), ("q0", q))]

    def outputs(self, out):
        """Mark the pass's nodes as having their rows, and return the output
        rows of ends from out, the output rows of ask: (len(ends), vocab)."""
        self.cache.tier["have"][self.todo] = self.cache.session["held"][self.fresh] = True
        return out.data.take(np.searchsorted(self.ask, self.ends), 0)
