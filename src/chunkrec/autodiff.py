"""Minimal dense-tensor autodiff on numpy.

Reverse-mode only, covering exactly the operations the streaming transducer
model needs: linear (x @ w + b), multi-head attention (with a masked
softmax inside), layer norm, GLU, ReLU, time-axis convolution and indexing
(``take``, which is also the embedding lookup), plus the add, mul and
sum that losses and gradient checks compose. ``+``, ``*`` and ``[]`` on a
Tensor are add, mul (a scalar as a 0-d tensor) and take.
Attention and linear layers are single ops with hand-written backward
passes, because on a small model each op costs mostly Python overhead.
Every tensor is float64. Broadcasting is limited to leading batch
dimensions (a parameter of shape (d,) may be added to a (..., d)
activation); a size-1 axis is never stretched, and anything fancier is a
deliberate non-goal.

Ops do not check their outputs for finiteness: on a small model a scan
per op is a large share of each op's cost. The model checks whole tensors
at its sub-layer boundaries instead, where a ``NumericError`` can name the
sub-layer (``model.py``). The one scan left here is ``attention``'s, of
its scores, because the masked softmax drops a masked score whatever its
value, so a non-finite score there would vanish before any later check
could see it. ``check_finite`` is the scan both use.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import (ContractError, EmptyInputError, InvalidMaskError,
                     NumericError, ShapeError)

# Flipped off inside no_grad(); ops then skip recording backward closures.
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense real tensor, optionally tracking gradients.

    ``data`` is immutable by convention once the tensor has been produced by
    a forward op; ``grad`` accumulates across backward() calls until
    zero_grad() resets it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

    # -- graph construction -------------------------------------------------

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        self.grad += g

    def backward(self):
        """Populate grads of every requires_grad leaf reachable from self.

        Leaves are tensors no op produced (no ``_backward``), such as
        parameters; intermediate tensors get no ``.grad``. self must be
        scalar. Repeated calls accumulate into existing grads.
        """
        if self.data.shape != ():
            raise ContractError(f"backward requires a scalar, got shape {self.data.shape}")
        order = _toposort(self)
        grads = {id(self): np.ones((), dtype=self.data.dtype)}
        # every node after self is a parent of an earlier one, and each op's
        # backward returns one gradient per parent, so every pop finds one
        for t in order:
            g = grads.pop(id(t))
            if t._backward is None:
                if t.requires_grad:
                    t._accumulate(g)
            else:
                for parent, pg in zip(t._parents, t._backward(g)):
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + pg
                    else:
                        grads[id(parent)] = pg

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def check_finite(data, where):
    """Raise NumericError naming where unless every entry of data is finite."""
    if not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise NumericError(f"non-finite value in {where}")


def _make(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._backward is not None for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = any(p.requires_grad for p in parents)
    return out


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (leading-batch broadcasting only)."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    return g


# -- arithmetic -------------------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(data, (a, b), bwd)


def linear(x, w, b):
    """x @ w + b for x of shape (..., t, d_in), w (d_in, d_out) and b (d_out,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeError(f"linear shapes disagree: {x.data.shape} @ {w.data.shape} "
                         f"+ {b.data.shape}")
    data = np.matmul(x.data, w.data)
    np.add(data, b.data, out=data)

    def bwd(g):
        d_in, d_out = w.data.shape
        gw = x.data.reshape(-1, d_in).T @ g.reshape(-1, d_out)
        return np.matmul(g, w.data.T), gw, _unbroadcast(g, b.data.shape)

    return _make(data, (x, w, b), bwd)


def tsum(a):
    """Sum of every entry, a scalar."""
    a = _as_tensor(a)

    def bwd(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(a.data.sum(), (a,), bwd)


# -- nonlinearities ---------------------------------------------------------


def relu(a):
    a = _as_tensor(a)
    pos = a.data > 0

    def bwd(g):
        return (g * pos,)

    return _make(np.where(pos, a.data, 0.0), (a,), bwd)


def glu(a):
    """Gated linear unit over the last axis: first half * sigmoid(second half)."""
    a = _as_tensor(a)
    d2 = a.data.shape[-1]
    if d2 % 2 != 0:
        raise ShapeError(f"glu needs an even last dimension, got {d2}")
    d = d2 // 2
    x, gate = a.data[..., :d], a.data[..., d:]
    s = np.negative(gate)  # 1 / (1 + exp(-gate)), in place
    np.exp(s, out=s)
    np.add(s, 1.0, out=s)
    np.divide(1.0, s, out=s)
    data = x * s

    def bwd(g):
        ga = np.empty_like(a.data)
        ga[..., :d] = g * s
        ga[..., d:] = g * x * s * (1.0 - s)
        return (ga,)

    return _make(data, (a,), bwd)


def _softmax_forward(scores, mask):
    """Softmax of a numpy array over its last axis, restricted to where mask is True.

    Masked positions get exactly zero probability. mask is True (nothing
    masked) or must broadcast to scores.shape (ShapeError), and each row
    needs at least one unmasked entry (InvalidMaskError). A mask is checked
    before it is broadcast, unless its last axis is not the keys' axis.
    Reductions are direct ufunc calls: the same loops as ndarray.max and
    np.cumsum, without their Python-level wrappers.
    """
    if mask is True:
        if not scores.shape[-1]:
            raise InvalidMaskError("fully masked row in softmax: no keys")
        neg = scores
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim > scores.ndim or any(
                m != 1 and m != s for m, s in zip(mask.shape[::-1], scores.shape[::-1])):
            raise ShapeError(f"mask {mask.shape} does not broadcast to scores {scores.shape}")
        rows = mask if mask.ndim and mask.shape[-1] == scores.shape[-1] else np.broadcast_to(
            mask, scores.shape)
        if not np.logical_and.reduce(np.logical_or.reduce(rows, axis=-1), axis=None):
            raise InvalidMaskError("fully masked row in softmax")
        neg = np.where(mask, scores, -np.inf)
    m = np.maximum.reduce(neg, axis=-1, keepdims=True)
    e = np.exp(neg - m)
    # A sequential sum, unlike numpy's pairwise one, gives the same bits
    # however many masked (exactly zero) entries trail the row.
    return e / np.add.accumulate(e, axis=-1)[..., -1:]


def _softmax_backward(g, p):
    gp = g * p
    return gp - p * np.add.reduce(gp, axis=-1, keepdims=True)


def _split_heads(x, n_heads):
    """(..., t, d) -> (..., n_heads, t, d // n_heads), a view."""
    return x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads).swapaxes(-2, -3)


def _merge_heads(x):
    """(..., n_heads, t, dk) -> (..., t, n_heads * dk)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(*x.shape[:-2], -1)


def attention(q, k, v, mask, n_heads):
    """Multi-head scaled dot-product attention over projected q, k and v.

    q is (..., t, d); k and v are (..., s, d), or (s, d) shared by every
    batch entry of q. Each head is a d // n_heads slice of the last axis.
    mask broadcasts against the (..., n_heads, t, s) scores, and key
    positions it marks False get exactly zero weight. Returns the
    (..., t, d) context with the heads merged back. A non-finite score,
    masked or not, is a NumericError.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    d = q.data.shape[-1]
    if (q.data.ndim < 2 or k.data.ndim < 2 or k.data.shape != v.data.shape
            or k.data.shape[-1] != d or d % n_heads):
        raise ShapeError(f"attention shapes disagree: q {q.data.shape}, k {k.data.shape}, "
                         f"v {v.data.shape}, {n_heads} heads")
    c = 1.0 / math.sqrt(d // n_heads)
    qh, kh, vh = (_split_heads(t.data, n_heads) for t in (q, k, v))
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * c
    check_finite(scores, "attention scores")
    p = _softmax_forward(scores, mask)

    def bwd(g):
        gh = _split_heads(g, n_heads)
        gs = _softmax_backward(np.matmul(gh, vh.swapaxes(-1, -2)), p) * c
        gk = np.matmul(qh.swapaxes(-1, -2), gs).swapaxes(-1, -2)
        gv = np.matmul(p.swapaxes(-1, -2), gh)
        return (_merge_heads(np.matmul(gs, kh)), _unbroadcast(_merge_heads(gk), k.data.shape),
                _unbroadcast(_merge_heads(gv), v.data.shape))

    return _make(_merge_heads(np.matmul(p, vh)), (q, k, v), bwd)


def log_softmax(a):
    """Log-softmax over the last axis (max-shifted)."""
    a = _as_tensor(a)
    z = a.data - np.maximum.reduce(a.data, axis=-1, keepdims=True)
    data = z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    p = np.exp(data)

    def bwd(g):
        return (g - p * np.add.reduce(g, axis=-1, keepdims=True),)

    return _make(data, (a,), bwd)


def _row_mean(a):
    """a.mean(axis=-1, keepdims=True), bit for bit, without ndarray.mean's Python wrapper."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    return np.divide(m, a.shape[-1], out=m)


def layer_norm(x, gain, bias):
    """Per-row normalization over the last axis, then affine by gain/bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError("layer_norm gain/bias must have shape (last_dim,)")
    # the formula's operations in its order, each intermediate written into
    # an array the op owns: xc becomes xhat, var becomes inv, xc * xc the output
    xc = x.data - _row_mean(x.data)
    data = np.multiply(xc, xc)
    inv = _row_mean(data)
    np.add(inv, 1e-5, out=inv)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat = np.multiply(xc, inv, out=xc)
    np.multiply(xhat, gain.data, out=data)
    np.add(data, bias.data, out=data)

    def bwd(g):
        ggain = _unbroadcast(g * xhat, gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        gy = g * gain.data
        gx = inv * (gy - _row_mean(gy) - xhat * _row_mean(gy * xhat))
        return gx, ggain, gbias

    return _make(data, (x, gain, bias), bwd)


# -- time-axis convolution --------------------------------------------------


def conv1d_time(x, kernels, stride):
    """Convolution along the time axis.

    x: (..., T, d_in); kernels: (k, d_in, d_out); output: (..., ceil(T/stride),
    d_out). Leading batch dimensions are convolved independently.
    Zero padding is applied on the right only, so output frame i depends on
    input frames [i*stride, i*stride + k - 1] and never on anything earlier
    arriving later — the property streaming release relies on.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    if x.data.ndim < 2 or kernels.data.ndim != 3:
        raise ShapeError("conv1d_time expects x (..., T, d_in) and kernels (k, d_in, d_out)")
    *lead, T, d_in = x.data.shape
    k, kd_in, d_out = kernels.data.shape
    if T == 0:
        raise EmptyInputError("conv1d_time: empty input")
    if kd_in != d_in:
        raise ShapeError(f"conv1d_time channel mismatch: {d_in} vs {kd_in}")
    if stride < 1 or k < 1:
        raise ShapeError("conv1d_time: stride and kernel size must be >= 1")
    T_out = -(-T // stride)
    pad = (T_out - 1) * stride + k - T
    xp = np.zeros((*lead, T + max(pad, 0), d_in), dtype=x.data.dtype)
    xp[..., :T, :] = x.data
    data = np.zeros((*lead, T_out, d_out), dtype=x.data.dtype)
    for j in range(k):
        seg = xp[..., j:j + stride * T_out:stride, :]
        data += seg @ kernels.data[j]

    def bwd(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kernels.data)
        g2 = g.reshape(-1, d_out)
        for j in range(k):
            seg = xp[..., j:j + stride * T_out:stride, :]
            gk[j] = seg.reshape(-1, d_in).T @ g2
            gxp[..., j:j + stride * T_out:stride, :] += g @ kernels.data[j].T
        return gxp[..., :T, :], gk

    return _make(data, (x, kernels), bwd)


# -- structural ops ---------------------------------------------------------


def take(a, idx):
    """Slicing or integer-array indexing with gradient scatter-add."""
    a = _as_tensor(a)
    data = a.data[idx]

    def bwd(g):
        ga = np.zeros(a.data.shape)
        np.add.at(ga, idx, g)
        return (ga,)

    # basic slicing gives a view of a.data, integer-array indexing a copy already
    return _make(data.copy() if np.may_share_memory(data, a.data) else np.asarray(data), (a,),
                 bwd)


# -- finite-difference checking --------------------------------------------


def finite_difference(f, tensors, eps=1e-5):
    """Central finite-difference gradients of scalar f() w.r.t. each tensor.

    f must be a zero-argument callable reading the tensors' data in place.
    Returns a list of numpy arrays, one per tensor.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f())
            flat[i] = orig - eps
            fm = float(f())
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def check_gradients(f, tensors, eps=1e-5, tol=1e-4):
    """Compare analytic grads of scalar f against central differences.

    Returns (ok, max_rel_dev). Relative deviation uses max(1, |fd|, |an|)
    as denominator so near-zero gradients are judged absolutely.
    """
    for t in tensors:
        t.zero_grad()
    loss = f()
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
    with no_grad():
        numeric = finite_difference(lambda: f().data, tensors, eps=eps)
    max_dev = 0.0
    for an, fd in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(an), np.abs(fd)))
        dev = np.abs(an - fd) / denom
        if dev.size:
            max_dev = max(max_dev, float(dev.max()))
    return max_dev <= tol, max_dev
