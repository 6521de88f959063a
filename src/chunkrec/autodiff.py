"""Minimal dense-tensor autodiff on numpy.

Reverse-mode only, covering exactly the operations the streaming transducer
model needs: linear (x @ w + b), multi-head attention (with a masked
softmax inside), layer norm, GLU, time-axis convolution, indexing and
embedding, plus the add, mul, scale and sum that losses and gradient
checks compose.
Attention and linear layers are single ops with hand-written backward
passes, because on a small model each op costs mostly Python overhead.
Broadcasting is limited to leading batch dimensions (a parameter of shape
(d,) may be added to a (..., d) activation); anything fancier is a
deliberate non-goal.
"""

from __future__ import annotations

import contextlib

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

    def __init__(self, data, requires_grad=False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
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
            self.grad = np.zeros_like(self.data)
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
        for t in order:
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t._backward is None:
                if t.requires_grad:
                    t._accumulate(g)
            else:
                for parent, pg in zip(t._parents, t._backward(g)):
                    if pg is None:
                        continue
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + pg
                    else:
                        grads[id(parent)] = pg

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __mul__(self, other):
        if np.isscalar(other):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __neg__(self):
        return scale(self, -1.0)

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


def _make(data, parents, backward):
    if not np.isfinite(data).all():
        raise NumericError("non-finite value produced in forward op")
    out = Tensor(data, dtype=data.dtype)
    if _grad_enabled and any(p.requires_grad or p._backward is not None for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = any(p.requires_grad for p in parents)
    return out


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (leading-batch broadcasting only)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
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


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _make(a.data * c, (a,), bwd)


def linear(x, w, b):
    """x @ w + b for x of shape (..., t, d_in), w (d_in, d_out) and b (d_out,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeError(f"linear shapes disagree: {x.data.shape} @ {w.data.shape} "
                         f"+ {b.data.shape}")
    data = np.matmul(x.data, w.data) + b.data

    def bwd(g):
        d_in, d_out = w.data.shape
        gw = x.data.reshape(-1, d_in).T @ g.reshape(-1, d_out)
        return np.matmul(g, w.data.T), gw, _unbroadcast(g, b.data.shape)

    return _make(data, (x, w, b), bwd)


def tsum(a, axis=None):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return _make(data, (a,), bwd)


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
    s = 1.0 / (1.0 + np.exp(-gate))
    data = x * s

    def bwd(g):
        ga = np.empty_like(a.data)
        ga[..., :d] = g * s
        ga[..., d:] = g * x * s * (1.0 - s)
        return (ga,)

    return _make(data, (a,), bwd)


def _softmax_forward(scores, mask):
    """Softmax of a numpy array over its last axis, restricted to where mask is True.

    Masked positions get exactly zero probability. mask must broadcast to
    scores.shape, and each row needs at least one unmasked entry.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.shape)
    if not mask.any(axis=-1).all():
        raise InvalidMaskError("fully masked row in softmax")
    neg = np.where(mask, scores, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    e = np.exp(neg - m)
    # A sequential sum, unlike numpy's pairwise one, gives the same bits
    # however many masked (exactly zero) entries trail the row.
    return e / np.cumsum(e, axis=-1)[..., -1:]


def _softmax_backward(g, p):
    gp = g * p
    return gp - p * gp.sum(axis=-1, keepdims=True)


def _split_heads(x, n_heads):
    """(..., t, d) -> (..., n_heads, t, d // n_heads), a view."""
    return np.swapaxes(x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads), -2, -3)


def _merge_heads(x):
    """(..., n_heads, t, dk) -> (..., t, n_heads * dk)."""
    x = np.swapaxes(x, -2, -3)
    return x.reshape(*x.shape[:-2], -1)


def attention(q, k, v, mask, n_heads):
    """Multi-head scaled dot-product attention over projected q, k and v.

    q is (..., t, d); k and v are (..., s, d), or (s, d) shared by every
    batch entry of q. Each head is a d // n_heads slice of the last axis.
    mask broadcasts against the (..., n_heads, t, s) scores, and key
    positions it marks False get exactly zero weight. Returns the
    (..., t, d) context with the heads merged back.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    d = q.data.shape[-1]
    if (q.data.ndim < 2 or k.data.ndim < 2 or k.data.shape != v.data.shape
            or k.data.shape[-1] != d or d % n_heads):
        raise ShapeError(f"attention shapes disagree: q {q.data.shape}, k {k.data.shape}, "
                         f"v {v.data.shape}, {n_heads} heads")
    c = float(1.0 / np.sqrt(d // n_heads))
    qh, kh, vh = (_split_heads(t.data, n_heads) for t in (q, k, v))
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * c
    if not np.isfinite(scores).all():
        raise NumericError("non-finite value produced in forward op")
    p = _softmax_forward(scores, mask)

    def bwd(g):
        gh = _split_heads(g, n_heads)
        gs = _softmax_backward(np.matmul(gh, np.swapaxes(vh, -1, -2)), p) * c
        gk = np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gs), -1, -2)
        gv = np.matmul(np.swapaxes(p, -1, -2), gh)
        return (_merge_heads(np.matmul(gs, kh)), _unbroadcast(_merge_heads(gk), k.data.shape),
                _unbroadcast(_merge_heads(gv), v.data.shape))

    return _make(_merge_heads(np.matmul(p, vh)), (q, k, v), bwd)


def log_softmax(a):
    """Log-softmax over the last axis (max-shifted)."""
    a = _as_tensor(a)
    m = a.data.max(axis=-1, keepdims=True)
    z = a.data - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    data = z - lse
    p = np.exp(data)

    def bwd(g):
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return _make(data, (a,), bwd)


def _row_mean(a):
    """a.mean(axis=-1, keepdims=True), bit for bit, without ndarray.mean's Python wrapper."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x, gain, bias, eps=1e-5):
    """Per-row normalization over the last axis, then affine by gain/bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError("layer_norm gain/bias must have shape (last_dim,)")
    mu = _row_mean(x.data)
    xc = x.data - mu
    var = _row_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def bwd(g):
        ggain = _unbroadcast(g * xhat, gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        gy = g * gain.data
        gx = inv * (gy - _row_mean(gy) - xhat * _row_mean(gy * xhat))
        return gx, ggain, gbias

    return _make(data, (x, gain, bias), bwd)


# -- time-axis convolution --------------------------------------------------


def conv_out_len(t, stride):
    return -(-t // stride)


def conv1d_time(x, kernels, stride):
    """Convolution along the time axis.

    x: (T, d_in); kernels: (k, d_in, d_out); output: (ceil(T/stride), d_out).
    Zero padding is applied on the right only, so output frame i depends on
    input frames [i*stride, i*stride + k - 1] and never on anything earlier
    arriving later — the property streaming release relies on.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    if x.data.ndim != 2 or kernels.data.ndim != 3:
        raise ShapeError("conv1d_time expects x (T,d_in) and kernels (k,d_in,d_out)")
    T, d_in = x.data.shape
    k, kd_in, d_out = kernels.data.shape
    if T == 0:
        raise EmptyInputError("conv1d_time: empty input")
    if kd_in != d_in:
        raise ShapeError(f"conv1d_time channel mismatch: {d_in} vs {kd_in}")
    if stride < 1 or k < 1:
        raise ShapeError("conv1d_time: stride and kernel size must be >= 1")
    T_out = conv_out_len(T, stride)
    pad = (T_out - 1) * stride + k - T
    xp = np.zeros((T + max(pad, 0), d_in), dtype=x.data.dtype)
    xp[:T] = x.data
    data = np.zeros((T_out, d_out), dtype=x.data.dtype)
    for j in range(k):
        seg = xp[j:j + stride * T_out:stride]
        data += seg @ kernels.data[j]

    def bwd(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kernels.data)
        for j in range(k):
            seg = xp[j:j + stride * T_out:stride]
            gk[j] = seg.T @ g
            gxp[j:j + stride * T_out:stride] += g @ kernels.data[j].T
        return gxp[:T], gk

    return _make(data, (x, kernels), bwd)


# -- structural ops ---------------------------------------------------------


def take(a, idx):
    """Slicing or integer-array indexing with gradient scatter-add."""
    a = _as_tensor(a)
    data = a.data[idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(data.copy() if isinstance(data, np.ndarray) else np.asarray(data), (a,), bwd)


def embedding(table, ids):
    """Row lookup: out[i] = table[ids[i]]."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.intp)
    data = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(data, (table,), bwd)


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
