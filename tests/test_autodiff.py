import numpy as np
import pytest

from chunkrec import autodiff as ad
from chunkrec.autodiff import Tensor
from chunkrec.chunking import left_context_mask
from chunkrec.errors import ContractError, InvalidMaskError, NumericError, ShapeError


def test_linear_identity():
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.linear(Tensor(np.eye(2)), b, Tensor(np.zeros(2))).data, b.data)


def test_linear_by_hand():
    out = ad.linear(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]), Tensor([0.5]))
    assert out.data.tolist() == [[11.5]]


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
def test_linear_gradcheck(x_shape):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    out = ad.linear(x, w, b)
    assert np.array_equal(out.data, np.matmul(x.data, w.data) + b.data)
    c = rng.normal(size=x_shape[:-1] + (5,))
    ok, dev = ad.check_gradients(lambda: ad.tsum(ad.linear(x, w, b) * Tensor(c)), [x, w, b],
                                 tol=1e-6)
    assert ok, dev


def test_linear_shape_error():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        ad.linear(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        ad.linear(x, Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))


def _attention_by_composition(q, k, v, mask, h):
    """The numpy op chain attention() replaces: split, scores, softmax, context, merge."""
    def split(x):
        return np.swapaxes(x.reshape(*x.shape[:-1], h, x.shape[-1] // h), -2, -3)

    dk = q.shape[-1] // h
    scores = np.matmul(split(q), np.swapaxes(split(k), -1, -2)) * float(1.0 / np.sqrt(dk))
    p = ad._softmax_forward(scores, mask)
    ctx = np.swapaxes(np.matmul(p, split(v)), -2, -3)
    return ctx.reshape(*q.shape)


def _attention_case(q_shape, kv_shape, mask, seed):
    """Gradcheck attention and compare its forward with the composition; returns k, v."""
    rng = np.random.default_rng(seed)
    q = Tensor(rng.normal(size=q_shape), requires_grad=True)
    k = Tensor(rng.normal(size=kv_shape), requires_grad=True)
    v = Tensor(rng.normal(size=kv_shape), requires_grad=True)
    c = rng.normal(size=q_shape)
    ok, dev = ad.check_gradients(
        lambda: ad.tsum(ad.attention(q, k, v, mask, 2) * Tensor(c)), [q, k, v], tol=1e-6)
    assert ok, dev
    out = ad.attention(q, k, v, mask, 2).data
    assert np.array_equal(out, _attention_by_composition(q.data, k.data, v.data, mask, 2))
    return k, v


def test_attention_self_under_left_context_mask():
    _attention_case((5, 4), (5, 4), left_context_mask(5, 2), seed=12)


def test_attention_batched_q_against_shared_kv_with_padded_keys():
    valid = np.array([True, True, True, False, False])
    k, v = _attention_case((3, 2, 4), (5, 4), valid, seed=13)
    assert (k.grad[3:] == 0.0).all() and (v.grad[3:] == 0.0).all()
    q = np.random.default_rng(14).normal(size=(3, 2, 4))
    shared = ad.attention(Tensor(q), k, v, valid, 2).data
    for i in range(3):
        alone = ad.attention(Tensor(q[i]), k, v, valid, 2).data
        assert np.max(np.abs(shared[i] - alone)) <= 1e-12


def test_attention_chunk_key_mask():
    # (M, 1, 1, W): the last of three chunks keeps 2 of its 4 key positions
    valid = np.ones((3, 4), dtype=bool)
    valid[-1, 2:] = False
    k, v = _attention_case((3, 2, 4), (3, 4, 4), valid[:, None, None, :], seed=15)
    assert (k.grad[-1, 2:] == 0.0).all() and (v.grad[-1, 2:] == 0.0).all()


def test_attention_errors():
    rng = np.random.default_rng(17)
    q = rng.normal(size=(3, 4))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.attention(Tensor(q * 1e300), Tensor(q * 1e300), Tensor(q), True, 2)
    mask = np.ones((3, 3), dtype=bool)
    mask[1] = False
    with pytest.raises(InvalidMaskError):
        ad.attention(Tensor(q), Tensor(q), Tensor(q), mask, 2)
    with pytest.raises(ShapeError):
        ad.attention(Tensor(q), Tensor(q), Tensor(q), True, 3)


# The masked softmax inside attention: _softmax_forward and _softmax_backward.

def test_masked_softmax_uniform():
    p = ad._softmax_forward(np.zeros(3), np.array([True, True, True]))
    assert np.allclose(p, 1 / 3, atol=1e-15)


def test_masked_softmax_single_entry():
    p = ad._softmax_forward(np.array([5.0, 0.0, 0.0]), np.array([True, False, False]))
    assert p.tolist() == [1.0, 0.0, 0.0]


def test_masked_softmax_vs_bruteforce():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=8)
    mask = np.array([True, False] * 4)
    p = ad._softmax_forward(scores, mask)
    e = np.where(mask, np.exp(scores - scores[mask].max()), 0.0)
    assert np.allclose(p, e / e.sum(), atol=1e-12)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert (p[~mask] == 0.0).all()


def test_masked_softmax_fully_masked_row():
    with pytest.raises(InvalidMaskError):
        ad._softmax_forward(np.array([1.0, 2.0]), np.array([False, False]))


def test_masked_softmax_gradcheck():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))
    mask = rng.random((3, 5)) < 0.7
    mask[:, 0] = True
    w = rng.normal(size=(3, 5))
    p = ad._softmax_forward(x, mask)
    analytic = ad._softmax_backward(w, p)
    assert (analytic[~mask] == 0.0).all()
    eps = 1e-6
    for idx in np.ndindex(x.shape):
        d = np.zeros_like(x)
        d[idx] = eps
        fd = ((ad._softmax_forward(x + d, mask) - ad._softmax_forward(x - d, mask)) * w).sum()
        assert abs(analytic[idx] - fd / (2 * eps)) <= 1e-8, idx


def test_layer_norm_constant_row():
    g, b = Tensor(np.ones(4)), Tensor(np.zeros(4))
    out = ad.layer_norm(Tensor(np.full((1, 4), 3.0)), g, b)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized():
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = ad.layer_norm(Tensor([[1.0, -1.0]]), g, b)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_moments():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 16)) * 2 + 1
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)))
    assert np.abs(out.data.mean(axis=-1)).max() <= 1e-10
    var = out.data.var(axis=-1)
    assert ((var >= 1 - 1e-4) & (var <= 1 + 1e-4)).all()


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    g = Tensor(rng.normal(size=6), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    w = rng.normal(size=(3, 6))
    ok, dev = ad.check_gradients(
        lambda: ad.tsum(ad.layer_norm(x, g, b) * Tensor(w)), [x, g, b], tol=1e-6)
    assert ok, dev


def test_glu_zero_gate():
    x = np.array([[2.0, -3.0, 0.0, 0.0]])
    out = ad.glu(Tensor(x))
    assert np.allclose(out.data, [[1.0, -1.5]])


def test_glu_saturated_gate():
    x = np.array([[2.0, 50.0]])
    assert np.allclose(ad.glu(Tensor(x)).data, [[2.0]], atol=1e-12)


def test_glu_odd_dim():
    with pytest.raises(ShapeError):
        ad.glu(Tensor(np.zeros((2, 3))))


def test_glu_gradcheck():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    w = rng.normal(size=(2, 4))
    ok, dev = ad.check_gradients(lambda: ad.tsum(ad.glu(x) * Tensor(w)), [x], tol=1e-6)
    assert ok, dev


def test_conv1d_identity_kernel():
    x = np.arange(12.0).reshape(6, 2)
    k = np.eye(2)[None]  # kernel size 1
    out = ad.conv1d_time(Tensor(x), Tensor(k), 1)
    assert np.array_equal(out.data, x)


def test_conv1d_downsample_lengths():
    x = Tensor(np.random.default_rng(6).normal(size=(8, 2)))
    k1 = Tensor(np.random.default_rng(7).normal(size=(3, 2, 2)))
    h = ad.conv1d_time(x, k1, 2)
    assert h.shape[0] == 4
    h2 = ad.conv1d_time(h, k1, 2)
    assert h2.shape[0] == 2


@pytest.mark.parametrize("T,stride,expect", [(8, 2, 4), (9, 2, 5), (7, 3, 3), (1, 2, 1)])
def test_conv1d_output_len(T, stride, expect):
    x = Tensor(np.zeros((T, 2)))
    k = Tensor(np.zeros((3, 2, 1)))
    assert ad.conv1d_time(x, k, stride).shape[0] == expect


def test_conv1d_gradcheck():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
    w = rng.normal(size=(4, 2))
    ok, dev = ad.check_gradients(
        lambda: ad.tsum(ad.conv1d_time(x, k, 2) * Tensor(w)), [x, k], tol=1e-6)
    assert ok, dev


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(5.0), requires_grad=True)
    ad.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones(5))


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    assert np.allclose(x.grad, 6.0)


def test_backward_accumulates():
    x = Tensor(np.ones(3), requires_grad=True)
    ad.tsum(x).backward()
    ad.tsum(x).backward()
    assert np.array_equal(x.grad, 2 * np.ones(3))


def test_backward_fills_only_leaf_grads():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * x
    ad.tsum(y).backward()
    assert np.array_equal(x.grad, 2 * np.ones(3))
    assert y.grad is None


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_forward_replay_bit_identical():
    rng = np.random.default_rng(9)
    a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

    def run():
        return ad.layer_norm(ad.linear(a, b, Tensor(np.zeros(4))), Tensor(np.ones(4)),
                             Tensor(np.zeros(4))).data

    assert np.array_equal(run(), run())


def test_embedding_and_gather_grads():
    rng = np.random.default_rng(10)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([0, 2, 2, 5])
    w = rng.normal(size=(4, 3))
    ok, dev = ad.check_gradients(
        lambda: ad.tsum(ad.embedding(table, ids) * Tensor(w)), [table], tol=1e-6)
    assert ok, dev
