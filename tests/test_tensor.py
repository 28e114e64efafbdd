"""Unit tests for the autodiff engine, optimizer, and checkpoint container."""

import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdp import optim
from spdp import tensor as T
from spdp.checkpoint import load_checkpoint, save_checkpoint
from spdp.gradcheck import grad_check
from spdp.layers import causal_mask
from spdp.optim import AdamW
from spdp.tensor import Tensor


# -- softmax / log_softmax ----------------------------------------------------------


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]))
    npt.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_no_overflow():
    out = T.softmax(Tensor([1000.0, 1000.0]))
    npt.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_mask_zeroes_entry():
    out = T.softmax(Tensor([0.0, 0.0]), mask=np.array([0.0, -np.inf]))
    npt.assert_allclose(out.data, [1.0, 0.0])


def test_softmax_all_masked_raises():
    with pytest.raises(ValueError, match="empty softmax support"):
        T.softmax(Tensor([1.0, 2.0]), mask=np.array([-np.inf, -np.inf]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=9))
def test_softmax_rows_sum_to_one(values):
    out = T.softmax(Tensor(values))
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert (out.data >= 0).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=9))
def test_log_softmax_logsumexp_zero(values):
    out = T.log_softmax(Tensor(values))
    assert abs(np.log(np.exp(out.data).sum())) < 1e-9


def test_softmax_gradient_matches_fd():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = rng.normal(size=(3, 5))

    def loss():
        return T.tsum(T.mul(T.softmax(x, axis=-1), w))

    report = grad_check(loss, {"x": x})
    assert report["x"] < 1e-6


# -- layer norm ---------------------------------------------------------------------


def test_layer_norm_two_point():
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = T.layer_norm(Tensor([[1.0, 3.0]]), g, b, eps=1e-12)
    npt.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_constant_vector():
    g, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
    out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), g, b)
    npt.assert_allclose(out.data, [[0.0, 0.0, 0.0]])


def test_layer_norm_gradient_feature_dim_7():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    gamma = Tensor(rng.normal(size=7), requires_grad=True)
    beta = Tensor(rng.normal(size=7), requires_grad=True)
    w = rng.normal(size=(4, 7))

    def loss():
        return T.tsum(T.mul(T.layer_norm(x, gamma, beta), w))

    report = grad_check(loss, {"x": x, "gamma": gamma, "beta": beta})
    assert max(report.values()) < 1e-4


def test_layer_norm_zero_feature_extent_rejected():
    g, b = Tensor(np.ones(0)), Tensor(np.zeros(0))
    with pytest.raises(ValueError):
        T.layer_norm(Tensor(np.zeros((2, 0))), g, b)


# -- gelu ---------------------------------------------------------------------------


def test_gelu_values():
    out = T.gelu(Tensor([0.0, 1.0, -10.0]))
    assert out.data[0] == 0.0
    npt.assert_allclose(out.data[1], 0.841192, atol=1e-6)
    assert abs(out.data[2]) < 1e-6


def test_gelu_gradient():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=11), requires_grad=True)

    def loss():
        return T.tsum(T.gelu(x))

    assert grad_check(loss, {"x": x})["x"] < 1e-6


# -- cosine similarity ---------------------------------------------------------------


def test_cosine_orthogonal():
    out = T.cosine_sim(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
    npt.assert_allclose(out.data, 0.0, atol=1e-12)


def test_cosine_parallel():
    out = T.cosine_sim(Tensor([2.0, 2.0]), Tensor([1.0, 1.0]))
    npt.assert_allclose(out.data, 1.0, atol=1e-8)


def test_cosine_zero_vector_guarded():
    out = T.cosine_sim(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))
    npt.assert_allclose(out.data, 0.0, atol=1e-12)


def test_cosine_gradient_at_a_zero_vector_is_the_dot_term_alone():
    u = Tensor(np.zeros((1, 3)), requires_grad=True)
    v = Tensor(np.ones((1, 3)), requires_grad=True)
    out = T.cosine_sim(u, v)
    T.tsum(T.mul(out, 2.5)).backward()
    assert out.data.tolist() == [0.0]
    npt.assert_allclose(u.grad, 2.5 * v.data / 1e-8, rtol=1e-15)
    assert v.grad.tolist() == [[0.0, 0.0, 0.0]]


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_cosine_scale_invariance(c):
    rng = np.random.default_rng(3)
    u = rng.normal(size=6)
    v = rng.normal(size=6)
    base = T.cosine_sim(Tensor(u), Tensor(v)).data
    scaled = T.cosine_sim(Tensor(c * u), Tensor(v)).data
    assert abs(base - scaled) < 1e-6


# -- cross entropy -------------------------------------------------------------------


def test_class_nll_uniform_is_ln8():
    log_probs = T.log_softmax(Tensor(np.zeros((3, 8))), axis=-1)
    loss = T.class_nll(log_probs, np.array([0, 4, 7]))
    npt.assert_allclose(loss.data, math.log(8), atol=1e-12)


def test_token_ce_peaked_goes_to_zero():
    logits = np.zeros((1, 2, 5))
    logits[0, :, 3] = 60.0
    targets = np.full((1, 2), 3)
    mask = np.ones((1, 2), dtype=bool)
    loss = T.token_cross_entropy(Tensor(logits), targets, mask)
    assert loss.data < 1e-12


def test_token_ce_all_padding_raises():
    with pytest.raises(ValueError, match="no loss support"):
        T.token_cross_entropy(Tensor(np.zeros((1, 2, 5))), np.zeros((1, 2), dtype=int),
                              np.zeros((1, 2), dtype=bool))


def test_token_ce_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        T.token_cross_entropy(Tensor(np.zeros((1, 1, 4))), np.array([[9]]),
                              np.ones((1, 1), dtype=bool))


def test_token_ce_gradient_matches_fd_and_skips_padding():
    rng = np.random.default_rng(17)
    logits = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    targets = rng.integers(0, 6, size=(2, 3))
    mask = np.array([[True, False, True], [False, True, True]])

    def loss():
        return T.token_cross_entropy(logits, targets, mask)

    assert grad_check(loss, {"logits": logits})["logits"] < 1e-6
    assert (logits.grad[~mask] == 0.0).all()


def test_token_ce_ignores_padding_targets():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(2, 3, 6))
    targets = rng.integers(0, 6, size=(2, 3))
    mask = np.array([[True, True, False], [True, False, False]])
    base = T.token_cross_entropy(Tensor(logits), targets, mask).data
    perturbed = targets.copy()
    perturbed[~mask] = (perturbed[~mask] + 3) % 6
    again = T.token_cross_entropy(Tensor(logits), perturbed, mask).data
    assert abs(base - again) < 1e-12


# -- structural ops ------------------------------------------------------------------


def test_matmul_gradient_batched():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def loss():
        return T.tsum(T.matmul(a, b))

    report = grad_check(loss, {"a": a, "b": b})
    assert max(report.values()) < 1e-6


def test_mul_gradient_sums_over_a_broadcast_size_one_axis():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = rng.normal(size=(4, 3))

    def loss():
        return T.tsum(T.mul(T.mul(a, b), w))

    report = grad_check(loss, {"a": a, "b": b})
    assert max(report.values()) < 1e-6
    assert a.grad.shape == (4, 1)


def test_matmul_shared_weight_gradient_is_the_stacked_sum():
    rng = np.random.default_rng(15)
    a = Tensor(rng.normal(size=(3, 4, 5, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 7)), requires_grad=True)
    g = rng.normal(size=(3, 4, 5, 7))
    T.tsum(T.mul(T.matmul(a, w), g)).backward()
    stacked = np.matmul(np.swapaxes(a.data, -1, -2), g).sum(axis=(0, 1))
    npt.assert_allclose(w.grad, stacked, rtol=0, atol=1e-12)
    npt.assert_allclose(a.grad, g @ w.data.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 2, 5)])
def test_linear_gradient_matches_fd(shape):
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    g = rng.normal(size=shape[:-1] + (4,))

    def loss():
        return T.tsum(T.mul(T.linear(x, w, b), g))

    report = grad_check(loss, {"x": x, "w": w, "b": b})
    assert max(report.values()) < 1e-6


def test_linear_forward_is_matmul_plus_bias_bit_for_bit():
    rng = np.random.default_rng(19)
    x, w, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)
    assert np.array_equal(T.linear(Tensor(x), Tensor(w), Tensor(b)).data,
                          T.add(T.matmul(Tensor(x), Tensor(w)), Tensor(b)).data)


def test_linear_shared_weight_gradient_is_the_stacked_sum():
    rng = np.random.default_rng(15)
    a = Tensor(rng.normal(size=(3, 4, 5, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 7)), requires_grad=True)
    b = Tensor(rng.normal(size=7), requires_grad=True)
    g = rng.normal(size=(3, 4, 5, 7))
    T.tsum(T.mul(T.linear(a, w, b), g)).backward()
    stacked = np.matmul(np.swapaxes(a.data, -1, -2), g).sum(axis=(0, 1))
    npt.assert_allclose(w.grad, stacked, rtol=0, atol=1e-12)
    npt.assert_allclose(a.grad, g @ w.data.T, rtol=0, atol=1e-12)
    npt.assert_allclose(b.grad, g.sum(axis=(0, 1, 2)), rtol=0, atol=1e-12)


# -- attention ------------------------------------------------------------------------


def unfused_attention(q, k, v, n_heads, mask):
    """The same attention as a chain of reshape/transpose/matmul/softmax nodes."""
    batch, t, dim = q.shape
    t_k, head_dim = k.shape[1], dim // n_heads

    def split(x, length):
        return T.transpose(T.reshape(x, (batch, length, n_heads, head_dim)), (0, 2, 1, 3))

    scores = T.mul(T.matmul(split(q, t), T.transpose(split(k, t_k), (0, 1, 3, 2))),
                   1.0 / math.sqrt(head_dim))
    mixed = T.matmul(T.softmax(scores, axis=-1, mask=mask), split(v, t_k))
    return T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (batch, t, dim))


def key_padding(valid):
    """(B, T_k) key validity -> additive (B, 1, 1, T_k) 0/-inf mask."""
    return np.where(np.asarray(valid, dtype=bool), 0.0, -np.inf)[:, None, None, :]


@pytest.mark.parametrize("t, t_k, mask", [
    (4, 4, key_padding([[1, 1, 1, 0], [1, 1, 0, 0]])),
    (3, 3, causal_mask(3)),
    (2, 5, causal_mask(2, past=3) + key_padding([[1, 0, 1, 1, 1], [1, 1, 1, 1, 0]])),
], ids=["key-padding", "causal", "cached-causal"])
def test_attention_gradient_matches_fd(t, t_k, mask):
    rng = np.random.default_rng(20)
    q = Tensor(rng.normal(size=(2, t, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, t_k, 6)), requires_grad=True)
    v = Tensor(rng.normal(size=(2, t_k, 6)), requires_grad=True)
    g = rng.normal(size=(2, t, 6))

    def loss():
        return T.tsum(T.mul(T.attention(q, k, v, 2, mask), g))

    report = grad_check(loss, {"q": q, "k": k, "v": v})
    assert max(report.values()) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_attention_matches_the_unfused_composition(batch, t, t_k, n_heads, head_dim, seed):
    rng = np.random.default_rng(seed)
    dim = n_heads * head_dim
    live = rng.random((batch, t, t_k)) < 0.6
    live[np.arange(batch)[:, None], np.arange(t)[None, :],
         rng.integers(0, t_k, size=(batch, t))] = True
    mask = np.where(live, 0.0, -np.inf)[:, None]
    *qkv, g = (rng.normal(size=(batch, n, dim)) for n in (t, t_k, t_k, t))
    runs = []
    for fn in (T.attention, unfused_attention):
        inputs = [Tensor(a, requires_grad=True) for a in qkv]
        out = fn(*inputs, n_heads, mask)
        T.tsum(T.mul(out, g)).backward()
        runs.append([out.data] + [x.grad for x in inputs])
    for fused, plain in zip(*runs):
        npt.assert_allclose(fused, plain, rtol=0, atol=1e-12)


def test_attention_fully_masked_row_raises():
    x = Tensor(np.ones((1, 2, 4)))
    mask = np.array([[0.0, 0.0], [-np.inf, -np.inf]])[None, None]
    with pytest.raises(ValueError, match="empty softmax support"):
        T.attention(x, x, x, 2, mask)


# -- in-place kernels against the plain formulas ----------------------------------------
#
# gelu, layer_norm, linear and attention build their results in reused
# buffers. Each reference below is the kernel written as plain NumPy
# expressions; the kernels must give the same bits, forward and backward.


def plain_gelu(x, g):
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    dinner = c * (1.0 + 3.0 * 0.044715 * (x * x))
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return 0.5 * x * (1.0 + t), [g * local]


def plain_layer_norm(x, gamma, beta, g, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv
    lead = tuple(range(x.ndim - 1))
    gx = g * gamma
    term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    return gamma * xhat + beta, [term * inv, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


def plain_linear(x, w, b, g):
    gb = g
    while gb.ndim > 1:
        gb = gb.sum(axis=0)
    gw = x.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1])
    return np.matmul(x, w) + b, [np.matmul(g, w.T), gw, gb]


def plain_attention(q, k, v, g, n_heads, mask):
    batch, t, dim = q.shape
    t_k, head_dim = k.shape[1], dim // n_heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x, length):
        return x.reshape(batch, length, n_heads, head_dim).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q, t), split(k, t_k), split(v, t_k)
    z = np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale + mask
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(p, vh).transpose(0, 2, 1, 3).reshape(batch, t, dim)
    go = split(g, t)
    dv = np.matmul(np.swapaxes(p, -1, -2), go).transpose(0, 2, 1, 3).reshape(batch, t_k, dim)
    dp = np.matmul(go, np.swapaxes(vh, -1, -2))
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
    dq = np.matmul(ds, kh).transpose(0, 2, 1, 3).reshape(batch, t, dim)
    dk = np.matmul(np.swapaxes(qh, -1, -2), ds).transpose(0, 3, 1, 2).reshape(batch, t_k, dim)
    return out, [dq, dk, dv]


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


ATTENTION_MASK = causal_mask(7) + key_padding([[1] * 7, [1] * 5 + [0] * 2])

INPLACE_CASES = {
    # kernel, plain formula, input shapes, extra arguments. (16, 12, 40) is
    # the shape of the classifier's final LayerNorm.
    "gelu": (T.gelu, plain_gelu, [(16, 12, 40)], ()),
    "layer_norm": (T.layer_norm, plain_layer_norm, [(16, 12, 40), (40,), (40,)], ()),
    "linear": (T.linear, plain_linear, [(16, 12, 40), (40, 24), (24,)], ()),
    "attention": (T.attention, plain_attention, [(2, 7, 8)] * 3, (2, ATTENTION_MASK)),
}


@pytest.mark.parametrize("kernel", INPLACE_CASES)
def test_inplace_kernel_matches_its_plain_formula_bit_for_bit(kernel):
    fn, plain, shapes, extra = INPLACE_CASES[kernel]
    rng = np.random.default_rng(31)
    arrays = [rng.normal(size=s) for s in shapes]
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*inputs, *extra)
    # The incoming gradient is a transposed view, as the classifier's final
    # LayerNorm receives it: (16, 12, 40) with strides (3840, 8, 96).
    lead, last = out.shape[:-2], out.shape[-2:]
    g = rng.normal(size=lead + last[::-1]).swapaxes(-1, -2)
    assert not g.flags.c_contiguous
    g_before = g.copy()
    out._backward(g)
    want_out, want_grads = plain(*arrays, g, *extra)
    assert same_bits(out.data, want_out)
    for x, a, want in zip(inputs, arrays, want_grads):
        assert same_bits(x.grad, want)
        # The layout too: it sets the order of the sums that the gradient's
        # next rule takes. The formulas hand off C-order arrays, except the
        # attention key gradient, a transposed view whatever g is.
        assert x.grad.strides == want.strides
        assert same_bits(x.data, a)                  # the inputs are left as they were
    assert same_bits(g, g_before)


def test_take_repeated_advanced_indices_accumulate():
    a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    T.tsum(T.take(a, np.array([0, 2, 0, 0]))).backward()
    npt.assert_array_equal(a.grad, [[3] * 3, [0] * 3, [1] * 3, [0] * 3])
    b = Tensor(np.zeros((2, 3)), requires_grad=True)
    T.tsum(T.take(b, (np.array([1, 1, 0]), np.array([2, 2, 2])))).backward()
    npt.assert_array_equal(b.grad, [[0, 0, 1], [0, 0, 2]])


@pytest.mark.parametrize("idx", [
    (slice(None), slice(1, 3)),
    (slice(None, None, -2), 1),
    2,
    (1, slice(0, 3), np.int64(0)),
])
def test_take_basic_index_gradient_matches_add_at(idx):
    rng = np.random.default_rng(16)
    a = Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
    g = rng.normal(size=a.data[idx].shape)
    T.tsum(T.mul(T.take(a, idx), g)).backward()
    want = np.zeros_like(a.data)
    np.add.at(want, idx, g)
    assert a.grad.tobytes() == want.tobytes()


def test_conv1d_shapes_and_gradient():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 10, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    out = T.conv1d(x, w, b, stride=2, padding=1)
    assert out.shape == (2, 5, 4)

    def loss():
        return T.tsum(T.mul(T.conv1d(x, w, b, stride=2, padding=1), 0.3))

    report = grad_check(loss, {"x": x, "w": w, "b": b}, max_coords_per_param=12)
    assert max(report.values()) < 1e-6


def test_concat_take_embedding_gradients():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    ids = np.array([[0, 2], [4, 2]])

    def loss():
        joined = T.concat([a, b], axis=1)
        picked = T.take(joined, (slice(None), slice(1, 4)))
        emb = T.embedding(table, ids)
        return T.add(T.tsum(T.mul(picked, picked)), T.tsum(emb))

    report = grad_check(loss, {"a": a, "b": b, "table": table})
    assert max(report.values()) < 1e-6


def test_backward_linearity_over_branches():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=5)

    def grad_of(fn):
        x = Tensor(x0.copy(), requires_grad=True)
        fn(x).backward()
        return x.grad

    g_sum = grad_of(lambda x: T.add(T.tsum(T.tanh(x)), T.tsum(T.mul(x, x))))
    g_a = grad_of(lambda x: T.tsum(T.tanh(x)))
    g_b = grad_of(lambda x: T.tsum(T.mul(x, x)))
    npt.assert_allclose(g_sum, g_a + g_b, atol=1e-12)


def test_no_grad_blocks_graph():
    x = Tensor([2.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._backward is None


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        T.mul(x, x).backward()


@pytest.mark.parametrize("build", [
    lambda u, v: T.add(T.add(u, v), u),
    lambda u, v: T.add(T.sub(u, v), u),
    lambda u, v: T.add(T.tsum(u, axis=0), T.mul(T.add(u, v), u)),
    lambda u, v: T.add(T.mul(T.add(u, v), u), T.tsum(u, axis=0)),
], ids=["add", "sub", "tsum-first", "tsum-last"])
def test_gradients_passed_on_as_views_are_copied(build):
    # A rule that hands a parent g itself or a view of it must copy it, or two
    # leaves end up sharing one buffer that later accumulations write through.
    u = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    v = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)

    def loss():
        return T.tsum(build(u, v))

    report = grad_check(loss, {"u": u, "v": v})
    assert max(report.values()) < 1e-8
    assert not np.shares_memory(u.grad, v.grad)


def test_second_backward_on_the_same_root_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(ValueError, match="already ran"):
        loss.backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0])


# -- grad_check harness ---------------------------------------------------------------


def test_grad_check_quadratic():
    theta = Tensor([3.0], requires_grad=True)

    def loss():
        return T.tsum(T.mul(theta, theta))

    report = grad_check(loss, {"theta": theta})
    assert report["theta"] < 1e-8
    theta.grad = None
    loss().backward()
    npt.assert_allclose(theta.grad, [6.0])


def test_grad_check_perturbs_a_non_contiguous_parameter_in_place():
    rng = np.random.default_rng(4)
    p = Tensor(rng.normal(size=(4, 3)).T, requires_grad=True)
    assert p.shape == (3, 4) and not p.data.flags.c_contiguous

    def loss():
        return T.tsum(T.mul(p, p))

    assert grad_check(loss, {"p": p})["p"] < 1e-6


def test_grad_check_flags_corrupted_backward():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=6), requires_grad=True)

    def loss():
        out = T.gelu(x)
        rule = out._backward
        if rule is not None:        # None in the perturbed forwards, which run under no_grad
            out._backward = lambda g: rule(1.1 * g)
        return T.tsum(out)

    assert grad_check(loss, {"x": x})["x"] > 1e-2


# -- AdamW -----------------------------------------------------------------------------


def test_adamw_pure_decay_with_zero_grad():
    p = Tensor(np.array([10.0, -4.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01)
    p.grad = np.zeros(2)
    opt.step()
    npt.assert_allclose(p.data, np.array([10.0, -4.0]) * (1 - 0.001), atol=1e-12)


def test_adamw_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
    p.grad = np.array([0.5, -2.0])
    opt.step()
    npt.assert_allclose(p.data, [1.0 - 0.01, 1.0 + 0.01], atol=1e-6)


def test_adamw_identical_params_identical_updates():
    p1 = Tensor(np.array([0.3]), requires_grad=True)
    p2 = Tensor(np.array([0.3]), requires_grad=True)
    opt = AdamW({"p1": p1, "p2": p2}, lr=0.05)
    for _ in range(3):
        p1.grad = np.array([0.7])
        p2.grad = np.array([0.7])
        opt.step()
    npt.assert_allclose(p1.data, p2.data, atol=0)


def per_tensor_adamw_step(params, grads, m, v, t, lr, weight_decay):
    """AdamW as a loop over separate tensors: the reference for the arena."""
    bc1, bc2 = 1.0 - optim.BETA1 ** t, 1.0 - optim.BETA2 ** t
    for name, data in params.items():
        g = grads[name]
        if g is None:
            continue
        data *= 1.0 - lr * weight_decay
        m[name] *= optim.BETA1
        m[name] += (1.0 - optim.BETA1) * g
        v[name] *= optim.BETA2
        v[name] += (1.0 - optim.BETA2) * (g * g)
        data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + optim.EPS)


def test_adamw_arena_matches_the_per_tensor_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    # "big" spans several update blocks; "skipped" has no gradient after step 1.
    shapes = {"w": (3, 4), "big": (2 * optim.BLOCK + 5,), "skipped": (7, 5),
              "b": (1,), "cube": (2, 3, 4)}
    start = {name: rng.normal(size=s) for name, s in shapes.items()}
    params = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
    opt = AdamW(params, lr=0.01, weight_decay=0.1)
    bases = [{id(arrays[name].base) for name in shapes}
             for arrays in ({n: p.data for n, p in params.items()}, opt.m, opt.v)]
    assert all(len(ids) == 1 for ids in bases) and len(set.union(*bases)) == 3
    assert all(np.array_equal(params[name].data, a) for name, a in start.items())

    ref = {name: a.copy() for name, a in start.items()}
    ref_m = {name: np.zeros(s) for name, s in shapes.items()}
    ref_v = {name: np.zeros(s) for name, s in shapes.items()}
    for step in range(1, 4):
        grads = {name: rng.normal(size=s) for name, s in shapes.items()}
        if step > 1:
            grads["skipped"] = None
        for name, p in params.items():
            p.grad = grads[name]
        if step == 2:
            frozen = [a.copy() for a in (params["skipped"].data, opt.m["skipped"],
                                         opt.v["skipped"])]
        opt.step()
        per_tensor_adamw_step(ref, grads, ref_m, ref_v, step, 0.01, 0.1)
        for name in shapes:
            for got, want in ((params[name].data, ref[name]), (opt.m[name], ref_m[name]),
                              (opt.v[name], ref_v[name])):
                assert got.tobytes() == want.tobytes(), (step, name)
    skipped = (params["skipped"].data, opt.m["skipped"], opt.v["skipped"])
    assert all(np.array_equal(a, b) for a, b in zip(skipped, frozen))


# -- checkpoint container ----------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    tensors = {
        "w": Tensor(rng.normal(size=(3, 4))),
        "deep.name.b": Tensor(rng.normal(size=7)),
        "scalarish": Tensor(rng.normal(size=(1,))),
    }
    path = tmp_path / "model.spdp"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name, t in tensors.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.spdp"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def small_tensors() -> dict[str, Tensor]:
    return {"w": Tensor(np.arange(6.0).reshape(2, 3)), "b": Tensor(np.ones(2)),
            "c": Tensor(np.zeros((2, 2, 2)))}


HEAD = b'[["w",[2,3]],["b",[2]],["c",[2,2,2]]]'
PAYLOAD_START = 16 + len(HEAD)


def test_checkpoint_layout_is_one_head_and_one_payload(tmp_path):
    path = tmp_path / "small.spdp"
    save_checkpoint(path, small_tensors())
    raw = path.read_bytes()
    assert raw[:16] == b"SPDP" + (3).to_bytes(4, "little") + len(HEAD).to_bytes(8, "little")
    assert raw[16:PAYLOAD_START] == HEAD
    assert raw[PAYLOAD_START:] == b"".join(t.data.tobytes() for t in small_tensors().values())
    loaded = load_checkpoint(path)
    assert list(loaded) == ["w", "b", "c"]
    assert [t.shape for t in loaded.values()] == [(2, 3), (2,), (2, 2, 2)]


def test_checkpoint_cut_anywhere_is_refused(tmp_path):
    path = tmp_path / "model.spdp"
    save_checkpoint(path, small_tensors())
    raw = path.read_bytes()
    cut_file = tmp_path / "cut.spdp"
    for cut in range(len(raw)):
        cut_file.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as err:
            load_checkpoint(cut_file)
        message = str(err.value)
        assert message.startswith(f"{cut_file}: "), (cut, message)
        if cut < 4:
            assert message.endswith("bad magic"), (cut, message)
        elif cut < PAYLOAD_START:
            assert message.endswith("checkpoint is cut short in its head"), (cut, message)
        else:
            assert f"cut short in its payload ({cut - PAYLOAD_START} of 128 bytes)" in message


@pytest.mark.parametrize("tail", [b"\0", b"\0" * 8, HEAD], ids=["one-byte", "one-float", "head"])
def test_checkpoint_with_bytes_after_its_payload_is_refused(tmp_path, tail):
    path = tmp_path / "long.spdp"
    save_checkpoint(path, small_tensors())
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ValueError, match=f"long.spdp: checkpoint has {len(tail)} bytes after "
                                         "its payload"):
        load_checkpoint(path)


def _with_head(tmp_path, head: bytes, payload: bytes) -> Path:
    path = tmp_path / "edited.spdp"
    path.write_bytes(b"SPDP" + (3).to_bytes(4, "little") + len(head).to_bytes(8, "little")
                     + head + payload)
    return path


def test_checkpoint_naming_a_tensor_twice_is_refused(tmp_path):
    path = _with_head(tmp_path, b'[["w",[2]],["b",[1]],["w",[1]]]', bytes(32))
    with pytest.raises(ValueError, match="edited.spdp: checkpoint names tensor 'w' twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("head", [
    b'{"w":[2]}', b'[["w",[2],0]]', b'[[7,[2]]]', b'[["w",2]]', b'[["w",[-2]]]',
    b'[["w",[2.0]]]', b'[["w",[true,2]]]', b'[["w",[2]]', b'[["\xff",[2]]]',
    b"[" * 100_000,
], ids=["object", "triple", "int-name", "int-shape", "negative", "float", "bool", "unclosed",
        "not-utf8", "nested-deep"])
def test_checkpoint_head_that_is_not_a_list_of_name_shape_pairs_is_refused(tmp_path, head):
    path = _with_head(tmp_path, head, bytes(16))
    with pytest.raises(ValueError, match=r"edited.spdp: checkpoint head is not a JSON list of "
                                         r"\[name, \[extent, ...\]\] pairs"):
        load_checkpoint(path)


def test_checkpoint_extents_numpy_cannot_hold_are_refused(tmp_path):
    path = _with_head(tmp_path, b'[["w",[0,%d]]]' % 2**64, b"")
    with pytest.raises(ValueError, match=r"edited.spdp: tensor 'w' has shape \(0, "):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """Three tensors of rank 2, 1 and 3: 181 bytes, each example rewrites damaged.spdp."""
    root = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(root / "small.spdp", small_tensors())
    return root


@settings(max_examples=300, deadline=None)
@given(pos=st.integers(0, 180), byte=st.none() | st.integers(0, 255))
@example(pos=19, byte=0xff)         # the name of 'w' is not UTF-8
@example(pos=23, byte=ord("9"))     # 'w' is 9 by 3: the head asks for more payload
@example(pos=23, byte=ord("0"))     # 'w' is 0 by 3: the head asks for less
@example(pos=19, byte=ord("b"))     # 'b' is named twice
@example(pos=8, byte=0x24)          # the head ends one byte early
@example(pos=4, byte=2)             # version 2
@example(pos=60, byte=0x80)         # a payload byte of 'w'
def test_checkpoint_cut_or_overwritten_anywhere_loads_or_names_the_file(small_checkpoint,
                                                                         pos, byte):
    """A cut never loads; an overwritten byte loads or is refused naming the file.
    The payload has no checksum, so one overwritten there loads, changed."""
    raw = bytearray((small_checkpoint / "small.spdp").read_bytes())
    assert len(raw) == 181
    if byte is None:
        del raw[pos:]
    else:
        raw[pos] = byte
    path = small_checkpoint / "damaged.spdp"
    path.write_bytes(bytes(raw))
    try:
        loaded = load_checkpoint(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: "), err
        assert byte is None or pos < PAYLOAD_START
        return
    assert byte is not None
    if pos >= PAYLOAD_START:
        assert b"".join(t.data.tobytes() for t in loaded.values()) == raw[PAYLOAD_START:]


def test_checkpoint_failed_save_keeps_previous_file(tmp_path):
    class Unreadable:
        @property
        def data(self):
            raise OSError("device full")

    path = tmp_path / "model.spdp"
    save_checkpoint(path, {"w": Tensor(np.arange(6.0))})
    before = path.read_bytes()
    with pytest.raises(OSError, match="device full"):
        save_checkpoint(path, {"w": Tensor(np.ones(3)), "late": Unreadable()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.spdp"]
