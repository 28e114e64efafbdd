"""Unit tests for the autodiff engine, optimizer, and checkpoint container."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdp import tensor as T
from spdp.checkpoint import load_checkpoint, save_checkpoint
from spdp.gradcheck import grad_check
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


def test_grad_check_flags_corrupted_backward():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=6), requires_grad=True)

    def loss():
        return T.tsum(T.gelu(x))

    T.set_backward_fault(True)
    try:
        report = grad_check(loss, {"x": x})
    finally:
        T.set_backward_fault(False)
    assert report["x"] > 1e-2


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
