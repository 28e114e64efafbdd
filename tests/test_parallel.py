"""Unit tests for the parallel (frame-level similarity) classification path."""

import numpy as np
import numpy.testing as npt
import pytest

from spdp import tensor as T
from spdp.optim import AdamW
from spdp.gradcheck import grad_check
from spdp.parallel import ParallelPathConfig, ParallelPathModel
from spdp.tensor import Tensor


def small_cfg(**overrides) -> ParallelPathConfig:
    base = dict(emb_a_dim=12, emb_t_dim=10, d_shared=16, n_subspaces=4, ref_dim=12)
    base.update(overrides)
    return ParallelPathConfig(**base)


def make_model(seed=0, **overrides) -> ParallelPathModel:
    return ParallelPathModel(small_cfg(**overrides), np.random.default_rng(seed))


def random_inputs(cfg, b=2, t=6, s=4, seed=11):
    rng = np.random.default_rng(seed)
    emb_a = rng.normal(size=(b, t, cfg.emb_a_dim))
    emb_t = rng.normal(size=(b, s, cfg.emb_t_dim))
    return emb_a, emb_t, [s] * b


# -- bimodal projection ----------------------------------------------------------


def test_project_zero_input_maps_to_zero():
    model = make_model()
    h_a, h_t = model.project_bimodal(np.zeros((1, 3, 12)), np.zeros((1, 2, 10)))
    npt.assert_allclose(h_a.data, 0.0, atol=1e-12)
    npt.assert_allclose(h_t.data, 0.0, atol=1e-12)


def test_project_rejects_wrong_input_dim():
    model = make_model()
    with pytest.raises(ValueError, match="acoustic input dim"):
        model.project_bimodal(np.zeros((1, 3, 5)), np.zeros((1, 2, 10)))
    with pytest.raises(ValueError, match="linguistic input dim"):
        model.project_bimodal(np.zeros((1, 3, 12)), np.zeros((1, 2, 7)))


def test_project_outputs_are_row_normalized():
    model = make_model()
    emb_a, emb_t, _ = random_inputs(model.cfg)
    h_a, h_t = model.project_bimodal(emb_a, emb_t)
    assert h_a.shape == (2, 6, 16) and h_t.shape == (2, 4, 16)
    for h in (h_a.data, h_t.data):
        npt.assert_allclose(h.mean(axis=-1), 0.0, atol=1e-10)
        npt.assert_allclose(h.var(axis=-1), 1.0, atol=1e-3)


# -- attention alignment -----------------------------------------------------------


def test_align_single_text_position_is_copy():
    model = make_model()
    rng = np.random.default_rng(1)
    h_a = Tensor(rng.normal(size=(2, 5, 16)))
    h_t = Tensor(rng.normal(size=(2, 1, 16)))
    aligned, attn = model.align(h_a, h_t, [1, 1])
    npt.assert_allclose(aligned.data, np.broadcast_to(h_t.data, (2, 5, 16)), atol=1e-12)
    npt.assert_allclose(attn.data, 1.0)


def test_align_rows_are_convex_combinations():
    model = make_model()
    rng = np.random.default_rng(2)
    h_a = Tensor(rng.normal(size=(1, 7, 16)))
    h_t = Tensor(rng.normal(size=(1, 4, 16)))
    aligned, attn = model.align(h_a, h_t, [3])
    npt.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-12)
    npt.assert_allclose(attn.data[:, :, 3], 0.0, atol=1e-15)
    valid = h_t.data[0, :3]
    lo, hi = valid.min(axis=0), valid.max(axis=0)
    assert (aligned.data[0] >= lo - 1e-12).all()
    assert (aligned.data[0] <= hi + 1e-12).all()


def test_align_empty_transcript_raises():
    model = make_model()
    h_a = Tensor(np.zeros((2, 3, 16)))
    h_t = Tensor(np.zeros((2, 4, 16)))
    with pytest.raises(ValueError, match="empty transcript"):
        model.align(h_a, h_t, [4, 0])


# -- subspace similarities ----------------------------------------------------------


def test_subspace_output_shape_and_range():
    model = make_model()
    rng = np.random.default_rng(3)
    h_a = Tensor(rng.normal(size=(2, 6, 16)))
    h_al = Tensor(rng.normal(size=(2, 6, 16)))
    s = model.subspace_similarities(h_a, h_al)
    assert s.shape == (2, 6, 4)
    assert (np.abs(s.data) <= 1.0 + 1e-9).all()


def test_subspace_matches_direct_computation():
    model = make_model(n_subspaces=2, ref_dim=14)
    rng = np.random.default_rng(4)
    h_a = rng.normal(size=(1, 3, 16))
    h_al = rng.normal(size=(1, 3, 16))
    s = model.subspace_similarities(Tensor(h_a), Tensor(h_al))
    d = model.cfg.d_shared
    for n in range(2):
        cols = slice(n * d, (n + 1) * d)
        pa = h_a @ model.sub_a.w.data[:, cols] + model.sub_a.b.data[cols]
        pt = h_al @ model.sub_t.w.data[:, cols] + model.sub_t.b.data[cols]
        dots = (pa * pt).sum(-1)
        norms = np.linalg.norm(pa, axis=-1) * np.linalg.norm(pt, axis=-1)
        npt.assert_allclose(s.data[..., n], dots / (norms + 1e-8), atol=1e-10)


def test_subspace_scale_invariance():
    model = make_model()
    rng = np.random.default_rng(5)
    h_a = rng.normal(size=(1, 4, 16))
    h_al = rng.normal(size=(1, 4, 16))
    base = model.subspace_similarities(Tensor(h_a), Tensor(h_al)).data
    # Scaling a *projected-space* input is not invariant (bias term), so scale
    # the projections themselves by dropping biases to zero first.
    for lin in (model.sub_a, model.sub_t):
        lin.b.data[:] = 0.0
    one = model.subspace_similarities(Tensor(h_a), Tensor(h_al)).data
    four = model.subspace_similarities(Tensor(4.0 * h_a), Tensor(h_al)).data
    npt.assert_allclose(one, four, atol=1e-6)
    assert base.shape == one.shape


def test_subspace_graph_size_does_not_grow_with_subspace_count():
    def node_count(n_subspaces):
        model = make_model(n_subspaces=n_subspaces, ref_dim=16 - n_subspaces)
        rng = np.random.default_rng(7)
        s = model.subspace_similarities(Tensor(rng.normal(size=(1, 3, 16))),
                                        Tensor(rng.normal(size=(1, 3, 16))))
        seen, stack = {id(s)}, [s]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen)

    assert node_count(2) == node_count(8)


def test_subspace_blocks_keep_per_subspace_init_draws():
    cfg = small_cfg()
    model = make_model(seed=3)
    rng = np.random.default_rng(3)
    d, bound = cfg.d_shared, 1.0 / np.sqrt(cfg.d_shared)
    rng.uniform(size=cfg.emb_a_dim * d)          # proj_a
    rng.uniform(size=cfg.emb_t_dim * d)          # proj_t
    for lin in (model.sub_a, model.sub_t):
        for n in range(cfg.n_subspaces):
            block = rng.uniform(-bound, bound, size=(d, d))
            assert lin.w.data[:, n * d:(n + 1) * d].tobytes() == block.tobytes()


# -- representation ------------------------------------------------------------------


def test_representation_layout_and_bound():
    model = make_model()
    rng = np.random.default_rng(6)
    s = Tensor(rng.uniform(-1, 1, size=(2, 5, 4)))
    h_al = Tensor(rng.normal(size=(2, 5, 16)))
    rep = model.build_representation(s, h_al)
    assert rep.shape == (2, 5, model.cfg.rep_dim) == (2, 5, 16)
    npt.assert_allclose(rep.data[..., :4], s.data, atol=0)
    assert (np.abs(rep.data[..., 4:]) < 1.0).all()


# -- classifier ----------------------------------------------------------------------


def test_classify_log_probs_normalized():
    model = make_model()
    rng = np.random.default_rng(7)
    h_cm = Tensor(rng.normal(size=(3, 6, 16)))
    out = model.classify(h_cm)
    assert out.shape == (3, 8)
    npt.assert_allclose(np.exp(out.data).sum(axis=-1), 1.0, atol=1e-12)


# -- full pipeline --------------------------------------------------------------------


def test_forward_shapes():
    model = make_model()
    assert model.forward(*random_inputs(model.cfg)).shape == (2, 8)


def test_forward_deterministic_and_seeded():
    a = make_model(seed=123)
    b = make_model(seed=123)
    c = make_model(seed=124)
    pa, pb, pc = a.params(), b.params(), c.params()
    assert all(pa[k].data.tobytes() == pb[k].data.tobytes() for k in pa)
    assert any(pa[k].data.tobytes() != pc[k].data.tobytes() for k in pa)
    inputs = random_inputs(a.cfg)
    out1 = a.forward(*inputs).data
    out2 = b.forward(*inputs).data
    assert out1.tobytes() == out2.tobytes()


def test_full_path_gradient_check():
    cfg = ParallelPathConfig(emb_a_dim=6, emb_t_dim=5, d_shared=8, n_subspaces=2, ref_dim=6)
    model = ParallelPathModel(cfg, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    emb_a = rng.normal(size=(2, 5, 6))
    emb_t = rng.normal(size=(2, 3, 5))
    labels = np.array([1, 3])

    def loss():
        return model.loss(model.forward(emb_a, emb_t, [3, 2]), labels)

    report = grad_check(loss, model.params(), max_coords_per_param=3,
                        rng=np.random.default_rng(12))
    worst = max(report.values())
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_overfits_small_synthetic_batch():
    model = make_model(seed=20)
    rng = np.random.default_rng(21)
    b, t, s = 8, 6, 4
    emb_a = rng.normal(size=(b, t, 12))
    emb_t = rng.normal(size=(b, s, 10))
    labels = np.arange(8)
    opt = AdamW(model.params(), lr=3e-3)
    reached = None
    for step in range(500):
        log_probs = model.forward(emb_a, emb_t, [s] * b)
        loss = model.loss(log_probs, labels)
        opt.zero_grad()
        loss.backward()
        opt.step()
        if (log_probs.data.argmax(axis=-1) == labels).all():
            reached = step
            break
    assert reached is not None, "failed to overfit 8 items in 500 steps"
