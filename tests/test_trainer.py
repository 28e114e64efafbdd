"""Unit tests for the joint model bundle and training-loop guards."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdp import tensor as T
from spdp.checkpoint import load_checkpoint, restore_params
from spdp.config import RunConfig
from spdp.corpus import generate_corpus
from spdp.fusion import total_loss
from spdp.gradcheck import grad_check
from spdp.optim import AdamW
from spdp.trainer import SpdpModel, _epoch_rng, train


def small_run_config(**overrides) -> RunConfig:
    base = dict(n_per_class=2, enc_dim=16, dec_dim=24, d_shared=16,
                n_subspaces=4, ref_dim=12, epochs=1, batch_size=4)
    base.update(overrides)
    return RunConfig(**base)


def batch_for(model, seed=0, b=2):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(b, 12, model.run_cfg.feat_dim))
    v = model.vocab
    labels = np.arange(b) % 8
    prompts = [v.prompt_pool[i % len(v.prompt_pool)] for i in range(b)]
    targets = [v.build_target(list(v.class_blocks[int(c)][:3]), int(c))
               for c in labels]
    return frames, labels, prompts, targets, [3] * b


def encoder_grad_norm(model) -> float:
    return sum(float(np.abs(p.grad).sum()) for name, p in model.params().items()
               if name.startswith("serial.enc") and p.grad is not None)


def test_parallel_loss_reaches_the_encoder():
    model = SpdpModel(small_run_config())
    frames, labels, prompts, targets, lens = batch_for(model)
    _, l_parallel = model.batch_losses(frames, labels, prompts, targets, lens)
    l_parallel.backward()
    assert encoder_grad_norm(model) > 1e-8


def test_joint_losses_are_finite_and_positive():
    model = SpdpModel(small_run_config())
    frames, labels, prompts, targets, lens = batch_for(model)
    l_s, l_p = model.batch_losses(frames, labels, prompts, targets, lens)
    assert np.isfinite(l_s.data) and l_s.data > 0
    assert np.isfinite(l_p.data) and l_p.data > 0


def test_epoch_rng_is_reproducible_and_epoch_dependent():
    a = _epoch_rng(3, 1).permutation(10)
    b = _epoch_rng(3, 1).permutation(10)
    c = _epoch_rng(3, 2).permutation(10)
    assert (a == b).all()
    assert not (a == c).all()


def test_train_rejects_too_small_decode_budget(tmp_path):
    cfg = small_run_config(max_decode_len=6)
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)
    with pytest.raises(ValueError, match="max_decode_len"):
        train(model, [u for u in utts if u.split == "train"], tmp_path)


@pytest.mark.parametrize("transcript, message", [
    (None, "no training utterances in corpus"),
    ([], "utterance utt-0-00000: empty transcript"),
    ([9999], "utterance utt-0-00000: token id 9999 is not a word of the vocabulary (4..120)"),
    ([5, 2], "utterance utt-0-00000: token id 2 is not a word of the vocabulary (4..120)"),
    ([1, 5], "utterance utt-0-00000: token id 1 is not a word of the vocabulary (4..120)"),
], ids=["no-utterances", "empty", "out-of-range", "style-open", "eos"])
def test_train_refuses_bad_transcripts_before_any_output(tmp_path, transcript, message):
    cfg = small_run_config()
    model = SpdpModel(cfg)
    utts = [u for u in generate_corpus(cfg.corpus_config(), model.vocab) if u.split == "train"]
    if transcript is None:
        utts = []
    else:
        assert utts[0].id == "utt-0-00000"
        utts[0].transcript = transcript
    out = tmp_path / "out"
    with pytest.raises(ValueError) as err:
        train(model, utts, out)
    assert message in str(err.value)
    assert not out.exists()


def test_restore_writes_parameters_and_moments_in_place(tmp_path):
    cfg = small_run_config()
    trained = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), trained.vocab)
    train(trained, [u for u in utts if u.split == "train"], tmp_path)
    blobs = load_checkpoint(tmp_path / "ckpt-epoch-0.spdp")
    model = SpdpModel(cfg)
    optimizer = AdamW(model.params())
    live = model.params() | optimizer.state_tensors()
    arrays = {name: t.data for name, t in live.items()}
    restore_params(live, blobs)
    for name, t in live.items():
        assert t.data is arrays[name], name
        assert np.array_equal(t.data, blobs[name].data), name
    for name, p in model.params().items():
        assert p.data is arrays[name]
        assert optimizer.m[name] is arrays[f"opt.m.{name}"]
        assert optimizer.v[name] is arrays[f"opt.v.{name}"]
    assert any(np.any(optimizer.m[name] != 0) for name in optimizer.m)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_poisoned_weights_fail_fast_as_nan_loss(tmp_path):
    cfg = small_run_config()
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)
    bad = next(iter(model.params().values()))
    bad.data[...] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite loss at step 1; batch ids: "):
        train(model, [u for u in utts if u.split == "train"], tmp_path)


def test_train_reports_infinite_loss_with_batch_ids(tmp_path, monkeypatch):
    cfg = small_run_config()
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)
    import spdp.trainer as trainer_mod
    from spdp.tensor import Tensor
    monkeypatch.setattr(trainer_mod, "total_loss",
                        lambda l_s, l_p, fc: Tensor(np.array(np.inf)))
    with pytest.raises(FloatingPointError, match="batch ids") as exc:
        train(model, [u for u in utts if u.split == "train"], tmp_path)
    assert "utt-" in str(exc.value)


def graph_nodes(root) -> list:
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_desk_dims_train_step_has_at_most_210_backward_nodes():
    cfg = RunConfig()
    model = SpdpModel(cfg)
    l_s, l_p = model.batch_losses(*batch_for(model, b=4))
    nodes = graph_nodes(total_loss(l_s, l_p, cfg.fusion_config()))
    assert sum(node._backward is not None for node in nodes) <= 210


def test_checkpoint_name_table_is_pinned():
    """Record names, shapes and order of a default checkpoint."""
    params = SpdpModel(RunConfig()).params()
    table = "\n".join(f"{name} {tuple(t.shape)}" for name, t in params.items())
    assert len(params) == 225
    assert sum(t.size for t in params.values()) == 379_865
    assert hashlib.sha256(table.encode()).hexdigest() == \
        "b9f4892d603fec93554781d8d3dc724b6d59e99addfdf1e0822022946ff6d57a"


def test_params_hold_every_trained_leaf_once():
    model = SpdpModel(small_run_config())
    l_s, l_p = model.batch_losses(*batch_for(model))
    loss = total_loss(l_s, l_p, model.run_cfg.fusion_config())
    leaves = {id(node) for node in graph_nodes(loss)
              if node.requires_grad and not node._parents}
    loss.backward()
    named = [id(t) for t in model.params().values()]
    assert len(set(named)) == len(named)
    assert leaves == set(named)
    for name, p in model.params().items():
        assert p.grad is not None and p.grad.shape == p.shape, name


@pytest.mark.parametrize("b", [3, 16])
def test_desk_dims_train_step_graph_size(b):
    # The north-star count of graph nodes per train step. A change that moves
    # these numbers must update them here and say so in CHANGES.md.
    cfg = RunConfig(n_per_class=2)
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)[:b]
    pool = model.vocab.prompt_pool
    l_s, l_p = model.batch_losses(
        np.stack([u.frames for u in utts]), np.array([u.gold_style for u in utts]),
        [pool[i % len(pool)] for i in range(b)],
        [model.vocab.build_target(u.transcript, u.gold_style) for u in utts],
        [len(u.transcript) for u in utts])
    root = total_loss(l_s, l_p, cfg.fusion_config())
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    assert len(seen) == 437
    assert sum(node._backward is not None for node in seen.values()) == 204


def desk_dims_step(b=16):
    """A desk-dims model, AdamW over it, and a function that runs one step
    and returns that step's (l_s, l_p, loss) as ``trainer.train`` holds them."""
    cfg = RunConfig(n_per_class=2)
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)[:b]
    pool = model.vocab.prompt_pool
    batch = (np.stack([u.frames for u in utts]), np.array([u.gold_style for u in utts]),
             [pool[i % len(pool)] for i in range(b)],
             [model.vocab.build_target(u.transcript, u.gold_style) for u in utts],
             [len(u.transcript) for u in utts])
    optimizer = AdamW(model.params())

    def step(backward=True):
        l_s, l_p = model.batch_losses(*batch)
        loss = total_loss(l_s, l_p, cfg.fusion_config())
        if backward:
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return l_s, l_p, loss

    return model, step


def test_backward_frees_every_interior_node():
    _, step = desk_dims_step(b=3)
    *_, loss = step(backward=False)
    interior = [node for node in graph_nodes(loss) if node._backward is not None]
    assert len(interior) == 204
    loss.backward()
    for node in interior:
        assert node._backward is not None if node is loss else node._backward is None
        assert node._parents == ()
        assert (node.grad is not None) if node is loss else (node.grad is None)


def test_parameter_gradients_own_their_memory():
    model, step = desk_dims_step(b=3)
    step()
    params = list(model.params().items())
    for i, (name, p) in enumerate(params):
        for other_name, other in params:
            assert not np.shares_memory(p.grad, other.data), (name, other_name)
        for other_name, other in params[i + 1:]:
            assert not np.shares_memory(p.grad, other.grad), (name, other_name)


def test_train_steps_do_not_keep_an_earlier_graph_alive():
    # Allocation sizes are deterministic, so this bound does not depend on the
    # host: with step k's graph alive through step k+1's forward the traced
    # peak is about 102 MiB; freed by the backward it is about 31 MiB.
    _, step = desk_dims_step(b=16)
    held = step()           # as in train, step k's losses live on into step k+1
    tracemalloc.start()
    try:
        for _ in range(3):
            held = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_grad_check_flags_a_one_percent_fault_in_the_model(monkeypatch):
    """The negative control of acceptance criterion 1: its batch, at desk dims,
    with every GELU's backward rule scaled by 1.01."""
    gelu = T.gelu

    def faulty_gelu(a):
        out = gelu(a)
        rule = out._backward
        if rule is not None:        # None in the perturbed forwards, which run under no_grad
            out._backward = lambda g: rule(1.01 * g)
        return out

    monkeypatch.setattr(T, "gelu", faulty_gelu)
    cfg = RunConfig(seed=0)
    model = SpdpModel(cfg)
    frames = np.random.default_rng(1).normal(size=(2, 12, cfg.feat_dim))
    v = model.vocab
    targets = [v.build_target(list(v.class_blocks[1][:4]), 1),
               v.build_target(list(v.class_blocks[5][:3]), 5)]

    def loss_fn():
        l_s, l_p = model.batch_losses(frames, np.array([1, 5]), v.prompt_pool[:2],
                                      targets, [4, 3])
        return total_loss(l_s, l_p, cfg.fusion_config())

    report = grad_check(loss_fn, model.params(), max_coords_per_param=1,
                        rng=np.random.default_rng(2))
    assert max(report.values()) > 1e-4


@settings(max_examples=300, deadline=None)
@given(feat_dim=st.integers(0, 3), frames_per_utt=st.integers(0, 3),
       enc_dim=st.sampled_from([3, 4, 8]), dec_dim=st.sampled_from([3, 4, 8]),
       d_shared=st.integers(1, 3),
       subspaces=st.sampled_from([(1, 0), (1, 3), (2, 2), (3, 1), (2, 3), (1, 7)]),
       batch_size=st.sampled_from([0, 1, 2, 100_000]))
def test_every_config_run_config_accepts_trains_a_finite_step(
        feat_dim, frames_per_utt, enc_dim, dec_dim, d_shared, subspaces, batch_size):
    """Near each dimension's lower bound a config is refused when built, or it
    gives a finite loss and finite gradients."""
    n_subspaces, ref_dim = subspaces
    try:
        cfg = RunConfig(n_per_class=2, feat_dim=feat_dim, frames_per_utt=frames_per_utt,
                        enc_dim=enc_dim, dec_dim=dec_dim, d_shared=d_shared,
                        n_subspaces=n_subspaces, ref_dim=ref_dim, batch_size=batch_size)
    except ValueError:
        return
    model = SpdpModel(cfg)
    v = model.vocab
    batch = [u for u in generate_corpus(cfg.corpus_config(), v)
             if u.split == "train"][:batch_size]
    prompts = [v.prompt_pool[i % len(v.prompt_pool)] for i in range(len(batch))]
    l_s, l_p = model.batch_losses(np.stack([u.frames for u in batch]),
                                  np.array([u.gold_style for u in batch]), prompts,
                                  [v.build_target(u.transcript, u.gold_style) for u in batch],
                                  [len(u.transcript) for u in batch])
    loss = total_loss(l_s, l_p, cfg.fusion_config())
    loss.backward()
    assert np.isfinite(l_s.data) and np.isfinite(l_p.data) and np.isfinite(loss.data)
    assert [name for name, p in model.params().items()
            if p.grad is None or not np.isfinite(p.grad).all()] == []
