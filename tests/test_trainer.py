"""Unit tests for the joint model bundle and training-loop guards."""

import numpy as np
import pytest

from spdp.config import RunConfig
from spdp.corpus import generate_corpus
from spdp.fusion import total_loss
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
    return sum(float(np.abs(p.grad).sum()) for p in
               model.serial.encoder_params().values() if p.grad is not None)


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


def test_poisoned_weights_fail_fast_as_nan_loss(tmp_path):
    cfg = small_run_config()
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)
    bad = next(iter(model.params().values()))
    bad.data[...] = np.inf
    with pytest.raises(ValueError, match="loss is NaN"):
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
