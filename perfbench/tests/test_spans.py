import numpy as np
import pytest

import spans
import spdp.fusion
import spdp.tensor
import spdp.trainer
from spdp.config import RunConfig
from spdp.corpus import generate_corpus
from spdp.fusion import total_loss
from spdp.optim import AdamW
from spdp.serial import SerialModel
from spdp.tensor import Tensor


def test_self_time_subtracts_children_union():
    # (parent, name, item, start, end); ids are list positions.
    synthetic = [
        (-1, "outer", 0, 0, 100),
        (0, "child-a", 0, 10, 30),
        (0, "child-b", 0, 20, 50),      # overlaps child-a: union is 10..50
        (1, "grandchild", 0, 12, 15),
        (0, "child-c", 0, 90, 120),     # runs past the parent: clipped at 100
        (-1, "other", 1, 200, 210),
    ]
    assert spans.self_times(synthetic) == [100 - 40 - 10, 20 - 3, 30, 3, 30, 10]
    totals = spans.totals(synthetic)
    assert totals["outer"] == [1, 100, 50]
    assert totals["grandchild"] == [1, 3, 3]
    assert spans.top_level_ns(synthetic) == 110


def test_items_open_at_the_item_start_span():
    tracer = spans.Tracer(item_start="step")
    step = tracer.wrap("step", lambda: None)
    work = tracer.wrap("work", lambda: step())
    work()
    work()
    names_items = [(name, item) for _, name, item, _, _ in tracer.spans]
    assert names_items == [("work", 0), ("step", 1), ("work", 1), ("step", 2)]
    assert [parent for parent, *_ in tracer.spans] == [-1, 0, -1, 2]


def _tiny_step_and_eval():
    cfg = RunConfig(seed=3, n_per_class=2, max_decode_len=16)
    model = spdp.trainer.SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)[::4]
    pool = model.vocab.prompt_pool
    l_s, l_p = model.batch_losses(
        np.stack([u.frames for u in utts]), np.array([u.gold_style for u in utts]),
        [pool[0]] * len(utts),
        [model.vocab.build_target(u.transcript, u.gold_style) for u in utts],
        [len(u.transcript) for u in utts])
    optimizer = AdamW(model.trainable_params())
    loss = total_loss(l_s, l_p, cfg.fusion_config())
    loss.backward()
    optimizer.step()
    spdp.trainer.evaluate(model, utts[:1])


def test_traced_run_restores_every_patched_object():
    named = {"spdp.tensor.matmul": (spdp.tensor, "matmul"),
             "SerialModel.generate_greedy": (SerialModel, "generate_greedy"),
             "spdp.trainer.predict": (spdp.trainer, "predict"),
             "spdp.fusion.predict": (spdp.fusion, "predict"),
             "Tensor.backward": (Tensor, "backward"),
             "AdamW.step": (AdamW, "step")}
    before = {label: vars(owner)[attr] for label, (owner, attr) in named.items()}
    targets = [(owner, attr, vars(owner)[attr]) for owner, attr in spans.patch_targets()]
    assert (spdp.trainer, "predict") in [(o, a) for o, a, _ in targets]

    tracer = spans.Tracer(item_start="fusion.predict")
    with tracer.installed():
        assert spdp.trainer.predict is not before["spdp.trainer.predict"]
        assert spdp.trainer.predict is spdp.fusion.predict
        _tiny_step_and_eval()

    for label, (owner, attr) in named.items():
        assert vars(owner)[attr] is before[label], label
    for owner, attr, fn in targets:
        assert vars(owner)[attr] is fn, (owner, attr)

    names = {name for _, name, *_ in tracer.spans}
    assert {"tensor.matmul", "tensor.matmul.bwd", "tensor.mul.bwd@cosine_sim",
            "tensor.backward", "optim.step", "serial.generate_greedy",
            "fusion.predict", "trainer.evaluate"} <= names
    assert sum(1 for _, name, *_ in tracer.spans if name == "tensor.backward") == 1
    assert 0 < tracer.counters["tensor.graph_nodes_with_backward"] \
        < tracer.counters["tensor.graph_nodes"]
    assert tracer.counters["serial.generate_greedy.tokens"] > 0
    assert tracer.item == 1


def test_restored_when_the_traced_code_raises():
    original = spdp.tensor.matmul
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert spdp.tensor.matmul is not original
            raise RuntimeError("boom")
    assert spdp.tensor.matmul is original
