"""Acceptance gate: eight system-level checks with frozen tolerances.

Each test prints one summary line ("[criterion N] PASS/FAIL ..."); run with
``pytest -s tests/test_acceptance.py`` to see them on passing runs too.
Criteria 5 and 6 share one trained system via a module-scoped fixture, so
the 10-epoch training cost is paid once. All budgets are wall-clock upper
bounds for a single laptop-class CPU core.
"""

import time

import numpy as np
import pytest

from spdp.audio import (build_filter_fixture_set, compute_bins, curate_test,
                        extract_features5, filter_high_expressivity, load_wav)
from spdp.config import RunConfig, make_run_config
from spdp.corpus import generate_corpus
from spdp.fusion import FusionConfig, fuse, total_loss
from spdp.gradcheck import grad_check
from spdp.parallel import ParallelPathModel
from spdp.trainer import SpdpModel, evaluate, train
from spdp.vocab import STYLE_OPEN_ID

GRAD_TOL = 1e-4


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: gradient fidelity --------------------------------------------------


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    cfg = RunConfig(seed=0)               # desk dims are the defaults
    model = SpdpModel(cfg)
    rng = np.random.default_rng(1)
    frames = rng.normal(size=(2, 12, cfg.feat_dim))
    labels = np.array([1, 5])
    vocab = model.vocab
    prompts = [vocab.prompt_pool[0], vocab.prompt_pool[1]]
    targets = [vocab.build_target(list(vocab.class_blocks[1][:4]), 1),
               vocab.build_target(list(vocab.class_blocks[5][:3]), 5)]
    fusion_cfg = cfg.fusion_config()

    def loss_fn():
        l_s, l_p = model.batch_losses(frames, labels, prompts, targets, [4, 3])
        return total_loss(l_s, l_p, fusion_cfg)

    report = grad_check(loss_fn, model.trainable_params(), max_coords_per_param=3,
                        rng=np.random.default_rng(2))
    worst = max(report.values())
    elapsed = time.perf_counter() - t0
    ok = worst < GRAD_TOL and elapsed < 120
    verdict(1, ok, f"gradient check over {len(report)} parameter tensors: "
            f"worst relative error {worst:.3e} (tol {GRAD_TOL:g}), {elapsed:.1f}s (< 120s)")


# -- criterion 2: full-scale shape fidelity --------------------------------------------


def test_criterion_2_full_scale_shapes():
    t0 = time.perf_counter()
    cfg = make_run_config({}, {"profile": "paper-dims"})
    acfg = cfg.parallel_config()
    model = ParallelPathModel(acfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    t_frames, s_tokens = 6, 4
    emb_a = rng.normal(size=(1, t_frames, acfg.emb_a_dim))
    emb_t = rng.normal(size=(1, s_tokens, acfg.emb_t_dim))
    text_mask = np.ones((1, s_tokens), dtype=bool)
    frame_mask = np.ones((1, t_frames), dtype=bool)

    h_a, h_t = model.project_bimodal(emb_a, emb_t)
    h_t_al, _ = model.align(h_a, h_t, text_mask)
    s = model.subspace_similarities(h_a, h_t_al)
    h_cm = model.build_representation(s, h_t_al)
    log_probs = model.classify(h_cm, frame_mask)

    shapes = {
        "input emb_a": (emb_a.shape, (1, t_frames, 3072)),
        "input emb_t": (emb_t.shape, (1, s_tokens, 896)),
        "h_a": (h_a.shape, (1, t_frames, 256)),
        "h_t_al": (h_t_al.shape, (1, t_frames, 256)),
        "s": (s.shape, (1, t_frames, 16)),
        "h_cm": (h_cm.shape, (1, t_frames, 144)),
        "log_probs": (log_probs.shape, (1, 8)),
    }
    bad = [f"{k}: {got} != {want}" for k, (got, want) in shapes.items() if got != want]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30
    verdict(2, ok, "full-scale profile shapes "
            + ("all exact" if not bad else "; ".join(bad))
            + f" (h_a T×256, s T×16, h_cm T×144, log_probs 8), {elapsed:.1f}s (< 30s)")


# -- criterion 3: overfit oracle ---------------------------------------------------------


def test_criterion_3_overfit_oracle(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(n_per_class=4, epochs=250, max_steps=400, batch_size=16,
                    seed=0, lr=5e-4)
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)
    train_utts = [u for u in utts if u.split == "train"]
    assert len(train_utts) == 32
    result = train(model, train_utts, tmp_path)
    losses = np.array([r["L_total"] for r in result.log])
    windows = losses.reshape(-1, 50).mean(axis=1)
    decreasing = bool(all(b < a for a, b in zip(windows, windows[1:])))
    acc = evaluate(model, train_utts).fused_accuracy
    elapsed = time.perf_counter() - t0
    ok = result.steps <= 500 and acc == 1.0 and decreasing and elapsed < 300
    verdict(3, ok, f"overfit 32 utterances: fused train accuracy {acc:.3f} "
            f"after {result.steps} steps (<= 500), 50-step loss windows "
            f"{'strictly decreasing' if decreasing else 'NOT monotone'} "
            f"({windows[0]:.2f} -> {windows[-1]:.3f}), {elapsed:.1f}s (< 300s)")


# -- criterion 4: fusion arithmetic oracle --------------------------------------------------


def test_criterion_4_fusion_arithmetic():
    t0 = time.perf_counter()
    cfg = FusionConfig(a=0.3, b=0.7)
    eye = np.eye(8)
    table = []
    for i in range(8):                     # all 64 one-hot pairs
        for j in range(8):
            expected = 0.3 * eye[i] + 0.7 * eye[j]
            table.append((eye[i], eye[j], expected, i if i == j else j))
    rng = np.random.default_rng(3)
    for _ in range(20):                    # soft pairs
        p, q = rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(8))
        expected = 0.3 * p + 0.7 * q
        cls = int(np.flatnonzero(expected == expected.max())[0])
        table.append((p, q, expected, cls))
    for k in (0, 3):                       # engineered exact ties -> lowest index
        p = np.zeros(8)
        p[k] = p[k + 1] = 0.5
        expected = 0.3 * p + 0.7 * p
        table.append((p, p.copy(), expected, k))

    failures = []
    for idx, (p, q, expected_final, expected_cls) in enumerate(table):
        final, cls = fuse(p, q, cfg)
        if cls != expected_cls or not np.allclose(final, expected_final, atol=1e-15):
            failures.append(idx)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    verdict(4, ok, f"fusion arithmetic: {len(table)} (p, q) cases "
            f"({len(table) - len(failures)} exact matches, ties to lowest index), "
            f"{elapsed * 1000:.0f}ms (< 1s)")


# -- criteria 5 and 6: one trained system ------------------------------------------------------


@pytest.fixture(scope="module")
def trained_system(tmp_path_factory):
    t0 = time.perf_counter()
    cfg = RunConfig(n_per_class=625, coupling=0.9, spread=0.9, train_fraction=0.8,
                    epochs=10, batch_size=16, lr=1e-3, seed=0)
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)
    train_utts = [u for u in utts if u.split == "train"]
    test_utts = [u for u in utts if u.split == "test"]
    assert len(train_utts) == 4000 and len(test_utts) == 1000
    out = tmp_path_factory.mktemp("trained-system")
    train(model, train_utts, out)
    report = evaluate(model, test_utts)
    return {"model": model, "test": test_utts, "report": report,
            "elapsed": time.perf_counter() - t0}


def test_criterion_5_dual_path_complementarity(trained_system):
    report = trained_system["report"]
    elapsed = trained_system["elapsed"]
    floor = max(report.serial_accuracy, report.parallel_accuracy) - 0.02
    ok = (report.fused_accuracy >= 0.80
          and report.fused_accuracy >= floor
          and elapsed < 1200)
    verdict(5, ok, f"complementarity on 1000 held-out utterances: fused "
            f"{report.fused_accuracy:.3f} (>= 0.80), serial {report.serial_accuracy:.3f}, "
            f"parallel {report.parallel_accuracy:.3f}, fused >= best single - 0.02, "
            f"{elapsed:.0f}s (< 1200s)")


def test_criterion_6_serial_paradigm_contract(trained_system):
    t0 = time.perf_counter()
    model = trained_system["model"]
    serial = model.serial
    prompt = model.vocab.prompt_pool[0]
    first_tokens = set(model.vocab.first_token_ids)
    contract_hits = no_termination = 0
    utts = trained_system["test"]
    from spdp import tensor as T
    batch = model.run_cfg.batch_size
    with T.no_grad():
        for lo in range(0, len(utts), batch):
            frames = np.stack([u.frames for u in utts[lo:lo + batch]])
            mask = np.ones(frames.shape[:2], dtype=bool)
            enc_last, _, ds = serial.encode(frames, mask)
            prefix, pmask = serial.adapt(enc_last, ds)
            gen = serial.generate_greedy(prefix, pmask, prompt)
            for toks, flags in zip(gen.tokens, gen.flags):
                if "NoTermination" in flags:
                    no_termination += 1
                    continue
                pos = toks.index(STYLE_OPEN_ID)
                if toks.count(STYLE_OPEN_ID) == 1 and pos + 1 < len(toks) \
                        and toks[pos + 1] in first_tokens:
                    contract_hits += 1
    rate = contract_hits / len(utts)
    nt_rate = no_termination / len(utts)
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.99 and elapsed < 300
    verdict(6, ok, f"serial contract on {len(utts)} generations: {rate:.3f} emit "
            f"exactly one style-open + valid label first token (>= 0.99); "
            f"no-termination fallback rate {nt_rate:.3f}, {elapsed:.0f}s (< 300s)")


# -- criterion 7: curation pipeline ---------------------------------------------------------------


def test_criterion_7_curation_pipeline(tmp_path):
    t0 = time.perf_counter()
    truth = build_filter_fixture_set(tmp_path, n=100, planted_fraction=0.2, seed=0)
    features = {}
    for name in truth:
        wav, sr = load_wav(tmp_path / name)
        features[name] = extract_features5(wav, sr)
    bins = compute_bins(list(features.values()))
    kept = {n for n, fv in features.items() if filter_high_expressivity(fv, bins)}
    planted = {n for n, v in truth.items() if v}
    recall = len(kept & planted) / len(planted)

    draws = np.random.default_rng(4).normal(size=(1_000_000, 5))
    mc_bins = compute_bins(draws)
    low = (draws <= mc_bins.low_cut).mean(axis=0)
    high = (draws > mc_bins.high_cut).mean(axis=0)
    mid = 1.0 - low - high
    tertiles_ok = bool(np.all(np.abs(np.stack([low, mid, high]) - 1 / 3) < 0.01))

    curation_ok = curate_test(6, 5) and not curate_test(5, 5)
    elapsed = time.perf_counter() - t0
    ok = recall >= 0.9 and tertiles_ok and curation_ok and elapsed < 120
    verdict(7, ok, f"curation: planted-filter recall {recall:.2f} (>= 0.9), "
            f"1e6-draw tertile masses within 1/3 +/- 0.01 ({'yes' if tertiles_ok else 'NO'}), "
            f"review threshold keeps (6,5) and drops (5,5) "
            f"({'yes' if curation_ok else 'NO'}), {elapsed:.1f}s (< 120s)")


# -- criterion 8: determinism ------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()

    def run(out_dir):
        cfg = RunConfig(n_per_class=16, epochs=2, batch_size=16, seed=7)
        model = SpdpModel(cfg)
        utts = generate_corpus(cfg.corpus_config(), model.vocab)
        train(model, [u for u in utts if u.split == "train"], out_dir)
        report = evaluate(model, [u for u in utts if u.split == "test"])
        return report.to_json()

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    json_a = run(out_a)
    json_b = run(out_b)
    ckpt_equal = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("ckpt-epoch-0.spdp", "ckpt-epoch-1.spdp"))
    log_equal = ((out_a / "train_log.jsonl").read_bytes()
                 == (out_b / "train_log.jsonl").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = ckpt_equal and log_equal and json_a == json_b and elapsed < 600
    verdict(8, ok, f"determinism: checkpoints bit-identical ({ckpt_equal}), "
            f"step logs identical ({log_equal}), metrics identical "
            f"({json_a == json_b}), {elapsed:.0f}s (< 600s)")
