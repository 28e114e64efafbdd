"""Batched, K/V-cached inference against a per-utterance reference decoder.

``reference_generate`` and ``reference_predict`` are the plain definitions:
one utterance at a time, the whole [audio | prompt | generated] decoder
forward recomputed for every token, and one more full pass for the
transcript's hidden states. The cached, batched path must give the same
tokens, flags and transcripts, and the same numbers to 1e-12.
"""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import spdp.trainer
from spdp import tensor as T
from spdp.config import RunConfig
from spdp.corpus import generate_corpus
from spdp.fusion import (PARALLEL_ONLY_FALLBACK, PredictionRecord,
                         serial_style_distribution, fuse, predict)
from spdp.layers import KVCache, TransformerLayer, sinusoidal_positions
from spdp.serial import DecoderCache
from spdp.trainer import NO_LINGUISTIC_EVIDENCE, SpdpModel, evaluate, train
from spdp.vocab import EOS_ID, STYLE_OPEN_ID

TOL = 1e-12


# -- the reference: per utterance, full recompute ------------------------------------------


def reference_generate(serial, audio_prefix, audio_mask, prompt):
    """(tokens, p_nt, transcript, emb_t (1, K, d) or None, flags) for one utterance."""
    generated = []
    p_nt = None
    with T.no_grad():
        for _ in range(serial.cfg.max_decode_len):
            row = list(prompt) + generated
            ids = np.asarray([row], dtype=np.int64)
            hidden = serial.decode_hidden(audio_prefix, audio_mask, ids,
                                          np.ones(ids.shape, dtype=bool))
            logits = serial.head(T.take(hidden, (slice(None), slice(len(row) - 1, len(row)))))
            dist = T.softmax(logits, axis=-1).data[0, 0]
            if generated and generated[-1] == STYLE_OPEN_ID and p_nt is None:
                p_nt = dist.copy()
            nxt = int(np.argmax(dist))
            generated.append(nxt)
            if nxt == EOS_ID:
                break
        flags = []
        if STYLE_OPEN_ID in generated:
            transcript = generated[:generated.index(STYLE_OPEN_ID)]
        else:
            flags.append("NoTermination")
            p_nt = None
            transcript = [t for t in generated if t != EOS_ID]
        emb_t = None
        if transcript:
            ids = np.asarray([list(prompt) + generated], dtype=np.int64)
            hidden = serial.decode_hidden(audio_prefix, audio_mask, ids,
                                          np.ones(ids.shape, dtype=bool))
            emb_t = hidden.data[:, len(prompt):len(prompt) + len(transcript)]
    return generated, p_nt, transcript, emb_t, flags


def encode_one(serial, frames):
    with T.no_grad():
        mask = np.ones((1, frames.shape[0]), dtype=bool)
        enc_last, emb_a, enc_mask = serial.encode(frames[None], mask)
        prefix, pmask = serial.adapt(enc_last, enc_mask)
    return emb_a, enc_mask, prefix, pmask


def reference_predict(model, frames):
    """The record of one utterance, or None when it has no transcript."""
    cfg = model.run_cfg.fusion_config()
    emb_a, enc_mask, prefix, pmask = encode_one(model.serial, frames)
    _, p_nt, transcript, emb_t, flags = reference_generate(
        model.serial, prefix, pmask, model.vocab.prompt_pool[0])
    if not transcript:
        return None
    with T.no_grad():
        out = model.parallel.forward(emb_a, emb_t, np.ones((1, len(transcript)), dtype=bool),
                                     enc_mask)
    q = np.exp(out.log_probs.data[0])
    if p_nt is None:
        flags.append(PARALLEL_ONLY_FALLBACK)
        p, final, cls = np.full(8, 1 / 8), q.copy(), int(np.argmax(q))
    else:
        p, p_flags = serial_style_distribution(p_nt, model.style_map)
        flags.extend(p_flags)
        final, cls = fuse(p, q, cfg)
    return PredictionRecord(transcript=list(transcript), p=list(map(float, p)),
                            q=list(map(float, q)), final=list(map(float, final)),
                            cls=cls, flags=flags)


def assert_same_record(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    assert got.transcript == want.transcript
    assert got.flags == want.flags
    assert got.cls == want.cls
    for key in ("p", "q", "final"):
        npt.assert_allclose(getattr(got, key), getattr(want, key), rtol=0, atol=TOL)


# -- a trained model ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cfg = RunConfig(seed=0, n_per_class=64, epochs=2)
    model = SpdpModel(cfg)
    utts = generate_corpus(cfg.corpus_config(), model.vocab)
    train(model, [u for u in utts if u.split == "train"], tmp_path_factory.mktemp("model"))
    return model, [u for u in utts if u.split == "test"]


def batch_prefix(serial, utts):
    with T.no_grad():
        frames = np.stack([u.frames for u in utts])
        enc_last, _, enc_mask = serial.encode(frames, np.ones(frames.shape[:2], dtype=bool))
        return serial.adapt(enc_last, enc_mask)


def assert_generation_matches_reference(serial, prompt, utts):
    gen = serial.generate_greedy(*batch_prefix(serial, utts), prompt)
    assert len(gen.tokens) == len(utts)
    for i, u in enumerate(utts):
        _, _, prefix, pmask = encode_one(serial, u.frames)
        tokens, p_nt, transcript, emb_t, flags = reference_generate(
            serial, prefix, pmask, prompt)
        assert gen.tokens[i] == tokens
        assert gen.transcript[i] == transcript
        assert gen.flags[i] == flags
        assert (gen.p_nt[i] is None) == (p_nt is None)
        if p_nt is not None:
            npt.assert_allclose(gen.p_nt[i], p_nt, rtol=0, atol=TOL)
        k = len(transcript)
        assert gen.emb_t_mask[i].tolist() == [j < k for j in range(gen.emb_t.shape[1])]
        assert not gen.emb_t[i, k:].any()
        if k:
            npt.assert_allclose(gen.emb_t[i:i + 1, :k], emb_t, rtol=0, atol=TOL)
    return gen


def predict_args(model):
    return (model.serial, model.parallel, model.style_map, model.run_cfg.fusion_config(),
            model.vocab.prompt_pool[0])


# -- generation -----------------------------------------------------------------------------


def test_batched_generation_matches_reference(trained):
    model, test = trained
    gen = assert_generation_matches_reference(model.serial, model.vocab.prompt_pool[0],
                                              test[:16])
    # rows of one batch stop at different steps
    assert len({len(tokens) for tokens in gen.tokens}) > 1
    assert all(flags == [] for flags in gen.flags)


def test_no_termination_row_next_to_terminating_rows(trained, monkeypatch):
    model, test = trained
    utts, prompt = test[:16], model.vocab.prompt_pool[0]
    # "<" is at index len(transcript); cut the decode just before the latest one
    opens = [len(t) for t in
             model.serial.generate_greedy(*batch_prefix(model.serial, utts), prompt).transcript]
    assert min(opens) < max(opens)
    monkeypatch.setattr(model.serial.cfg, "max_decode_len", max(opens))
    gen = assert_generation_matches_reference(model.serial, prompt, utts)
    stopped = ["NoTermination" in flags for flags in gen.flags]
    assert stopped == [n == max(opens) for n in opens]
    # a row cut off at max_decode_len has all its tokens as transcript
    for tokens, transcript, cut in zip(gen.tokens, gen.transcript, stopped):
        if cut:
            assert len(tokens) == max(opens) and transcript == tokens
    recs = predict(np.stack([u.frames for u in utts]), *predict_args(model))
    for rec, u in zip(recs, utts):
        assert_same_record(rec, reference_predict(model, u.frames))
    assert evaluate(model, utts).fallback_counts["NoTermination"] == sum(stopped)


def test_cached_decode_matches_full_decode_on_every_position(trained):
    model, test = trained
    serial, prompt = model.serial, model.vocab.prompt_pool[0]
    prefix, pmask = batch_prefix(serial, test[:3])
    ids = np.asarray([prompt + [10, 20, 30, 40]] * 3, dtype=np.int64)
    with T.no_grad():
        full = serial.decode_hidden(prefix, pmask, ids, np.ones(ids.shape, dtype=bool)).data
        cache = DecoderCache([KVCache(64) for _ in serial.dec_layers],
                             sinusoidal_positions(64, serial.cfg.dec_dim),
                             np.zeros((3, 0), dtype=bool))
        p = len(prompt)
        parts = [serial.decode_hidden(prefix, pmask, ids[:, :p],
                                      np.ones((3, p), dtype=bool), cache).data]
        for j in range(p, ids.shape[1]):
            parts.append(serial.decode_hidden(None, None, ids[:, j:j + 1],
                                              np.ones((3, 1), dtype=bool), cache).data)
    npt.assert_allclose(np.concatenate(parts, axis=1), full, rtol=0, atol=TOL)
    with pytest.raises(ValueError, match="first decoder call only"):
        with T.no_grad():
            serial.decode_hidden(prefix, pmask, ids[:, :1], np.ones((3, 1), dtype=bool), cache)


def test_kv_cache_is_refused_with_gradients_on():
    layer = TransformerLayer(np.random.default_rng(0), 8, 2)
    x = T.Tensor(np.random.default_rng(1).normal(size=(1, 3, 8)))
    with pytest.raises(ValueError, match="no_grad"):
        layer(x, cache=KVCache(5))
    with T.no_grad():
        cache = KVCache(5)
        layer(x, cache=cache)
    assert cache.k.shape == cache.v.shape == (1, 5, 8)
    assert cache.length == 3


def test_kv_cache_overflow_raises():
    layer = TransformerLayer(np.random.default_rng(0), 8, 2)
    x = T.Tensor(np.random.default_rng(1).normal(size=(1, 3, 8)))
    cache = KVCache(4)
    with T.no_grad():
        layer(x, cache=cache)
        with pytest.raises(ValueError, match="K/V cache overflow: 6 positions > capacity 4"):
            layer(x, cache=cache)
    assert cache.length == 3


# -- predict and evaluate -------------------------------------------------------------------


def test_evaluate_matches_reference_records(trained, tmp_path):
    model, test = trained
    out = tmp_path / "predictions.jsonl"
    report = evaluate(model, test, records_out=out)
    got = [PredictionRecord.from_json_line(line) for line in out.read_text().splitlines()]
    want = [reference_predict(model, u.frames) for u in test]
    assert len(got) == len([w for w in want if w is not None]) == report.n == len(test)
    for g, w in zip(got, want):
        assert_same_record(g, w)
    hits = sum(w.cls == u.gold_style for w, u in zip(want, test))
    assert report.fused_accuracy == hits / len(test)


def test_empty_transcript_row_keeps_the_other_records(trained, monkeypatch):
    model, test = trained
    utts = test[:4]
    real = model.serial.generate_greedy

    def drop_row_1(audio_prefix, audio_mask, prompt):
        gen = real(audio_prefix, audio_mask, prompt)
        gen.transcript[1] = []
        gen.emb_t_mask[1] = False
        gen.emb_t[1] = 0.0
        return gen

    frames = np.stack([u.frames for u in utts])
    full = predict(frames, *predict_args(model))
    monkeypatch.setattr(model.serial, "generate_greedy", drop_row_1)
    recs = predict(frames, *predict_args(model))
    assert recs[1] is None
    for i in (0, 2, 3):
        assert_same_record(recs[i], full[i])
    report = evaluate(model, utts)
    assert report.fallback_counts[NO_LINGUISTIC_EVIDENCE] == 1


def test_mixed_frame_counts_match_one_at_a_time(trained, tmp_path, monkeypatch):
    model, test = trained
    utts = [dataclasses.replace(u, frames=u.frames[:n])
            for u, n in zip(test[:7], (24, 24, 20, 20, 20, 24, 16))]
    sizes = []
    real = spdp.trainer.predict

    def counting(frames, *args):
        sizes.append(frames.shape[0])
        return real(frames, *args)

    monkeypatch.setattr(spdp.trainer, "predict", counting)
    together = tmp_path / "together.jsonl"
    report = evaluate(model, utts, records_out=together)
    assert sizes == [2, 3, 1, 1]
    one_by_one = []
    for i, u in enumerate(utts):
        path = tmp_path / f"one-{i}.jsonl"
        evaluate(model, [u], records_out=path)
        one_by_one.extend(path.read_text().splitlines())
    lines = together.read_text().splitlines()
    assert len(lines) == len(one_by_one) == report.n
    for a, b in zip(lines, one_by_one):
        assert_same_record(PredictionRecord.from_json_line(a),
                           PredictionRecord.from_json_line(b))


def test_evaluate_calls_predict_once_per_batch(trained, monkeypatch):
    model, test = trained
    sizes = []
    real = spdp.trainer.predict

    def counting(frames, *args):
        sizes.append(frames.shape[0])
        return real(frames, *args)

    monkeypatch.setattr(spdp.trainer, "predict", counting)
    evaluate(model, test[:1])
    assert sizes == [1]
    sizes.clear()
    evaluate(model, test[:40])
    assert sizes == [16, 16, 8]
