"""Batched, K/V-cached inference against a per-utterance reference decoder.

``reference_generate`` and ``reference_predict`` are the plain definitions:
one utterance at a time, the whole [audio | prompt | generated] decoder
forward recomputed for every token, and one more full pass for the
transcript's hidden states. The cached, batched path must give the same
tokens, flags and transcripts, and the same numbers to 1e-12.
"""

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


def reference_generate(serial, audio_prefix, prompt):
    """(tokens, p_nt, transcript, emb_t (1, K, d) or None, flags) for one utterance."""
    generated = []
    p_nt = None
    with T.no_grad():
        for _ in range(serial.cfg.max_decode_len):
            row = list(prompt) + generated
            ids = np.asarray([row], dtype=np.int64)
            hidden = serial.decode_hidden(audio_prefix, ids)
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
            hidden = serial.decode_hidden(audio_prefix, ids)
            emb_t = hidden.data[:, len(prompt):len(prompt) + len(transcript)]
    return generated, p_nt, transcript, emb_t, flags


def encode_one(serial, frames):
    with T.no_grad():
        enc_last, emb_a = serial.encode(frames[None])
        return emb_a, serial.adapt(enc_last)


def reference_predict(model, frames):
    """The record of one utterance, or None when it has no transcript."""
    cfg = model.run_cfg.fusion_config()
    emb_a, prefix = encode_one(model.serial, frames)
    _, p_nt, transcript, emb_t, flags = reference_generate(
        model.serial, prefix, model.vocab.prompt_pool[0])
    if not transcript:
        return None
    with T.no_grad():
        log_probs = model.parallel.forward(emb_a, emb_t, [len(transcript)])
    q = np.exp(log_probs.data[0])
    if p_nt is None:
        flags.append(PARALLEL_ONLY_FALLBACK)
        p, final, cls = np.full(8, 1 / 8), q.copy(), int(np.argmax(q))
    else:
        p, p_flags = serial_style_distribution(p_nt, model.vocab)
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
        return serial.adapt(serial.encode(frames)[0])


def assert_generation_matches_reference(serial, prompt, utts):
    gen = serial.generate_greedy(batch_prefix(serial, utts), prompt)
    assert len(gen.tokens) == len(utts)
    for i, u in enumerate(utts):
        _, prefix = encode_one(serial, u.frames)
        tokens, p_nt, transcript, emb_t, flags = reference_generate(serial, prefix, prompt)
        assert gen.tokens[i] == tokens
        assert gen.transcript[i] == transcript
        assert gen.flags[i] == flags
        assert (gen.p_nt[i] is None) == (p_nt is None)
        if p_nt is not None:
            npt.assert_allclose(gen.p_nt[i], p_nt, rtol=0, atol=TOL)
        k = len(transcript)
        assert not gen.emb_t[i, k:].any()
        if k:
            npt.assert_allclose(gen.emb_t[i:i + 1, :k], emb_t, rtol=0, atol=TOL)
    return gen


def predict_args(model):
    return (model.serial, model.parallel, model.vocab, model.run_cfg.fusion_config(),
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
             model.serial.generate_greedy(batch_prefix(model.serial, utts), prompt).transcript]
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
    prefix = batch_prefix(serial, test[:3])
    ids = np.asarray([prompt + [10, 20, 30, 40]] * 3, dtype=np.int64)
    with T.no_grad():
        full = serial.decode_hidden(prefix, ids).data
        cache = DecoderCache([KVCache(64) for _ in serial.dec],
                             sinusoidal_positions(64, serial.cfg.dec_dim))
        p = len(prompt)
        parts = [serial.decode_hidden(prefix, ids[:, :p], cache).data]
        for j in range(p, ids.shape[1]):
            parts.append(serial.decode_hidden(None, ids[:, j:j + 1], cache).data)
    npt.assert_allclose(np.concatenate(parts, axis=1), full, rtol=0, atol=TOL)
    with pytest.raises(ValueError, match="first decoder call only"):
        with T.no_grad():
            serial.decode_hidden(prefix, ids[:, :1], cache)


def test_kv_cache_is_refused_with_gradients_on():
    layer = TransformerLayer(np.random.default_rng(0), 8)
    x = T.Tensor(np.random.default_rng(1).normal(size=(1, 3, 8)))
    with pytest.raises(ValueError, match="no_grad"):
        layer(x, cache=KVCache(5))
    with T.no_grad():
        cache = KVCache(5)
        layer(x, cache=cache)
    assert cache.k.shape == cache.v.shape == (1, 5, 8)
    assert cache.length == 3


def test_kv_cache_overflow_raises():
    layer = TransformerLayer(np.random.default_rng(0), 8)
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

    def drop_row_1(audio_prefix, prompt):
        gen = real(audio_prefix, prompt)
        gen.transcript[1] = []
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
