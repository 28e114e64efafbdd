"""Unit tests for loss weighting, style-distribution extraction, and fusion."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdp.fusion import (NO_TERMINATION, PARALLEL_ONLY_FALLBACK,
                         ZERO_MASS_FALLBACK, FusionConfig, PredictionRecord,
                         StyleMap, fuse, predict, serial_style_distribution,
                         total_loss)
from spdp.parallel import ParallelPathConfig, ParallelPathModel
from spdp.serial import SerialConfig, SerialModel
from spdp.tensor import Tensor
from spdp.vocab import build_vocab

VOCAB = build_vocab()
STYLE_MAP = StyleMap(VOCAB)


# -- training loss ------------------------------------------------------------------


def test_total_loss_weighted_sum():
    cfg = FusionConfig(alpha=1.0, beta=0.5)
    out = total_loss(Tensor(2.0), Tensor(4.0), cfg)
    npt.assert_allclose(out.data, 4.0)


def test_total_loss_beta_zero_drops_parallel_term():
    cfg = FusionConfig(alpha=1.0, beta=0.0)
    out = total_loss(Tensor(2.0), Tensor(123.0), cfg)
    npt.assert_allclose(out.data, 2.0)


def test_total_loss_alpha_zero_drops_serial_term():
    cfg = FusionConfig(alpha=0.0, beta=0.5)
    out = total_loss(Tensor(123.0), Tensor(4.0), cfg)
    npt.assert_allclose(out.data, 2.0)


def test_total_loss_rejects_nan():
    cfg = FusionConfig()
    with pytest.raises(ValueError, match="loss is NaN"):
        total_loss(Tensor(float("nan")), Tensor(1.0), cfg)


def test_total_loss_carries_gradient():
    a = Tensor(2.0, requires_grad=True)
    b = Tensor(4.0, requires_grad=True)
    total_loss(a, b, FusionConfig(alpha=1.0, beta=0.5)).backward()
    npt.assert_allclose(a.grad, 1.0)
    npt.assert_allclose(b.grad, 0.5)


# -- serial style distribution --------------------------------------------------------


def test_style_distribution_renormalizes():
    p_nt = np.zeros(len(VOCAB))
    p_nt[STYLE_MAP.first_token_ids[0]] = 2 / 9
    for i in range(1, 8):
        p_nt[STYLE_MAP.first_token_ids[i]] = 1 / 9
    p, flags = serial_style_distribution(p_nt, STYLE_MAP)
    npt.assert_allclose(p, [2 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9])
    assert p.sum() == pytest.approx(1.0)
    assert flags == []


def test_style_distribution_one_hot():
    p_nt = np.zeros(len(VOCAB))
    p_nt[STYLE_MAP.first_token_ids[5]] = 0.4   # rest of the mass off-label
    p_nt[0] = 0.6
    p, flags = serial_style_distribution(p_nt, STYLE_MAP)
    expected = np.zeros(8)
    expected[5] = 1.0
    npt.assert_allclose(p, expected)
    assert flags == []


def test_style_distribution_zero_mass_falls_back_uniform():
    p_nt = np.zeros(len(VOCAB))
    p_nt[0] = 1.0
    p, flags = serial_style_distribution(p_nt, STYLE_MAP)
    npt.assert_allclose(p, np.full(8, 1 / 8))
    assert flags == [ZERO_MASS_FALLBACK]


# -- fusion ---------------------------------------------------------------------------


def test_fuse_one_hots_weighted_toward_parallel():
    p = np.eye(8)[0]
    q = np.eye(8)[1]
    final, cls = fuse(p, q, FusionConfig(a=0.3, b=0.7))
    npt.assert_allclose(final[0], 0.3)
    npt.assert_allclose(final[1], 0.7)
    assert cls == 1


def test_fuse_identical_inputs_identity():
    p = np.array([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.1, 0.1])
    final, cls = fuse(p, p, FusionConfig(a=0.3, b=0.7))
    npt.assert_allclose(final, p, atol=1e-15)
    assert cls == 2


def test_fuse_degenerate_weights_select_one_path():
    p = np.eye(8)[3]
    q = np.eye(8)[6]
    final_p, cls_p = fuse(p, q, FusionConfig(a=1.0, b=0.0))
    final_q, cls_q = fuse(p, q, FusionConfig(a=0.0, b=1.0))
    npt.assert_allclose(final_p, p)
    npt.assert_allclose(final_q, q)
    assert (cls_p, cls_q) == (3, 6)


def test_fuse_tie_breaks_to_lowest_index():
    p = np.eye(8)[5]
    q = np.eye(8)[2]
    _, cls = fuse(p, q, FusionConfig(a=0.5, b=0.5))
    assert cls == 2


def test_fuse_weight_scale_invariance():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(8))
    q = rng.dirichlet(np.ones(8))
    f1, c1 = fuse(p, q, FusionConfig(a=0.3, b=0.7))
    f2, c2 = fuse(p, q, FusionConfig(a=3.0, b=7.0))
    npt.assert_allclose(f1, f2, atol=1e-15)
    assert c1 == c2


def test_fuse_validates_weights():
    with pytest.raises(ValueError):
        fuse(np.full(8, 1 / 8), np.full(8, 1 / 8), FusionConfig(a=0.0, b=0.0))
    with pytest.raises(ValueError):
        fuse(np.full(8, 1 / 8), np.full(8, 1 / 8), FusionConfig(a=-0.1, b=0.7))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_fuse_agreement_is_preserved(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(8))
    final, cls = fuse(p, p, FusionConfig(a=0.3, b=0.7))
    assert cls == int(np.argmax(p))
    npt.assert_allclose(final.sum(), 1.0, atol=1e-12)


def test_fuse_complementary_evidence_table():
    # Serial is 0.6-confident on class 2; parallel is 0.6-confident on class 4.
    # With a=0.3, b=0.7 the parallel vote must win; with the weights swapped,
    # the serial vote must win. Verified against a direct elementwise computation.
    p = np.full(8, 0.4 / 7)
    p[2] = 0.6
    q = np.full(8, 0.4 / 7)
    q[4] = 0.6
    for (a, b), want in (((0.3, 0.7), 4), ((0.7, 0.3), 2)):
        final, cls = fuse(p, q, FusionConfig(a=a, b=b))
        npt.assert_allclose(final, (a * p + b * q) / (a + b), atol=1e-15)
        assert cls == want


# -- prediction records ------------------------------------------------------------------


def test_prediction_record_json_round_trip():
    rec = PredictionRecord(transcript=[7, 8, 9], p=[0.5] + [0.5 / 7] * 7,
                           q=[1 / 8] * 8, final=[0.25] + [0.75 / 7] * 7,
                           cls=0, flags=[NO_TERMINATION])
    line = rec.to_json_line()
    again = PredictionRecord.from_json_line(line)
    assert again == rec
    assert '"class": 0' in line


# -- end-to-end predict ---------------------------------------------------------------------


def tiny_models(seed=0, **serial_overrides):
    kwargs = dict(feat_dim=8, vocab_size=len(VOCAB), enc_dim=16, dec_dim=24,
                  enc_heads=4, dec_heads=4, max_decode_len=16)
    kwargs.update(serial_overrides)
    scfg = SerialConfig(**kwargs)
    serial = SerialModel(scfg, np.random.default_rng(seed))
    acfg = ParallelPathConfig(emb_a_dim=scfg.emb_a_dim, emb_t_dim=scfg.dec_dim,
                      d_shared=16, n_subspaces=4, ref_dim=12, classifier_heads=4)
    parallel = ParallelPathModel(acfg, np.random.default_rng(seed + 1))
    return serial, parallel


def test_predict_produces_normalized_record():
    serial, parallel = tiny_models()
    rng = np.random.default_rng(2)
    frames = rng.normal(size=(1, 12, 8))
    [rec] = predict(frames, serial, parallel, STYLE_MAP, FusionConfig(),
                    VOCAB.prompt_pool[0])
    assert len(rec.p) == len(rec.q) == len(rec.final) == 8
    npt.assert_allclose(sum(rec.q), 1.0, atol=1e-9)
    npt.assert_allclose(sum(rec.final), 1.0, atol=1e-9)
    assert 0 <= rec.cls < 8
    assert rec.transcript, "fresh model should emit at least one transcript token"


def test_predict_no_termination_falls_back_to_parallel():
    serial, parallel = tiny_models(max_decode_len=1)
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(1, 12, 8))
    [rec] = predict(frames, serial, parallel, STYLE_MAP, FusionConfig(),
                    VOCAB.prompt_pool[0])
    assert NO_TERMINATION in rec.flags
    assert PARALLEL_ONLY_FALLBACK in rec.flags
    npt.assert_allclose(rec.final, rec.q, atol=1e-15)
    npt.assert_allclose(rec.p, [1 / 8] * 8)
    assert rec.cls == int(np.argmax(rec.q))


def test_predict_empty_transcript_gives_no_record(monkeypatch):
    serial, parallel = tiny_models()
    from spdp.serial import GenerationResult

    def immediate_style_open(audio_prefix, audio_mask, prompt):
        return GenerationResult(tokens=[[2]], p_nt=[np.full(len(VOCAB), 1 / len(VOCAB))],
                                transcript=[[]], flags=[[]], emb_t=np.zeros((1, 0, 24)),
                                emb_t_mask=np.zeros((1, 0), dtype=bool))

    monkeypatch.setattr(serial, "generate_greedy", immediate_style_open)
    rng = np.random.default_rng(4)
    assert predict(rng.normal(size=(1, 12, 8)), serial, parallel, STYLE_MAP,
                   FusionConfig(), VOCAB.prompt_pool[0]) == [None]
