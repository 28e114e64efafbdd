"""Unit tests for the serial transcribe-then-label path and its vocabulary."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from spdp import tensor as T
from spdp.gradcheck import grad_check
from spdp.optim import AdamW
from spdp.serial import SerialConfig, SerialModel
from spdp.tensor import Tensor
from spdp.vocab import (EOS_ID, PAD_ID, STYLE_LABELS, STYLE_OPEN_ID,
                        STYLE_CLOSE_ID, Vocab, build_vocab)

VOCAB = build_vocab()


def small_cfg(**overrides) -> SerialConfig:
    base = dict(feat_dim=8, vocab_size=len(VOCAB), enc_dim=16, dec_dim=24,
                max_decode_len=24)
    base.update(overrides)
    return SerialConfig(**base)


def make_model(seed=0, **overrides) -> SerialModel:
    return SerialModel(small_cfg(**overrides), np.random.default_rng(seed))


# -- vocabulary -----------------------------------------------------------------


def test_vocab_reserved_ids_and_size():
    assert VOCAB.id_to_token[:4] == ["<pad>", "<eos>", "<", ">"]
    assert len(VOCAB) == 121


def test_vocab_label_first_tokens_distinct():
    assert len(set(VOCAB.first_token_ids)) == len(STYLE_LABELS) == 8


def test_vocab_round_trip(tmp_path):
    path = tmp_path / "vocab.tsv"
    VOCAB.save(path)
    again = Vocab.load(path)
    assert again.id_to_token == VOCAB.id_to_token


@pytest.mark.parametrize("row", ["7 gnome", "x\tgnome"], ids=["no-tab", "non-integer-id"])
def test_vocab_load_names_the_file_and_line_of_a_malformed_row(tmp_path, row):
    path = tmp_path / "vocab.tsv"
    VOCAB.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[6] = row
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        Vocab.load(path)
    assert str(err.value).startswith(f"{path}:7: expected")


def test_vocab_encode_decode_inverse():
    words = STYLE_LABELS[2].split()
    assert [VOCAB.id_to_token[i] for i in VOCAB.encode(words)] == words


def test_build_target_structure():
    transcript = VOCAB.class_blocks[1][:3]
    tgt = VOCAB.build_target(transcript, 1)
    assert tgt[:3] == transcript
    assert tgt[3] == STYLE_OPEN_ID
    assert tgt[-2:] == [STYLE_CLOSE_ID, EOS_ID]
    assert tgt.count(STYLE_OPEN_ID) == 1
    label_span = tgt[4:-2]
    assert [VOCAB.id_to_token[i] for i in label_span] == STYLE_LABELS[1].split()


def test_build_target_rejects_style_open_in_transcript():
    with pytest.raises(ValueError, match="style-open token inside transcript"):
        VOCAB.build_target([5, STYLE_OPEN_ID], 0)


def test_every_built_target_has_unique_style_open():
    rng = np.random.default_rng(0)
    for _ in range(64):
        cls = int(rng.integers(0, 8))
        n = int(rng.integers(1, 8))
        words = [VOCAB.class_blocks[cls][int(rng.integers(0, 10))] for _ in range(n)]
        tgt = VOCAB.build_target(words, cls)
        assert tgt.count(STYLE_OPEN_ID) == 1


# -- encoder / adaptor -------------------------------------------------------------


def test_encode_shapes_and_downsampling():
    model = make_model()
    rng = np.random.default_rng(1)
    frames = rng.normal(size=(2, 10, 8))
    enc_last, emb_a = model.encode(frames)
    assert enc_last.shape == (2, 5, 16)
    assert emb_a.shape == (2, 5, 48)      # three taps concatenated


def test_encode_empty_time_axis_rejected():
    model = make_model()
    with pytest.raises(ValueError):
        model.encode(np.zeros((1, 0, 8)))


def test_adapt_shapes():
    model = make_model()
    rng = np.random.default_rng(3)
    enc_last = Tensor(rng.normal(size=(2, 5, 16)))
    audio_prefix = model.adapt(enc_last)
    assert audio_prefix.shape == (2, 3, 24)   # ceil(5 / 2) with the stride in the last conv


def test_encoder_adaptor_gradients_match_fd():
    model = make_model(enc_dim=8, dec_dim=8)
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(1, 6, 8))
    w = rng.normal(size=(1, 2, 8))

    def loss():
        prefix = model.adapt(model.encode(frames)[0])
        return T.tsum(T.mul(prefix, w))

    encoder = {name: p for name, p in model.params().items() if name.startswith("enc")}
    report = grad_check(loss, encoder, max_coords_per_param=3, rng=np.random.default_rng(5))
    assert max(report.values()) < 1e-4


# -- teacher-forced loss -------------------------------------------------------------


def prepare_audio(model, batch=1, t0=10, seed=6):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(batch, t0, model.cfg.feat_dim))
    enc_last, emb_a = model.encode(frames)
    return model.adapt(enc_last), emb_a


def test_fresh_model_loss_near_uniform():
    model = make_model()
    prefix, _ = prepare_audio(model)
    transcript = VOCAB.class_blocks[0][:4]
    target = VOCAB.build_target(transcript, 0)
    prompt = VOCAB.prompt_pool[0]
    loss, emb_t = model.teacher_forced_loss(prefix, [prompt], [target], [len(transcript)])
    uniform = math.log(len(VOCAB))
    assert abs(loss.data - uniform) < 0.25 * uniform
    assert emb_t.shape == (1, 4, 24)


def test_loss_depends_on_prompt():
    model = make_model()
    prefix, _ = prepare_audio(model)
    target = VOCAB.build_target(VOCAB.class_blocks[2][:3], 2)
    l0, _ = model.teacher_forced_loss(prefix, [VOCAB.prompt_pool[0]], [target], [3])
    l1, _ = model.teacher_forced_loss(prefix, [VOCAB.prompt_pool[1]], [target], [3])
    assert abs(l0.data - l1.data) > 1e-9


def test_batched_loss_is_token_weighted_mean_of_rows():
    model = make_model()
    prefix2, _ = prepare_audio(model, batch=2, seed=7)
    targets = [VOCAB.build_target(VOCAB.class_blocks[0][:5], 0),
               VOCAB.build_target(VOCAB.class_blocks[3][:2], 3)]
    prompts = [VOCAB.prompt_pool[0], VOCAB.prompt_pool[1]]
    lens = [5, 2]
    batched, _ = model.teacher_forced_loss(prefix2, prompts, targets, lens)

    total, count = 0.0, 0
    for i in range(2):
        row_prefix = T.take(prefix2, (slice(i, i + 1),))
        row_loss, _ = model.teacher_forced_loss(
            row_prefix, [prompts[i]], [targets[i]], [lens[i]])
        total += row_loss.data * len(targets[i])
        count += len(targets[i])
    npt.assert_allclose(batched.data, total / count, atol=1e-10)


def test_target_without_style_open_rejected():
    model = make_model()
    prefix, _ = prepare_audio(model)
    bad = VOCAB.class_blocks[0][:3] + [EOS_ID]
    with pytest.raises(ValueError, match="exactly one style-open token"):
        model.teacher_forced_loss(prefix, [VOCAB.prompt_pool[0]], [bad], [3])


# -- decoder causality ----------------------------------------------------------------


def test_decoder_is_causal_over_text():
    model = make_model()
    prefix, _ = prepare_audio(model)
    row = VOCAB.prompt_pool[0] + VOCAB.class_blocks[0][:4]
    ids = np.asarray([row], dtype=np.int64)
    base = model.decode_hidden(prefix, ids).data
    mutated = ids.copy()
    mutated[0, -1] = VOCAB.class_blocks[5][0]
    again = model.decode_hidden(prefix, mutated).data
    k = len(row) - 1
    npt.assert_allclose(base[:, :k], again[:, :k], atol=1e-12)
    assert np.abs(base[:, k] - again[:, k]).max() > 1e-9


def test_decoder_sees_audio_prefix():
    model = make_model()
    prefix, _ = prepare_audio(model, seed=8)
    other, _ = prepare_audio(model, seed=9)
    row = VOCAB.prompt_pool[0]
    ids = np.asarray([row], dtype=np.int64)
    h1 = model.decode_hidden(prefix, ids).data
    h2 = model.decode_hidden(other, ids).data
    assert np.abs(h1 - h2).max() > 1e-9


def test_right_padding_never_reaches_a_real_position():
    model = make_model()
    prefix, _ = prepare_audio(model, batch=3, seed=11)
    prompts = [VOCAB.prompt_pool[0], VOCAB.prompt_pool[1], VOCAB.prompt_pool[3]]
    lens = [5, 1, 3]
    targets = [VOCAB.build_target(VOCAB.class_blocks[c][:k], c)
               for c, k in zip((0, 3, 6), lens)]
    rows = [p + t[:-1] for p, t in zip(prompts, targets)]
    assert len({len(row) for row in rows}) == 3
    ids = np.full((3, max(map(len, rows))), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, :len(row)] = row
    hidden = model.decode_hidden(prefix, ids).data
    _, emb_t = model.teacher_forced_loss(prefix, prompts, targets, lens)
    assert emb_t.shape == (3, max(lens), 24)
    for i, row in enumerate(rows):
        row_prefix = T.take(prefix, (slice(i, i + 1),))
        alone = model.decode_hidden(row_prefix, np.asarray([row], dtype=np.int64)).data
        npt.assert_allclose(hidden[i, :len(row)], alone[0], rtol=0, atol=1e-12)
        _, emb_alone = model.teacher_forced_loss(
            row_prefix, [prompts[i]], [targets[i]], [lens[i]])
        npt.assert_allclose(emb_t.data[i, :lens[i]], emb_alone.data[0], rtol=0, atol=1e-12)


# -- single-item overfit and greedy generation ------------------------------------------


@pytest.fixture(scope="module")
def overfit_bundle():
    model = make_model(seed=42)
    rng = np.random.default_rng(43)
    frames = rng.normal(size=(1, 12, 8))
    transcript = VOCAB.class_blocks[4][:4]
    target = VOCAB.build_target(transcript, 4)
    prompt = VOCAB.prompt_pool[2]
    opt = AdamW(model.params(), lr=3e-3)
    final_loss = None
    for _ in range(300):
        prefix = model.adapt(model.encode(frames)[0])
        loss, _ = model.teacher_forced_loss(prefix, [prompt], [target], [len(transcript)])
        opt.zero_grad()
        loss.backward()
        opt.step()
        final_loss = float(loss.data)
        if final_loss < 0.01:
            break
    return model, frames, prompt, target, transcript, final_loss


def test_overfit_single_item_loss(overfit_bundle):
    *_, final_loss = overfit_bundle
    assert final_loss < 0.01, f"teacher-forced loss stalled at {final_loss:.4f}"


def test_greedy_generation_recovers_target(overfit_bundle):
    model, frames, prompt, target, transcript, _ = overfit_bundle
    with T.no_grad():
        prefix = model.adapt(model.encode(frames)[0])
    result = model.generate_greedy(prefix, prompt)
    assert result.tokens == [target]
    assert result.transcript == [transcript]
    assert result.flags == [[]]


def test_generation_distribution_and_embedding(overfit_bundle):
    model, frames, prompt, target, transcript, _ = overfit_bundle
    with T.no_grad():
        prefix = model.adapt(model.encode(frames)[0])
    result = model.generate_greedy(prefix, prompt)
    p_nt = result.p_nt[0]
    assert p_nt is not None and p_nt.shape == (len(VOCAB),)
    npt.assert_allclose(p_nt.sum(), 1.0, atol=1e-12)
    # after overfit, the captured distribution concentrates on the right label
    assert int(p_nt.argmax()) == VOCAB.first_token_ids[4]
    assert result.emb_t.shape == (1, len(transcript), 24)


def test_generation_deterministic(overfit_bundle):
    model, frames, prompt, *_ = overfit_bundle
    with T.no_grad():
        prefix = model.adapt(model.encode(frames)[0])
    r1 = model.generate_greedy(prefix, prompt)
    r2 = model.generate_greedy(prefix, prompt)
    assert r1.tokens == r2.tokens
    assert r1.p_nt[0].tobytes() == r2.p_nt[0].tobytes()


def test_generation_without_style_open_sets_flag():
    model = make_model(max_decode_len=1)
    prefix, _ = prepare_audio(model, seed=10)
    result = model.generate_greedy(prefix, VOCAB.prompt_pool[0])
    assert len(result.tokens[0]) == 1
    assert "NoTermination" in result.flags[0]
    assert result.p_nt[0] is None


# -- config validation -------------------------------------------------------------------


def test_emb_a_dim_property():
    assert small_cfg(enc_dim=32).emb_a_dim == 96
