"""Unit tests for corpus synthesis, acoustic features, and dataset curation."""

import json
import math
import wave

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdp.audio import (FEATURE_NAMES, HOP_S, PITCH_MAX_HZ, PITCH_MIN_HZ, RATE_GATE,
                        RATE_MIN_SEP_S, TERTILE_CUT, UNVOICED, VOICING_GATE, WIN_S,
                        BinThresholds, FeatureVector5, _frame_pitches, _frame_rms,
                        annotate_intersect, build_filter_fixture_set, compute_bins, curate_test,
                        extract_features5, filter_high_expressivity, load_wav,
                        sample_confused_label, save_wav, synth_expressive_tone)
from spdp.corpus import (CorpusConfig, Utterance, class_centroids, generate_corpus,
                         load_corpus, save_corpus)
from spdp.vocab import build_vocab

VOCAB = build_vocab()


# -- corpus generation ---------------------------------------------------------------


def test_corpus_is_deterministic():
    cfg = CorpusConfig(n_per_class=6, seed=5)
    a = generate_corpus(cfg, VOCAB)
    b = generate_corpus(cfg, VOCAB)
    assert len(a) == len(b) == 48
    for ua, ub in zip(a, b):
        assert ua.id == ub.id and ua.transcript == ub.transcript
        assert ua.frames.tobytes() == ub.frames.tobytes()


def test_corpus_counts_and_split():
    cfg = CorpusConfig(n_per_class=10, train_fraction=0.8, seed=1)
    utts = generate_corpus(cfg, VOCAB)
    for cls in range(8):
        mine = [u for u in utts if u.gold_style == cls]
        assert len(mine) == 10
        assert sum(u.split == "train" for u in mine) == 8
        assert sum(u.split == "test" for u in mine) == 2


def test_corpus_frames_cluster_around_centroids():
    centroids = class_centroids(8)
    pairwise = np.linalg.norm(centroids[:, None] - centroids[None], axis=-1)
    sep = pairwise[np.triu_indices(8, k=1)].min()
    cfg = CorpusConfig(n_per_class=8, spread=0.1 * sep, coupling=1.0, seed=2)
    utts = generate_corpus(cfg, VOCAB)
    hits = 0
    for u in utts:
        mean = u.frames.mean(axis=0)
        nearest = int(np.argmin(np.linalg.norm(centroids - mean, axis=1)))
        hits += nearest == u.gold_style
    assert hits / len(utts) >= 0.95


def test_corpus_coupling_controls_word_blocks():
    full = generate_corpus(CorpusConfig(n_per_class=8, coupling=1.0, seed=3), VOCAB)
    none = generate_corpus(CorpusConfig(n_per_class=8, coupling=0.0, seed=3), VOCAB)
    for u in full:
        block = set(VOCAB.class_blocks[u.gold_style])
        assert set(u.transcript) <= block
    foreign = sum(not set(u.transcript) <= set(VOCAB.class_blocks[u.gold_style])
                  for u in none)
    assert foreign == len(none)


def test_corpus_transcript_lengths_within_bounds():
    cfg = CorpusConfig(n_per_class=16, seed=4)
    for u in generate_corpus(cfg, VOCAB):
        assert 4 <= len(u.transcript) <= 8


def test_corpus_config_validation():
    with pytest.raises(ValueError, match="n_per_class"):
        generate_corpus(CorpusConfig(n_per_class=1), VOCAB)
    with pytest.raises(ValueError, match="coupling"):
        generate_corpus(CorpusConfig(coupling=1.5), VOCAB)
    with pytest.raises(ValueError, match="train_fraction"):
        generate_corpus(CorpusConfig(train_fraction=1.0), VOCAB)


def test_corpus_round_trip(tmp_path):
    utts = generate_corpus(CorpusConfig(n_per_class=4, seed=6), VOCAB)
    manifest, frames = tmp_path / "manifest.jsonl", tmp_path / "frames.bin"
    save_corpus(utts, manifest, frames)
    again = load_corpus(manifest, frames)
    assert len(again) == len(utts)
    for ua, ub in zip(utts, again):
        assert (ua.id, ua.gold_style, ua.split) == (ub.id, ub.gold_style, ub.split)
        assert ua.transcript == ub.transcript
        assert ua.frames.tobytes() == ub.frames.tobytes()


def test_corpus_load_detects_count_mismatch(tmp_path):
    utts = generate_corpus(CorpusConfig(n_per_class=4, seed=6), VOCAB)
    manifest, frames = tmp_path / "manifest.jsonl", tmp_path / "frames.bin"
    save_corpus(utts, manifest, frames)
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="disagree"):
        load_corpus(manifest, frames)


@pytest.mark.parametrize("kind", ["shifted", "header", "past_end", "float"])
def test_corpus_load_rejects_offset_off_the_block_grid(tmp_path, kind):
    utts = generate_corpus(CorpusConfig(n_per_class=4, seed=6), VOCAB)
    manifest, frames = tmp_path / "manifest.jsonl", tmp_path / "frames.bin"
    save_corpus(utts, manifest, frames)
    block = 8 * utts[0].frames.size
    recs = [json.loads(l) for l in manifest.read_text().splitlines()]
    off = recs[5]["frames_offset"]
    recs[5]["frames_offset"] = {"shifted": off + 8, "header": 0,
                                "past_end": 24 + len(utts) * block,
                                "float": float(off)}[kind]
    manifest.write_text("".join(json.dumps(r) + "\n" for r in recs))
    with pytest.raises(ValueError, match=f"utterance '{recs[5]['id']}': frames_offset"):
        load_corpus(manifest, frames)


def test_corpus_load_refuses_a_frame_block_named_twice(tmp_path):
    """Two records naming one block would give the second the first one's
    frames and leave a block unread; the count check alone cannot see it."""
    utts = generate_corpus(CorpusConfig(n_per_class=8, seed=6), VOCAB)
    manifest, frames = tmp_path / "manifest.jsonl", tmp_path / "frames.bin"
    save_corpus(utts, manifest, frames)
    recs = [json.loads(l) for l in manifest.read_text().splitlines()]
    recs[1]["frames_offset"] = recs[0]["frames_offset"]
    manifest.write_text("".join(json.dumps(r) + "\n" for r in recs))
    with pytest.raises(ValueError) as err:
        load_corpus(manifest, frames)
    assert str(err.value) == (f"{manifest} line 2: utterance {recs[1]['id']!r}: frames_offset "
                              f"{recs[0]['frames_offset']} is the frame block of utterance "
                              f"{recs[0]['id']!r}")


@pytest.mark.parametrize("line, message", [
    ("{not json", "not JSON"),
    ("[1, 2]", "not a JSON object"),
    ('{"id": 7}', "'id' must be a str"),
])
def test_corpus_load_names_the_line_of_a_malformed_record(tmp_path, line, message):
    utts = generate_corpus(CorpusConfig(n_per_class=4, seed=6), VOCAB)
    manifest, frames = tmp_path / "manifest.jsonl", tmp_path / "frames.bin"
    save_corpus(utts, manifest, frames)
    lines = manifest.read_text().splitlines()
    lines[4] = line
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"manifest.jsonl line 5: {message}"):
        load_corpus(manifest, frames)


@pytest.fixture(scope="module")
def saved_corpus(tmp_path_factory):
    """A 16-utterance manifest and sidecar; each example damages a copy of one."""
    root = tmp_path_factory.mktemp("corpus")
    utts = generate_corpus(CorpusConfig(n_per_class=2, seed=6), VOCAB)
    save_corpus(utts, root / "manifest.jsonl", root / "frames.bin")
    return root


@pytest.mark.parametrize("target", ["manifest.jsonl", "frames.bin"])
@settings(max_examples=150, deadline=None)
@given(pos=st.integers(0, 63) | st.integers(0, 2**16), byte=st.none() | st.integers(0, 255))
@example(pos=5, byte=0xff)          # in the manifest: a line that is not UTF-8
def test_corpus_cut_or_overwritten_anywhere_loads_or_names_the_file(saved_corpus, target,
                                                                    pos, byte):
    damaged = saved_corpus / "damaged"
    damaged.mkdir(exist_ok=True)
    for name in ("manifest.jsonl", "frames.bin"):
        raw = bytearray((saved_corpus / name).read_bytes())
        if name == target:
            pos %= len(raw)
            if byte is None:
                del raw[pos:]
            else:
                raw[pos] = byte
        (damaged / name).write_bytes(bytes(raw))
    manifest, frames = damaged / "manifest.jsonl", damaged / "frames.bin"
    try:
        load_corpus(manifest, frames)
    except ValueError as err:
        assert str(manifest) in str(err) or str(frames) in str(err), err


# -- acoustic features ----------------------------------------------------------------


def test_pitch_of_pure_tone():
    sr = 16000
    t = np.arange(sr) / sr
    wav = 0.3 * np.sin(2 * np.pi * 220.0 * t)
    fv = extract_features5(wav, sr)
    assert abs(fv.pitch_mean - 220.0) < 2.0
    assert fv.pitch_std < 1.5
    assert fv.flags == []


def test_pitch_resample_invariance():
    base = None
    for sr in (16000, 22050):
        t = np.arange(round(1.2 * sr)) / sr
        wav = 0.3 * np.sin(2 * np.pi * 220.0 * t)
        fv = extract_features5(wav, sr)
        if base is None:
            base = fv.pitch_mean
        else:
            assert abs(fv.pitch_mean - base) < 2.0


def test_silence_reports_unvoiced():
    fv = extract_features5(np.zeros(16000), 16000)
    npt.assert_allclose(fv.as_array(), 0.0)
    assert fv.flags == [UNVOICED]


def test_speaking_rate_counts_envelope_peaks():
    sr = 16000
    t = np.arange(2 * sr) / sr
    env = 0.3 * (1.0 + 0.6 * np.sin(2 * np.pi * 3.0 * t))
    wav = env * np.sin(2 * np.pi * 200.0 * t)
    fv = extract_features5(wav, sr)
    assert 2.5 <= fv.speaking_rate <= 3.5


def test_energy_features_track_amplitude_knobs():
    quiet = extract_features5(synth_expressive_tone(1.0, 0.1, 3.0, 0.3, 200, 5), 16000)
    loud = extract_features5(synth_expressive_tone(1.0, 0.4, 3.0, 0.3, 200, 5), 16000)
    flat = extract_features5(synth_expressive_tone(1.0, 0.3, 3.0, 0.1, 200, 5), 16000)
    wavy = extract_features5(synth_expressive_tone(1.0, 0.3, 3.0, 0.8, 200, 5), 16000)
    assert loud.energy_mean > quiet.energy_mean
    assert wavy.energy_std > flat.energy_std


def test_vibrato_raises_pitch_std():
    steady = extract_features5(synth_expressive_tone(1.0, 0.3, 3.0, 0.3, 200, 1), 16000)
    warbly = extract_features5(synth_expressive_tone(1.0, 0.3, 3.0, 0.3, 200, 15), 16000)
    assert warbly.pitch_std > steady.pitch_std + 1.0


def test_waveform_shorter_than_window_rejected():
    with pytest.raises(ValueError, match="shorter than one analysis window"):
        extract_features5(np.zeros(100), 16000)


@pytest.mark.parametrize("rate", [0, 1, 50])
def test_sample_rate_below_one_hop_sample_rejected(rate):
    with pytest.raises(ValueError, match=f"sample rate {rate} Hz is too low"):
        extract_features5(np.full(2000, 0.1), rate)


# The per-frame pitch loop that the batched FFT autocorrelation replaced, kept
# as the reference: one np.correlate per voiced frame over gathered frames.


def _reference_frame_pitch(frame, sample_rate):
    x = frame - frame.mean()
    n = x.size
    lag_lo = int(math.floor(sample_rate / PITCH_MAX_HZ))
    lag_hi = min(int(math.ceil(sample_rate / PITCH_MIN_HZ)), n - 2)
    if lag_lo < 1 or lag_lo >= lag_hi:
        return None
    r = np.correlate(x, x, mode="full")[n - 1:]
    if r[0] <= 0:
        return None
    band = r[lag_lo:lag_hi + 1]
    best = lag_lo + int(np.argmax(band))
    y0, y1, y2 = r[best - 1], r[best], r[best + 1]
    denom = y0 - 2.0 * y1 + y2
    delta = 0.0 if abs(denom) < 1e-12 else (y0 - y2) / (2.0 * denom)
    delta = float(np.clip(delta, -0.5, 0.5))
    return sample_rate / (best + delta)


def _reference_frames(waveform, sample_rate):
    win = round(WIN_S * sample_rate)
    hop = round(HOP_S * sample_rate)
    n_frames = 1 + (waveform.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = waveform[idx]
    return np.sqrt((frames * frames).mean(axis=1)), frames


def _reference_features5(waveform, sample_rate):
    waveform = np.asarray(waveform, dtype=np.float64)
    rms, frames = _reference_frames(waveform, sample_rate)
    duration = waveform.size / sample_rate
    peak = rms.max()
    if peak == 0.0:
        return FeatureVector5(0.0, 0.0, 0.0, 0.0, 0.0, flags=[UNVOICED])
    energy_mean = float(rms.mean())
    energy_std = float(rms.std())

    voiced = rms > VOICING_GATE * peak
    pitches = [p for i in np.flatnonzero(voiced)
               if (p := _reference_frame_pitch(frames[i], sample_rate)) is not None]
    if pitches:
        pitch_mean = float(np.mean(pitches))
        pitch_std = float(np.std(pitches))
        flags = []
    else:
        pitch_mean = pitch_std = 0.0
        flags = [UNVOICED]

    gate = RATE_GATE * peak
    min_sep = max(1, round(RATE_MIN_SEP_S * sample_rate / round(HOP_S * sample_rate)))
    count = 0
    last = -min_sep
    for i in range(1, rms.size - 1):
        if rms[i] > gate and rms[i] > rms[i - 1] and rms[i] >= rms[i + 1] \
                and i - last >= min_sep:
            count += 1
            last = i
    speaking_rate = count / duration
    return FeatureVector5(speaking_rate, energy_mean, energy_std,
                          pitch_mean, pitch_std, flags=flags)


def _silent_and_dc_stretches(sr=16000):
    t = np.arange(round(0.3 * sr)) / sr
    tone = 0.3 * np.sin(2 * np.pi * 190.0 * t)
    return np.concatenate([tone, np.zeros(t.size), np.full(t.size, 0.25), tone,
                           np.full(t.size, -0.1), np.full(t.size, 1.0 / 3.0), tone])


def _pitch_cases(tmp_path):
    truth = build_filter_fixture_set(tmp_path, n=100, planted_fraction=0.2, seed=0)
    for name in truth:
        yield (name, *load_wav(tmp_path / name))
    t = np.arange(round(1.2 * 22050)) / 22050
    yield "tone-22050", 0.3 * np.sin(2 * np.pi * 220.0 * t), 22050
    yield "silent-and-dc", _silent_and_dc_stretches(), 16000


def test_batched_pitch_matches_the_per_frame_reference(tmp_path):
    n_none = 0
    for name, wav, sr in _pitch_cases(tmp_path):
        want, got = _reference_features5(wav, sr), extract_features5(wav, sr)
        assert (got.speaking_rate, got.energy_mean, got.energy_std, got.flags) == \
            (want.speaking_rate, want.energy_mean, want.energy_std, want.flags), name
        npt.assert_allclose([got.pitch_mean, got.pitch_std],
                            [want.pitch_mean, want.pitch_std], rtol=1e-9, atol=0, err_msg=name)

        rms, frames = _frame_rms(wav, sr)
        want_rms, want_frames = _reference_frames(wav, sr)
        npt.assert_array_equal(rms, want_rms)
        npt.assert_array_equal(frames, want_frames)
        voiced = frames[rms > VOICING_GATE * rms.max()]
        ref = [_reference_frame_pitch(f, sr) for f in voiced]
        assert np.isnan(_frame_pitches(voiced, sr)).tolist() == [p is None for p in ref], name
        n_none += sum(p is None for p in ref)
    assert n_none > 0  # the silent/DC case reaches the r[0] <= 0 rule


def test_frame_pitches_on_an_empty_lag_band():
    frames = np.random.default_rng(3).normal(size=(4, 10))
    assert np.isnan(_frame_pitches(frames, 16000)).all()  # lag_hi capped at n - 2 < lag_lo
    assert np.isnan(_frame_pitches(frames, 300)).all()  # lag_lo = 0


# -- binning ---------------------------------------------------------------------------


def test_bins_on_standard_normal_population():
    rng = np.random.default_rng(10)
    mat = rng.normal(size=(20000, 5))
    bins = compute_bins(mat)
    npt.assert_allclose(bins.mu, 0.0, atol=0.03)
    npt.assert_allclose(bins.low_cut, -TERTILE_CUT, atol=0.03)
    npt.assert_allclose(bins.high_cut, TERTILE_CUT, atol=0.03)


def test_bins_shift_equivariance():
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(500, 5))
    shift = np.array([10.0, -3.0, 0.5, 100.0, 7.0])
    a = compute_bins(mat)
    b = compute_bins(mat + shift)
    npt.assert_allclose(b.low_cut, a.low_cut + shift, atol=1e-9)
    npt.assert_allclose(b.high_cut, a.high_cut + shift, atol=1e-9)
    npt.assert_allclose(b.sigma, a.sigma, atol=1e-9)


def test_bins_split_normal_population_into_thirds():
    rng = np.random.default_rng(12)
    mat = rng.normal(size=(100000, 5))
    bins = compute_bins(mat)
    low = mat <= bins.low_cut
    high = mat > bins.high_cut
    for mass in (low.mean(axis=0), (~low & ~high).mean(axis=0), high.mean(axis=0)):
        npt.assert_array_less(np.abs(mass - 1 / 3), 0.01)


def test_bins_degenerate_feature_rejected():
    mat = np.random.default_rng(13).normal(size=(50, 5))
    mat[:, 2] = 4.2
    with pytest.raises(ValueError, match="degenerate feature"):
        compute_bins(mat)


def test_bins_require_five_features():
    with pytest.raises(ValueError, match="feature population"):
        compute_bins(np.zeros((10, 4)))


# -- expressivity filter ------------------------------------------------------------------


def unit_bins() -> BinThresholds:
    return BinThresholds(mu=np.zeros(5), sigma=np.ones(5),
                         low_cut=np.full(5, -TERTILE_CUT),
                         high_cut=np.full(5, TERTILE_CUT))


def test_filter_requires_all_five_high():
    bins = unit_bins()
    assert filter_high_expressivity(FeatureVector5(1, 1, 1, 1, 1), bins)
    assert not filter_high_expressivity(FeatureVector5(1, 1, 0, 1, 1), bins)
    assert not filter_high_expressivity(
        FeatureVector5(TERTILE_CUT, 1, 1, 1, 1), bins)  # strict inequality


def test_filter_pass_rate_matches_independent_tertiles():
    rng = np.random.default_rng(14)
    mat = rng.normal(size=(20000, 5))
    bins = compute_bins(mat)
    passed = (mat > bins.high_cut).all(axis=1).mean()
    assert abs(passed - (1 / 3) ** 5) < 0.002


def test_filter_recovers_planted_fixtures(tmp_path):
    truth = build_filter_fixture_set(tmp_path, n=60, planted_fraction=0.2, seed=0)
    features = {}
    for name in truth:
        wav, sr = load_wav(tmp_path / name)
        features[name] = extract_features5(wav, sr)
    bins = compute_bins(list(features.values()))
    kept = {name for name, fv in features.items()
            if filter_high_expressivity(fv, bins)}
    planted = {name for name, is_planted in truth.items() if is_planted}
    recall = len(kept & planted) / len(planted)
    assert recall >= 0.9, f"planted recall {recall:.2f}"
    false_keeps = len(kept - planted)
    assert false_keeps <= 3


# -- annotation and curation ----------------------------------------------------------------


def test_annotate_intersect_rules():
    assert annotate_intersect(3, 3) == 3
    assert annotate_intersect(3, 4) is None
    with pytest.raises(ValueError, match="out of range"):
        annotate_intersect(8, 3)
    with pytest.raises(ValueError, match="out of range"):
        annotate_intersect(0, -1)


def test_intersection_boosts_label_purity():
    rng = np.random.default_rng(15)
    confusion = np.full((8, 8), 0.2 / 7)
    np.fill_diagonal(confusion, 0.8)
    kept = correct = 0
    n = 20000
    golds = rng.integers(0, 8, size=n)
    for g in golds:
        a = sample_confused_label(int(g), confusion, rng)
        b = sample_confused_label(int(g), confusion, rng)
        lbl = annotate_intersect(a, b)
        if lbl is not None:
            kept += 1
            correct += lbl == g
    expected_keep = 0.8 ** 2 + 7 * (0.2 / 7) ** 2
    assert abs(kept / n - expected_keep) < 0.01
    assert correct / kept > 0.98


def test_sample_confused_label_identity_matrix():
    rng = np.random.default_rng(16)
    eye = np.eye(8)
    assert all(sample_confused_label(g, eye, rng) == g for g in range(8))


def test_curate_test_threshold():
    assert curate_test(6, 5)            # mean 5.5: retained
    assert not curate_test(5, 5)        # mean 5.0: dropped (strictly above 5)
    assert curate_test(10, 1)           # mean 5.5: retained
    assert not curate_test(1, 1)
    assert curate_test(10, 10)


def test_curate_test_rejects_invalid_scores():
    with pytest.raises(ValueError, match="reviewer scores"):
        curate_test(0, 5)
    with pytest.raises(ValueError, match="reviewer scores"):
        curate_test(5, 11)
    with pytest.raises(ValueError, match="reviewer scores"):
        curate_test(5.5, 5)


# -- WAV io -----------------------------------------------------------------------------------


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    wav = rng.uniform(-0.9, 0.9, size=8000)
    path = tmp_path / "x.wav"
    save_wav(path, wav, sample_rate=16000)
    again, sr = load_wav(path)
    assert sr == 16000
    assert np.abs(again - wav).max() < 1.01 / 32767


def test_wav_cut_inside_its_sample_data_is_an_error_naming_the_file(tmp_path):
    """Each cut, odd or even, used to load short without a word or fail without a name."""
    whole = tmp_path / "whole.wav"
    save_wav(whole, np.linspace(-0.5, 0.5, 50))
    data = whole.read_bytes()
    cut = tmp_path / "cut.wav"
    for size in range(44, len(data)):      # 44 bytes of header, then the samples
        cut.write_bytes(data[:size])
        with pytest.raises(ValueError) as err:
            load_wav(cut)
        assert str(err.value) == (f"{cut}: not a WAV file: the sample data is cut short "
                                  f"({size - 44} of 100 bytes)")


@pytest.mark.parametrize("channels, width", [(2, 2), (1, 1)], ids=["stereo", "8-bit"])
def test_wav_not_16_bit_mono_is_an_error_naming_the_file(tmp_path, channels, width):
    path = tmp_path / "other.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(16000)
        fh.writeframes(bytes(10 * channels * width))
    with pytest.raises(ValueError) as err:
        load_wav(path)
    assert str(err.value) == (f"{path}: not a WAV file: expected 16-bit mono, got "
                              f"{channels} channels / {width}-byte samples")
