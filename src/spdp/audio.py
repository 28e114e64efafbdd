"""Waveform feature extraction and the acoustic curation pipeline.

Five features per utterance: speaking rate, RMS energy mean/std, and pitch
mean/std. Each feature is binned into equal-mass tertiles from the
population mean and standard deviation; an utterance survives the
expressivity filter only when all five features land in the high bin.
Curation then keeps samples where two annotators agree and, for the test
split, where two reviewer scores average strictly above 5.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .vocab import N_CLASSES

TERTILE_CUT = 0.4307  # z-score with Phi(z) = 2/3: equal-mass tertiles
PITCH_MIN_HZ = 60.0
PITCH_MAX_HZ = 400.0
VOICING_GATE = 0.05
RATE_GATE = 0.5
RATE_MIN_SEP_S = 0.1
WIN_S = 0.025
HOP_S = 0.010
PITCH_BLOCK_ROWS = 32  # frames per FFT call; keeps the padded spectra near 1 MiB

FEATURE_NAMES = ("speaking_rate", "energy_mean", "energy_std", "pitch_mean", "pitch_std")

UNVOICED = "Unvoiced"


@dataclass
class FeatureVector5:
    speaking_rate: float
    energy_mean: float
    energy_std: float
    pitch_mean: float
    pitch_std: float
    flags: list[str] = field(default_factory=list)

    def as_array(self) -> np.ndarray:
        return np.array([self.speaking_rate, self.energy_mean, self.energy_std,
                         self.pitch_mean, self.pitch_std])


def _frame_rms(waveform: np.ndarray, sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    win = round(WIN_S * sample_rate)
    hop = round(HOP_S * sample_rate)
    if hop < 1:
        raise ValueError(f"sample rate {sample_rate} Hz is too low: "
                         f"the {HOP_S * 1e3:g} ms hop is under one sample")
    if waveform.size < win:
        raise ValueError("waveform shorter than one analysis window")
    frames = np.lib.stride_tricks.sliding_window_view(waveform, win)[::hop]
    return np.sqrt((frames * frames).mean(axis=1)), frames


def _frame_pitches(frames: np.ndarray, sample_rate: int) -> np.ndarray:
    """Autocorrelation pitch with parabolic peak refinement for each row of a
    (k, n) frame stack; NaN marks a row with no pitch (an all-zero centred
    frame, or a lag band that the rate leaves empty)."""
    k, n = frames.shape
    lag_lo = int(math.floor(sample_rate / PITCH_MAX_HZ))
    lag_hi = min(int(math.ceil(sample_rate / PITCH_MIN_HZ)), n - 2)
    if lag_lo < 1 or lag_lo >= lag_hi:
        return np.full(k, np.nan)
    x = frames - frames.mean(axis=1, keepdims=True)
    # Zero-padding to n + lag_hi + 1 or more keeps the circular wrap off every lag read.
    n_fft = 1 << (n + lag_hi).bit_length()
    r = np.empty((k, lag_hi + 2))
    for i in range(0, k, PITCH_BLOCK_ROWS):
        spec = np.fft.rfft(x[i:i + PITCH_BLOCK_ROWS], n_fft)
        r[i:i + PITCH_BLOCK_ROWS] = np.fft.irfft(spec.real ** 2 + spec.imag ** 2,
                                                 n_fft)[:, :lag_hi + 2]
    r[:, 0] = np.einsum("ij,ij->i", x, x)
    best = lag_lo + np.argmax(r[:, lag_lo:lag_hi + 1], axis=1)
    rows = np.arange(k)
    y0, y1, y2 = r[rows, best - 1], r[rows, best], r[rows, best + 1]
    denom = y0 - 2.0 * y1 + y2
    delta = np.divide(y0 - y2, 2.0 * denom, out=np.zeros(k), where=np.abs(denom) >= 1e-12)
    pitch = sample_rate / (best + np.clip(delta, -0.5, 0.5))
    return np.where(r[:, 0] > 0, pitch, np.nan)


def extract_features5(waveform: np.ndarray, sample_rate: int) -> FeatureVector5:
    """Five acoustic features from a mono waveform.

    Pitch statistics cover only frames whose RMS clears the voicing gate;
    a fully unvoiced signal reports zero pitch and the Unvoiced flag.
    """
    waveform = np.asarray(waveform, dtype=np.float64)
    rms, frames = _frame_rms(waveform, sample_rate)
    duration = waveform.size / sample_rate
    peak = rms.max()
    if peak == 0.0:
        return FeatureVector5(0.0, 0.0, 0.0, 0.0, 0.0, flags=[UNVOICED])
    energy_mean = float(rms.mean())
    energy_std = float(rms.std())

    pitches = _frame_pitches(frames[rms > VOICING_GATE * peak], sample_rate)
    pitches = pitches[~np.isnan(pitches)]
    if pitches.size:
        pitch_mean = float(np.mean(pitches))
        pitch_std = float(np.std(pitches))
        flags: list[str] = []
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


# -- statistical binning -----------------------------------------------------------


@dataclass
class BinThresholds:
    mu: np.ndarray
    sigma: np.ndarray
    low_cut: np.ndarray
    high_cut: np.ndarray


def _feature_matrix(features) -> np.ndarray:
    if isinstance(features, np.ndarray):
        mat = np.asarray(features, dtype=np.float64)
    else:
        mat = np.stack([f.as_array() for f in features])
    if mat.ndim != 2 or mat.shape[1] != len(FEATURE_NAMES):
        raise ValueError("expected an (n, 5) feature population")
    return mat


def compute_bins(features) -> BinThresholds:
    """Per-feature tertile cuts mu +/- TERTILE_CUT*sigma over the population.

    Accepts a list of FeatureVector5 or an (n, 5) array.
    """
    mat = _feature_matrix(features)
    if mat.shape[0] < 2:
        raise ValueError("binning requires at least 2 samples")
    mu = mat.mean(axis=0)
    sigma = mat.std(axis=0)
    if (sigma <= 1e-12 * np.maximum(1.0, np.abs(mu))).any():
        raise ValueError("degenerate feature")
    return BinThresholds(mu=mu, sigma=sigma, low_cut=mu - TERTILE_CUT * sigma,
                         high_cut=mu + TERTILE_CUT * sigma)


def filter_high_expressivity(fv: FeatureVector5, bins: BinThresholds) -> bool:
    """True iff every one of the five features lies strictly in its high bin."""
    return bool((fv.as_array() > bins.high_cut).all())


# -- annotation and review -----------------------------------------------------------


def annotate_intersect(label_a: int, label_b: int) -> int | None:
    for lbl in (label_a, label_b):
        if not 0 <= lbl < N_CLASSES:
            raise ValueError("style label out of range")
    return label_a if label_a == label_b else None


def sample_confused_label(gold: int, confusion: np.ndarray,
                          rng: np.random.Generator) -> int:
    """Draw an annotator's label from its per-class confusion row."""
    row = np.asarray(confusion, dtype=np.float64)[gold]
    return int(rng.choice(len(row), p=row / row.sum()))


def curate_test(score_1: int, score_2: int) -> bool:
    """Retain a test sample iff the reviewer average is strictly above 5."""
    for s in (score_1, score_2):
        if not (isinstance(s, (int, np.integer)) and 1 <= s <= 10):
            raise ValueError("reviewer scores must be integers in [1, 10]")
    return (score_1 + score_2) / 2.0 > 5.0


# -- WAV fixtures ----------------------------------------------------------------------


def save_wav(path: str | Path, waveform: np.ndarray, sample_rate: int = 16000) -> None:
    samples = np.clip(np.asarray(waveform, dtype=np.float64), -1.0, 1.0)
    pcm = (samples * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def load_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Samples scaled to [-1, 1] and the rate; a file that is not a RIFF WAV,
    whose header is cut short, or whose chunk sizes run past its end, is a
    ValueError naming it."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
                raise ValueError("expected 16-bit mono WAV")
            sr = fh.getframerate()
            pcm = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    except wave.Error as err:
        raise ValueError(f"{path}: not a WAV file: {err}") from err
    except EOFError as err:  # wave's header reader, on a file that ends inside it
        raise ValueError(f"{path}: not a WAV file: the header is cut short") from err
    except RuntimeError as err:  # wave's chunk reader, on a chunk longer than its RIFF
        raise ValueError(f"{path}: not a WAV file: a chunk size runs past the "
                         "end of the RIFF chunk") from err
    return pcm.astype(np.float64) / 32767.0, sr


def synth_expressive_tone(duration: float, amp: float, am_rate: float,
                          am_depth: float, f0: float, vibrato: float,
                          sample_rate: int = 16000) -> np.ndarray:
    """Deterministic tone whose knobs map monotonically onto the 5 features.

    amp -> energy_mean, amp*am_depth -> energy_std, am_rate -> speaking
    rate, f0 -> pitch_mean, vibrato extent -> pitch_std.
    """
    n = round(duration * sample_rate)
    t = np.arange(n) / sample_rate
    inst = f0 + vibrato * np.sin(2.0 * np.pi * 2.0 * t)
    phase = 2.0 * np.pi * np.cumsum(inst) / sample_rate
    env = amp * (1.0 + am_depth * np.cos(2.0 * np.pi * am_rate * t))
    return env * np.sin(phase)


def build_filter_fixture_set(out_dir: str | Path, n: int = 100,
                             planted_fraction: float = 0.2, seed: int = 0,
                             duration: float = 2.0) -> dict[str, bool]:
    """WAV population with a planted high-expressivity subset.

    Background samples jitter around moderate knob settings; planted
    samples sit 1.5 background-sigmas above on every knob with a tight
    within-group spread, so a correct all-five-high filter recovers them.
    Returns {filename: planted?} and writes the WAVs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_planted = round(planted_fraction * n)
    base = {"amp": 0.28, "am_rate": 3.0, "am_depth": 0.45, "f0": 180.0, "vibrato": 8.0}
    sd = {"amp": 0.05, "am_rate": 0.7, "am_depth": 0.08, "f0": 25.0, "vibrato": 2.0}
    truth: dict[str, bool] = {}
    for i in range(n):
        planted = i < n_planted
        scale = 0.15 if planted else 1.0
        shift = 1.5 if planted else 0.0
        knobs = {k: base[k] + shift * sd[k] + scale * sd[k] * rng.normal()
                 for k in base}
        knobs["amp"] = float(np.clip(knobs["amp"], 0.02, 0.45))
        knobs["am_depth"] = float(np.clip(knobs["am_depth"], 0.05, 0.95))
        knobs["am_rate"] = max(1.2, knobs["am_rate"])
        knobs["f0"] = float(np.clip(knobs["f0"], 80.0, 360.0))
        knobs["vibrato"] = max(0.5, knobs["vibrato"])
        wav = synth_expressive_tone(duration, knobs["amp"], knobs["am_rate"],
                                    knobs["am_depth"], knobs["f0"], knobs["vibrato"])
        name = f"{'planted' if planted else 'background'}-{i:04d}.wav"
        save_wav(out_dir / name, wav)
        truth[name] = planted
    return truth
