"""Combining the two paths: weighted training loss and inference fusion.

Training optimizes alpha * L_serial + beta * L_parallel. At inference the
serial path's next-token distribution captured right after "<" is reduced
to the eight style first tokens and renormalized (p), the parallel path
supplies its class distribution (q), and the answer is the argmax of
(a*p + b*q) / (a+b).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .parallel import ParallelPathModel
from .serial import SerialModel
from .tensor import Tensor
from .vocab import STYLE_LABELS, Vocab

ZERO_MASS_FALLBACK = "ZeroMassFallback"
PARALLEL_ONLY_FALLBACK = "ParallelOnlyFallback"
NO_TERMINATION = "NoTermination"


@dataclass
class FusionConfig:
    a: float = 0.3
    b: float = 0.7
    alpha: float = 1.0
    beta: float = 0.5

    def validate(self) -> None:
        if self.a < 0 or self.b < 0 or self.a + self.b <= 0:
            raise ValueError("fusion weights must be nonnegative with a + b > 0")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be nonnegative")


class StyleMap:
    """The fixed, ordered eight styles with their token ids."""

    def __init__(self, vocab: Vocab):
        self.labels = list(STYLE_LABELS)
        self.label_token_ids = [list(ids) for ids in vocab.label_token_ids]
        self.first_token_ids = list(vocab.first_token_ids)
        if len(set(self.first_token_ids)) != 8 or len(self.labels) != 8:
            raise ValueError("style map requires 8 labels with distinct first tokens")


class NonFiniteLoss(FloatingPointError, ValueError):
    """A NaN loss: a numeric failure (CLI exit 3) that is also a ValueError."""


def total_loss(l_serial, l_parallel, cfg: FusionConfig) -> Tensor:
    l_serial, l_parallel = T.as_tensor(l_serial), T.as_tensor(l_parallel)
    if np.isnan(l_serial.data).any() or np.isnan(l_parallel.data).any():
        raise NonFiniteLoss("loss is NaN")
    return T.add(T.mul(l_serial, cfg.alpha), T.mul(l_parallel, cfg.beta))


def serial_style_distribution(p_nt: np.ndarray, style_map: StyleMap
                              ) -> tuple[np.ndarray, list[str]]:
    """Reduce a vocab distribution to the 8 style first tokens, renormalized.

    If essentially no mass sits on any first token, fall back to uniform and
    flag it rather than dividing by ~0.
    """
    p_nt = np.asarray(p_nt, dtype=np.float64)
    extracted = p_nt[style_map.first_token_ids]
    mass = extracted.sum()
    if mass < 1e-12:
        return np.full(8, 1.0 / 8.0), [ZERO_MASS_FALLBACK]
    return extracted / mass, []


def fuse(p: np.ndarray, q: np.ndarray, cfg: FusionConfig) -> tuple[np.ndarray, int]:
    """final = (a*p + b*q)/(a+b); argmax with ties broken to the lowest index."""
    cfg.validate()
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    final = (cfg.a * p + cfg.b * q) / (cfg.a + cfg.b)
    return final, int(np.argmax(final))


@dataclass
class PredictionRecord:
    transcript: list[int]
    p: list[float]
    q: list[float]
    final: list[float]
    cls: int
    flags: list[str] = field(default_factory=list)

    def to_json_line(self) -> str:
        return json.dumps({"transcript": self.transcript, "p": self.p, "q": self.q,
                           "final": self.final, "class": self.cls, "flags": self.flags})

    @classmethod
    def from_json_line(cls, line: str) -> "PredictionRecord":
        obj = json.loads(line)
        return cls(transcript=obj["transcript"], p=obj["p"], q=obj["q"],
                   final=obj["final"], cls=obj["class"], flags=obj["flags"])


def predict(frames: np.ndarray, serial: SerialModel, parallel: ParallelPathModel,
            style_map: StyleMap, cfg: FusionConfig,
            prompt: list[int]) -> PredictionRecord:
    """Full inference for one utterance over frozen parameters.

    Serial generation always runs first; the parallel path consumes the
    generated transcript's hidden states. When "<" never appears the serial
    vote is unavailable, so the fused result falls back to q alone.
    """
    cfg.validate()
    frames = np.asarray(frames, dtype=np.float64)
    with T.no_grad():
        batch_frames = frames[None, :, :]
        frame_mask = np.ones((1, frames.shape[0]), dtype=bool)
        enc_last, emb_a, enc_mask = serial.encode(batch_frames, frame_mask)
        audio_prefix, audio_mask = serial.adapt(enc_last, enc_mask)
        gen = serial.generate_greedy(audio_prefix, audio_mask, prompt)
        if not gen.transcript:
            raise ValueError("no linguistic evidence")
        text_mask = np.ones((1, len(gen.transcript)), dtype=bool)
        out = parallel.forward(emb_a, gen.emb_t, text_mask, enc_mask)
        q = np.exp(out.log_probs.data[0])
        flags = list(gen.flags)
        if gen.p_nt is None:
            flags.append(PARALLEL_ONLY_FALLBACK)
            p = np.full(8, 1.0 / 8.0)
            final, cls_idx = q.copy(), int(np.argmax(q))
        else:
            p, p_flags = serial_style_distribution(gen.p_nt, style_map)
            flags.extend(p_flags)
            final, cls_idx = fuse(p, q, cfg)
    return PredictionRecord(transcript=list(gen.transcript), p=list(map(float, p)),
                            q=list(map(float, q)), final=list(map(float, final)),
                            cls=cls_idx, flags=flags)
