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
from .vocab import N_CLASSES, Vocab

ZERO_MASS_FALLBACK = "ZeroMassFallback"
PARALLEL_ONLY_FALLBACK = "ParallelOnlyFallback"


@dataclass(frozen=True)
class FusionConfig:
    a: float = 0.3
    b: float = 0.7
    alpha: float = 1.0
    beta: float = 0.5

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.a + self.b <= 0:
            raise ValueError("fusion weights must be nonnegative with a + b > 0")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be nonnegative")


class NonFiniteLoss(FloatingPointError, ValueError):
    """A NaN loss: a numeric failure (CLI exit 3) that is also a ValueError."""


def total_loss(l_serial, l_parallel, cfg: FusionConfig) -> Tensor:
    l_serial, l_parallel = T.as_tensor(l_serial), T.as_tensor(l_parallel)
    if np.isnan(l_serial.data).any() or np.isnan(l_parallel.data).any():
        raise NonFiniteLoss("loss is NaN")
    return T.add(T.mul(l_serial, cfg.alpha), T.mul(l_parallel, cfg.beta))


def serial_style_distribution(p_nt: np.ndarray, vocab: Vocab
                              ) -> tuple[np.ndarray, list[str]]:
    """Reduce a vocab distribution to the 8 style first tokens, renormalized.

    If essentially no mass sits on any first token, fall back to uniform and
    flag it rather than dividing by ~0.
    """
    p_nt = np.asarray(p_nt, dtype=np.float64)
    extracted = p_nt[vocab.first_token_ids]
    mass = extracted.sum()
    if mass < 1e-12:
        return np.full(N_CLASSES, 1.0 / N_CLASSES), [ZERO_MASS_FALLBACK]
    return extracted / mass, []


def fuse(p: np.ndarray, q: np.ndarray, cfg: FusionConfig) -> tuple[np.ndarray, int]:
    """final = (a*p + b*q)/(a+b); argmax with ties broken to the lowest index."""
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
            vocab: Vocab, cfg: FusionConfig,
            prompt: list[int]) -> list[PredictionRecord | None]:
    """Full inference for B equal-length utterances, frames (B, T, F), over
    frozen parameters; one record per row.

    Serial generation always runs first; the parallel path consumes the
    generated transcripts' hidden states, once for all rows that have one.
    A row with an empty transcript has no linguistic evidence and gets None.
    When "<" never appears the serial vote is unavailable, so the fused
    result falls back to q alone.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3:
        raise ValueError("predict takes a (B, T, F) batch of frames")
    records: list[PredictionRecord | None] = [None] * frames.shape[0]
    with T.no_grad():
        enc_last, emb_a = serial.encode(frames)
        gen = serial.generate_greedy(serial.adapt(enc_last), prompt)
        rows = [i for i, transcript in enumerate(gen.transcript) if transcript]
        if not rows:
            return records
        log_probs = parallel.forward(emb_a.data[rows], gen.emb_t[rows],
                                     [len(gen.transcript[i]) for i in rows])
    for i, log_q in zip(rows, log_probs.data):
        q = np.exp(log_q)
        flags = list(gen.flags[i])
        if gen.p_nt[i] is None:
            flags.append(PARALLEL_ONLY_FALLBACK)
            p = np.full(N_CLASSES, 1.0 / N_CLASSES)
            final, cls_idx = q.copy(), int(np.argmax(q))
        else:
            p, p_flags = serial_style_distribution(gen.p_nt[i], vocab)
            flags.extend(p_flags)
            final, cls_idx = fuse(p, q, cfg)
        records[i] = PredictionRecord(
            transcript=list(gen.transcript[i]), p=list(map(float, p)),
            q=list(map(float, q)), final=list(map(float, final)), cls=cls_idx, flags=flags)
    return records
