"""Seeded synthetic corpora with controllable acoustic/linguistic coupling.

Each utterance gets frames drawn around its class centroid and a transcript
drawn from a class word block. With probability ``coupling`` the transcript
block matches the gold class; otherwise a different class's block is used,
so only the acoustic evidence resolves the label. Frames live in a flat
binary sidecar next to a JSON-lines manifest.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .vocab import N_CLASSES, Vocab

TRANSCRIPT_LEN = (4, 8)     # shortest and longest transcript, in words


@dataclass
class Utterance:
    id: str
    frames: np.ndarray              # (T0, feat_dim)
    transcript: list[int]
    gold_style: int
    split: str                      # "train" | "test"


@dataclass(frozen=True)
class CorpusConfig:
    n_per_class: int = 64
    feat_dim: int = 8
    frames_per_utt: int = 24
    spread: float = 0.35
    coupling: float = 1.0
    train_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_per_class < 2:
            raise ValueError("n_per_class must be >= 2")
        for field in ("frames_per_utt", "feat_dim"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if not 0.0 <= self.spread < np.inf:
            raise ValueError(f"spread must be finite and >= 0, got {self.spread}")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must lie in [0, 1]")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


def class_centroids(feat_dim: int) -> np.ndarray:
    """Fixed unit-norm class directions, independent of the corpus seed."""
    rng = np.random.default_rng(7)
    c = rng.normal(size=(N_CLASSES, feat_dim))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def generate_corpus(cfg: CorpusConfig, vocab: Vocab) -> list[Utterance]:
    rng = np.random.default_rng(cfg.seed)
    centroids = class_centroids(cfg.feat_dim)
    lo, hi = TRANSCRIPT_LEN
    n_train = round(cfg.train_fraction * cfg.n_per_class)
    utts: list[Utterance] = []
    for cls in range(N_CLASSES):
        for i in range(cfg.n_per_class):
            frames = centroids[cls] + cfg.spread * rng.normal(
                size=(cfg.frames_per_utt, cfg.feat_dim))
            length = int(rng.integers(lo, hi + 1))
            if rng.random() < cfg.coupling:
                block_cls = cls
            else:
                block_cls = int(rng.integers(0, N_CLASSES - 1))
                if block_cls >= cls:
                    block_cls += 1
            block = vocab.class_blocks[block_cls]
            words = [int(block[j]) for j in rng.integers(0, len(block), size=length)]
            utts.append(Utterance(
                id=f"utt-{cls}-{i:05d}",
                frames=frames,
                transcript=words,
                gold_style=cls,
                split="train" if i < n_train else "test",
            ))
    return utts


# -- manifest + frames sidecar ---------------------------------------------------


def save_corpus(utts: list[Utterance], manifest_path: str | Path,
                frames_path: str | Path) -> None:
    if not utts:
        raise ValueError("cannot save an empty corpus")
    t0, feat_dim = utts[0].frames.shape
    for u in utts:
        if u.frames.shape != (t0, feat_dim):
            raise ValueError("all utterances must share the frame geometry")
    header = struct.pack("<3Q", len(utts), t0, feat_dim)
    block = 8 * t0 * feat_dim
    with open(frames_path, "wb") as fh:
        fh.write(header)
        for u in utts:
            fh.write(np.ascontiguousarray(u.frames, dtype="<f8").tobytes())
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for i, u in enumerate(utts):
            fh.write(json.dumps({
                "id": u.id,
                "style": u.gold_style,
                "transcript": u.transcript,
                "split": u.split,
                "frames_offset": len(header) + i * block,
            }) + "\n")


# Keys of a manifest record and the type of each value; frames_offset is
# checked against the sidecar's block grid instead.
MANIFEST_TYPES = {"id": str, "style": int, "transcript": list, "split": str,
                  "frames_offset": None}


def _manifest_record(line: bytes, where: str) -> dict:
    """One UTF-8 JSON manifest line, checked to hold every key with a value of its type."""
    try:
        rec = json.loads(line.decode("utf-8"))
    except ValueError as err:       # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"{where}: not JSON: {err}") from None
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: not a JSON object")
    for key, kind in MANIFEST_TYPES.items():
        if key not in rec:
            raise ValueError(f"{where}: manifest record lacks {key!r}")
        if kind is not None and type(rec[key]) is not kind:
            raise ValueError(f"{where}: {key!r} must be a {kind.__name__}, not {rec[key]!r}")
    if any(type(t) is not int for t in rec["transcript"]):
        raise ValueError(f"{where}: 'transcript' must hold integer token ids")
    if not 0 <= rec["style"] < N_CLASSES:
        raise ValueError(f"{where}: 'style' {rec['style']} is not a class 0..{N_CLASSES - 1}")
    return rec


def load_corpus(manifest_path: str | Path, frames_path: str | Path) -> list[Utterance]:
    with open(frames_path, "rb") as fh:
        blob = fh.read()
    header = struct.calcsize("<3Q")
    if len(blob) < header:
        raise ValueError(f"{frames_path}: frames sidecar is cut short inside its "
                         f"{header}-byte header")
    count, t0, feat_dim = struct.unpack_from("<3Q", blob, 0)
    block = 8 * t0 * feat_dim
    utts: list[Utterance] = []
    owners: dict[int, str] = {}     # frames_offset -> the utterance that named it first
    with open(manifest_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{manifest_path} line {lineno}"
            rec = _manifest_record(line, where)
            offset = rec["frames_offset"]
            if (type(offset) is not int or block == 0
                    or offset not in range(header, header + count * block, block)):
                raise ValueError(f"{where}: utterance {rec['id']!r}: frames_offset "
                                 f"{offset!r} is not a frame block of the sidecar")
            if offset in owners:
                raise ValueError(f"{where}: utterance {rec['id']!r}: frames_offset {offset} "
                                 f"is the frame block of utterance {owners[offset]!r}")
            owners[offset] = rec["id"]
            if offset + block > len(blob):
                raise ValueError(f"{frames_path}: frames sidecar is cut short in the "
                                 f"frames of utterance {rec['id']!r}")
            frames = np.frombuffer(blob, dtype="<f8", count=t0 * feat_dim,
                                   offset=offset).reshape(t0, feat_dim)
            utts.append(Utterance(
                id=rec["id"],
                frames=frames.astype(np.float64),
                transcript=rec["transcript"],
                gold_style=rec["style"],
                split=rec["split"],
            ))
    if len(utts) != count:
        raise ValueError(f"manifest {manifest_path} ({len(utts)} records) and frames sidecar "
                         f"{frames_path} (header count {count}) disagree on utterance count")
    return utts
