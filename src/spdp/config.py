"""Run configuration: flat key-value files, dimension profiles, defaults.

Config files are plain UTF-8 text, one ``key = value`` per line, ``#`` comments
allowed. Keys must match RunConfig fields exactly, or be ``profile``; unknown
keys are rejected so typos fail loudly. A profile selects a consistent
dimension set first; explicit keys then override it. The profile is not
stored: it is only a name for a set of keys.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusConfig
from .fusion import FusionConfig
from .parallel import ParallelPathConfig
from .serial import ENC_LAYERS, SerialConfig


@dataclass
class RunConfig:
    """Every user-settable key but ``profile``, which only names a set of
    them (see PROFILES). The rest of the model's shape is fixed by named
    constants in the modules that own it (see the README)."""

    seed: int = 0
    epochs: int = 2
    max_steps: int = 0              # 0 = no cap
    batch_size: int = 16
    lr: float = 1e-3
    weight_decay: float = 0.01
    out_dir: str = "runs/out"

    # data paths
    manifest: str = ""
    frames: str = ""
    resume: str = ""

    # corpus generation
    n_per_class: int = 64
    coupling: float = 1.0
    spread: float = 0.35
    train_fraction: float = 0.9
    frames_per_utt: int = 24
    feat_dim: int = 8

    # parallel path
    d_shared: int = 64
    n_subspaces: int = 8
    ref_dim: int = 32

    # serial path
    enc_dim: int = 32
    dec_dim: int = 48
    max_decode_len: int = 48

    # fusion
    fusion_a: float = 0.3
    fusion_b: float = 0.7
    loss_alpha: float = 1.0
    loss_beta: float = 0.5

    def __post_init__(self) -> None:
        """Refuse an out-of-range value at once; each module config checks itself."""
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for field, low in (("seed", 0), ("epochs", 1), ("max_steps", 0), ("batch_size", 1)):
            if getattr(self, field) < low:
                raise ValueError(f"{field} must be >= {low}, got {getattr(self, field)}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.lr * self.weight_decay >= 1:     # AdamW scales weights by 1 - lr * wd
            raise ValueError(f"lr * weight_decay must be < 1, got {self.lr * self.weight_decay}")
        for build in (self.corpus_config, self.parallel_config, self.serial_config,
                      self.fusion_config):
            build()

    # -- derived module configs -------------------------------------------------

    def corpus_config(self) -> CorpusConfig:
        return CorpusConfig(
            n_per_class=self.n_per_class,
            feat_dim=self.feat_dim,
            frames_per_utt=self.frames_per_utt,
            spread=self.spread,
            coupling=self.coupling,
            train_fraction=self.train_fraction,
            seed=self.seed,
        )

    def parallel_config(self) -> ParallelPathConfig:
        return ParallelPathConfig(
            emb_a_dim=ENC_LAYERS * self.enc_dim,
            emb_t_dim=self.dec_dim,
            d_shared=self.d_shared,
            n_subspaces=self.n_subspaces,
            ref_dim=self.ref_dim,
        )

    def serial_config(self) -> SerialConfig:
        return SerialConfig(
            feat_dim=self.feat_dim,
            enc_dim=self.enc_dim,
            dec_dim=self.dec_dim,
            max_decode_len=self.max_decode_len,
        )

    def fusion_config(self) -> FusionConfig:
        return FusionConfig(a=self.fusion_a, b=self.fusion_b,
                            alpha=self.loss_alpha, beta=self.loss_beta)


PROFILES: dict[str, dict[str, object]] = {
    # acceptance target: small enough to train from scratch in minutes; its
    # dimensions and lr are the RunConfig defaults, so it overrides nothing
    "desk-dims": {},
    # the published dimension set, for shape fidelity only
    "paper-dims": {
        "enc_dim": 1024, "dec_dim": 896,
        "d_shared": 256, "n_subspaces": 16, "ref_dim": 128,
        "lr": 5e-5,
    },
}

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read ``key = value`` lines; unknown keys raise immediately."""
    pairs: dict[str, object] = {}
    with open(path, "rb") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            try:
                line = raw_line.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: not UTF-8") from None
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in _FIELDS and key != "profile":
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = "str" if key == "profile" else _FIELDS[key].type
            raw = raw.strip()
            try:
                pairs[key] = {"int": int, "float": float}.get(kind, str)(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be "
                                 f"{'an' if kind == 'int' else 'a'} {kind}, got {raw!r}") from None
    return pairs


def make_run_config(file_pairs: dict[str, object] | None = None,
                    overrides: dict[str, object] | None = None) -> RunConfig:
    """Defaults, then profile, then file keys, then explicit overrides."""
    keys = {**(file_pairs or {}), **(overrides or {})}
    profile = keys.pop("profile", "desk-dims")
    for key in keys:
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    return RunConfig(**{**PROFILES[profile], **keys})
