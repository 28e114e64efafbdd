"""Run configuration: flat key-value files, dimension profiles, defaults.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed. Keys must match RunConfig fields exactly; unknown keys are
rejected so typos fail loudly. A profile selects a consistent dimension
set first; explicit keys then override it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusConfig
from .fusion import FusionConfig
from .parallel import ParallelPathConfig
from .serial import SerialConfig


@dataclass
class RunConfig:
    """Every user-settable key. The rest of the model's shape is fixed at the
    defaults of CorpusConfig, SerialConfig and ParallelPathConfig."""

    profile: str = "desk-dims"
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
    vocab_file: str = ""
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
            emb_a_dim=3 * self.enc_dim,
            emb_t_dim=self.dec_dim,
            d_shared=self.d_shared,
            n_subspaces=self.n_subspaces,
            ref_dim=self.ref_dim,
        )

    def serial_config(self, vocab_size: int) -> SerialConfig:
        return SerialConfig(
            feat_dim=self.feat_dim,
            vocab_size=vocab_size,
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
        "feat_dim": 8, "frames_per_utt": 24,
        "enc_dim": 1024, "dec_dim": 896,
        "d_shared": 256, "n_subspaces": 16, "ref_dim": 128,
        "lr": 5e-5,
    },
}

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _convert(name: str, raw: str):
    kind = _FIELDS[name].type
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read ``key = value`` lines; unknown keys raise immediately."""
    pairs: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            pairs[key] = _convert(key, raw)
    return pairs


def make_run_config(file_pairs: dict[str, object] | None = None,
                    overrides: dict[str, object] | None = None) -> RunConfig:
    """Defaults, then profile, then file keys, then explicit overrides."""
    file_pairs = dict(file_pairs or {})
    overrides = dict(overrides or {})
    for key in overrides:
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
    profile = overrides.get("profile", file_pairs.get("profile", "desk-dims"))
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    merged: dict[str, object] = {"profile": profile}
    merged.update(PROFILES[profile])
    file_pairs.pop("profile", None)
    overrides.pop("profile", None)
    merged.update(file_pairs)
    merged.update(overrides)
    return RunConfig(**merged)
