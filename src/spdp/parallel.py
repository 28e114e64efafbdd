"""Parallel path: per-frame acoustic-linguistic similarity classifier.

Stages, in order: project both modalities into a shared D-dim space,
align text onto audio frames by scaled dot-product attention, score the
pair in N decoupled subspaces by cosine similarity, append a tanh semantic
reference branch, and classify the concatenated per-frame representation
with a small pre-norm Transformer ending in masked mean pooling and
LogSoftmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import (Linear, LayerNorm, TransformerLayer, key_padding_mask,
                     sinusoidal_positions)
from .tensor import Tensor


@dataclass
class ParallelPathConfig:
    emb_a_dim: int
    emb_t_dim: int
    d_shared: int = 64
    n_subspaces: int = 8
    ref_dim: int = 32
    n_classes: int = 8
    classifier_layers: int = 3
    classifier_heads: int = 4
    classifier_ffn_mult: int = 4
    eps_norm: float = 1e-5
    use_positions: bool = True

    @property
    def rep_dim(self) -> int:
        return self.n_subspaces + self.ref_dim

    def validate(self) -> None:
        for field in ("d_shared", "n_subspaces", "ref_dim", "n_classes"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.rep_dim % self.classifier_heads != 0:
            raise ValueError("classifier input dim must divide evenly into heads")


@dataclass
class ParallelPathOutput:
    log_probs: Tensor          # (B, n_classes), LogSoftmax domain
    h_cm: Tensor               # (B, T, N + ref_dim)
    attention_weights: np.ndarray  # (B, T, S)


class ParallelPathModel:
    def __init__(self, cfg: ParallelPathConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        d = cfg.d_shared
        self.proj_a = Linear(rng, cfg.emb_a_dim, d)
        self.norm_a = LayerNorm(d, eps=cfg.eps_norm)
        self.proj_t = Linear(rng, cfg.emb_t_dim, d)
        self.norm_t = LayerNorm(d, eps=cfg.eps_norm)
        n = cfg.n_subspaces
        # All N subspace projections of a side as one (d, N*d) Linear whose
        # columns n*d:(n+1)*d are subspace n. The draw is N consecutive
        # row-major (d, d) blocks, so laying them out side by side keeps the
        # init values and every later RNG draw of N separate (d, d) Linears.
        self.sub_a = Linear(rng, d, n * d)
        self.sub_t = Linear(rng, d, n * d)
        for lin in (self.sub_a, self.sub_t):
            lin.w.data = lin.w.data.reshape(n, d, d).transpose(1, 0, 2).reshape(d, n * d)
        self.proj_r = Linear(rng, d, cfg.ref_dim)
        self.classifier = [TransformerLayer(rng, cfg.rep_dim, cfg.classifier_heads,
                                            cfg.classifier_ffn_mult)
                           for _ in range(cfg.classifier_layers)]
        self.final_norm = LayerNorm(cfg.rep_dim, eps=cfg.eps_norm)
        self.head = Linear(rng, cfg.rep_dim, cfg.n_classes)

    # -- stage 1: bimodal projection -------------------------------------------

    def project_bimodal(self, emb_a, emb_t) -> tuple[Tensor, Tensor]:
        emb_a, emb_t = T.as_tensor(emb_a), T.as_tensor(emb_t)
        if emb_a.shape[-1] != self.cfg.emb_a_dim:
            raise ValueError(f"acoustic input dim {emb_a.shape[-1]} != {self.cfg.emb_a_dim}")
        if emb_t.shape[-1] != self.cfg.emb_t_dim:
            raise ValueError(f"linguistic input dim {emb_t.shape[-1]} != {self.cfg.emb_t_dim}")
        h_a = self.norm_a(T.gelu(self.proj_a(emb_a)))
        h_t = self.norm_t(T.gelu(self.proj_t(emb_t)))
        return h_a, h_t

    # -- stage 2: attention alignment -------------------------------------------

    def align(self, h_a: Tensor, h_t: Tensor, text_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        text_mask = np.asarray(text_mask, dtype=bool)
        if (text_mask.sum(axis=1) == 0).any():
            raise ValueError("empty transcript")
        scale = 1.0 / math.sqrt(self.cfg.d_shared)
        scores = T.mul(T.matmul(h_a, T.transpose(h_t, (0, 2, 1))), scale)
        additive = np.where(text_mask, 0.0, -np.inf)[:, None, :]
        attn = T.softmax(scores, axis=-1, mask=additive)
        return T.matmul(attn, h_t), attn

    # -- stage 3: decoupled subspace similarities --------------------------------

    def subspace_similarities(self, h_a: Tensor, h_t_al: Tensor) -> Tensor:
        """(B, T, d) pair -> (B, T, N): one cosine per subspace and frame."""
        split = h_a.shape[:2] + (self.cfg.n_subspaces, self.cfg.d_shared)
        return T.cosine_sim(T.reshape(self.sub_a(h_a), split),
                            T.reshape(self.sub_t(h_t_al), split), axis=-1)

    # -- stage 4: semantic reference and concatenation ---------------------------

    def build_representation(self, s: Tensor, h_t_al: Tensor) -> Tensor:
        h_ref = T.tanh(self.proj_r(h_t_al))
        return T.concat([s, h_ref], axis=-1)

    # -- stage 5: Transformer classifier -----------------------------------------

    def classify(self, h_cm: Tensor, frame_mask: np.ndarray) -> Tensor:
        frame_mask = np.asarray(frame_mask, dtype=bool)
        counts = frame_mask.sum(axis=1)
        if (counts == 0).any():
            raise ValueError("zero valid frames")
        x = h_cm
        if self.cfg.use_positions:
            x = T.add(x, sinusoidal_positions(x.shape[1], self.cfg.rep_dim))
        attn_mask = key_padding_mask(frame_mask)
        for layer in self.classifier:
            x = layer(x, mask=attn_mask)
        x = self.final_norm(x)
        weights = frame_mask.astype(np.float64)[:, :, None]
        pooled = T.div(T.tsum(T.mul(x, weights), axis=1), counts[:, None].astype(np.float64))
        return T.log_softmax(self.head(pooled), axis=-1)

    # -- full pipeline -------------------------------------------------------------

    def forward(self, emb_a, emb_t, text_mask: np.ndarray, frame_mask: np.ndarray) -> ParallelPathOutput:
        h_a, h_t = self.project_bimodal(emb_a, emb_t)
        h_t_al, attn = self.align(h_a, h_t, text_mask)
        s = self.subspace_similarities(h_a, h_t_al)
        h_cm = self.build_representation(s, h_t_al)
        log_probs = self.classify(h_cm, frame_mask)
        return ParallelPathOutput(log_probs=log_probs, h_cm=h_cm,
                          attention_weights=np.array(attn.data))

    def loss(self, out: ParallelPathOutput, labels: np.ndarray) -> Tensor:
        return T.class_nll(out.log_probs, labels)

    def params(self, prefix: str = "parallel") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.proj_a.params(f"{prefix}.proj_a"))
        out.update(self.norm_a.params(f"{prefix}.norm_a"))
        out.update(self.proj_t.params(f"{prefix}.proj_t"))
        out.update(self.norm_t.params(f"{prefix}.norm_t"))
        out.update(self.sub_a.params(f"{prefix}.sub_a"))
        out.update(self.sub_t.params(f"{prefix}.sub_t"))
        out.update(self.proj_r.params(f"{prefix}.proj_r"))
        for i, layer in enumerate(self.classifier):
            out.update(layer.params(f"{prefix}.classifier.{i}"))
        out.update(self.final_norm.params(f"{prefix}.final_norm"))
        out.update(self.head.params(f"{prefix}.head"))
        return out
