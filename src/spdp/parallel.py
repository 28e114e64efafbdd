"""Parallel path: per-frame acoustic-linguistic similarity classifier.

Stages, in order: project both modalities into a shared D-dim space,
align text onto audio frames by scaled dot-product attention, score the
pair in N decoupled subspaces by cosine similarity, append a tanh semantic
reference branch, and classify the concatenated per-frame representation
with a small pre-norm Transformer ending in mean pooling over frames and
LogSoftmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import (N_HEADS, Linear, LayerNorm, Module, TransformerLayer,
                     sinusoidal_positions)
from .tensor import Tensor
from .vocab import N_CLASSES

CLASSIFIER_LAYERS = 3


@dataclass(frozen=True)
class ParallelPathConfig:
    emb_a_dim: int
    emb_t_dim: int
    d_shared: int
    n_subspaces: int
    ref_dim: int

    @property
    def rep_dim(self) -> int:
        return self.n_subspaces + self.ref_dim

    def __post_init__(self) -> None:
        # A LayerNorm over one feature outputs only its bias, so d_shared = 1
        # would blind the parallel path and make its cosine gradient NaN.
        for field, least in (("d_shared", 2), ("n_subspaces", 1), ("ref_dim", 1)):
            if getattr(self, field) < least:
                raise ValueError(f"{field} must be >= {least}, got {getattr(self, field)}")
        if self.rep_dim % N_HEADS != 0:
            raise ValueError(f"n_subspaces + ref_dim must divide evenly into {N_HEADS} heads")


class ParallelPathModel(Module):
    def __init__(self, cfg: ParallelPathConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_shared
        self.proj_a = Linear(rng, cfg.emb_a_dim, d)
        self.norm_a = LayerNorm(d)
        self.proj_t = Linear(rng, cfg.emb_t_dim, d)
        self.norm_t = LayerNorm(d)
        n = cfg.n_subspaces
        # All N subspace projections of a side as one (d, N*d) Linear whose
        # columns n*d:(n+1)*d are subspace n. The draw is N consecutive
        # row-major (d, d) blocks, so laying them out side by side keeps the
        # init values and every later RNG draw of N separate (d, d) Linears.
        self.sub_a = Linear(rng, d, n * d)
        self.sub_t = Linear(rng, d, n * d)
        for lin in (self.sub_a, self.sub_t):
            lin.w.data[...] = lin.w.data.reshape(n, d, d).transpose(1, 0, 2).reshape(d, n * d)
        self.proj_r = Linear(rng, d, cfg.ref_dim)
        self.classifier = [TransformerLayer(rng, cfg.rep_dim) for _ in range(CLASSIFIER_LAYERS)]
        self.final_norm = LayerNorm(cfg.rep_dim)
        self.head = Linear(rng, cfg.rep_dim, N_CLASSES)

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

    def align(self, h_a: Tensor, h_t: Tensor, text_lens) -> tuple[Tensor, Tensor]:
        """Attend each frame over its row's first ``text_lens[i]`` text positions."""
        text_lens = np.asarray(text_lens)
        if (text_lens < 1).any():
            raise ValueError("empty transcript")
        scale = 1.0 / math.sqrt(self.cfg.d_shared)
        scores = T.mul(T.matmul(h_a, T.transpose(h_t, (0, 2, 1))), scale)
        valid = np.arange(h_t.shape[1]) < text_lens[:, None]
        additive = np.where(valid, 0.0, -np.inf)[:, None, :]
        attn = T.softmax(scores, axis=-1, mask=additive)
        return T.matmul(attn, h_t), attn

    # -- stage 3: decoupled subspace similarities --------------------------------

    def subspace_similarities(self, h_a: Tensor, h_t_al: Tensor) -> Tensor:
        """(B, T, d) pair -> (B, T, N): one cosine per subspace and frame."""
        split = h_a.shape[:2] + (self.cfg.n_subspaces, self.cfg.d_shared)
        return T.cosine_sim(T.reshape(self.sub_a(h_a), split),
                            T.reshape(self.sub_t(h_t_al), split))

    # -- stage 4: semantic reference and concatenation ---------------------------

    def build_representation(self, s: Tensor, h_t_al: Tensor) -> Tensor:
        h_ref = T.tanh(self.proj_r(h_t_al))
        return T.concat([s, h_ref], axis=-1)

    # -- stage 5: Transformer classifier -----------------------------------------

    def classify(self, h_cm: Tensor) -> Tensor:
        n_frames = h_cm.shape[1]
        x = T.add(h_cm, sinusoidal_positions(n_frames, self.cfg.rep_dim))
        for layer in self.classifier:
            x = layer(x)
        pooled = T.div(T.tsum(self.final_norm(x), axis=1), float(n_frames))
        return T.log_softmax(self.head(pooled), axis=-1)

    # -- full pipeline -------------------------------------------------------------

    def forward(self, emb_a, emb_t, text_lens) -> Tensor:
        """(B, N_CLASSES) log-probabilities; row i's text is emb_t[i, :text_lens[i]]."""
        h_a, h_t = self.project_bimodal(emb_a, emb_t)
        h_t_al, _ = self.align(h_a, h_t, text_lens)
        s = self.subspace_similarities(h_a, h_t_al)
        return self.classify(self.build_representation(s, h_t_al))

    def loss(self, log_probs: Tensor, labels: np.ndarray) -> Tensor:
        return T.class_nll(log_probs, labels)
