"""Trainable building blocks: linear maps, layer norm, attention, conv.

Initialization convention (applied uniformly): projection weights are drawn
uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases start at zero, and norm
affines start at gamma=1, beta=0. Every block exposes ``params(prefix)``
returning its named tensors for the optimizer and checkpointing.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Linear:
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.w = _uniform_init(rng, (d_in, d_out), d_in)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LayerNorm:
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, eps=self.eps)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


class Embedding:
    def __init__(self, rng: np.random.Generator, n_rows: int, dim: int):
        self.table = _uniform_init(rng, (n_rows, dim), dim)

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.table, ids)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.table": self.table}


class Conv1d:
    """Temporal conv over (B, T, C_in); kernel 3, padding 1 keeps ceil(T/stride)."""

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int,
                 kernel: int = 3, stride: int = 1):
        self.weight = _uniform_init(rng, (kernel, c_in, c_out), kernel * c_in)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride = stride
        self.padding = (kernel - 1) // 2

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class KVCache:
    """Keys and values one attention layer has seen so far.

    Both live in (B, capacity, d) arrays, allocated on the first ``extend``,
    with the heads side by side on the last axis; the first ``length``
    positions are filled.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.length = 0
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Write the new positions' keys and values in place; return views of all of them."""
        batch, t, dim = k.shape
        end = self.length + t
        if end > self.capacity:
            raise ValueError(f"K/V cache overflow: {end} positions > capacity {self.capacity}")
        if self.k is None:
            self.k = np.empty((batch, self.capacity, dim))
            self.v = np.empty((batch, self.capacity, dim))
        self.k[:, self.length:end] = k.data
        self.v[:, self.length:end] = v.data
        self.length = end
        return Tensor(self.k[:, :end]), Tensor(self.v[:, :end])


class MultiHeadAttention:
    """Standard scaled dot-product attention with an additive mask.

    The mask is a plain ndarray of 0 / -inf entries broadcastable to the
    (B, H, T, T_k) score block; it never carries gradient. With a
    ``KVCache`` the keys are the cached positions followed by ``x``'s, and
    ``x``'s keys and values are added to the cache. The cache holds no
    graph, so it is refused while gradients are on.
    """

    def __init__(self, rng: np.random.Generator, dim: int, n_heads: int):
        if dim % n_heads != 0:
            raise ValueError("attention dim must divide evenly into heads")
        self.n_heads = n_heads
        self.wq = Linear(rng, dim, dim)
        self.wk = Linear(rng, dim, dim)
        self.wv = Linear(rng, dim, dim)
        self.wo = Linear(rng, dim, dim)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 cache: KVCache | None = None) -> Tensor:
        if cache is not None and T.grad_enabled():
            raise ValueError("a K/V cache is for inference only; run it under no_grad")
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        if cache is not None:
            k, v = cache.extend(k, v)
        return self.wo(T.attention(q, k, v, self.n_heads, mask))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.wq.params(f"{prefix}.wq"))
        out.update(self.wk.params(f"{prefix}.wk"))
        out.update(self.wv.params(f"{prefix}.wv"))
        out.update(self.wo.params(f"{prefix}.wo"))
        return out


class TransformerLayer:
    """Pre-norm block: x + attn(LN(x)), then x + ffn(LN(x))."""

    def __init__(self, rng: np.random.Generator, dim: int, n_heads: int, ffn_mult: int = 4):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(rng, dim, n_heads)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(rng, dim, ffn_mult * dim)
        self.fc2 = Linear(rng, ffn_mult * dim, dim)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 cache: KVCache | None = None) -> Tensor:
        x = T.add(x, self.attn(self.ln1(x), mask=mask, cache=cache))
        return T.add(x, self.fc2(T.gelu(self.fc1(self.ln2(x)))))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.ln1.params(f"{prefix}.ln1"))
        out.update(self.attn.params(f"{prefix}.attn"))
        out.update(self.ln2.params(f"{prefix}.ln2"))
        out.update(self.fc1.params(f"{prefix}.fc1"))
        out.update(self.fc2.params(f"{prefix}.fc2"))
        return out


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table of shape (length, dim); dim must be even."""
    if dim % 2 != 0:
        raise ValueError("positional encoding dim must be even")
    pos = np.arange(length, dtype=np.float64)[:, None]
    freq = np.exp(-math.log(10000.0) * np.arange(0, dim, 2, dtype=np.float64) / dim)
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


def key_padding_mask(valid: np.ndarray) -> np.ndarray:
    """(B, T_k) boolean validity -> additive (B, 1, 1, T_k) 0/-inf mask."""
    mask = np.zeros(valid.shape)
    mask[~valid.astype(bool)] = -np.inf
    return mask[:, None, None, :]


def causal_mask(t: int, past: int = 0) -> np.ndarray:
    """Additive (1, 1, t, past + t) mask for t queries that follow ``past``
    cached positions: query j sees keys 0..past + j only."""
    mask = np.full((t, past + t), -np.inf)
    return np.triu(mask, k=past + 1)[None, None, :, :]
