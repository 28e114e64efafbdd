"""Trainable building blocks: linear maps, layer norm, attention, conv.

Initialization convention (applied uniformly): projection weights are drawn
uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases start at zero, and norm
affines start at gamma=1, beta=0. Every block is a ``Module``, whose
``params`` names its tensors for the optimizer and checkpointing.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor

N_HEADS = 4     # attention heads in every TransformerLayer
FFN_MULT = 4    # feed-forward width as a multiple of the model width
CONV_KERNEL = 3  # temporal conv width, padded by CONV_KERNEL // 2 on each side


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Module:
    """A block whose parameters are the tensors its attributes hold.

    ``params`` walks ``vars(self)`` in assignment order. A ``Tensor``
    attribute is named ``prefix.attr``; a ``Module`` recurses under that
    name, and a list of them under ``prefix.attr.i``. Anything else is not
    a parameter. These names are the checkpoint record names.
    """

    def params(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Tensor):
                out[name] = value
            elif isinstance(value, Module):
                out.update(value.params(name))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.params(f"{name}.{i}"))
        return out


class Linear(Module):
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.w = _uniform_init(rng, (d_in, d_out), d_in)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class Embedding(Module):
    def __init__(self, rng: np.random.Generator, n_rows: int, dim: int):
        self.table = _uniform_init(rng, (n_rows, dim), dim)

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.table, ids)


class Conv1d(Module):
    """Temporal conv over (B, T, C_in); kernel 3, padding 1 keeps ceil(T/stride)."""

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int, stride: int = 1):
        self.weight = _uniform_init(rng, (CONV_KERNEL, c_in, c_out), CONV_KERNEL * c_in)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, stride=self.stride, padding=CONV_KERNEL // 2)


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


class MultiHeadAttention(Module):
    """Standard scaled dot-product attention with an additive mask.

    The mask is a plain ndarray of 0 / -inf entries broadcastable to the
    (B, H, T, T_k) score block; it never carries gradient. With a
    ``KVCache`` the keys are the cached positions followed by ``x``'s, and
    ``x``'s keys and values are added to the cache. The cache holds no
    graph, so it is refused while gradients are on.
    """

    def __init__(self, rng: np.random.Generator, dim: int):
        if dim % N_HEADS != 0:
            raise ValueError(f"attention dim {dim} must divide evenly into {N_HEADS} heads")
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
        return self.wo(T.attention(q, k, v, N_HEADS, mask))


class TransformerLayer(Module):
    """Pre-norm block: x + attn(LN(x)), then x + ffn(LN(x))."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(rng, dim)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(rng, dim, FFN_MULT * dim)
        self.fc2 = Linear(rng, FFN_MULT * dim, dim)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 cache: KVCache | None = None) -> Tensor:
        x = T.add(x, self.attn(self.ln1(x), mask=mask, cache=cache))
        return T.add(x, self.fc2(T.gelu(self.fc1(self.ln2(x)))))


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


def causal_mask(t: int, past: int = 0) -> np.ndarray:
    """Additive (1, 1, t, past + t) mask for t queries that follow ``past``
    cached positions: query j sees keys 0..past + j only."""
    mask = np.full((t, past + t), -np.inf)
    return np.triu(mask, k=past + 1)[None, None, :, :]
