"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation that touches a tensor with
``requires_grad=True`` records a closure that propagates gradients to its
parents. Calling ``backward()`` on a scalar result walks the recorded graph
once in reverse topological order. All storage is 64-bit, row-major numpy.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = [True]
_BACKWARD_FAULT = [False]


def grad_enabled() -> bool:
    return _GRAD_ENABLED[0]


def set_backward_fault(enabled: bool) -> None:
    """Deliberately corrupt one backward rule (negative control for gradcheck)."""
    _BACKWARD_FAULT[0] = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (frozen-parameter inference)."""
    prev = _GRAD_ENABLED[0]
    _GRAD_ENABLED[0] = False
    try:
        yield
    finally:
        _GRAD_ENABLED[0] = prev


class Tensor:
    """n-dimensional float64 array with an optional gradient buffer.

    ``grad`` is allocated lazily on the first accumulation during backward
    and always matches ``data`` in shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph machinery ----------------------------------------------------

    def _accum_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` to the gradient. A ``fresh`` array, one that nothing else
        holds, becomes the gradient as it is instead of being copied."""
        if self.grad is None:
            self.grad = g if fresh else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Every node is visited exactly once, after all of its children, so
        gradient accumulation into shared parents is complete before their
        own backward closure runs.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _attach(out: Tensor, parents: tuple[Tensor, ...], backward: Callable[[np.ndarray], None]) -> Tensor:
    if _GRAD_ENABLED[0] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# -- arithmetic primitives ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(g, b.data.shape))

    return _attach(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(-g, b.data.shape))

    return _attach(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(g * a.data, b.data.shape))

    return _attach(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)

    def bw(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _attach(out, (a, b), bw)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)

    def bw(g):
        a._accum_grad(-g)

    return _attach(out, (a,), bw)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    exponent = float(exponent)
    out = Tensor(a.data ** exponent)

    def bw(g):
        a._accum_grad(g * exponent * a.data ** (exponent - 1.0))

    return _attach(out, (a,), bw)


def matmul(a, b) -> Tensor:
    """Batched matrix product; leading batch dims broadcast like numpy."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    out = Tensor(np.matmul(a.data, b.data))

    def bw(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accum_grad(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accum_grad(_unbroadcast(gb, b.data.shape))

    return _attach(out, (a, b), bw)


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` of the last axis as one graph node.

    ``w`` is (d_in, d_out) and ``b`` is (d_out,); ``x`` may have any number
    of leading axes, which all share the one weight.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or b.shape != (w.shape[1],) or x.shape[-1:] != w.shape[:1]:
        raise ValueError("linear needs x (..., d_in), w (d_in, d_out) and b (d_out,)")
    out = Tensor(np.matmul(x.data, w.data) + b.data)

    def bw(g):
        if b.requires_grad:
            b._accum_grad(_unbroadcast(g, b.data.shape))
        if w.requires_grad:
            # One 2-D product over every leading row of x.
            w._accum_grad(x.data.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1]),
                          fresh=True)
        if x.requires_grad:
            x._accum_grad(np.matmul(g, w.data.T), fresh=True)

    return _attach(out, (x, w, b), bw)


# -- elementwise functions ----------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    out = Tensor(y)

    def bw(g):
        a._accum_grad(g * y)

    return _attach(out, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data))

    def bw(g):
        a._accum_grad(g / a.data)

    return _attach(out, (a,), bw)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    y = np.sqrt(a.data)
    out = Tensor(y)

    def bw(g):
        a._accum_grad(g * 0.5 / y)

    return _attach(out, (a,), bw)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y)

    def bw(g):
        a._accum_grad(g * (1.0 - y * y))

    return _attach(out, (a,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def bw(g):
        dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * (x * x))
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        if _BACKWARD_FAULT[0]:
            local = 0.5 * (1.0 + t)
        a._accum_grad(g * local)

    return _attach(out, (a,), bw)


# -- reductions ----------------------------------------------------------------


def _restore_axes(g: np.ndarray, axis, keepdims: bool, src_shape: tuple[int, ...]) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, src_shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % len(src_shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, src_shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        a._accum_grad(_restore_axes(g, axis, keepdims, a.data.shape))

    return _attach(out, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.data.size / out.data.size

    def bw(g):
        a._accum_grad(_restore_axes(g, axis, keepdims, a.data.shape) / count)

    return _attach(out, (a,), bw)


# -- shape manipulation --------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        a._accum_grad(g.reshape(a.data.shape))

    return _attach(out, (a,), bw)


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = Tensor(np.transpose(a.data, axes))
    inverse = tuple(np.argsort(axes))

    def bw(g):
        a._accum_grad(np.transpose(g, inverse))

    return _attach(out, (a,), bw)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    extents = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + extents)

    def bw(g):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                part._accum_grad(g[tuple(index)])

    return _attach(out, tuple(parts), bw)


def _basic_index(idx) -> bool:
    """True when ``idx`` holds only slices and ints, so no element repeats."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(p, slice) or (isinstance(p, (int, np.integer))
                                        and not isinstance(p, bool)) for p in parts)


def take(a, idx) -> Tensor:
    """Indexing/slicing; integer-array indices accumulate grads via add.at."""
    a = as_tensor(a)
    out = Tensor(a.data[idx])
    basic = _basic_index(idx)

    def bw(g):
        buf = np.zeros_like(a.data)
        if basic:
            buf[idx] = g
        else:
            np.add.at(buf, idx, g)
        a._accum_grad(buf)

    return _attach(out, (a,), bw)


def embedding(table, ids: np.ndarray) -> Tensor:
    """Look up rows of ``table`` for an integer id array."""
    return take(table, np.asarray(ids))


# -- normalized exponentials ---------------------------------------------------


def _masked_input(x: np.ndarray, axis: int, mask: np.ndarray | None) -> np.ndarray:
    z = x if mask is None else x + mask
    peak = z.max(axis=axis, keepdims=True)
    if np.isneginf(peak).any():
        raise ValueError("empty softmax support")
    return z - peak


def softmax(a, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Stabilized softmax; ``mask`` is additive (0 or -inf) and ungraded.

    Masked entries come out exactly 0 and receive no gradient.
    """
    a = as_tensor(a)
    z = _masked_input(a.data, axis, mask)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bw(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        a._accum_grad(y * (g - inner))

    return _attach(out, (a,), bw)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = _masked_input(a.data, axis, None)
    y = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = Tensor(y)

    def bw(g):
        a._accum_grad(g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    return _attach(out, (a,), bw)


# -- multi-head attention ------------------------------------------------------


def attention(q, k, v, n_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one graph node.

    ``q`` is (B, T, d) and ``k``, ``v`` are (B, T_k, d), each the heads side
    by side on the last axis; the output is (B, T, d) in the same layout.
    ``mask`` is additive (0 or -inf), ungraded, and broadcastable to the
    (B, H, T, T_k) score block. The backward starts from the saved
    probabilities P: dV = P^T dO, dP = dO V^T, dS = P * (dP - rowsum(dP * P)).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    batch, t, dim = q.shape
    t_k = k.shape[1]
    if k.shape != (batch, t_k, dim) or v.shape != k.shape or dim % n_heads != 0:
        raise ValueError("attention needs q (B, T, d), k and v (B, T_k, d), and H dividing d")
    head_dim = dim // n_heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x: np.ndarray, length: int) -> np.ndarray:
        return x.reshape(batch, length, n_heads, head_dim).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data, t), split(k.data, t_k), split(v.data, t_k)
    z = _masked_input(np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale, -1, mask)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(np.matmul(p, vh).transpose(0, 2, 1, 3).reshape(batch, t, dim))

    def bw(g):
        go = split(g, t)
        if v.requires_grad:
            v._accum_grad(np.matmul(np.swapaxes(p, -1, -2), go)
                          .transpose(0, 2, 1, 3).reshape(batch, t_k, dim), fresh=True)
        dp = np.matmul(go, np.swapaxes(vh, -1, -2))
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            q._accum_grad(np.matmul(ds, kh).transpose(0, 2, 1, 3).reshape(batch, t, dim),
                          fresh=True)
        if k.requires_grad:
            k._accum_grad(np.matmul(np.swapaxes(qh, -1, -2), ds)
                          .transpose(0, 3, 1, 2).reshape(batch, t_k, dim), fresh=True)

    return _attach(out, (q, k, v), bw)


# -- layer normalization -------------------------------------------------------


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last (feature) axis, then apply the affine pair."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    feat = x.data.shape[-1]
    if feat == 0:
        raise ValueError("layer_norm requires a nonzero feature extent")
    if gamma.data.shape != (feat,) or beta.data.shape != (feat,):
        raise ValueError("layer_norm affine parameters must match the feature extent")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(gamma.data * xhat + beta.data)
    lead_axes = tuple(range(x.data.ndim - 1))

    def bw(g):
        if gamma.requires_grad:
            gamma._accum_grad((g * xhat).sum(axis=lead_axes))
        if beta.requires_grad:
            beta._accum_grad(g.sum(axis=lead_axes))
        if x.requires_grad:
            gx = g * gamma.data
            term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            x._accum_grad(term * inv)

    return _attach(out, (x, gamma, beta), bw)


# -- similarity and losses -----------------------------------------------------


def cosine_sim(u, v, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """Cosine similarity along ``axis``; eps is added to the norm product."""
    u, v = as_tensor(u), as_tensor(v)
    if u.shape != v.shape:
        raise ValueError("cosine_sim operands must have identical shapes")
    dot = tsum(mul(u, v), axis=axis)
    norms = mul(sqrt(tsum(mul(u, u), axis=axis)), sqrt(tsum(mul(v, v), axis=axis)))
    return div(dot, add(norms, eps))


def token_cross_entropy(logits, targets: np.ndarray, loss_mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over positions where ``loss_mask`` is set.

    ``logits`` is (..., V); ``targets`` and ``loss_mask`` cover the leading
    axes. Padding positions are excluded from the mean: only the supervised
    rows are normalised, and only they receive gradient,
    (softmax - onehot) * g / count.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    loss_mask = np.asarray(loss_mask, dtype=bool)
    vocab = logits.shape[-1]
    count = int(loss_mask.sum())
    if count == 0:
        raise ValueError("no loss support")
    active = targets[loss_mask]
    if active.min() < 0 or active.max() >= vocab:
        raise ValueError("target index out of range")
    rows = np.nonzero(loss_mask)
    z = _masked_input(logits.data[rows], -1, None)
    lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = np.arange(count), active
    out = Tensor(-lp[picked].sum() / float(count))

    def bw(g):
        c = g / float(count)
        d = np.exp(lp) * c
        d[picked] -= c
        # Accumulate straight into the supervised rows of the gradient.
        if logits.grad is None:
            logits.grad = np.zeros_like(logits.data)
        logits.grad[rows] += d

    return _attach(out, (logits,), bw)


def class_nll(log_probs, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of per-item class log-probabilities."""
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    n, n_classes = log_probs.shape
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ValueError("target index out of range")
    picked = take(log_probs, (np.arange(n), targets))
    return neg(tmean(picked))


# -- 1-d convolution -----------------------------------------------------------


def conv1d(x, weight, bias, stride: int = 1, padding: int = 1) -> Tensor:
    """Temporal convolution of (B, T, C_in) with a (K, C_in, C_out) kernel.

    With odd K and padding=(K-1)/2 the output length is ceil(T / stride).
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    batch, t_in, c_in = x.data.shape
    k, wc_in, c_out = weight.data.shape
    if wc_in != c_in:
        raise ValueError("conv1d channel mismatch")
    t_out = (t_in + 2 * padding - k) // stride + 1
    if t_out < 1:
        raise ValueError("conv1d input too short")
    xpad = np.zeros((batch, t_in + 2 * padding, c_in))
    xpad[:, padding:padding + t_in, :] = x.data
    pos = np.arange(t_out)[:, None] * stride + np.arange(k)[None, :]
    cols = xpad[:, pos, :]                       # (B, T_out, K, C_in)
    w2 = weight.data.reshape(k * c_in, c_out)
    out = Tensor(cols.reshape(batch, t_out, k * c_in) @ w2 + bias.data)

    def bw(g):
        if bias.requires_grad:
            bias._accum_grad(g.sum(axis=(0, 1)))
        if weight.requires_grad:
            gw = cols.reshape(-1, k * c_in).T @ g.reshape(-1, c_out)
            weight._accum_grad(gw.reshape(k, c_in, c_out))
        if x.requires_grad:
            dcols = (g @ w2.T).reshape(batch, t_out, k, c_in)
            dxpad = np.zeros_like(xpad)
            for kk in range(k):
                dxpad[:, pos[:, kk], :] += dcols[:, :, kk, :]
            x._accum_grad(dxpad[:, padding:padding + t_in, :])

    return _attach(out, (x, weight, bias), bw)
