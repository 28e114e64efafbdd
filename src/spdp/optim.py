"""AdamW with decoupled weight decay, over one flat parameter arena.

Decay multiplies the parameter by (1 - lr*wd) before the moment update is
applied, so regularization never leaks into the running moments.

At construction the parameters are copied into one contiguous array and each
``p.data`` is rebound to its view of it; the moments are flat the same way,
and ``m[name]`` / ``v[name]`` are per-name views. A step gathers the
gradients of each run of consecutive parameters that have one into a flat
buffer and updates the run in blocks of ``BLOCK`` elements, so its
temporaries stay cache-sized. The arithmetic per element is that of a
per-tensor loop, in the same order, so the results are the same bits.
A parameter is stepped by the last AdamW built over it, which holds its data.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999   # moment decay rates
EPS = 1e-8                  # added to the second-moment root
BLOCK = 32 * 1024           # elements per update pass: its operands fit in L2


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        bounds = np.cumsum([0] + [p.data.size for p in self.params.values()]).tolist()
        self._bounds = list(zip(bounds[:-1], bounds[1:]))
        n = bounds[-1]
        self._data = np.empty(n)
        self._grad = np.empty(n)
        self._m = np.zeros(n)
        self._v = np.zeros(n)
        self._tmp = np.empty(min(n, BLOCK))
        self._den = np.empty(min(n, BLOCK))
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for (name, p), (lo, hi) in zip(self.params.items(), self._bounds):
            shape = p.data.shape
            view = self._data[lo:hi].reshape(shape)
            view[...] = p.data
            p.data = view
            self.m[name] = self._m[lo:hi].reshape(shape)
            self.v[name] = self._v[lo:hi].reshape(shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update of every parameter that has a gradient; the others,
        with their moments, stay as they are."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        run: list[np.ndarray] = []
        start = 0
        for p, (lo, hi) in zip(self.params.values(), self._bounds):
            if p.grad is None:
                self._update(start, lo, run, bc1, bc2)
                run, start = [], hi
            else:
                run.append(p.grad.reshape(-1))
        self._update(start, len(self._data), run, bc1, bc2)

    def _update(self, lo: int, hi: int, grads: list[np.ndarray], bc1: float,
                bc2: float) -> None:
        """Apply the step to the arena slice [lo, hi), whose gradients are ``grads``."""
        if not grads:
            return
        np.concatenate(grads, out=self._grad[lo:hi])
        decay = 1.0 - self.lr * self.weight_decay
        for a in range(lo, hi, BLOCK):
            b = min(a + BLOCK, hi)
            p, g = self._data[a:b], self._grad[a:b]
            m, v = self._m[a:b], self._v[a:b]
            tmp, den = self._tmp[:b - a], self._den[:b - a]
            if self.weight_decay:
                p *= decay
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=tmp)
            m += tmp
            v *= BETA2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - BETA2
            v += tmp
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            np.divide(m, bc1, out=tmp)
            tmp *= self.lr
            tmp /= den
            p -= tmp

    # -- resumable state ------------------------------------------------------

    def state_tensors(self) -> dict[str, Tensor]:
        """The moment buffers as named tensors over the live arrays, so that
        saving reads them and ``checkpoint.restore_params`` writes them."""
        out: dict[str, Tensor] = {}
        for name in self.params:
            out[f"opt.m.{name}"] = Tensor(self.m[name])
            out[f"opt.v.{name}"] = Tensor(self.v[name])
        return out
