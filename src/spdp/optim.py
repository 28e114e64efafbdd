"""AdamW with decoupled weight decay.

Decay multiplies the parameter by (1 - lr*wd) before the moment update is
applied, so regularization never leaks into the running moments.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999   # moment decay rates
EPS = 1e-8                  # added to the second-moment root


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    # -- resumable state ------------------------------------------------------

    def state_tensors(self) -> dict[str, Tensor]:
        """The moment buffers as named tensors over the live arrays, so that
        saving reads them and ``checkpoint.restore_params`` writes them."""
        out: dict[str, Tensor] = {}
        for name in self.params:
            out[f"opt.m.{name}"] = Tensor(self.m[name])
            out[f"opt.v.{name}"] = Tensor(self.v[name])
        return out
