"""AdamW with decoupled weight decay.

Decay multiplies the parameter by (1 - lr*wd) before the moment update is
applied, so regularization never leaks into the running moments.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import require_tensor
from .tensor import Tensor


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
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
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    # -- resumable state ------------------------------------------------------

    def state_tensors(self) -> dict[str, Tensor]:
        """Moment buffers and step counter as named tensors for checkpointing."""
        out: dict[str, Tensor] = {"opt.step": Tensor(np.array([float(self.step_count)]))}
        for name in self.params:
            out[f"opt.m.{name}"] = Tensor(self.m[name])
            out[f"opt.v.{name}"] = Tensor(self.v[name])
        return out

    def load_state_tensors(self, blobs: dict[str, Tensor]) -> None:
        self.step_count = int(require_tensor(blobs, "opt.step").reshape(-1)[0])
        for name in self.params:
            self.m[name] = np.array(require_tensor(blobs, f"opt.m.{name}"))
            self.v[name] = np.array(require_tensor(blobs, f"opt.v.{name}"))
