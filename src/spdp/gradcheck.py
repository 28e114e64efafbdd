"""Finite-difference verification of reverse-mode gradients.

Central differences with h=1e-5 on float64 carry ~1e-10 absolute noise
(roundoff of the loss divided by 2h), far below the 1e-4 acceptance
threshold for any gradient of real magnitude, so a genuine analytic bug
stands out by orders of magnitude. The relative-error denominator is
floored at 1e-5: on dead coordinates both sides are pure noise and the
comparison would otherwise amplify it past the threshold.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, no_grad

H = 1e-5     # central-difference step


def grad_check(loss_fn: Callable[[], Tensor], params: dict[str, Tensor],
               max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> dict[str, float]:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    Returns the max relative error per parameter. When
    ``max_coords_per_param`` is set, that many coordinates are sampled
    uniformly per tensor (every tensor is still covered); otherwise all
    coordinates are checked. Perturbations go into ``p.data`` in place, and
    the perturbed forwards run under ``no_grad``, so ``loss_fn`` must not
    depend on whether gradients are on.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for k, p in params.items()}

    if rng is None:
        rng = np.random.default_rng(0)
    report: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.flat
        n = p.data.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(n)
        worst = 0.0
        a_flat = analytic[name].reshape(-1)
        for i in coords:
            saved = flat[i]
            with no_grad():         # the perturbed forwards are never backpropagated
                flat[i] = saved + H
                up = loss_fn().item()
                flat[i] = saved - H
                down = loss_fn().item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * H)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-5)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
        report[name] = worst
    return report
