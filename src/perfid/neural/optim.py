"""Adam optimizer with classic L2-coupled weight decay.

The decay term is folded into the gradient (g += lambda * theta) before
the moment updates, matching the original Adam formulation rather than
the decoupled variant.
"""

from __future__ import annotations

import numpy as np

from .ops import ShapeMismatch
from .tensor import Tensor


class AdamState:
    """First/second moment buffers plus hyperparameters for one model."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 8e-5,
        weight_decay: float = 1e-7,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params: list[Tensor], state: AdamState) -> list[Tensor]:
    """Apply one bias-corrected Adam update in place.

    Each parameter steps along its accumulated ``.grad``; parameters
    whose ``.grad`` is None are skipped.
    """
    if len(params) != len(state.m):
        raise ShapeMismatch("params and state must align one-to-one")

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t

    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} does not match parameter "
                f"{p.data.shape}"
            )
        if state.weight_decay > 0.0:
            g = g + state.weight_decay * p.data
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(
            p.data.dtype, copy=False
        )
    return params
