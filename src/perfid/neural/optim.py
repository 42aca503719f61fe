"""Adam optimizer with classic L2-coupled weight decay.

The decay term is folded into the gradient (g += lambda * theta) before
the moment updates, matching the original Adam formulation rather than
the decoupled variant.

The update walks each parameter in ``SLICE``-element slices of its
flattened data, gradient and moments, writing into two slice-sized
scratch buffers. Whole-array expressions would stream every full-size
temporary through memory; a slice stays in cache. Every operation is
elementwise and each slice runs the same ufuncs, in the same order and
with the same scalars, so the result is bit-identical to the whole-array
form.

``BETA1``, ``BETA2`` and ``EPS`` are Adam's standard constants; the learning
rate and weight decay come from the caller (``TrainConfig`` holds their defaults).
"""

from __future__ import annotations

import math

import numpy as np

from .ops import ShapeMismatch
from .tensor import Tensor

SLICE = 32768
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class DtypeMismatch(TypeError):
    """A gradient's dtype differs from its parameter's."""


class AdamState:
    """First/second moment buffers plus hyperparameters for one model."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float):
        if not (lr > 0 and math.isfinite(lr)):
            raise ValueError("learning rate must be positive and finite")
        if not (weight_decay >= 0 and math.isfinite(weight_decay)):
            raise ValueError("weight decay must be non-negative and finite")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params: list[Tensor], state: AdamState) -> list[Tensor]:
    """Apply one bias-corrected Adam update in place.

    Each parameter steps along its accumulated ``.grad``; parameters
    whose ``.grad`` is None are skipped. Every gradient is checked
    before any state moves, so a ShapeMismatch or DtypeMismatch leaves
    parameters, moments and ``step_count`` as they were.
    """
    if len(params) != len(state.m):
        raise ShapeMismatch("params and state must align one-to-one")
    for p in params:
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} does not match parameter "
                f"{p.data.shape}"
            )
        if g.dtype != p.data.dtype:
            raise DtypeMismatch(
                f"gradient dtype {g.dtype} does not match parameter {p.data.dtype}"
            )
        if not p.data.flags.c_contiguous:  # the flat view below must not be a copy
            raise ValueError("parameter data must be C-contiguous")

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    scratch: dict[np.dtype, np.ndarray] = {}

    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            continue
        if p.data.dtype not in scratch:
            scratch[p.data.dtype] = np.empty((2, SLICE), dtype=p.data.dtype)
        bufs = scratch[p.data.dtype]
        data, grad = p.data.reshape(-1), p.grad.reshape(-1)
        m, v = m.reshape(-1), v.reshape(-1)
        for lo in range(0, data.size, SLICE):
            hi = min(lo + SLICE, data.size)
            a, b = bufs[0, : hi - lo], bufs[1, : hi - lo]
            d, g, ms, vs = data[lo:hi], grad[lo:hi], m[lo:hi], v[lo:hi]
            if state.weight_decay > 0.0:
                np.multiply(state.weight_decay, d, out=a)
                g = np.add(g, a, out=a)
            ms *= BETA1
            ms += np.multiply(1.0 - BETA1, g, out=b)
            vs *= BETA2
            np.multiply(g, g, out=b)
            vs += np.multiply(1.0 - BETA2, b, out=b)
            np.divide(vs, bc2, out=b)  # v_hat
            np.divide(ms, bc1, out=a)  # m_hat
            np.multiply(state.lr, a, out=a)
            np.sqrt(b, out=b)
            np.add(b, EPS, out=b)
            d -= np.divide(a, b, out=a)
    return params
