"""Differentiable layer operations.

All ops take and return :class:`~perfid.neural.tensor.Tensor` values and
record their backward closures on the output. Sequence inputs are
channels-first ``(batch, channels, length)``. Variable-length batches are
handled with per-sample lengths: positions at or beyond a sample's length
are kept at zero by the masked ops, so a padded batch computes exactly
what the unpadded samples would.

Memory layout is part of the output bytes: ``conv1d`` returns (B, L, C)
memory order, ``relu`` and ``batchnorm1d`` keep their input's, and
gradients flow back in C order. Reductions such as ``sum(axis=(0, 2))``
add in memory order, so another layout would round batch statistics and
gradients differently. An op mixing the two layouts first copies one
operand into the other's order, as mixed-layout ufuncs run far slower.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BN_MOMENTUM = 0.1  # batch norm's running-statistics update weight
BN_EPS = 1e-5  # added to batch norm's variance before the square root


class ShapeMismatch(ValueError):
    """Operands disagree on a dimension the op needs to agree."""


class BatchTooSmall(ValueError):
    """Training-mode batch norm needs at least two samples."""


class ZeroLength(ValueError):
    """A sample declared a non-positive valid length."""


class LabelOutOfRange(ValueError):
    """A class label falls outside [0, n_classes)."""


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _length_mask(lengths: np.ndarray, batch: int, max_len: int) -> np.ndarray:
    """(batch, 1, max_len) float mask, 1 inside each sample's valid span."""
    lengths = np.asarray(lengths)
    if lengths.shape != (batch,):
        raise ShapeMismatch(
            f"lengths shape {lengths.shape} does not match batch {batch}"
        )
    if np.any(lengths <= 0):
        raise ZeroLength("every sample must have a positive valid length")
    if np.any(lengths > max_len):
        raise ShapeMismatch("a declared length exceeds the padded axis")
    return (np.arange(max_len)[None, :] < lengths[:, None])[:, None, :]


def _in_layout_of(ref: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` in ``ref``'s memory order, so ops on the two stream."""
    out = np.empty_like(ref, dtype=a.dtype)
    out[...] = a
    return out


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Same-padded 1D convolution.

    ``x`` is (B, C_in, L), ``weight`` is (C_out, C_in, K) with K odd,
    ``bias`` is (C_out,). Output length is ceil(L / stride). The kernel
    is laid out as an im2col matrix product so the bulk of the work runs
    through BLAS. The output is a transposed view of the GEMM's rows: shape
    (B, C_out, L_out), memory in (B, L_out, C_out) order. ``x``'s gradient
    is a C-ordered slice of the padded buffer it is accumulated in.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.data.ndim != 3 or weight.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeMismatch("conv1d expects x (B,C,L), weight (O,C,K), bias (O,)")
    batch, c_in, length = x.data.shape
    c_out, c_in_w, kernel = weight.data.shape
    if c_in != c_in_w:
        raise ShapeMismatch(f"input has {c_in} channels, weight expects {c_in_w}")
    if bias.data.shape[0] != c_out:
        raise ShapeMismatch("bias length must equal the output channel count")
    if kernel % 2 != 1:
        raise ShapeMismatch("kernel size must be odd for same padding")
    if stride < 1:
        raise ShapeMismatch("stride must be >= 1")

    pad = (kernel - 1) // 2
    out_len = (length - 1) // stride + 1
    # Channels-last padded input; cols[b, t, c, k] = x_pad[b, t * stride + k, c].
    x_pad = np.zeros((batch, length + 2 * pad, c_in), x.data.dtype)
    x_pad[:, pad : pad + length] = x.data.transpose(0, 2, 1)
    cols = np.empty((batch, out_len, c_in, kernel), x.data.dtype)
    for k in range(kernel):
        cols[:, :, :, k] = x_pad[:, k : k + stride * out_len : stride]
    cols = cols.reshape(batch * out_len, c_in * kernel)
    w2 = weight.data.reshape(c_out, c_in * kernel)
    out = (cols @ w2.T + bias.data).reshape(batch, out_len, c_out).transpose(0, 2, 1)

    def backward(grad):
        g2 = np.ascontiguousarray(grad.transpose(0, 2, 1)).reshape(
            batch * out_len, c_out
        )
        grad_w = grad_x = grad_b = None
        if weight.requires_grad:
            grad_w = (g2.T @ cols).reshape(c_out, c_in, kernel)
        if bias.requires_grad:
            grad_b = grad.sum(axis=(0, 2))
        if x.requires_grad:
            dcols = (g2 @ w2).reshape(batch, out_len, c_in, kernel)
            dcols = dcols.transpose(0, 2, 1, 3)
            dx_pad = np.zeros((batch, c_in, length + 2 * pad), x.data.dtype)
            for k in range(kernel):
                dx_pad[:, :, k : k + stride * out_len : stride] += dcols[:, :, :, k]
            grad_x = dx_pad[:, :, pad : pad + length]
        return grad_x, grad_w, grad_b

    return Tensor(out, parents=(x, weight, bias), backward_fn=backward)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    positive = x.data > 0

    def backward(grad):
        return (grad * _in_layout_of(grad, positive),)

    # fmax, unlike maximum, maps NaN to 0 as np.where(x > 0, x, 0) does
    return Tensor(np.fmax(x.data, 0), parents=(x,), backward_fn=backward)


def batchnorm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    lengths: np.ndarray | None = None,
) -> Tensor:
    """Batch normalization over (batch, length) per channel, with masking.

    When ``lengths`` is given, statistics are taken over valid positions
    only and the padded tail of the output is forced back to zero, which
    is what keeps padded batches equivalent to unpadded ones.

    In training mode the running buffers are updated in place with the
    batch statistics; in eval mode they are used instead of the batch.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim != 3:
        raise ShapeMismatch("batchnorm1d expects (B, C, L) input")
    batch, channels, length = x.data.shape
    if gamma.data.shape != (channels,) or beta.data.shape != (channels,):
        raise ShapeMismatch("gamma/beta must be one value per channel")
    if running_mean.shape != (channels,) or running_var.shape != (channels,):
        raise ShapeMismatch("running buffers must be one value per channel")
    if training and batch < 2:
        raise BatchTooSmall("training-mode batch norm needs batch size >= 2")

    mask = None
    if lengths is not None:
        mask = _length_mask(lengths, batch, length).astype(x.data.dtype)
        count = float(mask.sum())
    else:
        count = float(batch * length)

    if training:
        xm = x.data if mask is None else x.data * mask
        mean = xm.sum(axis=(0, 2)) / count
    else:
        mean = running_mean.astype(x.data.dtype)
    centered = x.data - mean[None, :, None]
    if mask is not None:
        centered *= mask
    if training:
        var = (centered * centered).sum(axis=(0, 2)) / count
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        var = running_var.astype(x.data.dtype)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = centered * inv_std[None, :, None]
    out = gamma.data[None, :, None] * xhat + beta.data[None, :, None]
    if mask is not None:
        out *= mask

    def backward(grad):
        g = grad if mask is None else grad * mask
        xhat_g = _in_layout_of(g, xhat)
        grad_gamma = grad_beta = grad_x = None
        if beta.requires_grad:
            grad_beta = g.sum(axis=(0, 2))
        if gamma.requires_grad:
            grad_gamma = (g * xhat_g).sum(axis=(0, 2))
        if x.requires_grad:
            dxhat = g * gamma.data[None, :, None]
            if training:
                sum_d = dxhat.sum(axis=(0, 2))[None, :, None]
                sum_dx = (dxhat * xhat_g).sum(axis=(0, 2))[None, :, None]
                grad_x = inv_std[None, :, None] * (
                    dxhat - sum_d / count - xhat_g * sum_dx / count
                )
            else:
                grad_x = dxhat * inv_std[None, :, None]
            if mask is not None:
                grad_x = grad_x * mask
        return grad_x, grad_gamma, grad_beta

    return Tensor(out, parents=(x, gamma, beta), backward_fn=backward)


def dropout(
    x: Tensor, rate: float, rng: np.random.Generator, training: bool
) -> Tensor:
    """Inverted dropout: active units are scaled by 1/(1-rate) in training."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatch("dropout rate must lie in [0, 1)")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def backward(grad):
        return (grad * keep,)

    return Tensor(x.data * keep, parents=(x,), backward_fn=backward)


def masked_global_avg_pool(x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
    """Mean over the time axis, restricted to each sample's valid span."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeMismatch("pooling expects (B, C, L) input")
    batch, _, length = x.data.shape
    if lengths is None:
        lengths = np.full(batch, length, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    mask = _length_mask(lengths, batch, length).astype(x.data.dtype)
    denom = lengths.astype(x.data.dtype)[:, None]
    out = (x.data * mask).sum(axis=2) / denom

    def backward(grad):
        if not x.requires_grad:
            return (None,)
        return ((grad / denom)[:, :, None] * mask,)

    return Tensor(out, parents=(x,), backward_fn=backward)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: (B, F) @ (F, O) + (O,)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeMismatch("dense expects x (B,F) and weight (F,O)")
    if x.data.shape[1] != weight.data.shape[0]:
        raise ShapeMismatch(
            f"x has {x.data.shape[1]} features, weight expects {weight.data.shape[0]}"
        )
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeMismatch("bias length must equal the output width")
    out = x.data @ weight.data + bias.data[None, :]

    def backward(grad):
        grad_x = grad @ weight.data.T if x.requires_grad else None
        grad_w = x.data.T @ grad if weight.requires_grad else None
        grad_b = grad.sum(axis=0) if bias.requires_grad else None
        return grad_x, grad_w, grad_b

    return Tensor(out, parents=(x, weight, bias), backward_fn=backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    Computed from shifted logits so large magnitudes cannot overflow.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeMismatch("logits must be (batch, classes)")
    batch, n_classes = logits.data.shape
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ShapeMismatch("one label per batch row is required")
    if not np.issubdtype(labels.dtype, np.integer):
        raise LabelOutOfRange("labels must be integers")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise LabelOutOfRange(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(batch)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    loss = -log_probs[rows, labels].mean()

    def backward(grad):
        if not logits.requires_grad:
            return (None,)
        d = probs.copy()
        d[rows, labels] -= 1.0
        return (d * (grad / batch),)

    return Tensor(
        np.asarray(loss, dtype=logits.data.dtype),
        parents=(logits,),
        backward_fn=backward,
    )
