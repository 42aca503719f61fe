"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray plus an optional closure that, given the
gradient of some scalar loss with respect to the Tensor, produces the
gradients with respect to its parents. Calling ``backward`` on a scalar
loss walks the recorded graph once in reverse topological order and then
releases it, so each forward pass pays for exactly one backward pass.
"""

from __future__ import annotations

import numpy as np


class NotScalarLoss(ValueError):
    """backward() was called on a tensor with more than one element."""


class Tensor:
    """An ndarray with an optional gradient and a backward closure.

    Parameters are created with ``requires_grad=True``; intermediate
    results inherit the flag from their parents. ``grad`` accumulates
    across calls until it is reset to None, which lets one batch be
    assembled from several backward passes if needed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in parents
        )
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward_fn = backward_fn if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Raises NotScalarLoss unless the tensor holds exactly one element.
        The graph is consumed: parent links and closures are dropped as
        each node is processed.
        """
        if self.data.size != 1:
            raise NotScalarLoss(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            fn = node._backward_fn
            if fn is not None:
                if node.grad is not None:
                    for parent, grad in zip(node._parents, fn(node.grad)):
                        if grad is None or not parent.requires_grad:
                            continue
                        if parent.grad is None:
                            parent.grad = grad
                        else:
                            parent.grad = parent.grad + grad
                # Intermediate activations release their grad buffers;
                # leaves (fn is None) keep theirs for the optimizer.
                node.grad = None
            node._parents = ()
            node._backward_fn = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"
