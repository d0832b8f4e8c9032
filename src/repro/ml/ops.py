"""Numerical primitives for the NumPy deep-learning stack.

Everything the offline models need — stable sigmoid/softmax, one-hot
encoding, binary cross-entropy — implemented with care for numerical
stability since the attention analysis (Figure 4) scales logits by up to
5x before the softmax.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``exp(-|x|)`` never overflows, and both branches are computed for
    every element and picked with ``where``: ``1 / (1 + e)`` for
    ``x >= 0``, ``e / (1 + e)`` otherwise (NaN takes the second branch).
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``; all--inf rows yield all-zero rows.

    The all-zero convention matters for causal attention: the first
    sequence position has no sources, so its (fully masked) attention row
    must come out as zeros rather than NaNs.
    """
    max_x = np.max(x, axis=axis, keepdims=True)
    # Rows that are entirely -inf would produce NaN; substitute 0 so the
    # exponentials vanish cleanly.
    max_x = np.where(np.isfinite(max_x), max_x, 0.0)
    shifted = x - max_x
    exp_x = np.exp(np.clip(shifted, -700.0, 0.0))
    exp_x = np.where(np.isfinite(x), exp_x, 0.0)
    denom = np.sum(exp_x, axis=axis, keepdims=True)
    return np.divide(exp_x, denom, out=np.zeros_like(exp_x), where=denom > 0)


def softmax_backward(softmax_out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of the softmax along the last axis."""
    dot = np.sum(grad_out * softmax_out, axis=-1, keepdims=True)
    return softmax_out * (grad_out - dot)


def one_hot(indices: np.ndarray, depth: int) -> np.ndarray:
    """One-hot encode integer ``indices``; output shape = shape + (depth,)."""
    indices = np.asarray(indices)
    flat = indices.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= depth):
        raise ValueError(f"indices out of range for one-hot depth {depth}")
    out = np.zeros((flat.size, depth), dtype=np.float64)
    out[np.arange(flat.size), flat] = 1.0
    return out.reshape(*indices.shape, depth)


def binary_cross_entropy_with_logits(
    logits: np.ndarray, targets: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean masked BCE loss and its gradient w.r.t. the logits.

    Uses the standard stable formulation
    ``max(z, 0) - z*y + log(1 + exp(-|z|))``.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    probs = sigmoid(z)
    grad = probs - y
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        count = max(1.0, float(np.sum(mask)))
        loss = float(np.sum(losses * mask) / count)
        grad = grad * mask / count
    else:
        count = max(1, z.size)
        loss = float(np.sum(losses) / count)
        grad = grad / count
    return loss, grad


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Global-norm gradient clipping in place; returns the pre-clip norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        scale = max_norm / (norm + 1e-12)
        for g in grads.values():
            g *= scale
    return norm
