"""Masked sequence-regression losses and their gradients.

Both losses see only positions where the mask is 1; padded steps contribute
exactly zero to values and gradients.
"""

import numpy as np

LOSS_KINDS = ("mse", "euclidean")


def _masked_residual(pred, target, mask, per_sequence: bool):
    """The masked residual r [n, T], its squared sum and the valid-step count.

    Sums and counts are per sequence ([n]) when per_sequence is set, else
    totals; an empty count raises ValueError.
    """
    m = np.asarray(mask, dtype=np.float64)
    if m.ndim == 1:
        m = m[None, :]
    p = np.asarray(pred, dtype=np.float64).reshape(m.shape)
    t = np.asarray(target, dtype=np.float64).reshape(m.shape)
    axis = 1 if per_sequence else None
    counts = m.sum(axis=axis)
    if np.any(counts == 0):
        if per_sequence:
            raise ValueError(f"sequence {int(np.argmax(counts == 0))} has an empty mask")
        raise ValueError("mask selects no valid positions")
    r = (p - t) * m
    return r, (r * r).sum(axis=axis), counts


def _check_kind(kind: str) -> None:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")


def masked_mse(pred, target, mask) -> float:
    """Mean squared error over valid positions only."""
    _, sq, count = _masked_residual(pred, target, mask, per_sequence=False)
    return float(sq / count)


def masked_euclidean(pred, target, mask) -> float:
    """Mean over sequences of the per-sequence Euclidean distance
    sqrt(sum over valid steps of squared residual)."""
    _, sq, _ = _masked_residual(pred, target, mask, per_sequence=True)
    return float(np.sqrt(sq).mean())


def per_sequence_metric(kind: str, pred, target, mask) -> np.ndarray:
    """One value per sequence: the Euclidean distance, or the per-sequence MSE."""
    _check_kind(kind)
    _, sq, counts = _masked_residual(pred, target, mask, per_sequence=True)
    return np.sqrt(sq) if kind == "euclidean" else sq / counts


def loss_and_grad(kind: str, pred, target, mask):
    """Loss value and its gradient with respect to pred (same shape as pred)."""
    _check_kind(kind)
    r, sq, counts = _masked_residual(pred, target, mask, per_sequence=kind == "euclidean")
    if kind == "mse":
        value = float(sq / counts)
        grad = (2.0 / counts) * r
    else:
        dist = np.sqrt(sq)
        value = float(dist.mean())
        safe = np.where(dist > 0.0, dist, 1.0)
        grad = r / (safe[:, None] * r.shape[0])
        grad[dist == 0.0] = 0.0
    return value, grad.reshape(np.asarray(pred).shape)
