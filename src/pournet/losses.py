"""Masked sequence-regression losses and their gradients.

Both losses see only positions where the mask is 1; padded steps contribute
exactly zero to values and gradients.
"""

import numpy as np

LOSS_KINDS = ("mse", "euclidean")


def _masked_residual(pred, target, mask, per_sequence: bool):
    """The masked residuals r [copies, n, T] of a stack of prediction sets,
    each copy's squared sum and the valid-step count.

    pred holds copies x n x T values, all scored against the same target and
    mask; a single prediction set is a stack of one. Sums are per sequence
    ([copies, n], over T) when per_sequence is set, else one per copy over a
    contiguous axis of n x T, so every copy sums in the order it would alone.
    Counts are per sequence or a total; an empty count raises ValueError.
    """
    m = np.asarray(mask, dtype=np.float64)
    if m.ndim == 1:
        m = m[None, :]
    p = np.asarray(pred, dtype=np.float64).reshape((-1,) + m.shape)
    t = np.asarray(target, dtype=np.float64).reshape(m.shape)
    counts = m.sum(axis=1 if per_sequence else None)
    if np.any(counts == 0):
        if per_sequence:
            raise ValueError(f"sequence {int(np.argmax(counts == 0))} has an empty mask")
        raise ValueError("mask selects no valid positions")
    r = (p - t) * m
    squares = r * r if per_sequence else (r * r).reshape(len(r), -1)
    return r, squares.sum(axis=-1), counts


def _check_kind(kind: str) -> None:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")


def loss_values(kind: str, preds, target, mask) -> np.ndarray:
    """loss_value of each prediction set in the stack preds [copies, n, T(, 1)],
    bitwise equal to scoring it alone, from one reduction over the stack."""
    _check_kind(kind)
    _, sq, counts = _masked_residual(preds, target, mask, per_sequence=kind == "euclidean")
    return sq / counts if kind == "mse" else np.sqrt(sq).mean(axis=-1)


def loss_value(kind: str, pred, target, mask) -> float:
    """mse: mean squared error over valid positions. euclidean: mean over
    sequences of the Euclidean distance sqrt(sum over valid steps of squared
    residual)."""
    return loss_values(kind, pred, target, mask).item()


def per_sequence_metric(kind: str, pred, target, mask) -> np.ndarray:
    """One value per sequence: the Euclidean distance, or the per-sequence MSE."""
    _check_kind(kind)
    _, (sq,), counts = _masked_residual(pred, target, mask, per_sequence=True)
    return np.sqrt(sq) if kind == "euclidean" else sq / counts


def loss_and_grad(kind: str, pred, target, mask):
    """Loss value and its gradient with respect to pred (same shape as pred)."""
    _check_kind(kind)
    (r,), (sq,), counts = _masked_residual(pred, target, mask, per_sequence=kind == "euclidean")
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
