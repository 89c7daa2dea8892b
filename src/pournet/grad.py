"""Exact backpropagation through the stacked model, and the independent
finite-difference oracle used to check it."""

import numpy as np

from . import nn
from .errors import NumericalError
from .losses import loss_and_grad

FD_STEP = 1e-5
FD_TOL = 1e-5


def _first_bad_layer(spec, caches):
    for idx, (layer, cache) in enumerate(zip(spec.layers, caches)):
        if cache is None:
            continue
        for value in cache.values():
            if isinstance(value, np.ndarray) and not np.all(np.isfinite(value)):
                return f"layer {idx} ({layer.kind})"
    return "loss"


def backward(params, batch, loss_kind: str, mode: str = "train",
             rng: np.random.Generator | None = None, dropout_masks: list | None = None):
    """Loss and its exact gradient (flat vector, ModelParams.flatten packing).

    In train mode, dropout kept masks are sampled once in the forward pass
    and reused in the backward pass; pass dropout_masks to pin them.
    """
    preds, caches = nn.forward(params, batch.features, batch.mask, mode=mode,
                               rng=rng, dropout_masks=dropout_masks)
    value, dpred = loss_and_grad(loss_kind, preds, batch.targets, batch.mask)
    if not np.isfinite(value):
        where = _first_bad_layer(params.spec, caches)
        raise NumericalError(f"non-finite loss; first non-finite values in {where}")
    flat = nn.backward_through_layers(params, caches, dpred)
    return value, flat


def finite_diff_grad(loss_fn, flat_params, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of loss_fn at flat_params."""
    flat = np.asarray(flat_params, dtype=np.float64)
    grad = np.empty_like(flat)
    probe = flat.copy()
    for i in range(flat.size):
        original = probe[i]
        probe[i] = original + h
        hi = loss_fn(probe)
        probe[i] = original - h
        lo = loss_fn(probe)
        probe[i] = original
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_gradient_errors(analytic, numeric) -> np.ndarray:
    """Per-coordinate |ga - gf| / max(1e-8, |ga| + |gf|)."""
    ga = np.asarray(analytic, dtype=np.float64)
    gf = np.asarray(numeric, dtype=np.float64)
    return np.abs(ga - gf) / np.maximum(1e-8, np.abs(ga) + np.abs(gf))


def frozen_dropout_masks(spec, batch, rng: np.random.Generator) -> list:
    """One kept mask per dropout layer, sampled once so repeated forwards agree."""
    widths = spec.widths()
    masks = []
    n, t_len = batch.mask.shape
    for i, layer in enumerate(spec.layers):
        if layer.kind == "dropout":
            masks.append(rng.random((n, t_len, widths[i])) >= layer.rate)
    return masks


def check_gradients(params, batch, loss_kind: str, h: float = FD_STEP,
                    dropout_masks: list | None = None,
                    rng: np.random.Generator | None = None):
    """Compare backprop against central differences with frozen dropout.

    Returns (max_rel_err, worst_coordinate_index).
    """
    spec = params.spec
    if dropout_masks is None:
        dropout_masks = frozen_dropout_masks(spec, batch, rng or np.random.default_rng(0))
    value, analytic = backward(params, batch, loss_kind, mode="train",
                               dropout_masks=dropout_masks)
    if not np.isfinite(value):
        raise NumericalError("non-finite loss at the linearization point")

    def loss_at(flat):
        p = nn.ModelParams.from_flat(spec, flat)
        preds, _ = nn.forward(p, batch.features, batch.mask, mode="train",
                              dropout_masks=dropout_masks, want_cache=False)
        val, _ = loss_and_grad(loss_kind, preds, batch.targets, batch.mask)
        return val

    numeric = finite_diff_grad(loss_at, params.flatten(), h=h)
    errors = relative_gradient_errors(analytic, numeric)
    worst = int(np.argmax(errors))
    return float(errors[worst]), worst
