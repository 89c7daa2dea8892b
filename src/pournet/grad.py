"""Exact backpropagation through the stacked model, the independent
finite-difference oracle used to check it, and the kink-free check points
that `pournet gradcheck` runs it on."""

import numpy as np

from . import nn
from .data import PaddedBatch
from .errors import NumericalError
from .losses import LOSS_KINDS, loss_and_grad

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
                    dropout_masks: list | None = None):
    """Compare backprop against central differences with frozen dropout
    (masks drawn from seed 0 unless given).

    Returns (max_rel_err, worst_coordinate_index).
    """
    spec = params.spec
    if dropout_masks is None:
        dropout_masks = frozen_dropout_masks(spec, batch, np.random.default_rng(0))
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


def _kink_margin(params, batch, dropout_masks):
    """(margin, liveness) of a candidate check point.

    margin is the distance of the closest relu or hard_sigmoid preactivation
    to its kink, over valid timesteps only; liveness is the largest absolute
    prediction. Central differences are only trustworthy when the finite-h
    window cannot straddle a kink, so check points need a healthy margin.
    """
    preds, caches = nn.forward(params, batch.features, batch.mask,
                               mode="train", dropout_masks=dropout_masks)
    valid = batch.mask > 0.5
    margin = np.inf
    for layer, cache in zip(params.spec.layers, caches):
        if layer.kind == "dense" and layer.activation == "relu":
            margin = min(margin, np.abs(cache["A"][valid]).min())
        elif layer.kind == "lstm" and layer.recurrent_activation == "hard_sigmoid":
            gate_pre = cache["A"][valid][:, : 3 * layer.units]
            margin = min(margin, np.abs(np.abs(gate_pre) - 2.5).min())
        elif layer.kind == "gru" and layer.recurrent_activation == "hard_sigmoid":
            margin = min(margin, np.abs(np.abs(cache["Azr"][valid]) - 2.5).min())
    return margin, np.abs(preds[valid]).max()


def gradcheck_case(cell: str, seed: int):
    """Small random model and batch: 3 features, 4 units, 7 steps, 2 sequences."""
    rnn = lambda: nn.LayerSpec(cell, units=4, activation="tanh", recurrent_activation="hard_sigmoid")
    spec = nn.ModelSpec(
        input_dim=3,
        layers=[rnn(), nn.LayerSpec("dense", units=1, activation="relu"), rnn(),
                nn.LayerSpec("dropout", rate=0.2), nn.LayerSpec("dense", units=1, activation="relu")],
    )
    rng = np.random.default_rng(seed)
    n, t_len = 2, 7
    features = rng.normal(0.0, 1.0, size=(n, t_len, spec.input_dim))
    targets = rng.normal(0.5, 0.5, size=(n, t_len, 1))
    mask = np.ones((n, t_len))
    mask[1, 5:] = 0.0  # second sequence is shorter; padding must stay inert
    features[1, 5:, :] = 0.0
    targets[1, 5:, :] = 0.0
    batch = PaddedBatch(features=features, targets=targets, mask=mask,
                        lengths=np.array([7, 5], dtype=np.int64))
    masks = frozen_dropout_masks(spec, batch, np.random.default_rng(seed + 1))
    # The freshly built model is a degenerate check point: zero biases plus
    # relu park whole activation blocks exactly on kinks, where central
    # differences and any chosen subgradient legitimately disagree. Jitter
    # until the point is generic: every kink cleared by a wide margin, the
    # output alive, and every coordinate's gradient above the resolution of
    # central differences (a loss of scale ~1 at h=1e-5 carries ~1e-11 of
    # float64 noise, so coordinates under ~1e-6 compare noise, not calculus;
    # a dead middle relu even zeroes the whole upstream gradient, making the
    # check vacuous there). The jitter widens every 16 attempts.
    base = nn.build_model(spec, init_seed=seed).flatten()
    for attempt in range(256):
        scale = 0.1 * 1.3 ** (attempt // 16)
        candidate = nn.ModelParams.from_flat(spec, base + rng.normal(0.0, scale, size=base.size))
        margin, live = _kink_margin(candidate, batch, masks)
        if margin <= 2e-3 or live <= 1e-2:
            continue
        gmin = min(
            np.abs(backward(candidate, batch, kind, mode="train", dropout_masks=masks)[1]).min()
            for kind in LOSS_KINDS
        )
        if gmin > 2e-6:
            return candidate, batch, masks
    raise NumericalError(f"no generic check point found for {cell} (seed {seed})")
