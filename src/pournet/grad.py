"""Exact backpropagation through the stacked model, the central differences
used to check it, and the kink-free check points that `pournet gradcheck`
runs them on."""

import numpy as np

from . import nn
from .data import PaddedBatch
from .errors import NumericalError
from .losses import LOSS_KINDS, loss_and_grad, loss_values

FD_STEP = 1e-5
FD_TOL = 1e-5
# Parameter copies x rows x steps per nn.copies_forward pass. It bounds the
# memory of a pass: a pass's [copies, n, T, 64] arrays of a 16-unit LSTM are
# 0.5 MB, so a reference_model() check of 2 rows x 7 steps, with its 3,328
# copies of layer 0, stays near the memory of one forward pass per probe. A
# batch with n x T >= 1024 runs one copy per pass.
_PASS_BUDGET = 1024


def _first_bad_layer(spec, caches):
    for idx, (layer, cache) in enumerate(zip(spec.layers, caches)):
        if cache is None:
            continue
        for value in cache.values():
            if isinstance(value, np.ndarray) and not np.all(np.isfinite(value)):
                return f"layer {idx} ({layer.kind})"
    return "loss"


def backward(params, batch, loss_kind: str, mode: str = "train",
             rng: np.random.Generator | None = None, dropout_masks: list | None = None,
             *, workspace: nn.Workspace | None = None):
    """Loss and its exact gradient (flat vector, ModelParams.flatten packing).

    In train mode, dropout kept masks are sampled once in the forward pass
    and reused in the backward pass; pass dropout_masks to pin them.
    `workspace` serves the large arrays of both passes (see nn.forward).
    """
    preds, caches = nn.forward(params, batch.features, batch.mask, mode=mode,
                               rng=rng, dropout_masks=dropout_masks, workspace=workspace)
    value, dpred = loss_and_grad(loss_kind, preds, batch.targets, batch.mask)
    if not np.isfinite(value):
        where = _first_bad_layer(params.spec, caches)
        raise NumericalError(f"non-finite loss; first non-finite values in {where}")
    flat = nn.backward_through_layers(params, caches, dpred)
    return value, flat


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


def numeric_gradient(params, batch, dropout_masks: list, h: float = FD_STEP) -> dict:
    """Central-difference gradients of the train-mode losses with the given
    dropout masks, one per dropout layer: {kind: flat vector} for every kind
    in LOSS_KINDS (ModelParams.flatten packing).

    Layer i's coordinates are differenced from layer i on, fed the
    unperturbed output of the layers before it, computed once. Its probes are
    parameter copies, 2c holding coordinate c at +h and 2c + 1 at -h, that run
    through the layers from i on together (nn.copies_forward), in passes of
    at most _PASS_BUDGET copies x rows x steps or of one copy on larger
    batches. Each pass's predictions are scored once per loss kind, by one
    reduction over the pass's copies (losses.loss_values). Valid steps depend
    on valid steps alone, every copy makes the whole stack's products and
    elementwise operations, and every copy's loss sums in its own order, so
    every loss is bitwise the whole stack's loss at the same point.
    """
    spec, flat = params.spec, params.flat
    per_pass = max(1, _PASS_BUDGET // batch.mask.size)
    numeric = {kind: np.empty(flat.size) for kind in LOSS_KINDS}
    pos = 0
    for i, count in enumerate(nn.layer_param_counts(spec)):
        if count:
            x = batch.features
            if i:  # the prefix keeps its runs, so x has the whole stack's bits
                prefix = nn.ModelSpec(input_dim=spec.input_dim, layers=spec.layers[:i])
                x, _ = nn.forward(nn.ModelParams.from_flat(prefix, flat[:pos]), x, batch.mask,
                                  mode="train", dropout_masks=dropout_masks, want_cache=False)
            base = flat[pos : pos + count]
            probes = np.column_stack([base + h, base - h]).ravel()
            losses = {kind: np.empty(probes.size) for kind in LOSS_KINDS}
            for lo in range(0, probes.size, per_pass):
                hi = min(lo + per_pass, probes.size)
                copies = np.tile(base, (hi - lo, 1))
                copies[np.arange(hi - lo), np.arange(lo, hi) // 2] = probes[lo:hi]
                preds = nn.copies_forward(params, i, copies, x, batch.mask, dropout_masks)
                for kind, values in losses.items():
                    values[lo:hi] = loss_values(kind, preds, batch.targets, batch.mask)
            for kind, values in losses.items():
                numeric[kind][pos : pos + count] = (values[0::2] - values[1::2]) / (2.0 * h)
        pos += count
    return numeric


def check_gradients(params, batch, h: float = FD_STEP, dropout_masks: list | None = None) -> dict:
    """Compare backprop against central differences (numeric_gradient) with
    frozen dropout (masks drawn from seed 0 unless given), for every loss kind.

    Returns {kind: (max_rel_err, worst_coordinate_index)} in LOSS_KINDS order.
    """
    if dropout_masks is None:
        dropout_masks = frozen_dropout_masks(params.spec, batch, np.random.default_rng(0))
    numeric = numeric_gradient(params, batch, dropout_masks, h=h)
    results = {}
    for kind in LOSS_KINDS:
        _, analytic = backward(params, batch, kind, mode="train", dropout_masks=dropout_masks)
        errors = relative_gradient_errors(analytic, numeric[kind])
        worst = int(np.argmax(errors))
        results[kind] = (float(errors[worst]), worst)
    return results


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
