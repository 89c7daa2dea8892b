"""Cells, layers, the preset architecture, initialization, and forward semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pournet.data import PaddedBatch
from pournet.grad import FD_TOL, backward, check_gradients
from pournet.nn import (
    GruParams,
    LayerSpec,
    LstmParams,
    ModelParams,
    ModelSpec,
    Workspace,
    _runs,
    _Wave,
    activation,
    build_model,
    count_params,
    forward,
    layer_param_counts,
    model_forward,
    reference_model,
)

REFERENCE_COUNTS = [1664, 2112, 2112, 2112, 17, 1152, 0, 17]

# Vector-level helpers used only by these tests: single cell steps written from
# the cell equations, one sequence through a batched layer, dense and dropout.


def lstm_cell_step(params: LstmParams, x_t, h_prev, c_prev,
                   recurrent_activation: str = "hard_sigmoid", cell_activation: str = "tanh"):
    """One LSTM step on vectors.

    z = [h_prev, x_t]; i, f, o = gate(W z + b); c~ = act(W_c z + b_c);
    c_t = f * c_prev + i * c~; h_t = o * act(c_t).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    c_prev = np.asarray(c_prev, dtype=np.float64)
    z = np.concatenate([h_prev, x_t])
    i = activation(recurrent_activation, params.W_i @ z + params.b_i)
    f = activation(recurrent_activation, params.W_f @ z + params.b_f)
    o = activation(recurrent_activation, params.W_o @ z + params.b_o)
    cand = activation(cell_activation, params.W_c @ z + params.b_c)
    c_t = f * c_prev + i * cand
    h_t = o * activation(cell_activation, c_t)
    return h_t, c_t


def gru_cell_step(params: GruParams, x_t, h_prev,
                  recurrent_activation: str = "sigmoid", cell_activation: str = "tanh"):
    """One GRU step on vectors.

    z = gate(W_z [h, x] + b_z); r = gate(W_r [h, x] + b_r);
    h~ = act(W_h [r * h, x] + b_h); h_t = (1 - z) * h + z * h~.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    zx = np.concatenate([h_prev, x_t])
    z = activation(recurrent_activation, params.W_z @ zx + params.b_z)
    r = activation(recurrent_activation, params.W_r @ zx + params.b_r)
    rx = np.concatenate([r * h_prev, x_t])
    cand = activation(cell_activation, params.W_h @ rx + params.b_h)
    return (1.0 - z) * h_prev + z * cand


def recurrent_layer_forward(params, seq, mask=None, recurrent_activation=None, cell_activation="tanh"):
    """Run one cell over a single [T, d] sequence, one cell step at a time;
    returns [T, units].

    Masked steps (mask[t] == 0) leave the state untouched and emit zeros.
    The default gate squashing is hard-sigmoid for LSTM and sigmoid for GRU,
    matching the single-step ops.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise ValueError("seq must be [T, d]")
    t_len = seq.shape[0]
    mask = np.ones(t_len) if mask is None else np.asarray(mask, dtype=np.float64)
    if mask.shape != (t_len,):
        raise ValueError("mask must be one value per timestep")
    h = np.zeros(params.units)
    c = np.zeros(params.units)
    out = np.zeros((t_len, params.units))
    for t in range(t_len):
        if isinstance(params, LstmParams):
            rec_act = "hard_sigmoid" if recurrent_activation is None else recurrent_activation
            h_new, c_new = lstm_cell_step(params, seq[t], h, c, rec_act, cell_activation)
        elif isinstance(params, GruParams):
            rec_act = "sigmoid" if recurrent_activation is None else recurrent_activation
            h_new, c_new = gru_cell_step(params, seq[t], h, rec_act, cell_activation), c
        else:
            raise TypeError(f"unsupported cell parameters: {type(params).__name__}")
        if mask[t]:
            h, c = h_new, c_new
            out[t] = h
    return out


def stack_forward(params: ModelParams, feats, mask):
    """Eval-mode predictions of a whole stack, sequence by sequence and layer
    by layer, through the vector-level ops above."""
    preds = []
    for seq, row in zip(feats, mask):
        x = seq
        for layer, p in zip(params.spec.layers, params.layers):
            if layer.kind in ("lstm", "gru"):
                x = recurrent_layer_forward(p, x, row, layer.recurrent_activation, layer.activation)
            elif layer.kind == "dense":
                x = dense_forward(p.W, p.b, x, layer.activation)
        preds.append(x)
    return np.stack(preds)


def dense_forward(W, b, x, activation_kind: str = "linear"):
    """y = act(x W^T + b), applied to the trailing axis."""
    x = np.asarray(x, dtype=np.float64)
    return activation(activation_kind, x @ np.asarray(W).T + np.asarray(b))


def dropout_forward(x, rate: float, mode: str, rng: np.random.Generator | None = None):
    """Inverted dropout. Returns (y, kept_mask).

    Train mode keeps each element with probability 1 - rate and scales by
    1 / (1 - rate); eval mode is the exact identity with an all-ones mask.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval (got {mode!r})")
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"rate must lie in [0, 1) (got {rate!r})")
    x = np.asarray(x, dtype=np.float64)
    if mode == "eval":
        return x.copy(), np.ones_like(x, dtype=bool)
    if rng is None:
        raise ValueError("train-mode dropout needs an RNG")
    kept = rng.random(x.shape) >= rate
    return x * kept / (1.0 - rate), kept


def test_activation_values():
    assert np.array_equal(activation("relu", np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    hs = activation("hard_sigmoid", np.array([-2.5, 0.0, 2.5]))
    assert np.array_equal(hs, [0.0, 0.5, 1.0])
    assert activation("hard_sigmoid", np.array([-4.0]))[0] == 0.0
    assert activation("hard_sigmoid", np.array([4.0]))[0] == 1.0
    assert activation("tanh", np.array([0.0]))[0] == 0.0
    assert activation("sigmoid", np.array([0.0]))[0] == 0.5
    with np.errstate(over="raise", invalid="raise"):
        assert np.array_equal(activation("sigmoid", np.array([-1000.0, 1000.0])), [0.0, 1.0])
    x = np.linspace(-20.0, 20.0, 401)
    assert np.allclose(activation("sigmoid", x), [1.0 / (1.0 + math.exp(-v)) for v in x], rtol=1e-14, atol=0)
    assert np.array_equal(activation("linear", np.array([-3.0, 3.0])), [-3.0, 3.0])
    with pytest.raises(ValueError):
        activation("softmax", np.zeros(1))


def test_reference_model_parameter_counts():
    spec = reference_model()
    assert layer_param_counts(spec) == REFERENCE_COUNTS
    assert count_params(spec) == 9186
    assert build_model(spec, init_seed=0).flatten().size == 9186


def test_single_layer_counts():
    lstm9 = ModelSpec(input_dim=9, layers=[LayerSpec("lstm", units=16)])
    assert count_params(lstm9) == 1664
    lstm1 = ModelSpec(input_dim=1, layers=[LayerSpec("lstm", units=16)])
    assert count_params(lstm1) == 1152
    gru9 = ModelSpec(input_dim=9, layers=[LayerSpec("gru", units=16)])
    assert count_params(gru9) == 1248
    drop = ModelSpec(input_dim=4, layers=[LayerSpec("dropout", rate=0.2)])
    assert count_params(drop) == 0
    dense = ModelSpec(input_dim=16, layers=[LayerSpec("dense", units=1)])
    assert count_params(dense) == 17


def test_gru_reference_variant_swaps_cells():
    spec = reference_model(cell="gru")
    counts = layer_param_counts(spec)
    assert counts[0] == 1248
    assert counts[4] == 17 and counts[7] == 17


def test_lstm_zero_param_cell_step():
    spec = ModelSpec(input_dim=3, layers=[LayerSpec("lstm", units=4)])
    params = ModelParams.from_flat(spec, np.zeros(count_params(spec)))
    p = params.layers[0]
    h, c = lstm_cell_step(p, np.zeros(3), np.zeros(4), np.zeros(4))
    assert np.array_equal(h, np.zeros(4)) and np.array_equal(c, np.zeros(4))
    # gates all sit at hard_sigmoid(0) = 0.5
    c_prev = np.array([0.4, -0.8, 1.2, 0.0])
    h, c = lstm_cell_step(p, np.zeros(3), np.zeros(4), c_prev)
    assert np.allclose(c, 0.5 * c_prev, rtol=0, atol=1e-15)
    assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev), rtol=0, atol=1e-15)


def test_gru_zero_param_cell_step():
    spec = ModelSpec(input_dim=3, layers=[LayerSpec("gru", units=4)])
    p = ModelParams.from_flat(spec, np.zeros(count_params(spec))).layers[0]
    assert np.array_equal(gru_cell_step(p, np.zeros(3), np.zeros(4)), np.zeros(4))
    h_prev = np.array([0.5, -1.0, 2.0, 0.1])
    # z = r = sigmoid(0) = 0.5, candidate = tanh(0) = 0
    assert np.allclose(gru_cell_step(p, np.zeros(3), h_prev), 0.5 * h_prev, rtol=0, atol=1e-15)


def test_lstm_output_bounded():
    rng = np.random.default_rng(0)
    spec = ModelSpec(input_dim=5, layers=[LayerSpec("lstm", units=6)])
    p = ModelParams.from_flat(spec, rng.normal(0, 2, count_params(spec))).layers[0]
    h, _ = lstm_cell_step(p, rng.normal(0, 5, 5), rng.normal(0, 5, 6), rng.normal(0, 5, 6))
    assert np.all(np.abs(h) <= 1.0)


@given(seed=st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_gate_ranges_random_inputs(seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(input_dim=4, layers=[LayerSpec("lstm", units=3), LayerSpec("gru", units=3)])
    params = ModelParams.from_flat(spec, rng.normal(0, 3, count_params(spec)))
    x = rng.normal(0, 4, size=(6, 4))
    out, caches = forward(params, x[None], np.ones((1, 6)), mode="eval")
    gates = caches[0]["G"]
    assert np.all(gates[:, :, :9] >= 0.0) and np.all(gates[:, :, :9] <= 1.0)
    assert np.all(np.abs(gates[:, :, 9:]) <= 1.0)  # tanh candidate
    assert np.all(np.abs(caches[1]["Gzr"]) <= 1.0) and np.all(caches[1]["Gzr"] >= 0.0)


def test_recurrent_layer_single_step_equals_cell():
    rng = np.random.default_rng(3)
    spec = ModelSpec(input_dim=3, layers=[LayerSpec("lstm", units=4)])
    params = ModelParams.from_flat(spec, rng.normal(0, 1, count_params(spec)))
    p = params.layers[0]
    x = rng.normal(0, 1, size=(1, 3))
    out = recurrent_layer_forward(p, x)
    h, _ = lstm_cell_step(p, x[0], np.zeros(4), np.zeros(4))
    assert np.allclose(out[0], h, rtol=0, atol=1e-15)
    batched, _ = forward(params, np.stack([x, -x]), np.ones((2, 1)))
    assert np.allclose(batched[0, 0], h, rtol=0, atol=1e-15)


def test_recurrent_layer_masked_steps_freeze_state():
    rng = np.random.default_rng(4)
    spec = ModelSpec(input_dim=2, layers=[LayerSpec("gru", units=3)])
    params = ModelParams.from_flat(spec, rng.normal(0, 1, count_params(spec)))
    p = params.layers[0]
    x = rng.normal(0, 1, size=(5, 2))
    base = recurrent_layer_forward(p, x, mask=np.ones(5))
    # appending masked garbage steps leaves valid outputs bitwise identical
    x_ext = np.vstack([x, rng.normal(0, 9, size=(3, 2))])
    mask_ext = np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=float)
    ext = recurrent_layer_forward(p, x_ext, mask=mask_ext)
    assert np.array_equal(ext[:5], base)
    assert np.all(ext[5:] == 0.0)
    # so does the batched forward, which matches the cell steps
    feats, masks = np.stack([x_ext, -x_ext]), np.stack([mask_ext, mask_ext])
    batched, _ = forward(params, feats, masks, want_cache=False)
    narrow, _ = forward(params, feats[:, :5], masks[:, :5], want_cache=False)
    assert np.array_equal(batched[:, :5], narrow)
    assert np.all(batched[:, 5:] == 0.0)
    assert np.allclose(batched[0], recurrent_layer_forward(p, x_ext, mask_ext, "hard_sigmoid"), rtol=0, atol=1e-12)


def holed_batch(rng, n, t_len, d):
    """Row 0 valid throughout, row 1 with an interior hole and trailing
    padding, the other rows padded to random lengths: wave steps with and
    without masked rows."""
    mask = np.ones((n, t_len))
    mask[1, 3:5] = 0.0
    mask[1, t_len - 1 :] = 0.0
    for row, length in enumerate(rng.integers(2, t_len + 1, size=n - 2), start=2):
        mask[row, length:] = 0.0
    feats = rng.normal(0, 1, size=(n, t_len, d)) * mask[:, :, None]
    targets = rng.normal(0, 1, size=(n, t_len, 1)) * mask[:, :, None]
    return PaddedBatch(features=feats, targets=targets, mask=mask, lengths=mask.sum(axis=1).astype(np.int64))


def kink_margin(params, batch):
    """Distance of the closest relu (at 0) or hard_sigmoid (at +-2.5)
    preactivation to its kink, over valid steps; the cell state counts as the
    preactivation of an LSTM's output activation."""
    _, caches = forward(params, batch.features, batch.mask)
    valid = batch.mask > 0.5
    margin = np.inf
    for layer, cache in zip(params.spec.layers, caches):
        u = layer.units
        if layer.kind == "lstm":
            preacts = [(cache["A"][..., : 3 * u], layer.recurrent_activation),
                       (cache["A"][..., 3 * u :], layer.activation), (cache["Cn"], layer.activation)]
        elif layer.kind == "gru":
            preacts = [(cache["Azr"], layer.recurrent_activation), (cache["Ac"], layer.activation)]
        elif layer.kind == "dense":
            preacts = [(cache["A"], layer.activation)]
        else:
            preacts = []
        for pre, kind in preacts:
            if kind == "relu":
                # an exact zero (an LSTM cell fed only by dead relus) stays put
                pre = pre[valid]
                margin = min(margin, np.abs(pre[pre != 0.0]).min(initial=np.inf))
            elif kind == "hard_sigmoid":
                margin = min(margin, np.abs(np.abs(pre[valid]) - 2.5).min())
    return margin


def generic_point(spec, batch, rng):
    """Parameters where central differences at FD_STEP are a clean oracle
    (see grad.gradcheck_case): every kink at least 1e-3 away, and every
    nonzero gradient coordinate above their ~1e-6 resolution."""
    for _ in range(100):
        params = ModelParams.from_flat(spec, rng.normal(0, 0.5, count_params(spec)))
        if kink_margin(params, batch) < 1e-3:
            continue
        g = backward(params, batch, "mse", mode="eval")[1]
        if np.abs(g[g != 0.0]).min() > 2e-6:
            return params
    raise AssertionError("no generic check point in 100 draws")


def check_against_cell_steps(spec, seed):
    """For n = 2 and n = 33, forward matches the cell-step oracle to 1e-12
    with and without caches, and backpropagation matches central differences.
    With relu or hard_sigmoid in the stack the gradient is checked at n = 2
    only: over 33 rows some kink always lies within reach of the finite
    differences, or some coordinate's gradient below their resolution."""
    kinked = any({layer.activation, layer.recurrent_activation} & {"relu", "hard_sigmoid"}
                 for layer in spec.layers if layer.kind != "dropout")
    rng = np.random.default_rng(seed)
    for n in (2, 33):
        batch = holed_batch(rng, n, 8, spec.input_dim)
        grad_checked = n == 2 or not kinked
        params = (generic_point(spec, batch, rng) if grad_checked
                  else ModelParams.from_flat(spec, rng.normal(0, 0.5, count_params(spec))))
        want = stack_forward(params, batch.features, batch.mask)
        for cached in (True, False):
            got, _ = forward(params, batch.features, batch.mask, want_cache=cached)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        if grad_checked:
            worst, coord = check_gradients(params, batch)["mse"]
            assert worst < FD_TOL, f"n={n} coord {coord}: {worst}"


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("members", [1, 2, 3])
@pytest.mark.parametrize("gates,cell_act", [("sigmoid", "tanh"), ("hard_sigmoid", "relu"), ("sigmoid", "linear")])
def test_recurrent_runs_match_cell_steps(cell, members, gates, cell_act):
    rnn = LayerSpec(cell, units=3, activation=cell_act, recurrent_activation=gates)
    spec = ModelSpec(input_dim=3, layers=[rnn] * members + [LayerSpec("dense", units=1, activation="tanh")])
    assert _runs(spec.layers) == [[0, members], [members, members + 1]]
    check_against_cell_steps(spec, seed=members)


@pytest.mark.parametrize("layers,runs", [
    ([LayerSpec("lstm", units=5), LayerSpec("lstm", units=3)], [[0, 1], [1, 2]]),
    ([LayerSpec("lstm", units=4), LayerSpec("gru", units=4)], [[0, 1], [1, 2]]),
    ([LayerSpec("lstm", units=4), LayerSpec("lstm", units=4, activation="relu")], [[0, 1], [1, 2]]),
    ([LayerSpec("gru", units=4), LayerSpec("dense", units=3), LayerSpec("gru", units=4),
      LayerSpec("gru", units=4)], [[0, 1], [1, 2], [2, 4]]),
])
def test_broken_runs_match_cell_steps(layers, runs):
    spec = ModelSpec(input_dim=3, layers=layers + [LayerSpec("dense", units=1, activation="tanh")])
    assert _runs(spec.layers) == runs + [[len(layers), len(layers) + 1]]
    check_against_cell_steps(spec, seed=len(layers))


def test_dense_forward_and_identity():
    w = np.eye(3)
    assert np.array_equal(dense_forward(w, np.zeros(3), np.array([1.0, -2.0, 3.0])),
                          [1.0, -2.0, 3.0])
    y = dense_forward(np.zeros((2, 3)), np.zeros(2), np.ones(3), "relu")
    assert np.array_equal(y, np.zeros(2))


def test_dropout_eval_identity_train_scaling():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, size=(40, 10))
    y, kept = dropout_forward(x, 0.2, "eval")
    assert np.array_equal(y, x) and kept.all()
    y, kept = dropout_forward(x, 0.0, "train", rng)
    assert np.array_equal(y, x)
    big = rng.normal(0, 1, size=100_000)
    y, kept = dropout_forward(big, 0.2, "train", rng)
    assert abs(kept.mean() - 0.8) < 0.02
    survivors = y[kept]
    assert np.allclose(survivors, big[kept] / 0.8, rtol=1e-15, atol=0)
    assert np.all(y[~kept] == 0.0)
    with pytest.raises(ValueError):
        dropout_forward(x, 1.0, "train", rng)
    with pytest.raises(ValueError):
        dropout_forward(x, 0.2, "train", None)


def test_initialization_structure():
    spec = reference_model()
    params = build_model(spec, init_seed=0)
    lstm = params.layers[0]
    u = lstm.units
    # recurrent block of every gate kernel is orthogonal
    for w in (lstm.W_i, lstm.W_f, lstm.W_o, lstm.W_c):
        q = w[:, :u]
        assert np.allclose(q @ q.T, np.eye(u), atol=1e-10)
        # input block stays inside the Glorot-uniform limit
        limit = np.sqrt(6.0 / (w.shape[1] - u + u))
        assert np.abs(w[:, u:]).max() <= limit
    assert np.array_equal(lstm.b_f, np.ones(u))
    assert np.array_equal(lstm.b_i, np.zeros(u))
    assert np.array_equal(lstm.b_o, np.zeros(u))
    dense = params.layers[4]
    assert np.array_equal(dense.b, np.zeros(1))


def test_build_model_seed_determinism():
    spec = reference_model()
    a = build_model(spec, init_seed=5).flatten()
    b = build_model(spec, init_seed=5).flatten()
    c = build_model(spec, init_seed=6).flatten()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_flatten_round_trip(seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(input_dim=3, layers=[
        LayerSpec("lstm", units=4), LayerSpec("dense", units=2, activation="relu"),
        LayerSpec("gru", units=3), LayerSpec("dropout", rate=0.2),
        LayerSpec("dense", units=1),
    ])
    flat = rng.normal(0, 1, count_params(spec))
    params = ModelParams.from_flat(spec, flat)
    assert np.array_equal(params.flatten(), flat)


def test_model_forward_shapes_and_zero_params():
    spec = reference_model()
    zero = ModelParams.from_flat(spec, np.zeros(count_params(spec)))
    rng = np.random.default_rng(1)
    feats = rng.normal(0, 1, size=(3, 11, 9))
    mask = np.ones((3, 11))
    batch = PaddedBatch(features=feats, targets=np.zeros((3, 11, 1)), mask=mask,
                        lengths=np.full(3, 11, dtype=np.int64))
    preds = model_forward(zero, batch)
    assert preds.shape == (3, 11, 1)
    assert np.all(preds == 0.0)


def test_eval_forward_is_pure():
    spec = reference_model()
    params = build_model(spec, init_seed=2)
    rng = np.random.default_rng(2)
    feats = rng.normal(0, 1, size=(2, 9, 9))
    batch = PaddedBatch(features=feats, targets=np.zeros((2, 9, 1)),
                        mask=np.ones((2, 9)), lengths=np.full(2, 9, dtype=np.int64))
    a = model_forward(params, batch)
    b = model_forward(params, batch)
    assert np.array_equal(a, b)


def test_batch_mask_extension_bitwise_invariant():
    # Recurrent layers are bitwise invariant under extra masked steps. The
    # 1-wide dense layers of reference_model() are matrix-vector products
    # whose rounding depends on a row's position in the padded length, so its
    # predictions agree to round-off only; its first run of four recurrent
    # layers is compared bitwise through the input of the first dense layer.
    lstm_dense = ModelSpec(input_dim=4, layers=[
        LayerSpec("lstm", units=5), LayerSpec("dense", units=1, activation="relu"),
    ])
    for spec, bitwise in ((lstm_dense, True), (reference_model(), False)):
        rng = np.random.default_rng(8)
        params = ModelParams.from_flat(spec, rng.normal(0, 0.4, count_params(spec)))
        n, t_len, d = 3, 6, spec.input_dim
        feats = rng.normal(0, 1, size=(n, t_len, d))
        mask = np.ones((n, t_len))
        ext = 4
        feats_ext = np.concatenate([feats, np.zeros((n, ext, d))], axis=1)
        mask_ext = np.concatenate([mask, np.zeros((n, ext))], axis=1)
        base, base_caches = forward(params, feats, mask, mode="eval")
        wide, wide_caches = forward(params, feats_ext, mask_ext, mode="eval")
        dense = [layer.kind for layer in spec.layers].index("dense")
        assert np.array_equal(base_caches[dense]["x"], wide_caches[dense]["x"][:, :t_len])
        if bitwise:
            assert np.array_equal(base, wide[:, :t_len])
        else:
            assert np.allclose(base, wide[:, :t_len], rtol=0, atol=1e-12)


def test_forward_rejects_bad_width_and_mode():
    spec = reference_model()
    params = build_model(spec, init_seed=0)
    feats = np.zeros((1, 4, 5))
    with pytest.raises(ValueError):
        forward(params, feats, np.ones((1, 4)))
    with pytest.raises(ValueError):
        forward(params, np.zeros((1, 4, 9)), np.ones((1, 4)), mode="predict")


def test_spec_validation():
    with pytest.raises(ValueError, match=r"^input_dim must be >= 1 \(got 0\)$"):
        ModelSpec(input_dim=0, layers=[LayerSpec("lstm", units=4)])
    with pytest.raises(ValueError, match="^model needs at least one layer$"):
        ModelSpec(input_dim=3, layers=[])
    with pytest.raises(ValueError, match="^layer 0: units must be >= 1$"):
        ModelSpec(input_dim=3, layers=[LayerSpec("lstm", units=0)])
    with pytest.raises(ValueError, match="^layer 0: unknown kind 'conv'$"):
        ModelSpec(input_dim=3, layers=[LayerSpec("conv", units=3)])
    with pytest.raises(ValueError, match=r"^layer 0: dropout rate must lie in \[0, 1\)$"):
        ModelSpec(input_dim=3, layers=[LayerSpec("dropout", rate=1.5)])
    with pytest.raises(ValueError, match="^layer 1: unknown activation 'softmax'$"):
        ModelSpec(input_dim=3, layers=[LayerSpec("gru", units=2), LayerSpec("dense", units=1, activation="softmax")])
    with pytest.raises(ValueError, match="^layer 0: unknown recurrent activation 'tanh'$"):
        ModelSpec(input_dim=3, layers=[LayerSpec("lstm", units=2, recurrent_activation="tanh")])
    spec = ModelSpec(input_dim=3, layers=[LayerSpec("lstm", units=4)])
    again = ModelSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()


def test_from_flat_wraps_without_copying():
    spec = ModelSpec(input_dim=3, layers=[
        LayerSpec("lstm", units=4), LayerSpec("dropout", rate=0.2),
        LayerSpec("gru", units=2), LayerSpec("dense", units=1),
    ])
    flat = np.arange(count_params(spec), dtype=np.float64)
    params = ModelParams.from_flat(spec, flat)
    lstm, drop, gru, dense = params.layers
    assert drop is None
    # the stacked kernel and bias are the named per-gate blocks, in order
    assert np.array_equal(lstm.kernel, np.vstack([lstm.W_i, lstm.W_f, lstm.W_o, lstm.W_c]))
    assert np.array_equal(gru.bias, np.concatenate([gru.b_z, gru.b_r, gru.b_h]))
    assert lstm.W_i.shape == (4, 7) and gru.W_h.shape == (2, 6) and dense.W.shape == (1, 2)
    for p in (lstm, gru, dense):
        for name in p.FIELDS:
            assert np.shares_memory(getattr(p, name), flat)
    flat[0] = -1.0
    assert lstm.W_i[0, 0] == -1.0
    copy = params.flatten()
    assert not np.shares_memory(copy, flat) and np.array_equal(copy, flat)
    with pytest.raises(ValueError):
        ModelParams.from_flat(spec, flat[:-1])
    with pytest.raises(ValueError):
        ModelParams.from_flat(spec, flat.reshape(1, -1))


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_forward_without_caches_is_bitwise_equal(cell, mode):
    spec = reference_model(cell=cell)
    params = build_model(spec, init_seed=3)
    rng = np.random.default_rng(3)
    feats = rng.normal(0, 1, size=(3, 12, 9))
    mask = np.ones((3, 12))
    mask[1, 7:] = 0.0
    with_caches, caches = forward(params, feats, mask, mode=mode, rng=np.random.default_rng(5))
    without, none = forward(params, feats, mask, mode=mode, rng=np.random.default_rng(5), want_cache=False)
    assert all(c is not None for c in caches)
    assert none == [None] * len(spec.layers)
    assert with_caches.tobytes() == without.tobytes()


def test_model_forward_chunks_match_one_whole_batch_pass():
    # 130 rows of 1-300 steps run as chunks of 44, 43 and 43, longest first
    spec = reference_model()
    params = build_model(spec, init_seed=4)
    rng = np.random.default_rng(4)
    n, t_len = 130, 300
    feats = rng.normal(0, 1, size=(n, t_len, 9))
    lengths = rng.integers(1, t_len + 1, size=n)
    mask = (np.arange(t_len)[None, :] < lengths[:, None]).astype(np.float64)
    feats *= mask[:, :, None]
    batch = PaddedBatch(features=feats, targets=np.zeros((n, t_len, 1)), mask=mask, lengths=lengths)
    whole, _ = forward(params, feats, mask, mode="eval", want_cache=False)
    assert model_forward(params, batch).tobytes() == whole.tobytes()


def shuffled_mask(rng, n, t_len):
    """Rows of shuffled lengths; with three rows or more, row 1 also has an
    interior hole and row 2 is masked throughout."""
    lengths = rng.permutation(np.linspace(1, t_len, n).astype(int))
    mask = (np.arange(t_len)[None, :] < lengths[:, None]).astype(np.float64)
    if n > 2:
        mask[1, 1:4] = 0.0
        mask[2] = 0.0
    return mask


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("members", [1, 4])
def test_trimmed_waves_give_the_bytes_of_cached_ones(cell, members):
    # Uncached runs of more than two rows step only the rows still running;
    # cached runs step every row. Predictions come out of a dense layer: a
    # skipped row emits +0.0 where a stepped masked row emits m * h, which is
    # -0.0 for a negative h, and the dense layer's bias maps both to one value.
    rnn = LayerSpec(cell, units=6)
    spec = ModelSpec(input_dim=3, layers=[rnn] * members + [
        LayerSpec("dense", units=4, activation="relu"), LayerSpec(cell, units=5),
        LayerSpec("dropout", rate=0.3), LayerSpec("dense", units=2)])
    rng = np.random.default_rng(members)
    params = ModelParams.from_flat(spec, rng.normal(0, 0.5, count_params(spec)))
    t_len = 24
    for n in (1, 2, 3, 16, 33, 70):
        mask = shuffled_mask(rng, n, t_len)
        feats = rng.normal(0, 1, size=(n, t_len, 3))
        drop = [rng.random((n, t_len, 5)) >= 0.3]
        for mode in ("eval", "train"):
            cached, _ = forward(params, feats, mask, mode=mode, dropout_masks=drop)
            trimmed, _ = forward(params, feats, mask, mode=mode, dropout_masks=drop, want_cache=False)
            assert trimmed.tobytes() == cached.tobytes(), (n, mode)


@pytest.mark.parametrize("members,rows,full", [
    (1, [3] * 3 + [2] * 7, [True] * 7 + [False] * 3),
    (3, [3] * 5 + [2] * 7, [True] * 3 + [False] * 2 + [True] * 2 + [False] * 5),
])
def test_trimmed_wave_steps_only_the_rows_still_running(members, rows, full):
    # lengths 10, 3, 7: rows run longest first, a row drops out once every
    # member has passed its last valid step, never below two rows, and the
    # wave ends once the last member has passed step 9. A step skips the
    # masked blend when every row it steps is valid for every active member.
    mask = (np.arange(12)[None, :] < np.array([10, 3, 7])[:, None]).astype(np.float64)
    wave = _Wave(mask, members, cached=False, workspace=Workspace(), key=0)
    assert wave.order.tolist() == [0, 2, 1]
    steps = list(wave.steps())
    assert [s for s, _, _, _ in steps] == list(range(9 + members))
    assert [r.stop for _, _, r, _ in steps] == rows
    assert [m is None for _, _, _, m in steps] == full
    cached = _Wave(mask, members, cached=True, workspace=Workspace(), key=0)
    assert [(s, r) for s, _, r, _ in cached.steps()] == [(s, slice(None)) for s in range(12 + members - 1)]
