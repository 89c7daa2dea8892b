"""Recurrent cells, dense and dropout layers, the stacked sequence model,
and the flat parameter store with its per-layer views.

Conventions fixed across the package:

  * gate kernels act on the concatenation [h_prev, x_t], state columns first;
  * LSTM gate order inside stacked arrays is (input, forget, output, candidate);
  * GRU gate order is (update z, reset r), with the candidate kernel separate;
  * recurrent layers return the full hidden sequence; at masked steps the
    state passes through unchanged and the emitted output is zero;
  * all arrays are float64.
"""

import math
from dataclasses import dataclass

import numpy as np

ACTIVATION_KINDS = ("linear", "relu", "tanh", "sigmoid", "hard_sigmoid")
RECURRENT_ACTIVATIONS = ("hard_sigmoid", "sigmoid")
LAYER_KINDS = ("lstm", "gru", "dense", "dropout")
# model_forward scores at most this many sequences per forward pass.
_CHUNK_ROWS = 64


def _sigmoid(x):
    """Logistic function, 1 / (1 + exp(-x)), without overflow for any x."""
    return np.exp(-np.logaddexp(0.0, -x))


def activation(kind: str, x):
    """Apply a named activation elementwise."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "linear":
        return x.copy()
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "sigmoid":
        return _sigmoid(x)
    if kind == "hard_sigmoid":
        # Piecewise-linear sigmoid: clamp(0.2 x + 0.5, 0, 1).
        return np.clip(0.2 * x + 0.5, 0.0, 1.0)
    raise ValueError(f"unknown activation kind {kind!r}")


def activation_grad(kind: str, preact, out=None):
    """Elementwise derivative, evaluated from the preactivation.

    `out` may pass the already-computed activation to avoid recomputing it.
    """
    a = np.asarray(preact, dtype=np.float64)
    if kind == "linear":
        return np.ones_like(a)
    if kind == "relu":
        return (a > 0.0).astype(np.float64)
    if kind == "tanh":
        y = np.tanh(a) if out is None else out
        return 1.0 - y * y
    if kind == "sigmoid":
        y = _sigmoid(a) if out is None else out
        return y * (1.0 - y)
    if kind == "hard_sigmoid":
        return 0.2 * (np.abs(a) < 2.5)
    raise ValueError(f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# Model description


@dataclass
class LayerSpec:
    """One layer of the stack.

    kind: lstm | gru | dense | dropout. units is the output width (ignored
    for dropout). activation squashes the candidate/cell output for
    recurrent layers and the affine output for dense layers.
    """

    kind: str
    units: int = 0
    activation: str = "tanh"
    recurrent_activation: str = "hard_sigmoid"
    rate: float = 0.0


@dataclass
class ModelSpec:
    """Ordered layer stack plus the input feature width."""

    input_dim: int
    layers: list

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1 (got {self.input_dim!r})")
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.kind not in LAYER_KINDS:
                raise ValueError(f"layer {i}: unknown kind {layer.kind!r}")
            if layer.kind == "dropout":
                if not (0.0 <= layer.rate < 1.0):
                    raise ValueError(f"layer {i}: dropout rate must lie in [0, 1)")
                continue
            if layer.units < 1:
                raise ValueError(f"layer {i}: units must be >= 1")
            if layer.activation not in ACTIVATION_KINDS:
                raise ValueError(f"layer {i}: unknown activation {layer.activation!r}")
            if layer.kind in ("lstm", "gru") and layer.recurrent_activation not in RECURRENT_ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown recurrent activation {layer.recurrent_activation!r}")

    def widths(self) -> list:
        """Input width of every layer, plus the final output width at the end."""
        self.validate()
        widths = [self.input_dim]
        for layer in self.layers:
            widths.append(widths[-1] if layer.kind == "dropout" else layer.units)
        return widths

    def output_dim(self) -> int:
        return self.widths()[-1]

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "layers": [
                {
                    "kind": l.kind,
                    "units": l.units,
                    "activation": l.activation,
                    "recurrent_activation": l.recurrent_activation,
                    "rate": l.rate,
                }
                for l in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelSpec":
        spec = cls(
            input_dim=int(doc["input_dim"]),
            layers=[LayerSpec(**entry) for entry in doc["layers"]],
        )
        spec.validate()
        return spec


def reference_model(cell: str = "lstm", output_activation: str = "relu") -> ModelSpec:
    """The bundled estimator preset.

    Four 16-unit recurrent layers, a 1-wide dense bottleneck, one more
    16-unit recurrent layer, dropout 0.2, and a 1-wide dense head. `cell`
    swaps the recurrent cell kind; `output_activation` sets both dense
    layers' activation. Recurrent layers always use tanh with hard-sigmoid
    gates and return full sequences.
    """
    if cell not in ("lstm", "gru"):
        raise ValueError(f"cell must be lstm or gru (got {cell!r})")
    if output_activation not in ("linear", "relu"):
        raise ValueError(f"output_activation must be linear or relu (got {output_activation!r})")
    rnn = lambda: LayerSpec(cell, units=16, activation="tanh", recurrent_activation="hard_sigmoid")
    head = lambda: LayerSpec("dense", units=1, activation=output_activation)
    return ModelSpec(
        input_dim=9,
        layers=[rnn(), rnn(), rnn(), rnn(), head(), rnn(), LayerSpec("dropout", rate=0.2), head()],
    )


# ---------------------------------------------------------------------------
# Parameters


class _LayerParams:
    """One layer's parameters: views into a slice of the model's flat vector.

    `kernel` is [gates * units, in] and `bias` is [gates * units], gate row
    blocks stacked in FIELDS order; for recurrent layers `in` is
    units + input_dim, state columns first. Each named field in FIELDS (the
    kernels first, then the biases) is a row-block view of one of the two.
    """

    FIELDS = ("W", "b")

    def __init__(self, kernel: np.ndarray, bias: np.ndarray):
        self.kernel = kernel
        self.bias = bias
        gates = len(self.FIELDS) // 2
        u = self.units = bias.shape[0] // gates
        for k in range(gates):
            setattr(self, self.FIELDS[k], kernel[k * u : (k + 1) * u])
            setattr(self, self.FIELDS[gates + k], bias[k * u : (k + 1) * u])


class DenseParams(_LayerParams):
    """Affine map: W [units, input_dim], b [units], applied per timestep."""


class LstmParams(_LayerParams):
    """Gate kernels [units, units + input_dim] over [h_prev, x_t] and biases [units]."""

    FIELDS = ("W_i", "W_f", "W_o", "W_c", "b_i", "b_f", "b_o", "b_c")


class GruParams(_LayerParams):
    """Update/reset/candidate kernels [units, units + input_dim] and biases [units].

    W_h multiplies [r * h_prev, x_t]."""

    FIELDS = ("W_z", "W_r", "W_h", "b_z", "b_r", "b_h")


_PARAM_CLASSES = {"lstm": LstmParams, "gru": GruParams, "dense": DenseParams}


def _kernel_shapes(spec: ModelSpec) -> list:
    """(rows, cols) of each layer's stacked kernel, in stack order (None for dropout)."""
    shapes = []
    for d, layer in zip(spec.widths(), spec.layers):
        cls = _PARAM_CLASSES.get(layer.kind)
        if cls is None:
            shapes.append(None)
        else:
            cols = d if layer.kind == "dense" else d + layer.units
            shapes.append((len(cls.FIELDS) // 2 * layer.units, cols))
    return shapes


def layer_param_counts(spec: ModelSpec) -> list:
    """Trainable parameter count of each layer, in stack order: kernel plus bias."""
    return [0 if shape is None else shape[0] * (shape[1] + 1) for shape in _kernel_shapes(spec)]


def count_params(spec: ModelSpec) -> int:
    return int(sum(layer_param_counts(spec)))


def _layer_views(spec: ModelSpec, flat: np.ndarray) -> list:
    """Carve per-layer views (None for dropout) out of a flat vector, in packing order."""
    layers = []
    pos = 0
    for layer, shape in zip(spec.layers, _kernel_shapes(spec)):
        if shape is None:
            layers.append(None)
            continue
        rows, cols = shape
        kernel = flat[pos : pos + rows * cols].reshape(rows, cols)
        pos += rows * cols
        layers.append(_PARAM_CLASSES[layer.kind](kernel, flat[pos : pos + rows]))
        pos += rows
    return layers


@dataclass(eq=False)
class ModelParams:
    """The flat parameter vector of a ModelSpec, plus per-layer views into it
    (None for dropout). The views share memory with `flat`."""

    spec: ModelSpec
    flat: np.ndarray
    layers: list

    def flatten(self) -> np.ndarray:
        """A copy of the parameter vector: layers in order, each layer's
        fields in FIELDS order, arrays raveled row-major."""
        return self.flat.copy()

    @classmethod
    def from_flat(cls, spec: ModelSpec, flat: np.ndarray) -> "ModelParams":
        """Wrap `flat` without copying it (a float64 vector is used as is), so
        writes to the vector show through the layer views."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.size != count_params(spec):
            raise ValueError(f"expected a vector of {count_params(spec)} parameters, got shape {flat.shape}")
        return cls(spec, flat, _layer_views(spec, flat))

    @property
    def num_params(self) -> int:
        return int(self.flat.size)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def _glorot(rng: np.random.Generator, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(rows, cols))


def build_model(spec: ModelSpec, init_seed: int = 0) -> ModelParams:
    """Initialize parameters: Glorot-uniform input kernels, orthogonal
    recurrent kernels, zero biases except the LSTM forget gate bias at 1.0."""
    spec.validate()
    rng = np.random.default_rng(init_seed)
    params = ModelParams.from_flat(spec, np.zeros(count_params(spec)))
    for d, layer, p in zip(spec.widths(), spec.layers, params.layers):
        u = layer.units
        if layer.kind == "dense":
            p.kernel[:] = _glorot(rng, u, d, fan_in=d, fan_out=u)
        elif p is not None:
            # Gate by gate: orthogonal recurrent columns, then Glorot input columns.
            for top in range(0, p.kernel.shape[0], u):
                p.kernel[top : top + u, :u] = _orthogonal(rng, u)
                p.kernel[top : top + u, u:] = _glorot(rng, u, d, fan_in=d, fan_out=u)
            if layer.kind == "lstm":
                p.b_f[:] = 1.0
    return params


# ---------------------------------------------------------------------------
# Batched layer forwards (caches optional) and backwards into gradient views


def _lstm_layer_forward(layer: LayerSpec, params: LstmParams, x, mask, want_cache: bool):
    n, t_len, _ = x.shape
    u = params.units
    wh, wx = params.kernel[:, :u], params.kernel[:, u:]
    xa = x @ wx.T + params.bias  # [n, T, 4u]
    h = np.zeros((n, u))
    c = np.zeros((n, u))
    out = np.zeros((n, t_len, u))
    cache = None
    if want_cache:
        cache = {
            "x": x,
            "mask": mask,
            "A": np.empty((n, t_len, 4 * u)),
            "G": np.empty((n, t_len, 4 * u)),
            "Hp": np.empty((n, t_len, u)),
            "Cp": np.empty((n, t_len, u)),
            "Cn": np.empty((n, t_len, u)),
            "TC": np.empty((n, t_len, u)),
        }
    for step in range(t_len):
        a = xa[:, step] + h @ wh.T
        gates = np.empty_like(a)
        gates[:, : 3 * u] = activation(layer.recurrent_activation, a[:, : 3 * u])
        gates[:, 3 * u :] = activation(layer.activation, a[:, 3 * u :])
        i_g = gates[:, :u]
        f_g = gates[:, u : 2 * u]
        o_g = gates[:, 2 * u : 3 * u]
        cand = gates[:, 3 * u :]
        c_new = f_g * c + i_g * cand
        tc = activation(layer.activation, c_new)
        h_new = o_g * tc
        m = mask[:, step, None]
        if want_cache:
            cache["Hp"][:, step] = h
            cache["Cp"][:, step] = c
            cache["A"][:, step] = a
            cache["G"][:, step] = gates
            cache["Cn"][:, step] = c_new
            cache["TC"][:, step] = tc
        out[:, step] = m * h_new
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
    return out, cache


def _lstm_layer_backward(layer: LayerSpec, params: LstmParams, cache, dout, grads: LstmParams):
    x, mask = cache["x"], cache["mask"]
    n, t_len, d = x.shape
    u = params.units
    wh, wx = params.kernel[:, :u], params.kernel[:, u:]
    d_a = np.zeros((n, t_len, 4 * u))
    dh = np.zeros((n, u))
    dc = np.zeros((n, u))
    for step in reversed(range(t_len)):
        m = mask[:, step, None]
        gates = cache["G"][:, step]
        i_g = gates[:, :u]
        f_g = gates[:, u : 2 * u]
        o_g = gates[:, 2 * u : 3 * u]
        cand = gates[:, 3 * u :]
        tc = cache["TC"][:, step]
        dh_new = m * (dh + dout[:, step])
        dc_new = m * dc + dh_new * o_g * activation_grad(layer.activation, cache["Cn"][:, step], tc)
        d_gates = np.empty((n, 4 * u))
        d_gates[:, :u] = dc_new * cand  # input gate
        d_gates[:, u : 2 * u] = dc_new * cache["Cp"][:, step]  # forget gate
        d_gates[:, 2 * u : 3 * u] = dh_new * tc  # output gate
        d_gates[:, 3 * u :] = dc_new * i_g  # candidate
        a = cache["A"][:, step]
        d_a[:, step, : 3 * u] = d_gates[:, : 3 * u] * activation_grad(
            layer.recurrent_activation, a[:, : 3 * u], gates[:, : 3 * u]
        )
        d_a[:, step, 3 * u :] = d_gates[:, 3 * u :] * activation_grad(
            layer.activation, a[:, 3 * u :], cand
        )
        dh = (1.0 - m) * dh + d_a[:, step] @ wh
        dc = (1.0 - m) * dc + dc_new * f_g
    flat_a = d_a.reshape(n * t_len, 4 * u)
    grads.kernel[:, :u] = flat_a.T @ cache["Hp"].reshape(n * t_len, u)
    grads.kernel[:, u:] = flat_a.T @ x.reshape(n * t_len, d)
    grads.bias[:] = flat_a.sum(axis=0)
    return d_a @ wx


def _gru_layer_forward(layer: LayerSpec, params: GruParams, x, mask, want_cache: bool):
    n, t_len, _ = x.shape
    u = params.units
    w_zr, b_zr = params.kernel[: 2 * u], params.bias[: 2 * u]
    wh_zr, wx_zr = w_zr[:, :u], w_zr[:, u:]
    wh_c, wx_c = params.W_h[:, :u], params.W_h[:, u:]
    xa_zr = x @ wx_zr.T + b_zr  # [n, T, 2u]
    xa_c = x @ wx_c.T + params.b_h  # [n, T, u]
    h = np.zeros((n, u))
    out = np.zeros((n, t_len, u))
    cache = None
    if want_cache:
        cache = {
            "x": x,
            "mask": mask,
            "Azr": np.empty((n, t_len, 2 * u)),
            "Gzr": np.empty((n, t_len, 2 * u)),
            "Ac": np.empty((n, t_len, u)),
            "Cand": np.empty((n, t_len, u)),
            "Hp": np.empty((n, t_len, u)),
            "RH": np.empty((n, t_len, u)),
        }
    for step in range(t_len):
        a_zr = xa_zr[:, step] + h @ wh_zr.T
        zr = activation(layer.recurrent_activation, a_zr)
        z_g = zr[:, :u]
        r_g = zr[:, u:]
        rh = r_g * h
        a_c = xa_c[:, step] + rh @ wh_c.T
        cand = activation(layer.activation, a_c)
        h_new = (1.0 - z_g) * h + z_g * cand
        m = mask[:, step, None]
        if want_cache:
            cache["Hp"][:, step] = h
            cache["Azr"][:, step] = a_zr
            cache["Gzr"][:, step] = zr
            cache["Ac"][:, step] = a_c
            cache["Cand"][:, step] = cand
            cache["RH"][:, step] = rh
        out[:, step] = m * h_new
        h = m * h_new + (1.0 - m) * h
    return out, cache


def _gru_layer_backward(layer: LayerSpec, params: GruParams, cache, dout, grads: GruParams):
    x, mask = cache["x"], cache["mask"]
    n, t_len, d = x.shape
    u = params.units
    wh_zr, wx_zr = params.kernel[: 2 * u, :u], params.kernel[: 2 * u, u:]
    wh_c, wx_c = params.W_h[:, :u], params.W_h[:, u:]
    d_a_zr = np.zeros((n, t_len, 2 * u))
    d_a_c = np.zeros((n, t_len, u))
    dh = np.zeros((n, u))
    for step in reversed(range(t_len)):
        m = mask[:, step, None]
        h_prev = cache["Hp"][:, step]
        zr = cache["Gzr"][:, step]
        z_g = zr[:, :u]
        r_g = zr[:, u:]
        cand = cache["Cand"][:, step]
        dh_new = m * (dh + dout[:, step])
        dz = dh_new * (cand - h_prev)
        dcand = dh_new * z_g
        dh_prev = dh_new * (1.0 - z_g)
        da_c = dcand * activation_grad(layer.activation, cache["Ac"][:, step], cand)
        d_rh = da_c @ wh_c
        dr = d_rh * h_prev
        dh_prev = dh_prev + d_rh * r_g
        d_gate = np.concatenate([dz, dr], axis=1)
        da_zr = d_gate * activation_grad(layer.recurrent_activation, cache["Azr"][:, step], zr)
        d_a_zr[:, step] = da_zr
        d_a_c[:, step] = da_c
        dh = (1.0 - m) * dh + dh_prev + da_zr @ wh_zr
    flat_zr = d_a_zr.reshape(n * t_len, 2 * u)
    flat_c = d_a_c.reshape(n * t_len, u)
    x_flat = x.reshape(n * t_len, d)
    grads.kernel[: 2 * u, :u] = flat_zr.T @ cache["Hp"].reshape(n * t_len, u)
    grads.kernel[: 2 * u, u:] = flat_zr.T @ x_flat
    grads.W_h[:, :u] = flat_c.T @ cache["RH"].reshape(n * t_len, u)
    grads.W_h[:, u:] = flat_c.T @ x_flat
    grads.bias[: 2 * u] = flat_zr.sum(axis=0)
    grads.b_h[:] = flat_c.sum(axis=0)
    return d_a_zr @ wx_zr + d_a_c @ wx_c


def _dense_layer_forward(layer: LayerSpec, params: DenseParams, x, mask, want_cache: bool):
    a = x @ params.W.T + params.b
    y = activation(layer.activation, a)
    cache = {"x": x, "A": a, "Y": y} if want_cache else None
    return y, cache


def _dense_layer_backward(layer: LayerSpec, params: DenseParams, cache, dout, grads: DenseParams):
    x, a = cache["x"], cache["A"]
    da = dout * activation_grad(layer.activation, a, cache["Y"])
    n, t_len, u = da.shape
    flat = da.reshape(n * t_len, u)
    grads.W[:] = flat.T @ x.reshape(n * t_len, x.shape[2])
    grads.b[:] = flat.sum(axis=0)
    return da @ params.W


_LAYER_FORWARD = {"lstm": _lstm_layer_forward, "gru": _gru_layer_forward, "dense": _dense_layer_forward}
_LAYER_BACKWARD = {"lstm": _lstm_layer_backward, "gru": _gru_layer_backward, "dense": _dense_layer_backward}


def forward(params: ModelParams, features, mask, mode: str = "eval",
            rng: np.random.Generator | None = None, dropout_masks: list | None = None,
            want_cache: bool = True):
    """Run the whole stack; returns (predictions, caches).

    features: [n, T, input_dim], mask: [n, T]. In train mode each dropout
    layer samples a kept mask from `rng` unless `dropout_masks` supplies one
    per dropout layer (used to freeze dropout for gradient checking).
    `caches` holds what backward_through_layers needs, one entry per layer;
    with want_cache=False every entry is None and nothing is kept.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval (got {mode!r})")
    spec = params.spec
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or features.shape[2] != spec.input_dim:
        raise ValueError(
            f"features must be [n, T, {spec.input_dim}], got {features.shape}"
        )
    mask = np.asarray(mask, dtype=np.float64)
    x = features
    caches = []
    drop_index = 0
    for layer, p in zip(spec.layers, params.layers):
        if layer.kind != "dropout":
            x, cache = _LAYER_FORWARD[layer.kind](layer, p, x, mask, want_cache)
        else:
            scale = None
            if mode == "train" and layer.rate > 0.0:
                if dropout_masks is not None:
                    kept = dropout_masks[drop_index]
                elif rng is not None:
                    kept = rng.random(x.shape) >= layer.rate
                else:
                    raise ValueError("train-mode dropout needs an RNG or explicit masks")
                scale = kept / (1.0 - layer.rate)
                x = x * scale
            cache = {"scale": scale} if want_cache else None
            drop_index += 1
        caches.append(cache)
    return x, caches


def backward_through_layers(params: ModelParams, caches, dpred):
    """Walk the stack in reverse; returns the flat gradient vector
    (same packing as ModelParams.flatten). Each layer writes its gradient
    straight into views of that vector."""
    spec = params.spec
    grad = np.zeros(params.flat.size)
    grad_views = _layer_views(spec, grad)
    dx = dpred
    for layer, p, g, cache in reversed(list(zip(spec.layers, params.layers, grad_views, caches))):
        if layer.kind != "dropout":
            dx = _LAYER_BACKWARD[layer.kind](layer, p, cache, dx, g)
        elif cache["scale"] is not None:
            dx = dx * cache["scale"]
    return grad


def model_forward(params: ModelParams, batch, mode: str = "eval",
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Predictions [n, max_len, output_dim] for a PaddedBatch.

    Rows run through `forward` in near-equal chunks of at most 64, so memory
    stays bounded on large corpora. No chunk has a single row unless the
    batch has one: a one-row chunk would turn the kernel products into
    matrix-vector products, which round differently. Train-mode dropout draws
    its masks chunk by chunk. Values at masked steps are defined but meant to
    be excluded by the mask in any loss.
    """
    n = batch.features.shape[0]
    chunks = max(1, -(-n // _CHUNK_ROWS))
    edges = [n * i // chunks for i in range(chunks + 1)]
    preds = [forward(params, batch.features[lo:hi], batch.mask[lo:hi], mode=mode, rng=rng,
                     want_cache=False)[0] for lo, hi in zip(edges, edges[1:])]
    return preds[0] if chunks == 1 else np.concatenate(preds)
