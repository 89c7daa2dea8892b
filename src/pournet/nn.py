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
from dataclasses import asdict, dataclass

import numpy as np

CELL_KINDS = ("lstm", "gru")
LAYER_KINDS = CELL_KINDS + ("dense", "dropout")
RECURRENT_ACTIVATIONS = ("hard_sigmoid", "sigmoid")
# Activations of the reference model's dense layers.
OUTPUT_ACTIVATIONS = ("linear", "relu")
# model_forward scores at most this many sequences per forward pass.
_CHUNK_ROWS = 64


def _linear(x, out):
    out[...] = x
    return out


def _relu(x, out):
    return np.maximum(x, 0.0, out=out)


def _sigmoid(x, out):
    """Logistic function, 1 / (1 + exp(-x)), without overflow for any x."""
    np.negative(x, out=out)
    np.logaddexp(0.0, out, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def _hard_sigmoid(x, out):
    """Piecewise-linear sigmoid: clamp(0.2 x + 0.5, 0, 1)."""
    np.multiply(x, 0.2, out=out)
    np.add(out, 0.5, out=out)
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, 1.0, out=out)


def _ones(preact, value, out):
    out.fill(1.0)
    return out


def _relu_grad(preact, value, out):
    return np.greater(preact, 0.0, out=out)


def _tanh_grad(preact, value, out):
    np.multiply(value, value, out=out)
    return np.subtract(1.0, out, out=out)


def _sigmoid_grad(preact, value, out):
    np.subtract(1.0, value, out=out)
    return np.multiply(value, out, out=out)


def _hard_sigmoid_grad(preact, value, out):
    np.abs(preact, out=out)
    np.less(out, 2.5, out=out)
    return np.multiply(out, 0.2, out=out)


# Each activation kind as (value, derivative), both writing into a caller's
# buffer: value(x, out) and derivative(preact, value, out).
_ACTIVATIONS = {
    "linear": (_linear, _ones),
    "relu": (_relu, _relu_grad),
    "tanh": (np.tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "hard_sigmoid": (_hard_sigmoid, _hard_sigmoid_grad),
}
ACTIVATION_KINDS = tuple(_ACTIVATIONS)


def activation(kind: str, x):
    """Apply a named activation elementwise."""
    if kind not in _ACTIVATIONS:
        raise ValueError(f"unknown activation kind {kind!r}")
    x = np.asarray(x, dtype=np.float64)
    return _ACTIVATIONS[kind][0](x, np.empty_like(x))


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
            if layer.kind in CELL_KINDS and layer.recurrent_activation not in RECURRENT_ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown recurrent activation {layer.recurrent_activation!r}")

    def widths(self) -> list:
        """Input width of every layer, plus the final output width at the end."""
        self.validate()
        widths = [self.input_dim]
        for layer in self.layers:
            widths.append(widths[-1] if layer.kind == "dropout" else layer.units)
        return widths

    def to_dict(self) -> dict:
        return asdict(self)

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
    if cell not in CELL_KINDS:
        raise ValueError(f"cell must be one of {CELL_KINDS} (got {cell!r})")
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ValueError(f"output_activation must be one of {OUTPUT_ACTIVATIONS} (got {output_activation!r})")
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
# Recurrent runs as one wavefront, dense layers over the whole sequence;
# caches optional, backwards writing into gradient views


def _runs(layers) -> list:
    """[start, stop) layer index pairs: each maximal run of consecutive
    recurrent layers that share kind, units and activations, and every dense
    or dropout layer on its own."""
    runs = []
    prev = None
    for i, layer in enumerate(layers):
        key = (layer.kind, layer.units, layer.activation, layer.recurrent_activation)
        if layer.kind in _RUN_FORWARD and key == prev:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
        prev = key
    return runs


def _stack(params: list, rows: slice, cols: slice):
    """One block of every member's kernel, stacked: [K, rows, cols] (a view
    for a single member)."""
    if len(params) == 1:
        return params[0].kernel[None, rows, cols]
    return np.stack([p.kernel[rows, cols] for p in params])


class _Wave:
    """The wavefront schedule of a run of K recurrent layers over T steps.

    At wave step s (0 <= s < S = T + K - 1) member j handles t = s - j, so the
    input of member j >= 1 at t is what member j - 1 emitted one wave step
    earlier, and the active members of every step share one batched product
    per kernel. Wave arrays are [slots, K, n, width], time-major: per-step
    values of step s sit in slot s, states and emitted outputs written at
    step s in slot s + 1 (slot 0 holds the zero initial state). Without
    caching they keep one slot (two for states) and are indexed modulo their
    length, so only rolling per-step buffers are allocated.

    Every product keeps the operands and association of running the members
    one after another, and parameter gradients reduce over batch-major
    copies, so results are bitwise the same for batches of two or more rows
    (one row turns the per-step products into matrix-vector products).
    """

    def __init__(self, mask, members: int, cached: bool):
        self.n, self.T = mask.shape
        self.K = members
        self.S = self.T + members - 1
        self.cached = cached
        self.mask = mask.T[:, :, None]  # [T, n, 1]
        # full[s]: every row of every member active at s is valid, so the
        # masked blend of step s is the identity and is skipped.
        masked = (mask != 1.0).any(axis=0)
        if members > 1:
            masked = np.convolve(masked, np.ones(members))
        self.full = masked == 0

    def steps(self, reverse: bool = False):
        """Yield (s, active members as a slice, their [k, n, 1] mask or None
        when every row is valid)."""
        for s in range(self.S - 1, -1, -1) if reverse else range(self.S):
            active = slice(max(0, s - self.T + 1), min(self.K, s + 1))
            m = None if self.full[s] else self.mask[s - active.stop + 1 : s - active.start + 1][::-1]
            yield s, active, m

    def buffer(self, width: int, state: bool = False):
        slots = (self.S if self.cached else 1) + state
        return (np.zeros if state else np.empty)((slots, self.K, self.n, width))

    def member(self, arr, j: int, shift: int = 0):
        """Member j's [n, T, width] view of a wave array; shift 1 reads the
        values written at s + 1 (states after each step, emitted outputs)."""
        return arr[j + shift : j + shift + self.T, j].transpose(1, 0, 2)

    def batch_major(self, arr, j: int, shift: int = 0):
        """A contiguous [n, T, width] copy of member j's slice: parameter
        gradients reduce over these in (n, T) order."""
        return np.ascontiguousarray(self.member(arr, j, shift))

    def carry(self, m, h_new, h, emitted):
        """Emit h_new, then carry the state of masked rows: emitted = m * h_new,
        h_new <- emitted + (1 - m) * h."""
        if m is None:
            emitted[...] = h_new
        else:
            np.multiply(m, h_new, out=emitted)
            np.add(emitted, (1.0 - m) * h, out=h_new)

    def output(self, s: int, active: slice, emitted, out):
        """Copy the last member's emitted [n, u] step into the run output."""
        if active.stop == self.K:
            out[:, s - self.K + 1] = emitted[-1]


class _Inputs:
    """Input projection x W_x^T + b of one kernel row block for every member
    of a run: member 0's is one whole-sequence product over the run's input,
    members j >= 1 project per wave step what member j - 1 just emitted."""

    def __init__(self, wave: _Wave, params: list, rows: slice, x):
        u = params[0].units
        self.first = x @ params[0].kernel[rows, u:].T + params[0].bias[rows]
        rest = params[1:]
        if rest:
            self.w = _stack(rest, rows, slice(u, None)).transpose(0, 2, 1)
            self.b = np.stack([p.bias[rows] for p in rest])[:, None]
            self.buf = np.empty((len(rest), wave.n, self.w.shape[2]))

    def add_to(self, a, s: int, active: slice, emitted):
        """a[k] += the input projection of member active.start + k at step s."""
        if active.start == 0:
            a[0] += self.first[:, s]
        lo = max(active.start, 1)
        if lo < active.stop:
            prev = slice(lo - 1, active.stop - 1)
            xp = np.matmul(emitted[prev], self.w[prev], out=self.buf[prev])
            xp += self.b[prev]
            a[lo - active.start :] += xp


def _pass_down(s: int, active: slice, d_out, blocks):
    """Input gradients of the active members j >= 1 at step s, written as the
    output gradients member j - 1 reads at step s - 1: the sum over kernel row
    blocks of d_a[block] @ W_x[block]. `blocks` pairs each per-step d_a wave
    array with the stacked input kernels of members 1..K-1."""
    lo = max(active.start, 1)
    if lo < active.stop:
        mem, prev = slice(lo, active.stop), slice(lo - 1, active.stop - 1)
        (da, w), *more = blocks
        dx = np.matmul(da[s, mem], w[prev], out=d_out[(s + 1) % 2, prev])
        for da, w in more:
            dx += da[s, mem] @ w[prev]


def _lstm_run_forward(layer: LayerSpec, params: list, x, mask, want_cache: bool):
    """A run of LSTM layers (one LstmParams each) over x [n, T, d]; returns
    the last member's output [n, T, u] and one cache entry per member."""
    wave = _Wave(mask, len(params), want_cache)
    u = params[0].units
    rec, act = _ACTIVATIONS[layer.recurrent_activation][0], _ACTIVATIONS[layer.activation][0]
    wh = _stack(params, slice(None), slice(None, u)).transpose(0, 2, 1)  # [K, u, 4u]
    inputs = _Inputs(wave, params, slice(None), x)
    A, G = wave.buffer(4 * u), wave.buffer(4 * u)
    CN, TC = wave.buffer(u), wave.buffer(u)
    H, C, Y = wave.buffer(u, True), wave.buffer(u, True), wave.buffer(u, True)
    out = np.empty((wave.n, wave.T, u))
    for s, active, m in wave.steps():
        i, now, nxt = s % len(A), s % len(H), (s + 1) % len(H)
        a, g = A[i, active], G[i, active]
        h, c, h_new = H[now, active], C[now, active], H[nxt, active]
        np.matmul(h, wh[active], out=a)
        inputs.add_to(a, s, active, Y[now])
        rec(a, g)  # whole rows are faster than strided gate columns
        act(a[..., 3 * u :], g[..., 3 * u :])
        c_new = np.multiply(g[..., u : 2 * u], c, out=CN[i, active])
        c_new += g[..., :u] * g[..., 3 * u :]
        np.multiply(g[..., 2 * u : 3 * u], act(c_new, TC[i, active]), out=h_new)
        if m is None:
            C[nxt, active] = c_new
        else:
            np.add(m * c_new, (1.0 - m) * c, out=C[nxt, active])
        wave.carry(m, h_new, h, Y[nxt, active])
        wave.output(s, active, Y[nxt], out)
    if not want_cache:
        return out, [None] * wave.K
    run = {"wave": wave, "x": x, "A": A, "G": G, "CN": CN, "TC": TC, "H": H, "C": C, "Y": Y}
    return out, [{"A": wave.member(A, j), "G": wave.member(G, j), "Hp": wave.member(H, j),
                  "Cp": wave.member(C, j), "Cn": wave.member(CN, j), "TC": wave.member(TC, j),
                  "run": run} for j in range(wave.K)]


def _lstm_run_backward(layer: LayerSpec, params: list, run, dout, grads: list):
    """The reverse wavefront: writes each member's gradient into `grads` and
    returns the gradient of the run's input."""
    wave, x = run["wave"], run["x"]
    A, G, CN, TC, H, C = (run[k] for k in ("A", "G", "CN", "TC", "H", "C"))
    K, n, u = wave.K, wave.n, params[0].units
    d_rec, d_act = _ACTIVATIONS[layer.recurrent_activation][1], _ACTIVATIONS[layer.activation][1]
    wh = _stack(params, slice(None), slice(None, u))  # [K, 4u, u]
    blocks = [(A, _stack(params[1:], slice(None), slice(u, None)))] if K > 1 else []
    dh, dc = np.zeros((K, n, u)), np.zeros((K, n, u))
    dh_new, dc_new, d_cell = (np.empty((K, n, u)) for _ in range(3))
    deriv = np.empty((K, n, 4 * u))
    d_out = np.zeros((2, K, n, u))  # each member's output gradient, double-buffered
    for s, active, m in wave.steps(reverse=True):
        if active.stop == K:
            d_out[s % 2, K - 1] = dout[:, s - K + 1]
        g, da, tc = G[s, active], A[s, active], TC[s, active]
        d_a = d_rec(da, g, deriv[active])  # read the preactivations before da overwrites them
        d_act(da[..., 3 * u :], g[..., 3 * u :], d_a[..., 3 * u :])
        dhn = np.add(dh[active], d_out[s % 2, active], out=dh_new[active])
        if m is not None:
            dhn *= m
        dcn = np.multiply(dhn, g[..., 2 * u : 3 * u], out=dc_new[active])
        dcn *= d_act(CN[s, active], tc, d_cell[active])
        dcn += dc[active] if m is None else m * dc[active]
        np.multiply(dcn, g[..., 3 * u :], out=da[..., :u])  # input gate
        np.multiply(dcn, C[s, active], out=da[..., u : 2 * u])  # forget gate
        np.multiply(dhn, tc, out=da[..., 2 * u : 3 * u])  # output gate
        np.multiply(dcn, g[..., :u], out=da[..., 3 * u :])  # candidate
        da *= d_a
        if m is None:
            np.matmul(da, wh[active], out=dh[active])
            np.multiply(dcn, g[..., u : 2 * u], out=dc[active])
        else:
            keep = 1.0 - m
            dh[active] = keep * dh[active] + da @ wh[active]
            dc[active] = keep * dc[active] + dcn * g[..., u : 2 * u]
        _pass_down(s, active, d_out, blocks)
    for j, grad in enumerate(grads):
        da = wave.batch_major(A, j)
        flat = da.reshape(-1, 4 * u)
        grad.kernel[:, :u] = flat.T @ wave.batch_major(H, j).reshape(-1, u)
        xj = x if j == 0 else wave.batch_major(run["Y"], j - 1, shift=1)
        grad.kernel[:, u:] = flat.T @ xj.reshape(-1, xj.shape[2])
        grad.bias[:] = flat.sum(axis=0)
        if j == 0:
            dx = da @ params[0].kernel[:, u:]
        del da, flat, xj  # free this member's copies before the next member's
    return dx


def _gru_run_forward(layer: LayerSpec, params: list, x, mask, want_cache: bool):
    """A run of GRU layers (one GruParams each); see _lstm_run_forward."""
    wave = _Wave(mask, len(params), want_cache)
    u = params[0].units
    zr, cand_rows = slice(None, 2 * u), slice(2 * u, None)
    rec, act = _ACTIVATIONS[layer.recurrent_activation][0], _ACTIVATIONS[layer.activation][0]
    wh_zr = _stack(params, zr, slice(None, u)).transpose(0, 2, 1)  # [K, u, 2u]
    wh_c = _stack(params, cand_rows, slice(None, u)).transpose(0, 2, 1)  # [K, u, u]
    inputs_zr, inputs_c = _Inputs(wave, params, zr, x), _Inputs(wave, params, cand_rows, x)
    AZR, GZR = wave.buffer(2 * u), wave.buffer(2 * u)
    AC, CAND, RH = wave.buffer(u), wave.buffer(u), wave.buffer(u)
    H, Y = wave.buffer(u, True), wave.buffer(u, True)
    out = np.empty((wave.n, wave.T, u))
    for s, active, m in wave.steps():
        i, now, nxt = s % len(AZR), s % len(H), (s + 1) % len(H)
        h, h_new = H[now, active], H[nxt, active]
        a_zr, g_zr = AZR[i, active], GZR[i, active]
        np.matmul(h, wh_zr[active], out=a_zr)
        inputs_zr.add_to(a_zr, s, active, Y[now])
        rec(a_zr, g_zr)
        z = g_zr[..., :u]
        rh = np.multiply(g_zr[..., u:], h, out=RH[i, active])
        a_c = np.matmul(rh, wh_c[active], out=AC[i, active])
        inputs_c.add_to(a_c, s, active, Y[now])
        cand = act(a_c, CAND[i, active])
        np.subtract(1.0, z, out=h_new)
        h_new *= h
        h_new += z * cand
        wave.carry(m, h_new, h, Y[nxt, active])
        wave.output(s, active, Y[nxt], out)
    if not want_cache:
        return out, [None] * wave.K
    run = {"wave": wave, "x": x, "AZR": AZR, "GZR": GZR, "AC": AC, "CAND": CAND, "RH": RH, "H": H, "Y": Y}
    return out, [{"Azr": wave.member(AZR, j), "Gzr": wave.member(GZR, j), "Ac": wave.member(AC, j),
                  "Cand": wave.member(CAND, j), "Hp": wave.member(H, j), "RH": wave.member(RH, j),
                  "run": run} for j in range(wave.K)]


def _gru_run_backward(layer: LayerSpec, params: list, run, dout, grads: list):
    """The reverse wavefront of a GRU run; see _lstm_run_backward."""
    wave, x = run["wave"], run["x"]
    AZR, GZR, AC, CAND, RH, H = (run[k] for k in ("AZR", "GZR", "AC", "CAND", "RH", "H"))
    K, n, u = wave.K, wave.n, params[0].units
    zr, cand_rows = slice(None, 2 * u), slice(2 * u, None)
    d_rec, d_act = _ACTIVATIONS[layer.recurrent_activation][1], _ACTIVATIONS[layer.activation][1]
    wh_zr, wh_c = _stack(params, zr, slice(None, u)), _stack(params, cand_rows, slice(None, u))
    blocks = [(AZR, _stack(params[1:], zr, slice(u, None))),
              (AC, _stack(params[1:], cand_rows, slice(u, None)))] if K > 1 else []
    dh = np.zeros((K, n, u))
    dh_new, dh_prev, d_rh, d_cand = (np.empty((K, n, u)) for _ in range(4))
    deriv = np.empty((K, n, 2 * u))
    d_out = np.zeros((2, K, n, u))  # each member's output gradient, double-buffered
    for s, active, m in wave.steps(reverse=True):
        if active.stop == K:
            d_out[s % 2, K - 1] = dout[:, s - K + 1]
        h, g_zr, cand = H[s, active], GZR[s, active], CAND[s, active]
        z, r = g_zr[..., :u], g_zr[..., u:]
        dhn = np.add(dh[active], d_out[s % 2, active], out=dh_new[active])
        if m is not None:
            dhn *= m
        # the preactivations' gradients overwrite them once read
        d_zr, da_c = AZR[s, active], AC[s, active]
        d_gates = d_rec(d_zr, g_zr, deriv[active])
        d_c = d_act(da_c, cand, d_cand[active])
        dz = np.subtract(cand, h, out=d_zr[..., :u])
        dz *= dhn
        np.multiply(dhn, z, out=da_c)
        da_c *= d_c
        drh = np.matmul(da_c, wh_c[active], out=d_rh[active])
        np.multiply(drh, h, out=d_zr[..., u:])
        dhp = np.subtract(1.0, z, out=dh_prev[active])
        dhp *= dhn
        dhp += drh * r
        d_zr *= d_gates
        if m is not None:
            dhp += (1.0 - m) * dh[active]
        np.matmul(d_zr, wh_zr[active], out=dh[active])
        dh[active] += dhp
        _pass_down(s, active, d_out, blocks)
    for j, grad in enumerate(grads):
        d_zr, d_c = wave.batch_major(AZR, j), wave.batch_major(AC, j)
        flat_zr, flat_c = d_zr.reshape(-1, 2 * u), d_c.reshape(-1, u)
        grad.kernel[zr, :u] = flat_zr.T @ wave.batch_major(H, j).reshape(-1, u)
        grad.W_h[:, :u] = flat_c.T @ wave.batch_major(RH, j).reshape(-1, u)
        xj = x if j == 0 else wave.batch_major(run["Y"], j - 1, shift=1)
        x_flat = xj.reshape(-1, xj.shape[2])
        grad.kernel[zr, u:] = flat_zr.T @ x_flat
        grad.W_h[:, u:] = flat_c.T @ x_flat
        grad.bias[zr] = flat_zr.sum(axis=0)
        grad.b_h[:] = flat_c.sum(axis=0)
        if j == 0:
            dx = d_zr @ params[0].kernel[zr, u:] + d_c @ params[0].W_h[:, u:]
        del d_zr, d_c, flat_zr, flat_c, xj, x_flat  # free this member's copies before the next member's
    return dx


def _dense_layer_forward(layer: LayerSpec, params: DenseParams, x, want_cache: bool):
    a = x @ params.W.T + params.b
    y = activation(layer.activation, a)
    cache = {"x": x, "A": a, "Y": y} if want_cache else None
    return y, cache


def _dense_layer_backward(layer: LayerSpec, params: DenseParams, cache, dout, grads: DenseParams):
    x, a = cache["x"], cache["A"]
    da = dout * _ACTIVATIONS[layer.activation][1](a, cache["Y"], np.empty_like(a))
    n, t_len, u = da.shape
    flat = da.reshape(n * t_len, u)
    grads.W[:] = flat.T @ x.reshape(n * t_len, x.shape[2])
    grads.b[:] = flat.sum(axis=0)
    return da @ params.W


_RUN_FORWARD = {"lstm": _lstm_run_forward, "gru": _gru_run_forward}
_RUN_BACKWARD = {"lstm": _lstm_run_backward, "gru": _gru_run_backward}


def forward(params: ModelParams, features, mask, mode: str = "eval",
            rng: np.random.Generator | None = None, dropout_masks: list | None = None,
            want_cache: bool = True):
    """Run the whole stack; returns (predictions, caches).

    features: [n, T, input_dim], mask: [n, T]. In train mode each dropout
    layer samples a kept mask from `rng` unless `dropout_masks` supplies one
    per dropout layer (used to freeze dropout for gradient checking).
    `caches` holds what backward_through_layers needs, one entry per layer;
    with want_cache=False every entry is None and nothing is kept.

    Each run of consecutive recurrent layers that share kind, units and
    activations goes through time as one wavefront (see _Wave); its members'
    cache entries are [n, T, .] views into the run's arrays. The caches serve
    one backward pass, which overwrites a run's preactivations ("A", "Azr",
    "Ac") with their gradients.
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
    for start, stop in _runs(spec.layers):
        layer, p = spec.layers[start], params.layers[start]
        if layer.kind in _RUN_FORWARD:
            x, run_caches = _RUN_FORWARD[layer.kind](layer, params.layers[start:stop], x, mask, want_cache)
            caches.extend(run_caches)
            continue
        if layer.kind == "dense":
            x, cache = _dense_layer_forward(layer, p, x, want_cache)
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
    straight into views of that vector. Recurrent runs reuse their cached
    preactivation arrays for the preactivations' gradients, so the caches
    are spent afterwards."""
    spec = params.spec
    grad = np.zeros(params.flat.size)
    grad_views = _layer_views(spec, grad)
    dx = dpred
    for start, stop in reversed(_runs(spec.layers)):
        layer, cache = spec.layers[start], caches[start]
        if layer.kind in _RUN_BACKWARD:
            dx = _RUN_BACKWARD[layer.kind](layer, params.layers[start:stop], cache["run"], dx,
                                           grad_views[start:stop])
        elif layer.kind == "dense":
            dx = _dense_layer_backward(layer, params.layers[start], cache, dx, grad_views[start])
        elif cache["scale"] is not None:
            dx = dx * cache["scale"]
    return grad


def model_forward(params: ModelParams, batch, mode: str = "eval") -> np.ndarray:
    """Predictions [n, max_len, output_dim] for a PaddedBatch.

    Rows run through `forward` in near-equal chunks of at most 64, so memory
    stays bounded on large corpora. No chunk has a single row unless the
    batch has one: a one-row chunk would turn the kernel products into
    matrix-vector products, which round differently. Values at masked steps
    are defined but meant to be excluded by the mask in any loss.
    """
    n = batch.features.shape[0]
    chunks = max(1, -(-n // _CHUNK_ROWS))
    edges = [n * i // chunks for i in range(chunks + 1)]
    preds = [forward(params, batch.features[lo:hi], batch.mask[lo:hi], mode=mode, want_cache=False)[0]
             for lo, hi in zip(edges, edges[1:])]
    return preds[0] if chunks == 1 else np.concatenate(preds)
