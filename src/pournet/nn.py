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
    """Ordered layer stack plus the input feature width; checked when built."""

    input_dim: int
    layers: list

    def __post_init__(self):
        if isinstance(self.input_dim, bool) or not isinstance(self.input_dim, int):
            raise ValueError(f"input_dim must be an integer (got {self.input_dim!r})")
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
            if isinstance(layer.units, bool) or not isinstance(layer.units, int):
                raise ValueError(f"layer {i}: units must be an integer (got {layer.units!r})")
            if layer.units < 1:
                raise ValueError(f"layer {i}: units must be >= 1")
            if layer.activation not in ACTIVATION_KINDS:
                raise ValueError(f"layer {i}: unknown activation {layer.activation!r}")
            if layer.kind in CELL_KINDS and layer.recurrent_activation not in RECURRENT_ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown recurrent activation {layer.recurrent_activation!r}")

    def widths(self) -> list:
        """Input width of every layer, plus the final output width at the end."""
        widths = [self.input_dim]
        for layer in self.layers:
            widths.append(widths[-1] if layer.kind == "dropout" else layer.units)
        return widths

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelSpec":
        return cls(
            input_dim=doc["input_dim"],
            layers=[LayerSpec(**entry) for entry in doc["layers"]],
        )


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
        u = self.units = bias.shape[-1] // gates
        for k in range(gates):
            setattr(self, self.FIELDS[k], kernel[..., k * u : (k + 1) * u, :])
            setattr(self, self.FIELDS[gates + k], bias[..., k * u : (k + 1) * u])


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


class Workspace:
    """Arrays reused by the forward and backward passes of many minibatches.

    Each role is one flat float64 arena, and a request is a prefix of it
    reshaped to the requested shape, so it is contiguous; an arena grows only
    when a larger shape arrives. An array stays valid until its role is
    requested again, so arrays alive at the same time never share a role.
    `zeros` zeroes the array it returns, also when it is reused.
    """

    def __init__(self):
        self._arenas = {}

    def empty(self, role, shape):
        size = math.prod(shape)
        arena = self._arenas.get(role)
        if arena is None or arena.size < size:
            arena = self._arenas[role] = np.empty(size)
        return arena[:size].reshape(shape)

    def zeros(self, role, shape):
        out = self.empty(role, shape)
        out.fill(0.0)
        return out


class _Throwaway(Workspace):
    """The workspace of a call that is given none: every request is a new
    array, freed once unreferenced. A fresh Workspace per call gives the same
    bytes but holds every run's output until the call returns: 84 -> 91 MB
    peak RSS for a reference_model() model_forward of 96 80-1,099-step pours."""

    def empty(self, role, shape):
        return np.empty(shape)

    def zeros(self, role, shape):
        return np.zeros(shape)


_THROWAWAY = _Throwaway()


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
    """One block of every member's kernel, stacked: [K, rows, cols]. For a
    single member it is a view, with one entry per copy if the member holds
    parameter copies (see copies_forward)."""
    if len(params) == 1:
        kernel = params[0].kernel
        return kernel.reshape((-1,) + kernel.shape[-2:])[:, rows, cols]
    return np.stack([p.kernel[rows, cols] for p in params])


def _last_valid(mask):
    """Each row's last step with a nonzero mask value (-1 for a row with none)."""
    live = mask != 0.0
    return np.where(live.any(axis=1), mask.shape[1] - 1 - live[:, ::-1].argmax(axis=1), -1)


class _Wave:
    """The wavefront schedule of a run of K recurrent layers over T steps, or
    of K parameter copies of one recurrent layer.

    At wave step s (0 <= s < S = T + K - 1) member j handles t = s - j, so the
    input of member j >= 1 at t is what member j - 1 emitted one wave step
    earlier, and the active members of every step share one batched product
    per kernel. Wave arrays are [slots, K, n, width], time-major: per-step
    values of step s sit in slot s, states and emitted outputs written at
    step s in slot s + 1 (slot 0 holds the zero initial state). Without
    caching they keep one slot (two for states) and are indexed modulo their
    length, so only rolling per-step buffers are allocated.

    An uncached run of more than two rows whose rows arrive longest first
    (last valid step non-increasing, as model_forward orders them) steps only
    the rows it needs: at s the prefix of rows that are valid at some active
    member's t or later, never fewer than two, and it ends after the last
    valid step. Skipped rows emit zeros, as masked steps do. Any other run
    steps every row at every step, which gives the same values at valid
    steps, and a cached run's parameter gradients reduce over every (n, T)
    position.

    Every product keeps the operands and association of running the members
    one after another, and parameter gradients reduce over batch-major
    copies, so results are bitwise the same for batches of two or more rows
    (one row turns the per-step products into matrix-vector products, which
    is why a prefix keeps at least two rows).

    With `copies` the K members are copies of one layer's parameters, and
    they run with no lag: S = T, every copy is active at every step, projects
    its own input and emits its own output, so the per-sequence arrays (input
    projection, run output) are [K, n, T, width]. Every row steps at every
    step, as in a cached run, and nothing is cached. A layer that is not the
    first of its run in the whole model (`stepwise`) projects its input with
    one product per step, as that run does. So each copy makes the products
    and elementwise operations of the whole model's run, and its output is
    bitwise that run's output for that layer, also for one row.

    The run's large arrays come from `workspace`. Wave arrays and the run
    output live from the forward pass to the backward pass, so their roles
    are keyed by `key`, the run's first layer index. The input projection and
    the backward copies live within one pass of one run, so every run shares
    those roles, the projection of a preactivation block with that block's
    copy.
    """

    def __init__(self, mask, members: int, cached: bool, workspace: Workspace, key: int,
                 copies: bool = False, stepwise: bool = False):
        n, T = self.n, self.T = mask.shape
        self.K, self.stepwise, self.cached, self.workspace, self.key = members, stepwise, cached, workspace, key
        # wave steps from a step's input to the run output it becomes
        self.delay = 0 if copies else members - 1
        S = T + self.delay
        # the members that project the run input and that emit the run
        # output (an index drops the member axis), and the leading axes of
        # per-sequence arrays
        self.feeds, self.emits, self.lead = (slice(None), slice(None), (members,)) if copies else (0, -1, ())
        last = None if cached or copies or n <= 2 else _last_valid(mask)
        self.trimmed = last is not None and bool((last[1:] <= last[:-1]).all())
        if self.trimmed:
            S = int(last.max()) + members
            # later[t]: the rows valid at t or after (at least two); step s
            # steps those of its earliest active t = s - K + 1
            later = np.maximum(2, (last[:, None] >= np.arange(T)).sum(axis=0))
            counts = later[np.maximum(0, np.arange(S) - members + 1)]
            rows = [slice(None, c) for c in counts.tolist()]
            # reach[s]: the first row that some member active at s sees masked
            blend = mask != 1.0
            first = np.where(blend.any(axis=0), blend.argmax(axis=0), n)
            reach = np.full(T + members - 1, n)
            for j in range(members):
                np.minimum(reach[j : j + T], first, out=reach[j : j + T])
            masked = reach[:S] < counts
        else:
            rows = [slice(None)] * S
            masked = (mask != 1.0).any(axis=0)
            if self.delay:
                masked = np.convolve(masked, np.ones(members))
        mask = mask.T[:, :, None]  # [T, n, 1]
        # (s, active members, stepped rows, their [k, rows, 1] mask or None
        # when every stepped row of every active member is valid, so the masked
        # blend is skipped) per wave step; copies share one [1, n, 1] mask.
        every = slice(0, members)
        self.schedule = []
        for s, r, any_masked in zip(range(S), rows, masked.tolist()):
            active = every if copies or members - 1 <= s < T else slice(max(0, s - T + 1), min(members, s + 1))
            t = slice(s, s + 1) if copies else slice(s - active.stop + 1, s - active.start + 1)
            self.schedule.append((s, active, r, mask[t, r][::-1] if any_masked else None))

    def steps(self, reverse: bool = False):
        """The schedule, in wave-step order or reversed."""
        return reversed(self.schedule) if reverse else self.schedule

    def buffer(self, role: str, width: int, state: bool = False):
        """A wave array; states start at zero."""
        slots = (len(self.schedule) if self.cached else 1) + state
        take = self.workspace.zeros if state else self.workspace.empty
        return take((self.key, role), (slots, self.K, self.n, width))

    def member(self, arr, j: int, shift: int = 0):
        """Member j's [n, T, width] view of a wave array; shift 1 reads the
        values written at s + 1 (states after each step, emitted outputs)."""
        return arr[j + shift : j + shift + self.T, j].transpose(1, 0, 2)

    def transient(self, role: str, width: int):
        """An [n, T, width] array (one per copy) that lives within one pass
        of this run."""
        return self.workspace.empty(("pass", role), self.lead + (self.n, self.T, width))

    def batch_major(self, role: str, arr, j: int, shift: int = 0):
        """A contiguous [n, T, width] copy of member j's slice: parameter
        gradients reduce over these in (n, T) order."""
        out = self.transient(role, arr.shape[3])
        np.copyto(out, self.member(arr, j, shift))
        return out

    def carry(self, m, h_new, h, emitted):
        """Emit h_new, then carry the state of masked rows: emitted = m * h_new,
        h_new <- emitted + (1 - m) * h."""
        if m is None:
            emitted[...] = h_new
        else:
            np.multiply(m, h_new, out=emitted)
            np.add(emitted, (1.0 - m) * h, out=h_new)

    def output_buffer(self, width: int):
        """The run output [n, T, width] (one per copy); zeros where a trimmed
        run skips."""
        take = self.workspace.zeros if self.trimmed else self.workspace.empty
        return take((self.key, "out"), self.lead + (self.n, self.T, width))

    def output(self, s: int, active: slice, rows: slice, emitted, out):
        """Copy the emitted [rows, u] step of the last member (of every copy)
        into the run output."""
        if active.stop == self.K:
            out[..., rows, s - self.delay, :] = emitted[self.emits, rows]


class _Inputs:
    """Input projection x W_x^T + b of one kernel row block for every member
    of a run: member 0's (every copy's) is one whole-sequence product over
    the run's input, or one product per step for copies of a `stepwise`
    layer; members j >= 1 project per wave step what member j - 1 just
    emitted."""

    def __init__(self, wave: _Wave, role: str, params: list, rows: slice, x):
        u = params[0].units
        w = np.swapaxes(params[0].kernel[..., rows, u:], -1, -2)
        b = params[0].bias[..., rows]
        if wave.stepwise:
            # [T, copies, n, width]: one [n, d] @ [d, width] product per step
            # and copy, as a run makes for its members j >= 1
            steps = np.matmul(np.ascontiguousarray(np.moveaxis(x, -2, 0)), w.reshape((-1,) + w.shape[-2:]))
            steps += b.reshape(-1, 1, b.shape[-1])
            self.first = np.moveaxis(steps, 0, -2)
        else:
            self.first = np.matmul(x, w, out=wave.transient(role, w.shape[-1]))
            self.first += b
        self.feeds = wave.feeds
        self.rest = rest = params[1:]
        if rest:
            self.w = _stack(rest, rows, slice(u, None)).transpose(0, 2, 1)
            self.b = np.stack([p.bias[rows] for p in rest])[:, None]
            self.buf = np.empty((len(rest), wave.n, self.w.shape[2]))

    def add_to(self, a, s: int, active: slice, rows: slice, emitted):
        """a[k] += the input projection of member active.start + k at step s."""
        if active.start == 0:
            a[self.feeds] += self.first[..., rows, s, :]
        lo = max(active.start, 1)
        if self.rest and lo < active.stop:
            prev = slice(lo - 1, active.stop - 1)
            xp = np.matmul(emitted[prev, rows], self.w[prev], out=self.buf[prev, rows])
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


def _param_grads(params: list, run, grads: list, blocks):
    """Write each member's parameter gradient into `grads` and return the
    gradient of the run's input. `blocks` names, per kernel row block, the
    run arrays of its preactivation gradients and of the states its state
    columns multiply. Every reduction is over a batch-major copy, in (n, T)
    order. The input copy is made once the state products are done, which
    keeps one [n, T, u] copy fewer alive at the peak."""
    wave, u, dx = run["wave"], params[0].units, None
    for j, grad in enumerate(grads):
        flats = [wave.batch_major(d, run[d], j).reshape(-1, run[d].shape[3]) for _, d, _ in blocks]
        for (rows, _, state), flat in zip(blocks, flats):
            grad.kernel[rows, :u] = flat.T @ wave.batch_major(state, run[state], j).reshape(-1, u)
        xj = run["x"] if j == 0 else wave.batch_major("Y", run["Y"], j - 1, shift=1)
        for (rows, _, _), flat in zip(blocks, flats):
            grad.kernel[rows, u:] = flat.T @ xj.reshape(-1, xj.shape[2])
            grad.bias[rows] = flat.sum(axis=0)
            if j == 0:
                term = flat.reshape(wave.n, wave.T, -1) @ params[0].kernel[rows, u:]
                dx = term if dx is None else dx + term
        del flats, flat, xj  # free this member's copies before the next member's
    return dx


def _lstm_run_forward(layer: LayerSpec, params: list, x, wave: _Wave):
    """A run of LSTM layers (one LstmParams each) over x [n, T, d], on the
    schedule of `wave`; returns the last member's output [n, T, u] and one
    cache entry per member."""
    u = params[0].units
    rec, act = _ACTIVATIONS[layer.recurrent_activation][0], _ACTIVATIONS[layer.activation][0]
    wh = _stack(params, slice(None), slice(None, u)).transpose(0, 2, 1)  # [K, u, 4u]
    inputs = _Inputs(wave, "A", params, slice(None), x)
    A, G = wave.buffer("A", 4 * u), wave.buffer("G", 4 * u)
    CN, TC = wave.buffer("CN", u), wave.buffer("TC", u)
    H, C, Y = wave.buffer("H", u, True), wave.buffer("C", u, True), wave.buffer("Y", u, True)
    out = wave.output_buffer(u)
    for s, active, rows, m in wave.steps():
        i, now, nxt = s % len(A), s % len(H), (s + 1) % len(H)
        a, g = A[i, active, rows], G[i, active, rows]
        h, c, h_new = H[now, active, rows], C[now, active, rows], H[nxt, active, rows]
        np.matmul(h, wh[active], out=a)
        inputs.add_to(a, s, active, rows, Y[now])
        rec(a, g)  # whole rows are faster than strided gate columns
        act(a[..., 3 * u :], g[..., 3 * u :])
        c_new = np.multiply(g[..., u : 2 * u], c, out=CN[i, active, rows])
        c_new += g[..., :u] * g[..., 3 * u :]
        np.multiply(g[..., 2 * u : 3 * u], act(c_new, TC[i, active, rows]), out=h_new)
        if m is None:
            C[nxt, active, rows] = c_new
        else:
            np.add(m * c_new, (1.0 - m) * c, out=C[nxt, active, rows])
        wave.carry(m, h_new, h, Y[nxt, active, rows])
        wave.output(s, active, rows, Y[nxt], out)
    if not wave.cached:
        return out, [None] * wave.K
    run = {"wave": wave, "x": x, "A": A, "G": G, "CN": CN, "TC": TC, "H": H, "C": C, "Y": Y}
    return out, [{"A": wave.member(A, j), "G": wave.member(G, j), "Hp": wave.member(H, j),
                  "Cp": wave.member(C, j), "Cn": wave.member(CN, j), "TC": wave.member(TC, j),
                  "run": run} for j in range(wave.K)]


def _lstm_run_backward(layer: LayerSpec, params: list, run, dout, grads: list):
    """The reverse wavefront: writes each member's gradient into `grads` and
    returns the gradient of the run's input."""
    wave = run["wave"]
    A, G, CN, TC, C = (run[k] for k in ("A", "G", "CN", "TC", "C"))
    K, n, u = wave.K, wave.n, params[0].units
    d_rec, d_act = _ACTIVATIONS[layer.recurrent_activation][1], _ACTIVATIONS[layer.activation][1]
    wh = _stack(params, slice(None), slice(None, u))  # [K, 4u, u]
    blocks = [(A, _stack(params[1:], slice(None), slice(u, None)))] if K > 1 else []
    dh, dc = np.zeros((K, n, u)), np.zeros((K, n, u))
    dh_new, dc_new, d_cell = (np.empty((K, n, u)) for _ in range(3))
    deriv = np.empty((K, n, 4 * u))
    d_out = np.zeros((2, K, n, u))  # each member's output gradient, double-buffered
    for s, active, _, m in wave.steps(reverse=True):
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
    return _param_grads(params, run, grads, [(slice(None), "A", "H")])


def _gru_run_forward(layer: LayerSpec, params: list, x, wave: _Wave):
    """A run of GRU layers (one GruParams each); see _lstm_run_forward."""
    u = params[0].units
    zr, cand_rows = slice(None, 2 * u), slice(2 * u, None)
    rec, act = _ACTIVATIONS[layer.recurrent_activation][0], _ACTIVATIONS[layer.activation][0]
    wh_zr = _stack(params, zr, slice(None, u)).transpose(0, 2, 1)  # [K, u, 2u]
    wh_c = _stack(params, cand_rows, slice(None, u)).transpose(0, 2, 1)  # [K, u, u]
    inputs_zr, inputs_c = _Inputs(wave, "AZR", params, zr, x), _Inputs(wave, "AC", params, cand_rows, x)
    AZR, GZR = wave.buffer("AZR", 2 * u), wave.buffer("GZR", 2 * u)
    AC, CAND, RH = wave.buffer("AC", u), wave.buffer("CAND", u), wave.buffer("RH", u)
    H, Y = wave.buffer("H", u, True), wave.buffer("Y", u, True)
    out = wave.output_buffer(u)
    for s, active, rows, m in wave.steps():
        i, now, nxt = s % len(AZR), s % len(H), (s + 1) % len(H)
        h, h_new = H[now, active, rows], H[nxt, active, rows]
        a_zr, g_zr = AZR[i, active, rows], GZR[i, active, rows]
        np.matmul(h, wh_zr[active], out=a_zr)
        inputs_zr.add_to(a_zr, s, active, rows, Y[now])
        rec(a_zr, g_zr)
        z = g_zr[..., :u]
        rh = np.multiply(g_zr[..., u:], h, out=RH[i, active, rows])
        a_c = np.matmul(rh, wh_c[active], out=AC[i, active, rows])
        inputs_c.add_to(a_c, s, active, rows, Y[now])
        cand = act(a_c, CAND[i, active, rows])
        np.subtract(1.0, z, out=h_new)
        h_new *= h
        h_new += z * cand
        wave.carry(m, h_new, h, Y[nxt, active, rows])
        wave.output(s, active, rows, Y[nxt], out)
    if not wave.cached:
        return out, [None] * wave.K
    run = {"wave": wave, "x": x, "AZR": AZR, "GZR": GZR, "AC": AC, "CAND": CAND, "RH": RH, "H": H, "Y": Y}
    return out, [{"Azr": wave.member(AZR, j), "Gzr": wave.member(GZR, j), "Ac": wave.member(AC, j),
                  "Cand": wave.member(CAND, j), "Hp": wave.member(H, j), "RH": wave.member(RH, j),
                  "run": run} for j in range(wave.K)]


def _gru_run_backward(layer: LayerSpec, params: list, run, dout, grads: list):
    """The reverse wavefront of a GRU run; see _lstm_run_backward."""
    wave = run["wave"]
    AZR, GZR, AC, CAND, H = (run[k] for k in ("AZR", "GZR", "AC", "CAND", "H"))
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
    for s, active, _, m in wave.steps(reverse=True):
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
    return _param_grads(params, run, grads, [(zr, "AZR", "H"), (cand_rows, "AC", "RH")])


def _dense_layer_forward(layer: LayerSpec, params: DenseParams, x, want_cache: bool):
    a = x @ np.swapaxes(params.W, -1, -2) + params.b
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
            want_cache: bool = True, *, workspace: Workspace | None = None):
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
    "Ac") with their gradients. Runs take their large arrays from
    `workspace`; without one every array is new. A workspace hands the same
    memory to its next forward pass, so caches, and predictions that a
    recurrent run emits, stay valid until then.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval (got {mode!r})")
    spec = params.spec
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or features.shape[2] != spec.input_dim:
        raise ValueError(f"features must be [n, T, {spec.input_dim}], got {features.shape}")
    mask = np.asarray(mask, dtype=np.float64)
    workspace = _THROWAWAY if workspace is None else workspace
    return _walk(spec, params.layers, _runs(spec.layers), features, mask, mode, rng, dropout_masks,
                 want_cache, workspace)


def copies_forward(params: ModelParams, start: int, copies, x, mask, dropout_masks: list):
    """Train-mode predictions [P, n, T, output_dim] of the model with P copies
    of layer `start`'s parameters, from that layer on.

    copies: [P, count] in the layer's flat packing; x: the layer's input
    [n, T, d]; dropout_masks: one kept mask per dropout layer of the model.
    Every layer from `start` on makes one pass over all copies, a recurrent
    one as a wave of copies (see _Wave) and a dense one as one stacked
    product, so copy p's predictions are bitwise those of forward() with its
    parameters in place.
    """
    spec, p = params.spec, copies.shape[0]
    rows, cols = _kernel_shapes(spec)[start]
    layers = list(params.layers)
    layers[start] = _PARAM_CLASSES[spec.layers[start].kind](copies[:, : rows * cols].reshape(p, 1, rows, cols),
                                                            copies[:, rows * cols :].reshape(p, 1, 1, rows))
    groups = [(i, i + 1) for i in range(start, len(spec.layers))]
    return _walk(spec, layers, groups, x[None], mask, "train", None, dropout_masks, False, _THROWAWAY, p)[0]


def _walk(spec: ModelSpec, layers: list, groups, x, mask, mode, rng, dropout_masks, want_cache, workspace,
          copies: int = 0):
    """Run x through the layer groups [start, stop), in order, with layer i's
    parameters `layers[i]`; returns (output, one cache entry per layer). A
    recurrent group runs as one wave, a dense or dropout group is one layer.
    With `copies` = P > 0 every recurrent group is one layer that runs as a
    wave of P copies, projecting its input per step unless it starts a run
    of the whole model (see _Wave)."""
    run_starts = {i for i, _ in _runs(spec.layers)}
    drop_index = sum(layer.kind == "dropout" for layer in spec.layers[: groups[0][0]])
    caches = []
    for start, stop in groups:
        layer, p = spec.layers[start], layers[start]
        if layer.kind in _RUN_FORWARD:
            wave = _Wave(mask, copies or stop - start, want_cache, workspace, start,
                         copies=copies > 0, stepwise=start not in run_starts)
            x, run_caches = _RUN_FORWARD[layer.kind](layer, layers[start:stop], x, wave)
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
    """Predictions [n, max_len, output_dim] for a PaddedBatch, in its row order.

    Rows are ordered by length, longest first, and run through `forward` in
    near-equal chunks of at most 64, so memory stays bounded on large
    corpora and the rows of a chunk end together, which lets its recurrent
    waves stop stepping rows early (see _Wave). No chunk has a single row
    unless the batch has one: a one-row chunk would turn the kernel products
    into matrix-vector products, which round differently. Values at masked
    steps are defined but meant to be excluded by the mask in any loss.
    """
    n = batch.features.shape[0]
    chunks = max(1, -(-n // _CHUNK_ROWS))
    edges = [n * i // chunks for i in range(chunks + 1)]
    order = np.argsort(-_last_valid(batch.mask), kind="stable")
    preds = np.empty(batch.mask.shape + (params.spec.widths()[-1],))
    for lo, hi in zip(edges, edges[1:]):
        rows = order[lo:hi]
        preds[rows] = forward(params, batch.features[rows], batch.mask[rows], mode=mode, want_cache=False)[0]
    return preds
