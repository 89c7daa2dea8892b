"""Correctness checks for the benchmark, each written apart from the program.

Every check returns None when the output is right and a one-line reason
when it is wrong, so the harness can count failures and the tests can feed
each check a deliberately wrong input. The oracles here (the closed-form
retained volume, the per-step LSTM/dense forward and the masked Euclidean
loss) follow the documented equations and import nothing from pournet.
"""

import math
import re

import numpy as np

# 1 litre of water weighs 2.2046226218 lbf: rho_water g * 1e-9 m^3/mm^3 in lbf.
LBF_PER_MM3_WATER = 1000.0 * 9.80665 * 1e-9 * 0.2248089431


# ---------------------------------------------------------------------------
# simulator


def retained_volume_closed_form(radius, height, tilt_deg):
    """Retained volume (mm^3) of an upright cylinder tilted about its lip.

    V = k (pi R^2 / 2 - a s - R^2 asin(a / R)) + (2/3) tan(t) s^3 with
    k = H - R tan(t), a = max(R - H / tan(t), -R), s = sqrt(R^2 - a^2);
    a = -R gives the slab pi R^2 (H - R tan(t)). Vectorised over tilt.
    """
    tilt = np.asarray(tilt_deg, dtype=np.float64)
    out = np.empty_like(tilt)
    full = math.pi * radius * radius * height
    upright = tilt <= 0.0
    flat = tilt >= 90.0
    mid = ~(upright | flat)
    t = np.tan(np.radians(tilt[mid]))
    a = np.maximum(radius - height / t, -radius)
    s = np.sqrt(np.maximum(radius * radius - a * a, 0.0))
    k = height - radius * t
    out[mid] = (k * (math.pi * radius * radius / 2.0 - a * s - radius * radius * np.arcsin(a / radius))
                + (2.0 / 3.0) * t * s ** 3)
    out[upright] = full
    out[flat] = 0.0
    return out


def check_pour_weights(record, rel_tol=1e-6):
    """A noise-free pour's weight series against the closed-form volume.

    The starting level comes from f_init; after it the level is the running
    minimum of the retained volume along the tilt series clamp(-theta, 0, 90).
    """
    lbf_per_mm3 = LBF_PER_MM3_WATER * record.rho_rel
    tilt = np.clip(-np.asarray(record.theta), 0.0, 90.0)
    capacity = retained_volume_closed_form(record.d_cm / 2.0, record.h_cm, tilt)
    level0 = (record.f_init - record.f_empty) / lbf_per_mm3
    levels = np.minimum.accumulate(np.concatenate([[level0], capacity[1:]]))
    want = record.f_empty + lbf_per_mm3 * levels
    got = np.asarray(record.weight)
    err = float(np.max(np.abs(got - want)))
    if not err <= rel_tol * float(np.max(np.abs(want))):
        return f"weight series off the closed-form volume by {err:.3e} lbf"
    return None


def check_records_equal(expected, got):
    """Records must round-trip bitwise: series and every scalar field."""
    if len(expected) != len(got):
        return f"{len(got)} records, expected {len(expected)}"
    fields = ("f_init", "f_empty", "f_final", "d_cup", "h_cup", "d_cm", "h_cm", "rho_rel")
    for i, (a, b) in enumerate(zip(expected, got)):
        for name in ("theta", "weight"):
            x, y = getattr(a, name), getattr(b, name)
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return f"record {i}: {name} differs"
        for name in fields:
            if np.float64(getattr(a, name)).tobytes() != np.float64(getattr(b, name)).tobytes():
                return f"record {i}: {name} differs"
    return None


# ---------------------------------------------------------------------------
# model


def _hard_sigmoid(x):
    return np.clip(0.2 * x + 0.5, 0.0, 1.0)


_ACTIVATIONS = {
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(x, 0.0),
    "linear": lambda x: x,
    "hard_sigmoid": _hard_sigmoid,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


def oracle_forward(layers, params, seq):
    """Eval-mode forward of one unpadded [T, d] sequence, one step at a time.

    layers: dicts with kind/activation/recurrent_activation (ModelSpec.to_dict
    layer entries); params: per-layer dicts of named arrays. LSTM:
    z = [h, x]; i, f, o = gate(W z + b); c = f c + i act(W_c z + b_c);
    h = o act(c). Dense: act(W x + b). Dropout is the identity in eval mode.
    """
    x = np.asarray(seq, dtype=np.float64)
    for layer, p in zip(layers, params):
        kind = layer["kind"]
        if kind == "dropout":
            continue
        act = _ACTIVATIONS[layer["activation"]]
        if kind == "dense":
            x = act(x @ p["W"].T + p["b"])
            continue
        if kind != "lstm":
            raise ValueError(f"oracle covers lstm/dense/dropout only, not {kind}")
        gate = _ACTIVATIONS[layer["recurrent_activation"]]
        units = p["b_i"].shape[0]
        h = np.zeros(units)
        c = np.zeros(units)
        out = np.empty((x.shape[0], units))
        for t in range(x.shape[0]):
            z = np.concatenate([h, x[t]])
            i = gate(p["W_i"] @ z + p["b_i"])
            f = gate(p["W_f"] @ z + p["b_f"])
            o = gate(p["W_o"] @ z + p["b_o"])
            c = f * c + i * act(p["W_c"] @ z + p["b_c"])
            h = o * act(c)
            out[t] = h
        x = out
    return x


def check_close(name, want, got, tol):
    """Largest absolute difference within tol (shapes must agree)."""
    want = np.asarray(want, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if want.shape != got.shape:
        return f"{name}: shape {got.shape}, expected {want.shape}"
    err = float(np.max(np.abs(want - got))) if want.size else 0.0
    if not err <= tol:
        return f"{name}: off by {err:.3e} (tolerance {tol:g})"
    return None


def check_bitwise(name, want, got):
    want = np.asarray(want, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if want.shape != got.shape or want.tobytes() != got.tobytes():
        return f"{name}: not bitwise equal"
    return None


def check_not_constant(name, values, floor=1e-6):
    """Guards the oracle comparisons against a dead network, where any two
    forwards agree trivially."""
    spread = float(np.ptp(values))
    if not spread > floor:
        return f"{name}: predictions are constant (spread {spread:.3e})"
    return None


# ---------------------------------------------------------------------------
# losses and gradients


def masked_euclidean(pred, target, mask):
    """Mean over sequences of sqrt(sum over valid steps of squared residual)."""
    m = np.asarray(mask, dtype=np.float64)
    r = (np.asarray(pred).reshape(m.shape) - np.asarray(target).reshape(m.shape)) * m
    return float(np.mean(np.sqrt(np.sum(r * r, axis=1))))


def directional_derivative(loss_at, flat, direction, eps):
    """Central difference of loss_at along a unit direction."""
    return (loss_at(flat + eps * direction) - loss_at(flat - eps * direction)) / (2.0 * eps)


def check_directional(analytic, numeric, rel_tol=1e-6, floor=1e-8):
    """Analytic g.v against a central difference; a vanishing g.v proves nothing."""
    if not abs(analytic) > floor:
        return f"directional derivative {analytic:.3e} is too small to check"
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
    if not err <= rel_tol:
        return f"directional derivative {analytic:.9e} vs central difference {numeric:.9e} (rel {err:.2e})"
    return None


def check_loss_ratio(untrained, trained, max_ratio):
    if not (np.isfinite(trained) and trained < max_ratio * untrained):
        return f"validation loss {trained:.4g} not below {max_ratio:g} x untrained {untrained:.4g}"
    return None


_CASE = re.compile(r"^(lstm|gru) (mse|euclidean): max_rel_err=(\S+) \(coord \d+\) (PASS|FAIL)$")


def check_gradcheck_report(exit_code, text, tol=1e-5):
    """Exit 0 and four PASS lines, one per cell x loss, each below tol."""
    if exit_code != 0:
        return f"gradcheck exited {exit_code}"
    cases = {}
    for line in text.splitlines():
        m = _CASE.match(line.strip())
        if m:
            cases[(m.group(1), m.group(2))] = (float(m.group(3)), m.group(4))
    want = {(c, l) for c in ("lstm", "gru") for l in ("mse", "euclidean")}
    if set(cases) != want:
        return f"gradcheck reported cases {sorted(cases)}, expected {sorted(want)}"
    for key, (err, verdict) in sorted(cases.items()):
        if verdict != "PASS" or not err < tol:
            return f"gradcheck {key[0]}/{key[1]}: {verdict} with error {err:.3e}"
    return None
