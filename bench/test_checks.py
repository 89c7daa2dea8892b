"""Each benchmark check accepts the program's real output and rejects a
deliberately wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from pournet.data import PaddedBatch  # noqa: E402
from pournet.grad import backward, frozen_dropout_masks  # noqa: E402
from pournet.nn import ModelParams, build_model, forward, model_forward, reference_model  # noqa: E402
from pournet.simulate import TrajectoryConfig, default_ranges, generate_dataset  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    return generate_dataset(6, default_ranges(), TrajectoryConfig(length=(80, 300), seed=5))


@pytest.fixture(scope="module")
def model_case():
    rng = np.random.default_rng(3)
    spec = reference_model(output_activation="linear")
    params = ModelParams.from_flat(spec, build_model(spec, 1).flatten() + rng.normal(0.0, 0.05, 9186))
    n, t_len = 3, 20
    mask = np.ones((n, t_len))
    mask[1, 14:] = 0.0
    features = rng.normal(0.0, 1.0, (n, t_len, 9)) * mask[..., None]
    targets = rng.normal(0.5, 0.2, (n, t_len, 1)) * mask[..., None]
    batch = PaddedBatch(features, targets, mask, np.array([20, 14, 20]))
    return spec, params, batch


def test_pour_weights_accept_simulator_and_reject_volume_off_by_1e4(corpus):
    for record in corpus:
        assert checks.check_pour_weights(record) is None
    bad = copy.copy(corpus[2])
    liquid = bad.weight - bad.f_empty
    bad.weight = bad.f_empty + liquid * (1.0 + 1e-4)
    assert checks.check_pour_weights(bad) is not None


def test_closed_form_volume_matches_slab_and_limits():
    r, h = 30.0, 100.0
    tilt = np.degrees(np.arctan(0.5 * h / (2.0 * r)))
    slab = np.pi * r * r * (h - r * np.tan(np.radians(tilt)))
    got = checks.retained_volume_closed_form(r, h, np.array([0.0, tilt, 90.0]))
    assert got[0] == np.pi * r * r * h and got[2] == 0.0
    assert abs(got[1] - slab) <= 1e-9 * slab


def test_records_equal_rejects_one_changed_value(corpus):
    assert checks.check_records_equal(corpus, corpus) is None
    changed = [copy.copy(r) for r in corpus]
    changed[4].theta = changed[4].theta.copy()
    changed[4].theta[7] = np.nextafter(changed[4].theta[7], 0.0)
    assert checks.check_records_equal(corpus, changed) is not None
    scalar = [copy.copy(r) for r in corpus]
    scalar[0].rho_rel = np.nextafter(scalar[0].rho_rel, 2.0)
    assert checks.check_records_equal(corpus, scalar) is not None
    assert checks.check_records_equal(corpus, corpus[:-1]) is not None


def test_oracle_forward_matches_model_and_rejects_perturbed_prediction(model_case):
    spec, params, batch = model_case
    preds = model_forward(params, batch, mode="eval")
    layers = spec.to_dict()["layers"]
    arrays = [{} if p is None else {n: getattr(p, n) for n in p.FIELDS} for p in params.layers]
    want = checks.oracle_forward(layers, arrays, batch.features[1, :14])
    assert checks.check_close("oracle", want, preds[1, :14], 1e-9) is None
    wrong = preds[1, :14].copy()
    wrong[5, 0] += 1e-8
    assert checks.check_close("oracle", want, wrong, 1e-9) is not None


def test_chunk_tolerance_rejects_perturbed_prediction(model_case):
    _, params, batch = model_case
    preds = model_forward(params, batch, mode="eval")
    alone = model_forward(params, batch.take([1]), mode="eval")
    assert checks.check_close("alone", alone[0, :14], preds[1, :14], 1e-12) is None
    assert checks.check_close("alone", alone[0, :14] + 1e-11, preds[1, :14], 1e-12) is not None
    assert checks.check_close("alone", alone[0, :13], preds[1, :14], 1e-12) is not None


def test_bitwise_rejects_one_ulp(model_case):
    _, params, _ = model_case
    flat = params.flatten()
    other = flat.copy()
    other[100] = np.nextafter(other[100], np.inf)
    assert checks.check_bitwise("params", flat, flat.copy()) is None
    assert checks.check_bitwise("params", flat, other) is not None


def test_constant_predictions_are_rejected():
    assert checks.check_not_constant("p", np.array([0.1, 0.3])) is None
    assert checks.check_not_constant("p", np.zeros(5)) is not None


def test_directional_derivative_accepts_backprop_and_rejects_flipped_sign(model_case):
    spec, params, batch = model_case
    masks = frozen_dropout_masks(spec, batch, np.random.default_rng(0))
    loss, grad = backward(params, batch, "euclidean", mode="train", dropout_masks=masks)

    def loss_at(flat):
        preds, _ = forward(ModelParams.from_flat(spec, flat), batch.features, batch.mask,
                           mode="train", dropout_masks=masks)
        return checks.masked_euclidean(preds, batch.targets, batch.mask)

    flat = params.flatten()
    assert abs(loss_at(flat) - loss) <= 1e-12
    v = np.random.default_rng(1).standard_normal(flat.size)
    v /= np.linalg.norm(v)
    numeric = checks.directional_derivative(loss_at, flat, v, 1e-5)
    assert checks.check_directional(float(grad @ v), numeric) is None
    flipped = grad.copy()
    flipped[np.argmax(np.abs(grad))] *= -1.0
    assert checks.check_directional(float(flipped @ v), numeric) is not None
    assert checks.check_directional(0.0, 0.0) is not None


def test_loss_ratio():
    assert checks.check_loss_ratio(2.0, 0.9, 0.5) is None
    assert checks.check_loss_ratio(2.0, 1.1, 0.5) is not None
    assert checks.check_loss_ratio(2.0, float("nan"), 1.0) is not None


REPORT = """# h=1e-05 tol=1e-05 seed=0
lstm mse: max_rel_err=4.991e-07 (coord 80) PASS
lstm euclidean: max_rel_err=1.135e-07 (coord 80) PASS
gru mse: max_rel_err=3.175e-07 (coord 125) PASS
gru euclidean: max_rel_err=3.165e-07 (coord 54) PASS
"""


def test_gradcheck_report():
    assert checks.check_gradcheck_report(0, REPORT) is None
    assert checks.check_gradcheck_report(3, REPORT) is not None
    assert checks.check_gradcheck_report(0, REPORT.replace("3.165e-07", "2.000e-05")) is not None
    assert checks.check_gradcheck_report(0, REPORT.replace("(coord 54) PASS", "(coord 54) FAIL")) is not None
    assert checks.check_gradcheck_report(0, "\n".join(REPORT.splitlines()[:-1])) is not None
