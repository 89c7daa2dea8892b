"""Masked loss values, their gradients, and mask gating."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pournet.losses import LOSS_KINDS, loss_and_grad, loss_value, loss_values, per_sequence_metric


def test_mse_frozen_example():
    pred = np.array([1.0, 2.0])
    target = np.zeros(2)
    mask = np.ones(2)
    assert loss_value("mse", pred, target, mask) == pytest.approx(2.5, rel=0, abs=1e-15)


def test_mse_perfect_and_gated():
    pred = np.array([[0.3, -0.7, 9.9]])
    target = np.array([[0.3, -0.7, 0.0]])
    mask = np.array([[1.0, 1.0, 0.0]])
    assert loss_value("mse", pred, target, mask) == 0.0
    # garbage under the mask contributes nothing
    pred2 = pred.copy()
    pred2[0, 2] = -1e9
    assert loss_value("mse", pred2, target, mask) == 0.0


def test_euclidean_frozen_examples():
    # one sequence, residuals (1, 2, 2) -> sqrt(9) = 3
    pred = np.array([[1.0, 2.0, 2.0]])
    target = np.zeros((1, 3))
    mask = np.ones((1, 3))
    assert loss_value("euclidean", pred, target, mask) == pytest.approx(3.0, abs=1e-15)
    # two sequences with distances 3 and 4 -> mean 3.5
    pred = np.array([[1.0, 2.0, 2.0], [0.0, 4.0, 0.0]])
    target = np.zeros((2, 3))
    mask = np.ones((2, 3))
    assert loss_value("euclidean", pred, target, mask) == pytest.approx(3.5, abs=1e-15)
    assert loss_value("euclidean", target, target, mask) == 0.0


def test_empty_mask_errors():
    with pytest.raises(ValueError):
        loss_value("mse", np.ones(3), np.ones(3), np.zeros(3))
    # one sequence fully padded
    mask = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        loss_value("euclidean", np.ones((2, 2)), np.zeros((2, 2)), mask)


def test_duplicating_sequences_keeps_euclidean_mean():
    rng = np.random.default_rng(0)
    pred = rng.normal(0, 1, size=(3, 6))
    target = rng.normal(0, 1, size=(3, 6))
    mask = np.ones((3, 6))
    mask[1, 4:] = 0.0
    base = loss_value("euclidean", pred, target, mask)
    doubled = loss_value("euclidean", np.vstack([pred, pred]), np.vstack([target, target]),
                               np.vstack([mask, mask]))
    assert doubled == pytest.approx(base, rel=1e-15)


def test_per_sequence_metric():
    pred = np.array([[1.0, 2.0, 2.0], [0.0, 4.0, 0.0]])
    target = np.zeros((2, 3))
    mask = np.ones((2, 3))
    dists = per_sequence_metric("euclidean", pred, target, mask)
    assert np.allclose(dists, [3.0, 4.0], atol=1e-15)
    sses = per_sequence_metric("mse", pred, target, mask)
    assert np.allclose(sses, [3.0, 16.0 / 3.0], atol=1e-14)


@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["mse", "euclidean"]))
@settings(max_examples=60, deadline=None)
def test_loss_gradients_match_finite_differences(seed, kind):
    rng = np.random.default_rng(seed)
    n, t_len = 2, 5
    pred = rng.normal(0, 1, size=(n, t_len, 1))
    target = rng.normal(0, 1, size=(n, t_len, 1))
    mask = np.ones((n, t_len))
    mask[1, 3:] = 0.0
    value, grad = loss_and_grad(kind, pred, target, mask)
    h = 1e-6
    for s, t in [(0, 0), (0, 4), (1, 2), (1, 4)]:
        bump = pred.copy()
        bump[s, t, 0] += h
        dip = pred.copy()
        dip[s, t, 0] -= h
        lo = loss_value(kind, dip, target, mask)
        hi = loss_value(kind, bump, target, mask)
        fd = (hi - lo) / (2 * h)
        assert grad[s, t, 0] == pytest.approx(fd, abs=1e-7)


def test_gradient_is_zero_under_mask():
    rng = np.random.default_rng(1)
    pred = rng.normal(0, 1, size=(2, 4, 1))
    target = rng.normal(0, 1, size=(2, 4, 1))
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    for kind in ("mse", "euclidean"):
        _, grad = loss_and_grad(kind, pred, target, mask)
        assert np.all(grad[0, 2:] == 0.0)


def test_euclidean_gradient_zero_distance_sequence():
    # pred == target on one sequence: d_s = 0 must not divide by zero
    pred = np.array([[0.5, 0.5], [1.0, 2.0]])[:, :, None]
    target = np.array([[0.5, 0.5], [0.0, 0.0]])[:, :, None]
    mask = np.ones((2, 2))
    value, grad = loss_and_grad("euclidean", pred, target, mask)
    assert np.isfinite(grad).all()
    assert np.all(grad[0] == 0.0)


def test_mse_gradient_linearity_in_residual():
    rng = np.random.default_rng(2)
    target = rng.normal(0, 1, size=(2, 3, 1))
    resid = rng.normal(0, 1, size=(2, 3, 1))
    mask = np.ones((2, 3))
    _, g_pos = loss_and_grad("mse", target + resid, target, mask)
    _, g_neg = loss_and_grad("mse", target - resid, target, mask)
    assert np.allclose(g_neg, -g_pos, rtol=1e-12, atol=1e-15)
    _, g_zero = loss_and_grad("mse", target, target, mask)
    assert np.all(g_zero == 0.0)


def _spelled_out_loss(kind, pred, target, mask) -> float:
    """Each loss written out on one prediction set: mse sums the n x T squared
    residuals as one flat array, euclidean sums over T and then takes the mean
    over n."""
    r = (pred.reshape(mask.shape) - target.reshape(mask.shape)) * mask
    if kind == "mse":
        return float((r * r).sum() / mask.sum())
    return float(np.sqrt((r * r).sum(axis=1)).mean())


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("n", [1, 2, 33])
def test_stacked_losses_equal_each_copy_alone_bitwise(kind, n):
    rng = np.random.default_rng(n)
    copies, t_len = 6, 9
    preds = rng.normal(0, 1, size=(copies, n, t_len, 1))
    target = rng.normal(0, 1, size=(n, t_len, 1))
    mask = np.ones((n, t_len))
    mask[-1, 3:6] = 0.0  # an interior hole
    mask[0, 7:] = 0.0
    preds[:, -1, 4, 0] = 1e300  # garbage under the hole
    preds[2, 0, 1, 0] = np.nan  # one copy's valid prediction is not finite
    values = loss_values(kind, preds, target, mask)
    assert values.shape == (copies,)
    for k in range(copies):
        alone = loss_value(kind, preds[k], target, mask)
        assert values[k].tobytes() == np.float64(alone).tobytes()
        assert values[k].tobytes() == np.float64(_spelled_out_loss(kind, preds[k], target, mask)).tobytes()
    assert np.isnan(values[2])
    assert np.isfinite(np.delete(values, 2)).all()
    assert loss_values(kind, preds[3:4], target, mask).tobytes() == values[3:4].tobytes()


@pytest.mark.parametrize("kind, empty", [("mse", slice(None)), ("euclidean", 1)])
def test_stacked_losses_reject_an_empty_mask(kind, empty):
    mask = np.ones((2, 3))
    mask[empty] = 0.0  # mse needs one valid step in all; euclidean one in every sequence
    with pytest.raises(ValueError):
        loss_values(kind, np.ones((4, 2, 3, 1)), np.zeros((2, 3, 1)), mask)
