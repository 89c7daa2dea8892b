"""Adam update arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pournet.errors import NumericalError
from pournet.optim import AdamState, adam_step


def test_zero_gradient_leaves_params():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros(3)
    new, state = adam_step(params, np.zeros(3), state, lr=1e-4)
    assert np.array_equal(new, params)
    assert state.t == 1


def test_unit_gradient_first_step():
    params = np.zeros(1)
    new, _ = adam_step(params, np.ones(1), AdamState.zeros(1), lr=1e-4)
    # bias correction makes m_hat = v_hat = 1 at t=1
    assert new[0] == pytest.approx(-1e-4 / (1.0 + 1e-8), rel=1e-12)


def test_first_step_magnitude_band():
    # For any constant g != 0, |delta| = lr/(1 + eps/sqrt(v_hat)) in (lr(1-1e-6), lr]
    rng = np.random.default_rng(0)
    g = rng.uniform(0.01, 50.0, size=64) * np.sign(rng.normal(size=64))
    params = rng.normal(0, 1, size=64)
    new, _ = adam_step(params, g, AdamState.zeros(64), lr=1e-3)
    delta = np.abs(new - params)
    assert np.all(delta <= 1e-3 + 1e-18)
    assert np.all(delta >= 1e-3 * (1.0 - 1e-6))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_first_step_opposes_gradient(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(0, 1, size=8)
    g[np.abs(g) < 1e-3] = 1e-3  # keep signs meaningful
    params = rng.normal(0, 1, size=8)
    new, _ = adam_step(params, g, AdamState.zeros(8), lr=1e-2)
    assert np.all(np.sign(new - params) == -np.sign(g))


def test_symmetric_coordinates_move_identically():
    params = np.array([0.5, 0.5])
    g = np.array([2.0, 2.0])
    state = AdamState.zeros(2)
    for _ in range(2):
        params, state = adam_step(params, g, state, lr=1e-3)
    assert params[0] == params[1]


def test_inputs_not_mutated():
    params = np.array([1.0, 2.0])
    grads = np.array([0.5, -0.5])
    state = AdamState.zeros(2)
    adam_step(params, grads, state, lr=1e-3)
    assert np.array_equal(params, [1.0, 2.0])
    assert np.array_equal(grads, [0.5, -0.5])
    assert state.t == 0 and np.all(state.m == 0.0)


def test_moment_recursions():
    g = np.array([3.0])
    _, s1 = adam_step(np.zeros(1), g, AdamState.zeros(1), lr=1e-3)
    assert s1.m[0] == pytest.approx(0.1 * 3.0, rel=1e-12)
    assert s1.v[0] == pytest.approx(0.001 * 9.0, rel=1e-12)
    _, s2 = adam_step(np.zeros(1), g, s1, lr=1e-3)
    assert s2.t == 2
    assert s2.m[0] == pytest.approx(0.9 * s1.m[0] + 0.1 * 3.0, rel=1e-12)


def test_validation_and_divergence():
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(3), AdamState.zeros(2), lr=1e-3)
    with pytest.raises(NumericalError):
        adam_step(np.zeros(1), np.array([np.inf]), AdamState.zeros(1), lr=1e-3)
