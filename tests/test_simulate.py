"""Physics oracle tests: closed forms, an independent quadrature route, invariants."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pournet
from pournet import simulate
from pournet.simulate import (
    CupGeometry,
    SimRanges,
    TrajectoryConfig,
    cup_empty_weight,
    default_ranges,
    gen_theta_trajectory,
    generate_dataset,
    quasi_static_pour,
    retained_volume,
    weight_from_volume,
    wide_cup_ranges,
)


def test_full_cylinder_at_zero_tilt():
    g = CupGeometry(radius=1.0, height=2.0)
    assert retained_volume(g, 0.0) == pytest.approx(2.0 * np.pi, rel=1e-12)


def test_slab_regime_boundary_is_pi():
    # tan(45 deg) = 1 = H/(2R): the free surface grazes the base rim.
    g = CupGeometry(radius=1.0, height=2.0)
    assert retained_volume(g, 45.0) == pytest.approx(np.pi, rel=1e-9)


def test_hoof_closed_form():
    # Plane through a base diameter: V = (2/3) R^2 H, at tan(theta) = H/R.
    g = CupGeometry(radius=1.0, height=2.0)
    tilt = np.degrees(np.arctan(2.0))
    assert retained_volume(g, tilt) == pytest.approx(4.0 / 3.0, rel=1e-6)
    g2 = CupGeometry(radius=35.0, height=110.0)
    tilt2 = np.degrees(np.arctan(110.0 / 35.0))
    expect = (2.0 / 3.0) * 35.0**2 * 110.0
    assert retained_volume(g2, tilt2) == pytest.approx(expect, rel=1e-6)


def test_slab_formula_many_random_geometries():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        r = rng.uniform(10.0, 80.0)
        h = rng.uniform(20.0, 160.0)
        # stay strictly inside the slab regime
        tilt = np.degrees(np.arctan(rng.uniform(0.01, 0.99) * h / (2.0 * r)))
        got = retained_volume(CupGeometry(radius=r, height=h), tilt)
        want = np.pi * r * r * (h - r * np.tan(np.radians(tilt)))
        assert got == pytest.approx(want, rel=1e-8)


def test_deep_regime_against_midpoint_rule():
    # Independent oracle: brute-force midpoint sum over the ungula cross
    # sections, no shared code with the Gauss-Legendre route.
    cases = [(1.0, 2.0, 70.0), (35.0, 110.0, 80.0), (50.0, 90.0, 55.0), (20.0, 140.0, 77.0)]
    for r, h, tilt in cases:
        tan_t = np.tan(np.radians(tilt))
        assert tan_t > h / (2.0 * r), "case must sit in the deep regime"
        a = r - h / tan_t
        x = np.linspace(a, r, 400_001)
        mid = 0.5 * (x[1:] + x[:-1])
        depth = h - (r - mid) * tan_t
        width = 2.0 * np.sqrt(np.maximum(r * r - mid * mid, 0.0))
        oracle = float(np.sum(depth * width) * (x[1] - x[0]))
        got = retained_volume(CupGeometry(radius=r, height=h), tilt)
        assert got == pytest.approx(oracle, rel=1e-6)


def test_retained_volume_monotone_sweep():
    g = CupGeometry(radius=30.0, height=100.0)
    tilts = np.linspace(0.0, 90.0, 361)
    vols = [retained_volume(g, t) for t in tilts]
    assert vols[0] == pytest.approx(g.full_volume, rel=1e-12)
    assert vols[-1] == 0.0
    diffs = np.diff(vols)
    assert np.all(diffs <= 1e-9 * g.full_volume)


def test_regime_boundary_continuity():
    g = CupGeometry(radius=40.0, height=120.0)
    boundary = np.degrees(np.arctan(g.height / (2.0 * g.radius)))
    lo = retained_volume(g, boundary - 1e-7)
    hi = retained_volume(g, boundary + 1e-7)
    assert hi == pytest.approx(lo, rel=1e-7)


def test_negative_and_post_horizontal_tilt():
    g = CupGeometry(radius=10.0, height=50.0)
    assert retained_volume(g, -15.0) == pytest.approx(g.full_volume, rel=1e-12)
    assert retained_volume(g, 90.0) == 0.0
    assert retained_volume(g, 120.0) == 0.0
    # tan(radians(5e-324)) rounds to 0: a subnormal tilt keeps everything
    assert retained_volume(g, 5e-324) == g.full_volume
    with pytest.raises(ValueError):
        retained_volume(g, float("nan"))
    with pytest.raises(ValueError):
        retained_volume(g, np.array([10.0, np.inf]))


@pytest.mark.parametrize("radius, height", [(25.0, 90.0), (1.0, 2.0), (55.0, 80.0), (5.0, 150.0)])
def test_near_horizontal_tilts_stay_in_range(radius, height):
    g = CupGeometry(radius=radius, height=height)
    tilts = 90.0 - 10.0 ** -np.arange(1.0, 15.0)
    vols = retained_volume(g, tilts)
    assert np.all(vols >= 0.0)
    assert np.all(vols <= g.full_volume)
    assert np.all(np.diff(vols) <= 0.0)


def test_array_call_equals_scalar_calls_bitwise():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = CupGeometry(radius=rng.uniform(5.0, 80.0), height=rng.uniform(10.0, 160.0))
        tilts = np.concatenate([rng.uniform(-5.0, 95.0, 200), 90.0 - 10.0 ** -np.arange(1.0, 15.0),
                                [0.0, 5e-324, 45.0, 90.0]])
        scalars = [retained_volume(g, float(t)) for t in tilts]
        assert all(isinstance(v, float) for v in scalars)
        assert retained_volume(g, tilts).tobytes() == np.array(scalars).tobytes()


def _ungula_node_by_node(radius, height, tw):
    """The wedge-regime quadrature with one Gauss-Legendre node at a time: the
    loop that ungula_volume's [16, n] broadcast must reproduce bit for bit."""
    phi = 2.0 * np.arcsin(np.sqrt(np.minimum(height / (2.0 * radius * tw), 1.0)))
    half = 0.5 * phi
    total = np.zeros_like(phi)
    for node, weight in zip(*np.polynomial.legendre.leggauss(16)):
        v = half * (node + 1.0)
        sin_v = np.sin(v)
        total += weight * sin_v * sin_v * np.sin(0.5 * (phi + v)) * np.sin(0.5 * (phi - v))
    return 4.0 * radius ** 3 * tw * half * total


def test_ungula_volume_equals_node_by_node_quadrature_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(20):
        radius, height = rng.uniform(5.0, 80.0), rng.uniform(10.0, 160.0)
        tw = height / (2.0 * radius) * np.concatenate([1.0 + rng.exponential(3.0, 301), [1.0 + 1e-15, 1e15]])
        got = simulate.ungula_volume(radius, height, tw)
        assert got.tobytes() == _ungula_node_by_node(radius, height, tw).tobytes()


@given(tilt_a=st.floats(0.0, 90.0), tilt_b=st.floats(0.0, 90.0))
@settings(max_examples=60, deadline=None)
def test_retained_volume_pairwise_monotone(tilt_a, tilt_b):
    g = CupGeometry(radius=25.0, height=90.0)
    lo, hi = sorted((tilt_a, tilt_b))
    assert retained_volume(g, hi) <= retained_volume(g, lo) + 1e-9 * g.full_volume


def test_quasi_static_pour_example():
    g = CupGeometry(radius=1.0, height=2.0)
    v0 = 2.0 * np.pi
    series = quasi_static_pour(g, [0.0, 0.0, np.degrees(np.arctan(2.0))], v0)
    assert series[0] == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert series[1] == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert series[2] == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_pour_is_a_running_min():
    g = CupGeometry(radius=20.0, height=80.0)
    half = 0.5 * g.full_volume
    # constant upright: nothing leaves
    flat = quasi_static_pour(g, [0.0] * 5, half)
    assert np.allclose(flat, half, rtol=0, atol=0)
    # tilt out and back: volume must stay at its minimum
    spill = quasi_static_pour(g, [0.0, 40.0, 70.0, 30.0, 0.0], g.full_volume)
    assert np.all(np.diff(spill) <= 0.0)
    assert spill[-1] == spill[2]
    # bitwise a running minimum of the per-step capacities, started at v0
    tilts = np.random.default_rng(3).uniform(-5.0, 95.0, size=300)
    level, expect = 0.9 * g.full_volume, []
    for tilt in tilts:
        level = min(level, retained_volume(g, float(tilt)))
        expect.append(level)
    assert quasi_static_pour(g, tilts, 0.9 * g.full_volume).tobytes() == np.array(expect).tobytes()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pour_bounded_and_non_increasing(seed):
    rng = np.random.default_rng(seed)
    g = CupGeometry(radius=rng.uniform(10, 60), height=rng.uniform(30, 150))
    v0 = rng.uniform(0.0, 1.0) * g.full_volume
    tilts = rng.uniform(0.0, 90.0, size=12)
    series = quasi_static_pour(g, tilts, v0)
    assert np.all(series <= v0 + 1e-12)
    assert np.all(series >= 0.0)
    assert np.all(np.diff(series) <= 1e-12)


def test_weight_conversion_constants():
    # 1 liter of water weighs 9.80665 N = 2.2046 lbf.
    assert weight_from_volume(0.0, 1.0, 0.75) == 0.75
    got = weight_from_volume(1e6, 1.0, 0.0)
    assert got == pytest.approx(2.2046226218, rel=1e-9)
    # linearity in volume
    base = weight_from_volume(3e5, 1.1, 0.5) - 0.5
    twice = weight_from_volume(6e5, 1.1, 0.5) - 0.5
    assert twice == pytest.approx(2.0 * base, rel=1e-12)
    with pytest.raises(ValueError):
        weight_from_volume(-1.0, 1.0, 0.0)


def test_cup_empty_weight_positive_and_monotone():
    small = cup_empty_weight(CupGeometry(radius=20.0, height=60.0))
    big = cup_empty_weight(CupGeometry(radius=40.0, height=120.0))
    assert 0.0 < small < big


def test_trajectory_closed_form():
    config = TrajectoryConfig(length=(10, 10), ramp_frac=0.3, final_tilt=(60.0, 60.0),
                              jitter_deg=0.0, seed=0)
    theta = gen_theta_trajectory(config, np.random.default_rng(0))
    expect = np.array([0.0, -20.0, -40.0, -60.0, -60.0, -60.0, -60.0, -60.0, -60.0, -60.0])
    assert np.allclose(theta, expect, rtol=0, atol=1e-12)


def test_trajectory_shape_and_determinism():
    config = TrajectoryConfig(seed=11)
    a = gen_theta_trajectory(config, np.random.default_rng(11))
    b = gen_theta_trajectory(config, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert config.length[0] <= len(a) <= config.length[1]
    assert -2.0 <= a[0] <= 2.0
    # ends tilted well past the start
    assert a[-1] < -(config.final_tilt[0] - config.jitter_deg - 1e-9)


def test_trajectory_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(ramp_frac=0.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(ramp_frac=0.5)
    with pytest.raises(ValueError):
        TrajectoryConfig(final_tilt=(0.0, 60.0))
    with pytest.raises(ValueError):
        TrajectoryConfig(final_tilt=(60.0, 95.0))
    with pytest.raises(ValueError):
        TrajectoryConfig(jitter_deg=-1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(length=(0, 10))
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sigma"):
            TrajectoryConfig(noise_sigma=sigma)


def test_generate_dataset_basic():
    records = generate_dataset(5, default_ranges(), TrajectoryConfig(seed=1))
    assert len(records) == 5
    for rec in records:
        assert TrajectoryConfig().length[0] <= rec.length <= TrajectoryConfig().length[1]


def test_generate_noise_free_is_monotone():
    records = generate_dataset(6, default_ranges(), TrajectoryConfig(seed=2, noise_sigma=0.0))
    for rec in records:
        assert np.all(np.diff(rec.weight) <= 1e-12)
        assert rec.f_final == rec.weight[-1]
        assert rec.f_init == rec.weight[0]
        assert np.all(rec.weight >= rec.f_empty - 1e-12)
        assert np.all(rec.weight <= rec.f_init + 1e-12)


def test_generate_determinism():
    a = generate_dataset(4, default_ranges(), TrajectoryConfig(seed=9))
    b = generate_dataset(4, default_ranges(), TrajectoryConfig(seed=9))
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.theta, rb.theta)
        assert np.array_equal(ra.weight, rb.weight)
        assert ra.d_cm == rb.d_cm and ra.rho_rel == rb.rho_rel


def test_wide_ranges_leave_default_interval():
    wide = wide_cup_ranges()
    lo, hi = default_ranges().d_cm
    assert wide.d_cm[0] > hi or wide.d_cm[1] < lo
    records = generate_dataset(8, wide, TrajectoryConfig(seed=3))
    for rec in records:
        assert not (lo <= rec.d_cm <= hi)


def test_sim_ranges_validation_and_round_trip():
    with pytest.raises(ValueError):
        SimRanges(d_cm=(110.0, 60.0))
    with pytest.raises(ValueError):
        SimRanges(fill_frac=(0.5, 1.2))
    ranges = default_ranges()
    again = SimRanges.from_dict(ranges.to_dict())
    assert again == ranges


_NO_SCIPY = """
import importlib, pkgutil, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
    raise SystemExit("the scipy block did not take effect")
except ImportError:
    pass
import pournet
names = [info.name for info in pkgutil.iter_modules(pournet.__path__)]
for name in names:
    importlib.import_module("pournet." + name)
print(" ".join(sorted(names)))
"""


def test_package_imports_without_scipy():
    src = str(Path(pournet.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert {"cli", "grad", "nn", "simulate", "train"} <= set(done.stdout.split())
