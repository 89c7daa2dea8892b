"""Quasi-static pouring simulator.

Models an upright cylindrical cup tipped about its lip: at each tilt the cup
retains at most the volume bounded by the plane through the low point of the
rim, and liquid that leaves never comes back. Geometry is in mm, volume in
mm^3, weight in lbf.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import PourRecord, _finite

RHO_WATER = 1000.0  # kg/m^3
GRAVITY = 9.80665  # m/s^2
NEWTON_TO_LBF = 0.2248089431
MM3_TO_M3 = 1e-9
# Thin-wall areal density (kg/m^2) that sets the empty-cup weight from its
# base + lateral surface area.
CUP_SHELL_DENSITY = 0.5


@dataclass(frozen=True)
class CupGeometry:
    """Cylindrical cup interior: radius and height in mm."""

    radius: float
    height: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be > 0 (got {self.radius!r})")
        if not (np.isfinite(self.height) and self.height > 0):
            raise ValueError(f"height must be > 0 (got {self.height!r})")

    @property
    def full_volume(self) -> float:
        """Upright capacity, pi r^2 h (mm^3)."""
        return math.pi * self.radius * self.radius * self.height


def retained_volume(geometry: CupGeometry, tilt_deg):
    """Largest volume (mm^3) the cup retains at a tilt from vertical (degrees).

    Accepts one tilt (returns a float) or an array of tilts (returns an array
    of the same shape). The free surface is the plane through the low point
    of the rim. Three regimes as tilt grows:
      tilt <= 0                 full cylinder,
      tan(tilt) <= H/(2R)       oblique slab cut, pi R^2 (H - R tan(tilt)),
      tan(tilt) >  H/(2R)       hoof-shaped wedge (see ungula_volume),
    and zero at or past horizontal. A tilt so small that its tangent rounds
    to zero keeps the full volume.
    """
    tilt = np.asarray(tilt_deg, dtype=np.float64)
    if not np.all(np.isfinite(tilt)):
        raise ValueError(f"tilt must be finite (got {tilt_deg!r})")
    tan_tilt = np.tan(np.radians(np.where((tilt > 0.0) & (tilt < 90.0), tilt, 0.0)))
    volume = np.where(tilt < 90.0, geometry.full_volume, 0.0)
    live = tan_tilt > 0.0
    volume[live] = ungula_volume(geometry.radius, geometry.height, tan_tilt[live])
    return float(volume) if volume.ndim == 0 else volume


# 16-node Gauss-Legendre rule on [-1, 1]. The wedge integrand below is smooth
# on an interval no longer than pi, so this fixed rule sits at float64
# round-off for every tilt.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def ungula_volume(radius: float, height: float, tan_tilt) -> np.ndarray:
    """Retained volume for an array of tilt tangents, all > 0.

    Slab regime (2 R t <= H): pi R^2 (H - R t). Wedge regime: with the base
    point x = R cos(v), the liquid column there has height
    R t (cos v - cos phi) and the chord half-width is R sin v, where
    sin(phi / 2) = sqrt(H / (2 R t)). Writing cos v - cos phi as a product of
    sines keeps the integrand free of cancellation up to horizontal:
      V = R^3 t * integral_0^phi 4 sin^2 v sin((phi + v)/2) sin((phi - v)/2) dv.
    """
    t = np.asarray(tan_tilt, dtype=np.float64)
    if not np.all(t > 0.0):
        raise ValueError("ungula_volume needs positive tangents")
    out = math.pi * radius * radius * (height - radius * t)
    wedge = t > height / (2.0 * radius)
    tw = t[wedge]
    phi = 2.0 * np.arcsin(np.sqrt(np.minimum(height / (2.0 * radius * tw), 1.0)))
    half = 0.5 * phi
    # Every node's term at once ([16, n]), then summed in node order, so every
    # tilt sees the same sequence of operations whatever the array's length.
    v = half * (_GL_NODES[:, None] + 1.0)
    sin_v = np.sin(v)
    terms = _GL_WEIGHTS[:, None] * sin_v * sin_v * np.sin(0.5 * (phi + v)) * np.sin(0.5 * (phi - v))
    total = np.zeros_like(phi)
    for row in terms:
        total += row
    out[wedge] = 4.0 * radius ** 3 * tw * half * total
    return out


def quasi_static_pour(geometry: CupGeometry, tilt_series, v0: float) -> np.ndarray:
    """Liquid volume after each step of a tilt sequence (degrees, 0 = upright).

    V_t = min(V_{t-1}, retained_volume(tilt_t)) with V_{-1} = v0; spilled
    liquid never returns, so the result is non-increasing regardless of tilt
    wobble.
    """
    if not (np.isfinite(v0) and v0 >= 0):
        raise ValueError(f"initial volume must be >= 0 (got {v0!r})")
    tilts = np.asarray(tilt_series, dtype=np.float64)
    return np.minimum.accumulate(np.minimum(retained_volume(geometry, tilts), float(v0)))


def weight_from_volume(volume, rho_rel: float, f_cup_empty: float):
    """Cup-plus-liquid weight in lbf for a liquid volume in mm^3.

    One liter of water comes out at about 2.2046 lbf of liquid weight.
    """
    v = np.asarray(volume, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("volume must be >= 0")
    liquid_newton = rho_rel * RHO_WATER * GRAVITY * v * MM3_TO_M3
    out = f_cup_empty + liquid_newton * NEWTON_TO_LBF
    if np.isscalar(volume) or getattr(volume, "ndim", 1) == 0:
        return float(out)
    return out


def cup_empty_weight(geometry: CupGeometry) -> float:
    """Empty-cup weight (lbf) from the thin-shell wall model."""
    r_m = geometry.radius * 1e-3
    h_m = geometry.height * 1e-3
    shell_area = math.pi * r_m * r_m + 2.0 * math.pi * r_m * h_m
    return CUP_SHELL_DENSITY * shell_area * GRAVITY * NEWTON_TO_LBF


@dataclass(frozen=True)
class TrajectoryConfig:
    """Shape of the rotation-angle series and the sensor noise level.

    length: inclusive range of sequence lengths (steps).
    ramp_frac: share of steps spent tilting fast, in (0, 0.3].
    final_tilt: range of the hold tilt in degrees, inside (0, 90).
    jitter_deg: zero-mean wobble amplitude during the hold phase, in [0, 90].
    noise_sigma: Gaussian sensor noise on the weight series, lbf.
    """

    length: tuple = (80, 150)
    ramp_frac: float = 0.25
    final_tilt: tuple = (55.0, 85.0)
    jitter_deg: float = 0.5
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.length
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (lo, hi)):
            raise ValueError(f"length bounds must be integers (got {self.length!r})")
        if not (1 <= lo <= hi < 2**63):  # rng.integers(lo, hi + 1) takes highs up to 2**63
            raise ValueError(f"length range must satisfy 1 <= lo <= hi < 2**63 (got {self.length!r})")
        if not (0.0 < self.ramp_frac <= 0.3):
            raise ValueError(f"ramp_frac must lie in (0, 0.3] (got {self.ramp_frac!r})")
        t_lo, t_hi = self.final_tilt
        if not (0.0 < t_lo <= t_hi < 90.0):
            raise ValueError(f"final_tilt range must lie inside (0, 90) (got {self.final_tilt!r})")
        if not (0.0 <= self.jitter_deg <= 90.0):  # NaN fails too; a huge j overflows uniform(-j, j)
            raise ValueError(f"jitter_deg must lie in [0, 90] (got {self.jitter_deg!r})")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0 (got {self.noise_sigma!r})")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrajectoryConfig":
        """A ranges file's trajectory block: length, ramp_frac, final_tilt and
        jitter_deg, each optional. noise_sigma and seed are not file settings;
        any other key raises ValueError."""
        converters = {"length": _pair, "ramp_frac": _number, "final_tilt": _pair, "jitter_deg": _number}
        return cls(**_fields(doc, converters, "trajectory"))


def _number(value) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _pair(value) -> tuple:
    """[lo, hi] as a tuple of two numbers, kept as given (ints stay ints)."""
    pair = tuple(value)
    if len(pair) != 2 or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
        raise ValueError(f"expected [lo, hi] numbers, got {value!r}")
    return pair


def _fields(doc, converters: dict, where: str) -> dict:
    """Each key of a JSON object through its converter. A key without one,
    or a doc that is not an object, raises ValueError; messages name `where`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    out = {}
    for key, value in doc.items():
        if key not in converters:
            raise ValueError(f"unknown {where} key {key!r}")
        try:
            out[key] = converters[key](value)
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
            raise ValueError(f"{where} key {key!r}: {exc}") from exc
    return out


_RANGE_FIELDS = ("d_cm", "h_cm", "d_cup", "h_cup", "rho_rel", "fill_frac")


@dataclass(frozen=True)
class SimRanges:
    """Sampling intervals for the static scalars of a simulated trial.

    d_cm/h_cm (pouring cup, mm) drive the physics; d_cup/h_cup (receiving
    cup, mm) ride along as features. fill_frac is the initial fill as a
    fraction of the pouring cup's capacity.
    """

    d_cm: tuple = (60.0, 110.0)
    h_cm: tuple = (80.0, 150.0)
    d_cup: tuple = (60.0, 115.0)
    h_cup: tuple = (80.0, 150.0)
    rho_rel: tuple = (0.8, 1.2)
    fill_frac: tuple = (0.5, 0.95)

    def __post_init__(self):
        for name in _RANGE_FIELDS:
            lo, hi = getattr(self, name)
            if not (_finite(lo) and _finite(hi) and 0 < lo <= hi):
                raise ValueError(f"{name} range must satisfy 0 < lo <= hi (got {(lo, hi)!r})")
        if self.fill_frac[1] > 1.0:
            raise ValueError("fill_frac must stay <= 1")

    def to_dict(self) -> dict:
        return {name: list(getattr(self, name)) for name in _RANGE_FIELDS}

    @classmethod
    def from_dict(cls, doc: dict) -> "SimRanges":
        """Any of the fields as [lo, hi]; unknown keys raise ValueError."""
        return cls(**_fields(doc, dict.fromkeys(_RANGE_FIELDS, _pair), "ranges"))


def default_ranges() -> SimRanges:
    """Desk-scale cups, the in-distribution regime."""
    return SimRanges()


def wide_cup_ranges() -> SimRanges:
    """Both cups' dimensions doubled, densities and fill unchanged: every
    sampled cup lies outside the default ranges."""
    base = default_ranges()
    return replace(base, **{name: tuple(2.0 * v for v in getattr(base, name))
                            for name in ("d_cm", "h_cm", "d_cup", "h_cup")})


def gen_theta_trajectory(config: TrajectoryConfig, rng: np.random.Generator) -> np.ndarray:
    """Rotation-angle series: a short upright start, a roughly linear ramp
    down to -(final tilt), then a hold with zero-mean jitter.

    The start angle sits within [-2, +2] degrees. The physical tilt used by
    the simulator is clamp(-theta, 0, 90).
    """
    lo, hi = config.length
    length = int(rng.integers(lo, hi + 1))
    final_tilt = float(rng.uniform(*config.final_tilt))
    start = float(rng.uniform(-1.0, 1.0)) * min(config.jitter_deg, 2.0)
    n_ramp = min(max(1, math.ceil(config.ramp_frac * length)), max(1, length - 1))
    steps = np.arange(length, dtype=np.float64)
    theta = start + (-final_tilt - start) * np.minimum(steps, n_ramp) / n_ramp
    hold = length - n_ramp - 1
    if hold > 0 and config.jitter_deg > 0:
        theta[n_ramp + 1 :] += rng.uniform(-config.jitter_deg, config.jitter_deg, size=hold)
    return theta


def generate_dataset(n: int, ranges: SimRanges, config: TrajectoryConfig) -> list:
    """Synthesize n pouring trials.

    Record k draws from its own stream seeded by (config.seed, k), so a record's
    content does not depend on how many records are generated around it.
    Draw order per record: the six static scalars in SimRanges field order,
    then the trajectory, then sensor noise.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n!r})")
    records = []
    for k in range(n):
        rng = np.random.default_rng([config.seed, k])
        d_cm = float(rng.uniform(*ranges.d_cm))
        h_cm = float(rng.uniform(*ranges.h_cm))
        d_cup = float(rng.uniform(*ranges.d_cup))
        h_cup = float(rng.uniform(*ranges.h_cup))
        rho_rel = float(rng.uniform(*ranges.rho_rel))
        fill = float(rng.uniform(*ranges.fill_frac))
        geometry = CupGeometry(radius=d_cm / 2.0, height=h_cm)
        theta = gen_theta_trajectory(config, rng)
        tilt = np.clip(-theta, 0.0, 90.0)
        volumes = quasi_static_pour(geometry, tilt, fill * geometry.full_volume)
        f_empty = cup_empty_weight(geometry)
        clean = weight_from_volume(volumes, rho_rel, f_empty)
        weight = clean + rng.normal(0.0, config.noise_sigma or 0.0, size=clean.shape[0]) \
            if config.noise_sigma > 0 else clean.copy()
        records.append(
            PourRecord(
                theta=theta,
                weight=weight,
                f_init=float(clean[0]),
                f_empty=f_empty,
                f_final=float(clean[-1]),
                d_cup=d_cup,
                h_cup=h_cup,
                d_cm=d_cm,
                h_cm=h_cm,
                rho_rel=rho_rel,
            )
        )
    return records
