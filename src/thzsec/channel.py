"""Deterministic channel gains: line-of-sight to Bob and single-scatter
non-line-of-sight to Eve.

Geometry convention (mirror-normalised so the eavesdropper sits at y > 0):
Alice is at (0, 0), Bob at (d, 0), Eve at (x, y).  A scatterer on the beam
axis at (l, 0) scatters by the angle whose cosine is

    mu(l) = (x - l) / sqrt((x - l)^2 + y^2).

Eve's boresight is described by the steering angle ``alpha`` in (0, pi):
the direction angle of the aim-point -> Eve vector measured from the +x
axis, so the boresight ray from Eve is -(cos(alpha), sin(alpha)) and
alpha = pi/2 aims straight down at the foot point (x, 0).  For a scatterer
inside the field of view the receiving aperture subtends

    Omega(l) = A * max(0, (x - l) cos(alpha) + y sin(alpha)) / r^3,

clamped at zero because a scatterer behind the aperture plane contributes
nothing.  The single-scatter gain integrates Omega * p(mu) * alpha_am *
exp(-alpha_am * (l + r)) over the axis segment visible in the FOV cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .atmosphere import ExtinctionBreakdown
from .numerics import (
    adaptive_gauss_kronrod,
    batched_gauss_kronrod,
    batched_golden_section_max,
    golden_section_max,
)

__all__ = [
    "EmptySegment",
    "ReceiverParams",
    "LinkScenario",
    "ScatteringParams",
    "ChannelGains",
    "los_gain",
    "phase_function",
    "scattering_segment",
    "nlos_gain",
    "optimize_steering",
    "nlos_gain_field",
    "compute_channel_gains",
]

STEERING_XTOL_RAD = 1e-4
QUAD_REL_TOL = 1e-8
QUAD_ABS_TOL = 1e-30
QUAD_MAX_PANELS = 2048
_COARSE_STEERING_POINTS = 24
_FIELD_CHUNK = 512  # positions per batch of nlos_gain_field


class EmptySegment(ValueError):
    """The field-of-view cone misses the beam axis segment [0, d]."""


@dataclass(frozen=True)
class ReceiverParams:
    """Aperture, field of view and detection parameters of one receiver."""

    aperture_d: float = 0.05
    fov_full_rad: float = math.radians(10.0)
    efficiency: float = 0.1
    integration_time_s: float = 1e-10
    background_count: float = 0.01

    def __post_init__(self):
        if self.aperture_d <= 0:
            raise ValueError(f"aperture_d must be > 0, got {self.aperture_d}")
        if not 0.0 < self.fov_full_rad <= math.pi:
            raise ValueError(
                f"fov_full_rad must be in (0, pi], got {self.fov_full_rad}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.integration_time_s <= 0:
            raise ValueError(
                f"integration_time_s must be > 0, got {self.integration_time_s}"
            )
        if self.background_count < 0:
            raise ValueError(
                f"background_count must be >= 0, got {self.background_count}"
            )

    @property
    def area(self) -> float:
        """Effective receiving area A = pi * D^2 / 4."""
        return math.pi * self.aperture_d**2 / 4.0


@dataclass(frozen=True)
class LinkScenario:
    """Link geometry and transmit parameters; Alice at (0,0), Bob at (d,0)."""

    freq_hz: float = 340e9
    d: float = 1000.0
    eve_xy: Tuple[float, float] = (750.0, 30.0)
    alpha_a: float = 0.02  # full beam divergence, rad
    tx_power_w: float = 0.01
    bob: ReceiverParams = ReceiverParams()
    eve: ReceiverParams = ReceiverParams()

    def __post_init__(self):
        if self.freq_hz <= 0:
            raise ValueError(f"freq_hz must be > 0, got {self.freq_hz}")
        if self.d <= 0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if self.alpha_a <= 0:
            raise ValueError(f"alpha_a must be > 0, got {self.alpha_a}")
        if self.tx_power_w <= 0:
            raise ValueError(f"tx_power_w must be > 0, got {self.tx_power_w}")
        if self.eve_xy[1] == 0:
            raise ValueError("eve_xy y-coordinate must be nonzero")

    def with_eve_at(self, x: float, y: float) -> "LinkScenario":
        return replace(self, eve_xy=(x, y))


@dataclass(frozen=True)
class ScatteringParams:
    """Generalised Henyey-Greenstein parameters for the turbulent medium."""

    g: float = 0.9
    f: float = 0.5

    def __post_init__(self):
        if not -1.0 < self.g < 1.0:
            raise ValueError(f"asymmetry factor g must satisfy |g| < 1, got {self.g}")
        if self.f < 0:
            raise ValueError(f"forward-fraction f must be >= 0, got {self.f}")
        # p(mu) must stay nonnegative over the whole angular range
        mu = np.linspace(-1.0, 1.0, 2001)
        if np.min(_phase_values(mu, self.g, self.f)) < 0:
            raise ValueError(
                f"phase function goes negative for g={self.g}, f={self.f}"
            )


@dataclass(frozen=True)
class ChannelGains:
    """Deterministic gains for one scenario, after steering optimisation."""

    g_los: float
    g_nlos: float
    steering_rad: float
    seg: Optional[Tuple[float, float]]


def los_gain(scenario: LinkScenario, ext: ExtinctionBreakdown) -> float:
    """Line-of-sight gain G_LOS = 4 A exp(-alpha_att d) / (pi d^2 alpha_A^2).

    The divergence factor G_D = 4A/(pi d^2 alpha_A^2) times the atmospheric
    factor G_F = exp(-alpha_att d).
    """
    g_d = 4.0 * scenario.bob.area / (math.pi * scenario.d**2 * scenario.alpha_a**2)
    return g_d * math.exp(-ext.alpha_att * scenario.d)


def _phase_values(mu, g: float, f: float):
    hg = (1.0 + g * g - 2.0 * g * np.asarray(mu)) ** -1.5
    corr = f * (3.0 * np.square(mu) - 1.0) / (2.0 * (1.0 + g * g) ** 1.5)
    return (1.0 - g * g) / (4.0 * math.pi) * (hg + corr)


def phase_function(mu, params: ScatteringParams):
    """Generalised Henyey-Greenstein phase function, per steradian.

    Normalised so that 2*pi * integral over mu in [-1, 1] equals 1; the
    forward-fraction term integrates to zero.
    """
    arr = np.asarray(mu, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("mu must lie in [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    out = _phase_values(arr, params.g, params.f)
    return float(out) if np.isscalar(mu) else out


def _normalized_eve(scenario: LinkScenario) -> Tuple[float, float]:
    """Eve position with y reflected to the upper half plane."""
    x, y = scenario.eve_xy
    return x, abs(y)


def scattering_segment(
    scenario: LinkScenario, steering_rad: float
) -> Tuple[float, float]:
    """Intersection of Eve's FOV cone with the axis segment [0, d].

    ``steering_rad`` follows the module's alpha convention; values in
    [0, pi] are accepted, with the endpoints meaning a boresight parallel
    to the axis.  Raises ``EmptySegment`` when the cone misses [0, d].
    """
    if not 0.0 <= steering_rad <= math.pi:
        raise ValueError(f"steering_rad must be in [0, pi], got {steering_rad}")
    x, y = _normalized_eve(scenario)
    l_a, l_b = _segment_ends(x, y, steering_rad, scenario)
    if l_a >= l_b:
        raise EmptySegment(f"FOV cone misses the axis segment [0, {scenario.d:g}] m")
    return float(l_a), float(l_b)


def _segment_ends(x, y, steering, scenario: LinkScenario):
    """Ends (l_a, l_b) of ``scattering_segment`` for Eve at (x, y), y > 0;
    elementwise on arrays, and l_a >= l_b where the cone misses [0, d]."""
    half_fov = scenario.eve.fov_full_rad / 2.0
    # A point (l, 0) seen from Eve has bearing beta = atan((l - x)/y) off the
    # downward vertical; the boresight bearing is steering - pi/2, so the
    # cone admits beta in [lo, hi] below, clipped to the open (-pi/2, pi/2).
    beta_lo = steering - math.pi / 2.0 - half_fov
    beta_hi = steering - math.pi / 2.0 + half_fov
    misses = (beta_hi <= -math.pi / 2.0) | (beta_lo >= math.pi / 2.0)
    l_a = np.where(beta_lo <= -math.pi / 2.0, 0.0, x + y * np.tan(beta_lo))
    l_b = np.where(beta_hi >= math.pi / 2.0, scenario.d, x + y * np.tan(beta_hi))
    l_a = np.where(misses, scenario.d, np.maximum(l_a, 0.0))
    l_b = np.where(misses, 0.0, np.minimum(l_b, scenario.d))
    return l_a, l_b


def nlos_gain(
    scenario: LinkScenario,
    ext: ExtinctionBreakdown,
    params: ScatteringParams,
    steering_rad: float,
) -> float:
    """Single-scatter gain of the NLOS path for a given steering angle.

    Adaptive quadrature at 1e-8 relative tolerance over the FOV-visible
    segment; zero when the medium does not scatter (alpha_att = 0) or the
    segment is empty.
    """
    alpha_am = ext.alpha_att
    if alpha_am == 0.0:
        return 0.0
    try:
        l_a, l_b = scattering_segment(scenario, steering_rad)
    except EmptySegment:
        return 0.0
    x, y = _normalized_eve(scenario)
    # numpy's cos, sin (and tan, arctan2 elsewhere): nlos_gain_field repeats
    # this arithmetic on arrays and must round the same way
    cos_a = float(np.cos(steering_rad))
    y_sin_a = y * float(np.sin(steering_rad))

    def integrand(l):
        return _nlos_integrand(l, x, y, cos_a, y_sin_a, scenario.eve.area, alpha_am, params)

    return adaptive_gauss_kronrod(
        integrand, l_a, l_b, rel_tol=QUAD_REL_TOL, abs_tol=QUAD_ABS_TOL,
        max_panels=QUAD_MAX_PANELS,
    )


def _nlos_integrand(l, x, y, cos_a, y_sin_a, area, alpha_am, params):
    """Omega(l) * p(mu(l)) * alpha_am * exp(-alpha_am * (l + r)) for Eve at
    (x, y), y > 0, aimed along (cos_a, sin_a); y_sin_a is y * sin_a."""
    dx = x - l
    r = np.hypot(dx, y)
    mu = dx / r
    proj = np.maximum(dx * cos_a + y_sin_a, 0.0)
    omega = area * proj / r**3
    return omega * _phase_values(mu, params.g, params.f) * alpha_am * np.exp(-alpha_am * (l + r))


def _steering_bounds(scenario: LinkScenario) -> Tuple[float, float]:
    """Steering angles corresponding to aim points at l* = 0 and l* = d."""
    x, y = _normalized_eve(scenario)
    return float(np.arctan2(y, x)), float(np.arctan2(y, x - scenario.d))


def optimize_steering(
    scenario: LinkScenario,
    ext: ExtinctionBreakdown,
    params: ScatteringParams,
) -> Tuple[float, float]:
    """Steering angle maximising the NLOS gain over aim points on [0, d].

    Coarse probing over the admissible steering range seeds a golden-section
    refinement to 1e-4 rad.  The foot-point aim is always among the
    candidates, so the result can never fall below it.
    """
    lo, hi = _steering_bounds(scenario)

    def gain(angle: float) -> float:
        return nlos_gain(scenario, ext, params, angle)

    candidates = list(np.linspace(lo, hi, _COARSE_STEERING_POINTS))
    if lo < math.pi / 2.0 < hi:  # foot point (x, 0) lies inside [0, d]
        candidates.append(math.pi / 2.0)
    values = [gain(a) for a in candidates]
    order = np.argsort(candidates)
    sorted_angles = [candidates[i] for i in order]
    sorted_values = [values[i] for i in order]
    i_best = int(np.argmax(sorted_values))
    bracket_lo = sorted_angles[max(i_best - 1, 0)]
    bracket_hi = sorted_angles[min(i_best + 1, len(sorted_angles) - 1)]
    best_angle, best_gain = golden_section_max(
        gain, bracket_lo, bracket_hi, xtol=STEERING_XTOL_RAD
    )
    if sorted_values[i_best] > best_gain:
        best_angle, best_gain = sorted_angles[i_best], sorted_values[i_best]
    return best_angle, best_gain


def nlos_gain_field(
    xs,
    ys,
    scenario: LinkScenario,
    ext: ExtinctionBreakdown,
    params: ScatteringParams,
) -> Tuple[np.ndarray, np.ndarray]:
    """Steering-optimised NLOS gain for Eve at every position (xs[k], ys[k]).

    Runs ``optimize_steering`` for all positions at once: the FOV segments,
    the integrand and the quadrature panels of every (position, steering)
    pair are single numpy calls, each position keeps its own adaptive
    refinement, and the golden sections run in lockstep.  Eve's position
    in ``scenario`` is ignored.  A position's result does not depend on the
    other positions passed with it.  Returns (steering, g_nlos) arrays of
    the positions' shape; ``QuadratureError`` when a quadrature needs more
    than ``QUAD_MAX_PANELS`` panels.
    """
    x, y = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    shape = x.shape
    x, y = x.ravel(), np.abs(y.ravel())
    if (y == 0).any():
        raise ValueError("eavesdropper y-coordinates must be nonzero")
    steering, g_nlos = np.empty(x.size), np.empty(x.size)
    # chunks bound the memory of the (position, steering) panel arrays: the
    # standard 25,050-cell map peaks at 50 MB RSS in chunks, 774 MB in one call
    for lo in range(0, x.size, _FIELD_CHUNK):
        part = slice(lo, lo + _FIELD_CHUNK)
        steering[part], g_nlos[part] = _optimised_steering(
            x[part], y[part], scenario, ext, params
        )
    return steering.reshape(shape), g_nlos.reshape(shape)


def _optimised_steering(x, y, scenario, ext, params):
    """``optimize_steering`` for Eve at every (x[k], y[k]), y > 0."""
    alpha_am = ext.alpha_att
    area = scenario.eve.area

    def gain(k: np.ndarray, steering: np.ndarray) -> np.ndarray:
        """nlos_gain of position k[i] at steering[i], for every i."""
        if alpha_am == 0.0:
            return np.zeros(steering.shape)
        xk, yk = x[k], y[k]
        l_a, l_b = _segment_ends(xk, yk, steering, scenario)  # b <= a integrates to 0
        cos_a = np.cos(steering)
        y_sin_a = yk * np.sin(steering)

        def integrand(i, l):
            return _nlos_integrand(
                l, xk[i, None], yk[i, None], cos_a[i, None], y_sin_a[i, None],
                area, alpha_am, params,
            )

        return batched_gauss_kronrod(
            integrand, l_a, l_b, rel_tol=QUAD_REL_TOL, abs_tol=QUAD_ABS_TOL,
            max_panels=QUAD_MAX_PANELS,
        )

    # optimize_steering's coarse probes: np.linspace(lo, hi, 24) per position,
    # plus the foot point pi/2 where it lies strictly inside (lo, hi)
    n = x.size
    lo, hi = np.arctan2(y, x), np.arctan2(y, x - scenario.d)
    step = (hi - lo) / (_COARSE_STEERING_POINTS - 1)
    probes = np.arange(_COARSE_STEERING_POINTS, dtype=float) * step[:, None] + lo[:, None]
    probes[:, -1] = hi
    foot = (lo < math.pi / 2.0) & (math.pi / 2.0 < hi)
    cells = np.repeat(np.arange(n), _COARSE_STEERING_POINTS)
    foot_cells = np.flatnonzero(foot)
    values = gain(
        np.concatenate([cells, foot_cells]),
        np.concatenate([probes.ravel(), np.full(foot_cells.size, math.pi / 2.0)]),
    )
    # sorted candidates; a position without a foot probe gets a dummy last
    # entry that is never the best and never a bracket end
    angles = np.column_stack([probes, np.full(n, np.inf)])
    gains = np.column_stack([values[: cells.size].reshape(n, -1), np.full(n, -np.inf)])
    angles[foot_cells, -1] = math.pi / 2.0
    gains[foot_cells, -1] = values[cells.size:]
    order = np.argsort(angles, axis=1, kind="stable")
    angles = np.take_along_axis(angles, order, axis=1)
    gains = np.take_along_axis(gains, order, axis=1)
    rows = np.arange(n)
    i_best = np.argmax(gains, axis=1)
    i_lo = np.maximum(i_best - 1, 0)
    i_hi = np.minimum(i_best + 1, _COARSE_STEERING_POINTS - 1 + foot)
    steering, g_nlos = batched_golden_section_max(
        gain,
        angles[rows, i_lo],
        angles[rows, i_hi],
        gains[rows, i_lo],
        gains[rows, i_hi],
        xtol=STEERING_XTOL_RAD,
    )
    coarse_wins = gains[rows, i_best] > g_nlos
    steering = np.where(coarse_wins, angles[rows, i_best], steering)
    g_nlos = np.where(coarse_wins, gains[rows, i_best], g_nlos)
    return steering, g_nlos


def compute_channel_gains(
    scenario: LinkScenario,
    ext: ExtinctionBreakdown,
    params: ScatteringParams,
) -> ChannelGains:
    """LOS gain plus steering-optimised NLOS gain for the scenario."""
    g_los = los_gain(scenario, ext)
    steering, g_nlos = optimize_steering(scenario, ext, params)
    try:
        seg = scattering_segment(scenario, steering)
    except EmptySegment:
        seg = None
    return ChannelGains(g_los=g_los, g_nlos=g_nlos, steering_rad=steering, seg=seg)
