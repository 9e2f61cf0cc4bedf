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
from .numerics import adaptive_gauss_kronrod, golden_section_max

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
    "compute_channel_gains",
]

STEERING_XTOL_RAD = 1e-4
QUAD_REL_TOL = 1e-8
QUAD_ABS_TOL = 1e-30
_COARSE_STEERING_POINTS = 24


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
    half_fov = scenario.eve.fov_full_rad / 2.0
    # A point (l, 0) seen from Eve has bearing beta = atan((l - x)/y) off the
    # downward vertical; the boresight bearing is steering_rad - pi/2, so the
    # cone admits beta in [lo, hi] below, clipped to the open (-pi/2, pi/2).
    beta_lo = steering_rad - math.pi / 2.0 - half_fov
    beta_hi = steering_rad - math.pi / 2.0 + half_fov
    if beta_hi <= -math.pi / 2.0 or beta_lo >= math.pi / 2.0:
        raise EmptySegment("field-of-view cone does not reach the beam axis")
    l_a = 0.0 if beta_lo <= -math.pi / 2.0 else x + y * math.tan(beta_lo)
    l_b = scenario.d if beta_hi >= math.pi / 2.0 else x + y * math.tan(beta_hi)
    l_a = max(l_a, 0.0)
    l_b = min(l_b, scenario.d)
    if l_a >= l_b:
        raise EmptySegment(
            f"FOV cone meets the axis only outside [0, {scenario.d:g}] m"
        )
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
    area = scenario.eve.area
    cos_a = math.cos(steering_rad)
    sin_a = math.sin(steering_rad)
    g, f = params.g, params.f

    def integrand(l):
        dx = x - l
        r = np.hypot(dx, y)
        mu = dx / r
        proj = np.maximum(dx * cos_a + y * sin_a, 0.0)
        omega = area * proj / r**3
        return omega * _phase_values(mu, g, f) * alpha_am * np.exp(-alpha_am * (l + r))

    return adaptive_gauss_kronrod(
        integrand, l_a, l_b, rel_tol=QUAD_REL_TOL, abs_tol=QUAD_ABS_TOL
    )


def _steering_bounds(scenario: LinkScenario) -> Tuple[float, float]:
    """Steering angles corresponding to aim points at l* = 0 and l* = d."""
    x, y = _normalized_eve(scenario)
    return math.atan2(y, x), math.atan2(y, x - scenario.d)


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
