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

Inside the cone the clamp never acts.  (x - l) cos(alpha) + y sin(alpha) is
r times the cosine of the angle between the boresight and the ray to the
scatterer, and inside the cone that angle is at most FOV/2 <= pi/2, so the
term is >= r cos(FOV/2) >= 0.  The gain at steering alpha over the segment
[l_a, l_b] is therefore

    G(alpha) = cos(alpha) * I1 + sin(alpha) * I2,
    I1 = integral of (x - l) h(l),  I2 = integral of y h(l),

with h = A p(mu) alpha_am exp(-alpha_am (l + r)) / r^3 independent of the
steering (Luettgen, Shapiro & Reilly, JOSA A 8(12), 1991).  The scalar
``nlos_gain`` integrates the clamped form at every steering; the gain
field (``nlos_gain_field``) integrates h1 and h2 over [0, d] once per
position and answers every steering from that table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .atmosphere import ExtinctionBreakdown
from .numerics import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    adaptive_gauss_kronrod,
    batched_gauss_kronrod,
    batched_golden_section_max,
    gauss_kronrod_panels,
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
# per-panel tolerance of the steering-free table of nlos_gain_field
_TABLE_REL_TOL = QUAD_REL_TOL / 30.0
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
        if _phase_goes_negative(self.g, self.f):
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


@functools.lru_cache(maxsize=64)
def _phase_goes_negative(g: float, f: float) -> bool:
    """Whether p(mu) falls below 0 anywhere on a 2001-point grid over
    [-1, 1]; every ScatteringParams of one (g, f) shares the check."""
    mu = np.linspace(-1.0, 1.0, 2001)
    return bool(np.min(_phase_values(mu, g, f)) < 0)


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
    segment (its error test is an estimate, not a bound: 2.4e-8 off at one
    cell); zero when the medium does not scatter (alpha_att = 0) or the
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

    Runs ``optimize_steering``'s search for all positions at once: the same
    24 probes plus the foot point, the same bracket and a lockstep golden
    section to ``STEERING_XTOL_RAD``.  Each gain it compares comes from one
    steering-free table per position (``_steering_free_gain``) instead of
    an adaptive quadrature per steering, so the field picks the steering
    ``optimize_steering`` picks and agrees with its G_NLOS to about 1e-10
    relative, not bit for bit.  Eve's position in ``scenario`` is ignored.
    A position's result does not depend on the other positions passed with
    it.  Returns (steering, g_nlos) arrays of the positions' shape;
    ``QuadratureError`` when a table needs more than ``QUAD_MAX_PANELS``
    panels.
    """
    x, y = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    shape = x.shape
    x, y = x.ravel(), np.abs(y.ravel())
    if (y == 0).any():
        raise ValueError("eavesdropper y-coordinates must be nonzero")
    steering, g_nlos = np.empty(x.size), np.empty(x.size)
    # chunks bound the memory of the tables and of the coarse probes: the
    # standard 25,050-cell map peaks at 50 MB RSS in chunks, 838 MB in one call
    for lo in range(0, x.size, _FIELD_CHUNK):
        part = slice(lo, lo + _FIELD_CHUNK)
        steering[part], g_nlos[part] = _optimised_steering(
            x[part], y[part], scenario, ext, params
        )
    return steering.reshape(shape), g_nlos.reshape(shape)


def _nlos_kernel(l, x, y, area, alpha_am, params):
    """h(l) = A * p(mu(l)) * alpha_am * exp(-alpha_am * (l + r)) / r^3 for
    Eve at (x, y), y > 0: ``_nlos_integrand`` without the projection.

    p is ``_phase_values`` with its constants gathered,
    p(mu) = c * ((1 + g^2 - 2 g mu)^(-3/2) + b (3 mu^2 - 1)), and the
    arithmetic runs in place: this function is most of the gain field's
    cost per integrand point."""
    g, f = params.g, params.f
    c = area * alpha_am * (1.0 - g * g) / (4.0 * math.pi)
    b = f / (2.0 * (1.0 + g * g) ** 1.5)
    dx = x - l
    r2 = dx * dx
    r2 += y * y
    r = np.sqrt(r2)
    mu = dx / r
    p = (1.0 + g * g) - (2.0 * g) * mu
    p **= -1.5
    mu *= mu
    mu *= 3.0 * b
    p += mu
    p -= b
    r2 *= r
    r += l
    r *= -alpha_am
    p *= np.exp(r, out=r)
    p /= r2
    p *= c
    return p


def _graded_mesh(x, y, d):
    """First panels (item, lo, hi) of the table refinement for Eve at
    (x[k], y[k]), y > 0: boundaries at 0, d, the foot point c = x clipped to
    [0, d], where h peaks, and c -+ y 2^j / 2 for j = 0, 1, ..., clipped to
    [0, d]; no zero-width panel.  Panels grow geometrically away from the
    peak, as h's scale grows with the distance from Eve.  The ladder runs
    until the smallest y reaches both ends; for a larger y the extra rungs
    clip to 0 or d and add no panel, so a position's mesh is its own."""
    c = np.clip(x, 0.0, d)[:, None]
    rungs = max(1, 3 + int(np.floor(np.log2(d) - np.log2(y.min()))))
    step = (0.5 * y)[:, None] * 2.0 ** np.arange(rungs)
    edges = np.concatenate(
        [np.zeros_like(c), np.full_like(c, d), c, c - step, c + step], axis=1
    )
    edges = np.sort(np.clip(edges, 0.0, d), axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    keep = lo < hi
    return np.nonzero(keep)[0], lo[keep], hi[keep]


def _steering_free_gain(x, y, scenario, ext, params):
    """``gain(k, steering)``: nlos_gain of Eve at (x[k], y[k]), y > 0, at
    steering[i] for every i, from one steering-free table per position.

    The table holds the final panels of one adaptive refinement over
    [0, d] of h1 = (x - l) h and h2 = y h together (``gauss_kronrod_panels``
    at _TABLE_REL_TOL from ``_graded_mesh``), their K15 integrals and
    |K15 - G7| on each panel, and each position's prefix and suffix sums of
    them.  A query is
    G = cos(s) I1 + sin(s) I2 over [l_a, l_b]: the full panels from the
    sums (suffix sums where the segment lies past most of h2, so that a
    small tail integral is not the difference of two near-total sums), and
    the one or two partial panels by a G7 rule each.  Its error estimate is
    the full panels' |K15 - G7| plus each partial panel's, prorated by the
    share of the panel the rule covers.  A query over its QUAD_REL_TOL
    budget is integrated adaptively instead, as ``nlos_gain`` does.  Every
    sum runs over one position's panels only.
    """
    n, d = x.size, scenario.d
    alpha_am, area = ext.alpha_att, scenario.eve.area

    def integrands(i, l):
        """(h1, h2) of positions i at l[i, :], shape (len(i), 2, 15)"""
        xi, yi = x[i, None], y[i, None]
        h = _nlos_kernel(l, xi, yi, area, alpha_am, params)
        out = np.empty((l.shape[0], 2, l.shape[1]))
        np.multiply(xi - l, h, out=out[:, 0])
        np.multiply(yi, h, out=out[:, 1])
        return out

    item, lo, hi, ik, err = gauss_kronrod_panels(
        integrands, *_graded_mesh(x, y, d), _TABLE_REL_TOL, QUAD_ABS_TOL, QUAD_MAX_PANELS
    )
    # one row per position, padded after its last panel; rows of the flat
    # tables: panel (k, j) at k * width + j, boundary (k, j) at
    # k * (width + 1) + j
    count = np.bincount(item, minlength=n)
    col = np.arange(item.size) - np.repeat(np.cumsum(count) - count, count)
    width = int(count.max())
    panel_hi = np.full((n, width), np.inf)
    panel_hi[item, col] = hi
    panels = np.zeros((n, width, 6))  # lo, hi, K15 of (h1, h2), their |K15 - G7|
    panels[item, col] = np.column_stack([lo, hi, ik, err])
    # at boundary j: sums over panels < j of (I1, I2), minus the sums over
    # panels >= j of them, and the sums over panels < j of their |K15 - G7|
    sums = np.zeros((n, width + 1, 6))
    sums[:, 1:, :2] = np.cumsum(panels[:, :, 2:4], axis=1)
    sums[:, :-1, 2:4] = -np.cumsum(panels[:, ::-1, 2:4], axis=1)[:, ::-1]
    sums[:, 1:, 4:] = np.cumsum(panels[:, :, 4:], axis=1)
    panels, sums = panels.reshape(-1, 6), sums.reshape(-1, 6)

    def gain(k, steering):
        g = np.zeros(steering.shape)
        if alpha_am == 0.0:
            return g
        l_a, l_b = _segment_ends(x[k], y[k], steering, scenario)
        live = np.flatnonzero(l_a < l_b)
        k, s, l_a, l_b = k[live], steering[live], l_a[live], l_b[live]
        # l lies in panel j = the number of panels below it.  The full
        # panels are [first, j_b); the partial ones are [l_a, its panel's
        # end] and [its panel's start, l_b], or [l_a, l_b] where both ends
        # share a panel.  F(0) = 0 and F(d) = the total need none.
        ends = panel_hi[k]
        j_a = (ends <= l_a[:, None]).sum(axis=1)
        j_b = (ends <= l_b[:, None]).sum(axis=1)
        in_a, in_b = 0.0 < l_a, l_b < d
        one_panel = in_a & in_b & (j_a == j_b)
        first = j_a + (in_a & ~one_panel)
        row = k * (width + 1)
        at_first, at_b = sums[row + first], sums[row + j_b]
        # suffix sums where more of h2 lies before the segment than after
        full = at_b - at_first
        past = at_b[:, 1] > -at_first[:, 3]
        full[past, :2] = full[past, 2:4]
        piece_a = np.flatnonzero(in_a)
        piece_b = np.flatnonzero(in_b & ~one_panel)
        q = np.concatenate([piece_a, piece_b])
        kq = k[q]
        panel = panels[kq * width + np.concatenate([j_a[piece_a], j_b[piece_b]])]
        piece_lo = np.concatenate([l_a[piece_a], panel[piece_a.size:, 0]])
        piece_hi = np.concatenate(
            [np.where(one_panel[piece_a], l_b[piece_a], panel[: piece_a.size, 1]), l_b[piece_b]]
        )
        # G7 on each piece, its nodes along the first axis; each query's
        # pieces are summed in order, then added to its full panels
        half = 0.5 * (piece_hi - piece_lo)
        l = 0.5 * (piece_hi + piece_lo) + half * GAUSS_NODES[:, None]
        wh = GAUSS_WEIGHTS[:, None] * _nlos_kernel(l, x[kq], y[kq], area, alpha_am, params)
        part = np.empty((q.size, 4))
        part[:, 0] = half * ((x[kq] - l) * wh).sum(axis=0)
        part[:, 1] = half * y[kq] * wh.sum(axis=0)
        part[:, 2:] = ((piece_hi - piece_lo) / (panel[:, 1] - panel[:, 0]))[:, None] * panel[:, 4:]
        pieces = np.bincount(
            (4 * q[:, None] + np.arange(4)).ravel(), part.ravel(), minlength=4 * k.size
        ).reshape(-1, 4)
        integral = full[:, :2] + pieces[:, :2]
        error = full[:, 4:] + pieces[:, 2:]
        cos_a, sin_a = np.cos(s), np.sin(s)
        value = cos_a * integral[:, 0] + sin_a * integral[:, 1]
        bound = np.abs(cos_a) * error[:, 0] + sin_a * error[:, 1]
        over = np.flatnonzero(bound > np.maximum(QUAD_REL_TOL * np.abs(value), QUAD_ABS_TOL))
        if over.size:
            ko, co, yo = k[over], cos_a[over, None], (y[k] * sin_a)[over, None]

            def integrand(i, l):
                return _nlos_integrand(
                    l, x[ko[i], None], y[ko[i], None], co[i], yo[i], area, alpha_am, params
                )

            value[over] = batched_gauss_kronrod(
                integrand, l_a[over], l_b[over], rel_tol=QUAD_REL_TOL,
                abs_tol=QUAD_ABS_TOL, max_panels=QUAD_MAX_PANELS,
            )
        g[live] = value
        return g

    return gain


def _optimised_steering(x, y, scenario, ext, params):
    """``optimize_steering`` for Eve at every (x[k], y[k]), y > 0."""
    gain = _steering_free_gain(x, y, scenario, ext, params)

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
