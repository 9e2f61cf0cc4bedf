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

The scalar ``nlos_gain`` integrates this clamped form over l.  The gain
field (``nlos_gain_field``) integrates in Eve's bearing beta of the
scatterer, off the downward vertical: l = x + y tan(beta), r = y sec(beta),
mu = -sin(beta) and Omega dl = A cos(beta - beta_s) / y dbeta, where
beta_s = alpha - pi/2 is the boresight's bearing.  Inside the cone
|beta - beta_s| <= FOV/2 <= pi/2, so cos(beta - beta_s) >= cos(FOV/2) >= 0
and the clamp never acts.  The gain at steering alpha is therefore

    G = exp(-alpha_am x) (cos(beta_s) C + sin(beta_s) S),

C and S being the integrals of cos(beta) W_y and sin(beta) W_y over the
cone's bearings clipped to [atan(-x / y), atan((d - x) / y)], with
W_y = (A alpha_am / y) p(-sin(beta)) exp(-alpha_am y (tan(beta) +
sec(beta))) independent of x and of the steering (Luettgen, Shapiro &
Reilly, JOSA A 8(12), 1991).  So one table per distinct y serves its row
(``_steering_free_gain``), over the bearings the row's limits can reach.
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
    batched_golden_section_max,
    gauss_kronrod_panels,
    golden_section_max,
    _cubic,
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
# positions per steering search of nlos_gain_field: the standard 25,050-cell
# map peaks at 42 MB RSS in chunks of 4096, 71 MB in one search
_FIELD_CHUNK = 4096
# queries per numpy round of the gain field: glibc's malloc maps the larger
# temporaries of bigger rounds afresh each round, and the page faults cost
# more than the extra rounds
_QUERY_CHUNK = 1024
_BEARING_RUNGS = 24  # first-mesh boundaries per half of nlos_gain_field's tables
# positions per steering search up to which its golden section follows
# predicted paths (_optimised_steering); timings in CHANGES.md
_GUIDED_BATCH = 64
# a kink, and the points either side of it that give its slopes
_KINK_STEPS = np.array([-1e-7, 0.0, 1e-7])
_PROBE_STEPS = np.arange(_COARSE_STEERING_POINTS, dtype=float)
# a bracket's ends and its best candidate, from the best candidate's index
_BRACKET = np.array([[-1], [1], [0]])


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
        try:
            area = self.area
        except OverflowError:
            area = math.inf
        if not math.isfinite(area):
            raise ValueError(f"aperture_d = {self.aperture_d} gives an area that overflows")
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
    return g_d * ext.atmospheric_gain(scenario.d)


def _phase_values(mu, g: float, f: float):
    mu = np.asarray(mu)
    base = 1.0 + g * g - 2.0 * g * mu
    if not np.all(base > 0.0):
        # at mu = +-1 with |g| within about 1e-8 of 1 the base rounds to 0;
        # as a sum of squares it keeps its tiny positive value
        base = np.where(base > 0.0, base, np.square(1.0 - g * mu) + g * g * (1.0 - mu * mu))
    hg = base ** -1.5
    corr = f * (3.0 * np.square(mu) - 1.0) / (2.0 * (1.0 + g * g) ** 1.5)
    return (1.0 - g * g) / (4.0 * math.pi) * (hg + corr)


@functools.lru_cache(maxsize=64)
def _phase_goes_negative(g: float, f: float) -> bool:
    """Whether p(mu) falls below 0 anywhere on a 2001-point grid over
    [-1, 1]; every ScatteringParams of one (g, f) shares the check.

    Only the grid points with 3 mu^2 - 1 < 0 are evaluated: elsewhere both
    terms of p are >= 0 for f >= 0.  There |3 mu^2 - 1| <= 1 and 1 + g^2 -
    2 g mu >= 2/3, so no finite (g, f) overflows, and the outcome is the
    whole grid's."""
    mu = np.linspace(-1.0, 1.0, 2001)
    mu = mu[3.0 * np.square(mu) - 1.0 < 0.0]
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
    half_fov = scenario.eve.fov_full_rad / 2.0
    # A point (l, 0) seen from Eve has bearing beta = atan((l - x)/y) off the
    # downward vertical; the boresight bearing is steering - pi/2, so the
    # cone admits beta in [lo, hi] below, clipped to the open (-pi/2, pi/2).
    beta_lo = steering_rad - math.pi / 2.0 - half_fov
    beta_hi = steering_rad - math.pi / 2.0 + half_fov
    misses = beta_hi <= -math.pi / 2.0 or beta_lo >= math.pi / 2.0
    l_a = 0.0 if beta_lo <= -math.pi / 2.0 else max(x + y * np.tan(beta_lo), 0.0)
    l_b = scenario.d if beta_hi >= math.pi / 2.0 else min(x + y * np.tan(beta_hi), scenario.d)
    if misses or l_a >= l_b:
        raise EmptySegment(f"FOV cone misses the axis segment [0, {scenario.d:g}] m")
    return float(l_a), float(l_b)


def nlos_gain(
    scenario: LinkScenario,
    ext: ExtinctionBreakdown,
    params: ScatteringParams,
    steering_rad: float,
) -> float:
    """Single-scatter gain of the NLOS path for a given steering angle.

    Adaptive quadrature at 1e-8 relative tolerance over the FOV-visible
    segment (its error test is an estimate, not a bound); zero when the
    medium does not scatter (alpha_att = 0) or the segment is empty.
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
    with np.errstate(over="ignore"):  # an inf r**3 gives omega 0, its limit
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
    24 probes plus the foot point, the same bracket and the same golden
    section points to ``STEERING_XTOL_RAD`` (``batched_golden_section_max``,
    along predicted paths for up to _GUIDED_BATCH positions).  It queries
    the gains in one numpy round for the probes, with 6 points about the
    kinks per position where the paths are predicted, and one per
    golden-section round: 3 rounds in all for 22 positions whose searches
    take 15-17 levels (perfbench's det_map cells, where only x = 0, y = 2 m
    needs the third), 2 for 8 positions of 15 levels (its x = 750 m line),
    and 133 for the standard 25,050-cell map, whose chunks step one level
    per round.  Each gain it compares comes from one steering-free table
    per distinct |y| and side of the link (``_steering_free_gain``) instead
    of an adaptive quadrature per steering, so the field picks the steering
    ``optimize_steering`` picks and agrees with its G_NLOS to 1e-9 relative
    (8.4e-13 on the standard map), not bit for bit.  On det_map's 22
    positions (2-core x86-64 VM, numpy 2.4) the two row tables take about
    0.12 ms, a query round about 47 us plus 0.30 us per steering, and the
    search's bookkeeping between the rounds, its paths included, about
    0.2 ms.  Eve's position in ``scenario`` is ignored.  A
    position's result does not depend on the other positions passed with
    it.  Returns (steering, g_nlos) arrays of the positions' shape;
    ``QuadratureError`` when a table needs more than
    ``QUAD_MAX_PANELS`` panels.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    x, y = x.ravel(), np.abs(y.ravel())
    if (y == 0).any():
        raise ValueError("eavesdropper y-coordinates must be nonzero")
    if not x.size:  # no row to tabulate
        return np.empty(shape), np.empty(shape)
    gain = _steering_free_gain(x, y, scenario, ext, params)
    # the search numbers a chunk's positions from 0
    chunks = [_optimised_steering(
        gain if lo == 0 else (lambda i, s, lo=lo: gain(i + lo, s)), x[lo:lo + _FIELD_CHUNK],
        y[lo:lo + _FIELD_CHUNK], scenario.d, scenario.eve.fov_full_rad / 2.0,
    ) for lo in range(0, x.size, _FIELD_CHUNK)]
    steering, g_nlos = chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks))
    return steering.reshape(shape), g_nlos.reshape(shape)


def _row_factors(y, area, alpha_am, params):
    """``_bearing_weight``'s factors -alpha_am y and A alpha_am (1 - g^2) /
    (4 pi y) for Eve at height y > 0."""
    g = params.g
    c = area * alpha_am * (1.0 - g * g) / (4.0 * math.pi)
    return -alpha_am * y, c / y


def _bearing_weight(beta, ay, cy, params):
    """(cos(beta), sin(beta)) * W_y(beta), stacked along a new first axis,
    for Eve at height y > 0, from ``_row_factors``' (ay, cy) of that y,
    shaped to broadcast against beta.  W_y(beta) = (A alpha_am / y)
    p(-sin beta) exp(-alpha_am y (1 + sin beta) / cos beta) is the
    single-scatter integrand in Eve's bearing beta without the boresight
    factor cos(beta - beta_s) and without exp(-alpha_am x).  beta is
    overwritten: every temporary of the same shape reuses a buffer.

    All of it comes from t = tan(beta/2 + pi/4) = (1 + sin beta) / cos beta,
    with cos beta = 2t / (1 + t^2) and sin beta = (t^2 - 1) / (1 + t^2):
    numpy 2.4's tan costs about a sixth of its sin or cos on x86-64, and
    these forms keep their relative accuracy at both ends, where cos beta
    -> 0.  p is ``_phase_values`` with its constants gathered, p(mu) =
    c * ((1 + g^2 - 2 g mu)^(-3/2) + b (3 mu^2 - 1)), and 1 + g^2 +
    2 g sin beta = ((1 + g)^2 t^2 + (1 - g)^2) / (1 + t^2) has no
    cancellation."""
    g, f = params.g, params.f
    b = f / (2.0 * (1.0 + g * g) ** 1.5)
    np.multiply(beta, 0.5, out=beta)
    np.add(beta, math.pi / 4.0, out=beta)
    t = np.tan(beta, out=beta)
    t2 = t * t
    den = t2 + 1.0
    out = np.empty((2,) + t.shape)
    np.add(t, t, out=out[0])
    np.subtract(t2, 1.0, out=out[1])
    out /= den
    # (1 + g^2 + 2 g sin beta)^(-3/2) = q^(3/2), q = (1 + t^2) / ((1 + g)^2 t^2 + (1 - g)^2)
    t2 *= (1.0 + g) ** 2
    t2 += (1.0 - g) ** 2
    p = np.divide(den, t2, out=den)
    p *= np.sqrt(p, out=t2)
    np.multiply(out[1], 3.0 * b, out=t2)
    t2 *= out[1]
    p += t2
    p -= b
    t *= ay
    p *= np.exp(t, out=t)
    p *= cy
    out *= p
    return out


def _first_mesh(rungs):
    """The first panels of every row table, their lower ends over their
    upper ends, shape (2, 1, panels): boundaries at +-(pi/2)(1 -
    2^(-j/2)), j = 0, 1, ..., rungs, between -pi/2 and pi/2.  Read only."""
    rung = (math.pi / 2.0) * (1.0 - 2.0 ** (-0.5 * np.arange(rungs + 1)))
    edges = np.concatenate([[-math.pi / 2.0], -rung[:0:-1], rung, [math.pi / 2.0]])
    first = np.array([edges[:-1], edges[1:]])[:, None, :]
    first.flags.writeable = False
    return first


_FIRST_MESH = _first_mesh(_BEARING_RUNGS)


def _steering_free_gain(x, y, scenario, ext, params):
    """``gain(k, steering)``: nlos_gain of Eve at (x[k], y[k]), y > 0, at
    steering[i] for every i, from one steering-free table per distinct y
    and reach.

    In the bearing beta of a scatterer from Eve (l = x + y tan(beta)) the
    gain at steering s is G = exp(-alpha_am x) (cos(beta_s) C + sin(beta_s)
    S), beta_s = s - pi/2, where C and S integrate cos(beta) W_y and
    sin(beta) W_y (``_bearing_weight``) over the cone's bearings
    [max(beta0, beta_s - FOV/2), min(beta1, beta_s + FOV/2)], beta0 =
    atan(-x/y) and beta1 = atan((d - x)/y).  So x enters only through
    exp(-alpha_am x) and the limits, and one table per y serves its row.

    A table spans the reach of its positions' limits, which depends on
    where x lies only: [0, pi/2] before Alice (x < 0), [atan2(-d, y),
    atan2(d, y)] over the link and [-pi/2, 0] past Bob (x > d).  So a row
    is a distinct (y, reach), and a position's table, and with it its
    result, does not depend on the other positions.  The table holds the
    final panels of one adaptive refinement of (cos(beta) W_y, sin(beta)
    W_y) together (``gauss_kronrod_panels`` at _TABLE_REL_TOL), from the
    panels of a first mesh (``_FIRST_MESH``) that meet the reach.  That
    mesh is graded toward both ends of (-pi/2, pi/2): boundaries at
    +-(pi/2)(1 - 2^(-j/2)), j = 0, 1, ..., _BEARING_RUNGS, where the
    forward-scatter peak (beta -> -pi/2) and the exponential edge (beta ->
    pi/2) lie.  Each first panel is refined on its own, so a table's panels
    are those of the whole mesh's table over the reach: tabulating the
    reach alone (on a 1 km link 40 of the 50 first panels at y = 2 m, 16
    at y = 100 m) gives the same steering and G_NLOS to a few ulps, from
    its sums over fewer panels.  A record per panel holds the
    row's prefix sums of the K15 integrals and of |K15 - G7| at the
    panel's start, its suffix sums of the integrals, |K15 - G7| per radian
    of the panel, and its ends; a record per position holds beta0, beta1,
    exp(-alpha_am x), its row and its row's factors of W_y.  A query takes
    its positions' records, finds the panels of both of its limits in one
    complex searchsorted, and takes their records and those of the panel
    after the first.  It reads the full panels from the sums (suffix sums
    where the segment lies past most of C, so that a small tail integral
    is not the difference of two near-total sums) and integrates the one
    or two partial panels by a G7 rule each.  Its error estimate is the
    full panels' |K15 - G7| plus each partial panel's, prorated by the
    share of the panel the rule covers, summed over C and S: that bounds
    the estimate for the gain, as |cos(beta_s)| and |sin(beta_s)| are at
    most 1.  A query over its QUAD_REL_TOL budget is integrated adaptively
    instead, by ``gauss_kronrod_panels`` from the one panel between its
    limits.  Every sum runs over one row's panels only.
    """
    alpha_am, area = ext.alpha_att, scenario.eve.area
    if alpha_am == 0.0:
        return lambda k, steering: np.zeros(steering.shape)
    half_fov, d = scenario.eve.fov_full_rad / 2.0, scenario.d
    # a row per distinct (y, side of the link), ascending, and each
    # position's row; side 0 before Alice (x < 0), 1 over the link, 2 past
    # Bob (x > d)
    key = y + 1j * np.add(x >= 0.0, x > d, dtype=float)
    rows = np.sort(key)
    rows = rows[np.concatenate([[True], rows[1:] != rows[:-1]])]
    row = rows.searchsorted(key)
    y_row, n = rows.real, rows.size
    # a row's reach, the bearings its positions' limits can take: atan2 of
    # (0, inf) over y before Alice, of (-d, d) over the link and of (-inf,
    # 0) past Bob
    bounds = np.array([[0.0, -d, -np.inf], [np.inf, d, 0.0]])
    reach = np.arctan2(bounds[:, rows.imag.astype(int)], y_row)
    ay_row, cy_row = _row_factors(y_row, area, alpha_am, params)

    def integrands(i, beta):
        """(cos(beta) W, sin(beta) W) of rows i at beta[i, :], shape (len(i), 2, 15)"""
        return _bearing_weight(beta, ay_row[i, None], cy_row[i, None], params).swapaxes(0, 1)

    # each row's first panels: those of the first mesh that its reach meets,
    # from the one a query at its lower end lands in to the one a query at
    # its upper end lands in
    j0, j1 = _FIRST_MESH[1, 0, :-1].searchsorted(reach, side="right")
    size = j1 - j0 + 1
    item = np.arange(n).repeat(size)
    mesh = np.arange(item.size) + (j0 - (size.cumsum() - size)).repeat(size)
    item, lo, hi, ik, err = gauss_kronrod_panels(
        integrands, item, *_FIRST_MESH[:, 0, mesh],
        _TABLE_REL_TOL, QUAD_ABS_TOL, QUAD_MAX_PANELS,
    )
    # row r's panel j in slot r * w + j, the rows padded after their last
    # panel; per panel: K15 of (C, S), the sum of their |K15 - G7|, that sum
    # per radian of the panel, lo and hi
    count = np.bincount(item, minlength=n)
    w = int(count.max())
    columns = np.empty((6, item.size))
    columns[:2] = ik.T
    error = err.sum(axis=1, out=columns[2])
    np.divide(error, hi - lo, out=columns[3])
    columns[4] = lo
    columns[5] = hi
    if item.size == n * w:  # no row padded
        panels = columns.reshape(6, n, w)
        outer = np.s_[:, -1:]
    else:
        panels = np.zeros((6, n, w))
        panels[:, np.arange(w) < count[:, None]] = columns
        outer = np.arange(w) >= count[:, None] - 1
    # the record of each slot, a row: at its start, the sums over panels
    # before it of C, S and their |K15 - G7| and minus the sums over it and
    # the panels after it of C and S; its |K15 - G7| per radian, its lo and
    # its hi
    records = np.empty((n, w, 8))
    records[:, 0, :3] = 0.0
    np.cumsum(panels[:3, :, :-1], axis=2, out=records[:, 1:, :3].transpose(2, 0, 1))
    suffix = np.cumsum(panels[:2, :, ::-1], axis=2)
    np.negative(suffix[:, :, ::-1], out=records[:, :, 3:5].transpose(2, 0, 1))
    records[:, :, 5:] = panels[3:].transpose(1, 2, 0)
    records = records.reshape(-1, 8)
    # each row's inner panel ends as row + 1j * end, padded with +inf to w
    # entries: numpy orders complex numbers by real, then imaginary part, so
    # one exact searchsorted finds a bearing's slot, r * w + the number of
    # its row's inner ends at or below it
    ends = np.empty((n, w), dtype=complex)
    ends.real = np.arange(n)[:, None]
    ends.imag = panels[5]
    ends.imag[outer] = np.inf
    ends = ends.ravel()
    # per position, a row: beta0, beta1, exp(-alpha_am x), its row, ay and cy
    # (the clip to the reach is exact where np.arctan2 is monotone)
    cells = np.empty((x.size, 6))
    np.maximum(np.arctan2(-x, y), reach[0, row], out=cells[:, 0])
    np.minimum(np.arctan2(d - x, y), reach[1, row], out=cells[:, 1])
    np.exp(-alpha_am * x, out=cells[:, 2])
    cells[:, 3] = row
    cells[:, 4] = ay_row[row]
    cells[:, 5] = cy_row[row]
    # steering + shift: the cone's lower and upper bearing, then s - pi/2
    # and s - pi, whose cosines are (cos(beta_s), sin(beta_s))
    shift = np.array([[-math.pi / 2.0 - half_fov], [-math.pi / 2.0 + half_fov],
                      [-math.pi / 2.0], [-math.pi]])
    nodes, weights = GAUSS_NODES[:, None, None], GAUSS_WEIGHTS[:, None, None]

    def gain(k, steering):
        if k.size <= _QUERY_CHUNK:
            return query(k, steering)
        parts = [slice(i, i + _QUERY_CHUNK) for i in range(0, k.size, _QUERY_CHUNK)]
        return np.concatenate([query(k[part], steering[part]) for part in parts])

    def query(k, steering):
        beta0, beta1, decay, r, ay, cy = cells.take(k, axis=0).T
        angle = steering + shift
        # the cone's bearings clipped to [beta0, beta1]; a >= b where it
        # misses the segment
        lim = angle[:2]
        np.maximum(lim, beta0, out=lim)
        np.minimum(lim, beta1, out=lim)
        boresight = np.cos(angle[2:])
        at, rec = _panels_of(ends, records, r, lim)
        # the full panels lie between the ends' panels: from the start of
        # the slot after a's, or of b's where the panels are one, to the
        # start of b's; suffix sums where more of C lies before them than
        # after
        last = rec[1, :, :5]
        first = records.take(np.minimum(at[0] + 1, at[1]), axis=0)[:, :5]
        full = np.subtract(last.T, first.T, order="C")
        integral = np.where(last[:, 0] > -first[:, 3], full[3:], full[:2])
        # the partial pieces [a, min(b, a's panel end)] and [max(that, b's
        # panel start), b], empty where the panels are one (hi goes where
        # the boresight angles were, so that (a, hi[0]) is a view); G7 on
        # each, its nodes along the second axis, and its prorated |K15 - G7|
        hi = np.minimum(lim[1], rec[:, :, 7], out=angle[2:])
        lo = np.maximum(rec[:, :, 6], angle[::2])
        span = hi - lo
        half = 0.5 * span
        beta = half * nodes
        beta += 0.5 * (hi + lo)
        weighted = _bearing_weight(beta, ay, cy, params)
        weighted *= weights
        # two rows summed by one add, in the order a reduction over them takes
        pieces = half * weighted.sum(axis=1)
        integral += pieces[:, 0] + pieces[:, 1]
        live = lim[0] < lim[1]
        terms = boresight * integral
        value = np.where(live, decay * (terms[0] + terms[1]), 0.0)
        # the error of C plus that of S bounds that of the gain, as
        # |cos(beta_s)|, |sin(beta_s)| <= 1
        prorated = span * rec[:, :, 5]
        bound = decay * (full[2] + (prorated[0] + prorated[1]))
        budget = np.maximum(QUAD_REL_TOL * np.abs(value), QUAD_ABS_TOL)
        over = live & (bound > budget)
        if over.any():
            over = over.nonzero()[0]
            co, so = boresight[0, over, None], boresight[1, over, None]
            decay_o, ay_o, cy_o = decay[over, None], ay[over, None], cy[over, None]

            def integrand(i, beta):
                cs = _bearing_weight(beta, ay_o[i], cy_o[i], params)
                return (decay_o[i] * (co[i] * cs[0] + so[i] * cs[1]))[:, None]

            item, _, _, ik, _ = gauss_kronrod_panels(
                integrand, np.arange(over.size), lim[0, over], lim[1, over],
                QUAD_REL_TOL, QUAD_ABS_TOL, QUAD_MAX_PANELS,
            )
            value[over] = np.bincount(item, weights=ik[:, 0], minlength=over.size)
        return value

    return gain


def _panels_of(ends, records, row, beta):
    """The slots in ``_steering_free_gain``'s table of the panels that hold
    the bearings beta[..., k] of rows row[k], and their records: one exact
    searchsorted of row + 1j * beta in ``ends``."""
    key = np.empty(beta.shape, dtype=complex)
    key.real = row
    key.imag = beta
    at = ends.searchsorted(key, side="right")
    return at, records.take(at, axis=0)


def _kinks(x, y, d, half_fov):
    """The steerings s_a = pi/2 + FOV/2 - atan2(x, y), at which the cone's
    lower edge meets Alice, and s_b = pi/2 - FOV/2 + atan2(d - x, y), at
    which its upper edge meets Bob, for Eve at every (x[k], y[k]), y > 0:
    shape (len(x), 2).  At each an end of the cone's segment meets an end
    of [0, d], and G has a kink there if it lies in the steering range."""
    kinks = np.empty((x.size, 2))
    np.subtract(half_fov, np.arctan2(x, y), out=kinks[:, 0])
    np.subtract(np.arctan2(d - x, y), half_fov, out=kinks[:, 1])
    kinks += math.pi / 2.0
    return kinks


def _optimised_steering(gain, x, y, d, half_fov):
    """``optimize_steering`` for Eve at every (x[k], y[k]), y > 0, with the
    gains ``gain(k, steering)``.

    Up to _GUIDED_BATCH positions, the golden section follows predicted
    paths (``batched_golden_section_max`` with a guide), from values the
    probe round has.  Where the better of the kinks s_a, where the cone's
    lower edge meets Alice, and s_b, where its upper edge meets Bob, lies
    inside the bracket, the model on each side of it is the quadratic
    through its gain, with its one-sided slope from the gains 1e-7 rad
    away (_KINK_STEPS), and through the bracket's end on that side; that
    takes perfbench's x = 750 m line in 2 query rounds where straight
    sides took 3.  Elsewhere the maximum is interior, and the model the
    cubic through the four best of the five candidates about the best.
    More positions step one level per query round: their rounds are large
    enough that the paths' extra points cost more than the rounds they
    save."""
    # a row per position: optimize_steering's candidates in ascending order,
    # then where guided s_a and s_b, each between the points _KINK_STEPS
    # away, all in the steering range.  The candidates are its coarse
    # probes, np.linspace(lo, hi, 24), and the foot point pi/2 where it lies
    # strictly inside (lo, hi); elsewhere hi again, whose gain is the last
    # probe's: never the best, as argmax takes the first, and as a bracket
    # end the same angle and gain as the last probe
    n = x.size
    lo, hi = np.arctan2(y, x), np.arctan2(y, x - d)
    step = (hi - lo) / (_COARSE_STEERING_POINTS - 1)
    guided = n <= _GUIDED_BATCH
    angles = np.empty((n, _COARSE_STEERING_POINTS + 1 + 6 * guided))
    probes = np.multiply(_PROBE_STEPS, step[:, None], out=angles[:, :_COARSE_STEERING_POINTS])
    probes += lo[:, None]
    probes[:, -1] = hi
    foot = (lo < math.pi / 2.0) & (math.pi / 2.0 < hi)
    angles[:, _COARSE_STEERING_POINTS] = np.where(foot, math.pi / 2.0, hi)
    candidates = angles[:, :_COARSE_STEERING_POINTS + 1]
    candidates.sort(axis=1)
    if guided:
        around = angles[:, -6:].reshape(n, 2, 3)
        np.add(_kinks(x, y, d, half_fov)[:, :, None], _KINK_STEPS, out=around)
        np.maximum(around, lo[:, None, None], out=around)
        np.minimum(around, hi[:, None, None], out=around)
    gains = gain(np.arange(n).repeat(angles.shape[1]), angles.ravel()).reshape(angles.shape)
    # the bracket's ends and the best candidate, as one gather each
    rows = np.arange(n)
    best = gains[:, :_COARSE_STEERING_POINTS + 1].argmax(axis=1)
    at = np.add(best, _BRACKET, out=np.empty((3, n), dtype=np.intp))
    np.maximum(at[0], 0, out=at[0])
    np.minimum(at[1], _COARSE_STEERING_POINTS, out=at[1])
    ends, values = angles[rows, at], gains[rows, at]
    (a, b, best_angle), (fa, fb, best_gain) = ends, values
    guide = None
    if guided:
        # the better kink inside the bracket, t, and the gains _KINK_STEPS
        # from it
        kinks = angles[:, -5::3]
        inside = (a[:, None] < kinks) & (kinks < b[:, None])
        better = (rows, np.where(inside, gains[:, -5::3], -np.inf).argmax(axis=1))
        near = gains[:, -6:].reshape(n, 2, 3)[better]
        t = kinks[better]
        # either side of t, left then right, the quadratic through the
        # kink's gain, with its one-sided slope there, and through the
        # bracket's end on that side: coefficients (p1, p2, p3) of each; a
        # prediction only, so a coefficient that overflows just mispredicts
        pieces = np.zeros((3, 2, n))
        slope = np.subtract(near[:, 1:].T, near[:, :2].T, out=pieces[0])
        slope /= _KINK_STEPS[2]
        u = ends[:2] - t
        with np.errstate(all="ignore"):
            np.divide(values[:2] - near[:, 1] - slope * u, u * u, out=pieces[1])
        # elsewhere the cubic through the four best of the five candidates
        # about the best, or where fewer are distinct a flat model, which
        # predicts the right branch
        for k in (~inside.any(axis=1)).nonzero()[0].tolist():
            i = min(max(best[k].item() - 2, 0), _COARSE_STEERING_POINTS - 4)
            model = _cubic([(gains[k].tolist(), candidates[k].tolist(), i, i + 5)])
            if model:
                t[k], pieces[:, 0, k], pieces[:, 1, k] = model[0], model[1:4], model[4:]
            else:
                t[k], pieces[:, :, k] = 0.0, 0.0
        guide = t, pieces[:, 0], pieces[:, 1]
    steering, g_nlos = batched_golden_section_max(
        gain, a, b, fa, fb, xtol=STEERING_XTOL_RAD, guide=guide
    )
    coarse_wins = best_gain > g_nlos
    steering = np.where(coarse_wins, best_angle, steering)
    g_nlos = np.where(coarse_wins, best_gain, g_nlos)
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
