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
(``_steering_free_gain``).
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
# positions per steering search of nlos_gain_field: the standard 25,050-cell
# map peaks at 42 MB RSS in chunks of 4096, 71 MB in one search
_FIELD_CHUNK = 4096
# queries per numpy round of the gain field: glibc's malloc maps the larger
# temporaries of bigger rounds afresh each round, and the page faults cost
# more than the extra rounds
_QUERY_CHUNK = 1024
_BEARING_RUNGS = 24  # first-mesh boundaries per half of nlos_gain_field's tables


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
    return g_d * ext.atmospheric_gain(scenario.d)


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
    section to ``STEERING_XTOL_RAD`` (``batched_golden_section_max``).  It
    queries the gains in one numpy round for the probes and one per
    golden-section round, whose first also takes the first inner points:
    7 rounds in all for 22 positions whose searches take 15-17 levels
    (perfbench's det_map cells), 6 for 8 positions of 15 levels (its
    x = 750 m line), and 133 for the standard 25,050-cell map.  Each gain
    it compares comes from one
    steering-free table per distinct |y| (``_steering_free_gain``) instead
    of an adaptive quadrature per steering, so the field picks the steering
    ``optimize_steering`` picks and agrees with its G_NLOS to 1e-9 relative
    (8.4e-13 on the standard map), not bit for bit.  Eve's position in
    ``scenario`` is ignored.  A position's result does not depend on the
    other positions passed with it.  Returns (steering, g_nlos) arrays of
    the positions' shape; ``QuadratureError`` when a table needs more than
    ``QUAD_MAX_PANELS`` panels.
    """
    x, y = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    shape = x.shape
    x, y = x.ravel(), np.abs(y.ravel())
    if (y == 0).any():
        raise ValueError("eavesdropper y-coordinates must be nonzero")
    if not x.size:  # no row to tabulate
        return np.empty(shape), np.empty(shape)
    gain = _steering_free_gain(x, y, scenario, ext, params)
    steering, g_nlos = np.empty(x.size), np.empty(x.size)
    for lo in range(0, x.size, _FIELD_CHUNK):
        cells = np.arange(lo, min(lo + _FIELD_CHUNK, x.size))
        steering[cells], g_nlos[cells] = _optimised_steering(
            lambda i, s: gain(cells[i], s), x[cells], y[cells], scenario.d
        )
    return steering.reshape(shape), g_nlos.reshape(shape)


def _bearing_weight(beta, y, area, alpha_am, params):
    """(cos(beta), sin(beta)) * W_y(beta), stacked along a new first axis,
    for Eve at height y > 0.  W_y(beta) = (A alpha_am / y) p(-sin beta)
    exp(-alpha_am y (1 + sin beta) / cos beta) is the single-scatter
    integrand in Eve's bearing beta without the boresight factor
    cos(beta - beta_s) and without exp(-alpha_am x).

    All of it comes from t = tan(beta/2 + pi/4) = (1 + sin beta) / cos beta,
    with cos beta = 2t / (1 + t^2) and sin beta = (t^2 - 1) / (1 + t^2):
    numpy 2.4's tan costs about a sixth of its sin or cos on x86-64, and
    these forms keep their relative accuracy at both ends, where cos beta
    -> 0.  p is ``_phase_values`` with its constants gathered, p(mu) =
    c * ((1 + g^2 - 2 g mu)^(-3/2) + b (3 mu^2 - 1)), and 1 + g^2 +
    2 g sin beta = ((1 + g)^2 t^2 + (1 - g)^2) / (1 + t^2) has no
    cancellation."""
    g, f = params.g, params.f
    c = area * alpha_am * (1.0 - g * g) / (4.0 * math.pi)
    b = f / (2.0 * (1.0 + g * g) ** 1.5)
    t = np.tan(0.5 * beta + math.pi / 4.0)
    t2 = t * t
    den = t2 + 1.0
    out = np.empty((2,) + t.shape)
    np.divide(t + t, den, out=out[0])
    np.divide(t2 - 1.0, den, out=out[1])
    # (1 + g^2 + 2 g sin beta)^(-3/2) = q^(3/2), q = (1 + t^2) / ((1 + g)^2 t^2 + (1 - g)^2)
    p = den / ((1.0 + g) ** 2 * t2 + (1.0 - g) ** 2)
    p *= np.sqrt(p)
    p += (3.0 * b) * out[1] * out[1]
    p -= b
    p *= np.exp((-alpha_am * y) * t)
    p *= c / y
    out *= p
    return out


def _steering_free_gain(x, y, scenario, ext, params):
    """``gain(k, steering)``: nlos_gain of Eve at (x[k], y[k]), y > 0, at
    steering[i] for every i, from one steering-free table per distinct y.

    In the bearing beta of a scatterer from Eve (l = x + y tan(beta)) the
    gain at steering s is G = exp(-alpha_am x) (cos(beta_s) C + sin(beta_s)
    S), beta_s = s - pi/2, where C and S integrate cos(beta) W_y and
    sin(beta) W_y (``_bearing_weight``) over the cone's bearings
    [max(beta0, beta_s - FOV/2), min(beta1, beta_s + FOV/2)], beta0 =
    atan(-x/y) and beta1 = atan((d - x)/y).  So x enters only through
    exp(-alpha_am x) and the limits, and one table per y serves its row.

    The table holds the final panels of one adaptive refinement over
    (-pi/2, pi/2) of (cos(beta) W_y, sin(beta) W_y) together
    (``gauss_kronrod_panels`` at _TABLE_REL_TOL), from a first mesh graded
    toward both ends: boundaries at +-(pi/2)(1 - 2^(-j/2)), j = 0, 1, ...,
    _BEARING_RUNGS, where the forward-scatter peak (beta -> -pi/2) and the
    exponential edge (beta -> pi/2) lie.  It keeps their K15 integrals,
    |K15 - G7| on each panel, and each row's prefix and suffix sums of
    them; one complex searchsorted finds the panels of a query's limits.
    A query reads the full panels from the sums (suffix sums where the
    segment lies past most of C, so that a small tail integral is not the
    difference of two near-total sums) and integrates the one or two
    partial panels by a G7 rule each.  Its error estimate is the full
    panels' |K15 - G7| plus each partial panel's, prorated by the share of
    the panel the rule covers, summed over C and S: that bounds the estimate
    for the gain, as |cos(beta_s)| and |sin(beta_s)| are at most 1.  A
    query over its QUAD_REL_TOL budget is integrated adaptively instead.
    Every sum runs over one row's panels only.
    """
    alpha_am, area = ext.alpha_att, scenario.eve.area
    if alpha_am == 0.0:
        return lambda k, steering: np.zeros(steering.shape)
    half_fov = scenario.eve.fov_full_rad / 2.0
    # the cone's bearings and (cos(beta_s), sin(beta_s)) = cos(s - (pi/2, pi))
    cone = np.array([[-math.pi / 2.0 - half_fov], [-math.pi / 2.0 + half_fov]])
    quarters = np.array([[math.pi / 2.0], [math.pi]])
    decay = np.exp(-alpha_am * x)
    per_cell = (np.arctan2(-x, y), np.arctan2(scenario.d - x, y), decay, y)
    y_row, row = np.unique(y, return_inverse=True)
    n = y_row.size

    def integrands(i, beta):
        """(cos(beta) W, sin(beta) W) of rows i at beta[i, :], shape (len(i), 2, 15)"""
        return _bearing_weight(beta, y_row[i, None], area, alpha_am, params).swapaxes(0, 1)

    rung = (math.pi / 2.0) * (1.0 - 2.0 ** (-0.5 * np.arange(_BEARING_RUNGS + 1)))
    edges = np.concatenate([[-math.pi / 2.0], -rung[:0:-1], rung, [math.pi / 2.0]])
    item, lo, hi, ik, err = gauss_kronrod_panels(
        integrands, np.repeat(np.arange(n), edges.size - 1), np.tile(edges[:-1], n),
        np.tile(edges[1:], n), _TABLE_REL_TOL, QUAD_ABS_TOL, QUAD_MAX_PANELS,
    )
    # one row per table, padded after its last panel
    count = np.bincount(item, minlength=n)
    filled = np.arange(count.max()) < count[:, None]
    # per panel: K15 of (C, S), the sum of their |K15 - G7|, that sum per
    # radian of the panel, lo and hi
    error = err.sum(axis=1)
    panels = np.zeros(filled.shape + (6,))
    panels[filled] = np.column_stack([ik, error, error / (hi - lo), lo, hi])
    # at boundary j: the sums over panels < j of (C, S), minus the sums over
    # panels >= j of them, and the sum over panels < j of their |K15 - G7|
    sums = np.zeros((n, filled.shape[1] + 1, 5))
    sums[:, 1:, [0, 1, 4]] = np.cumsum(panels[:, :, :3], axis=1)
    sums[:, :-1, 2:4] = -np.cumsum(panels[:, ::-1, :2], axis=1)[:, ::-1]
    # the record of panel (r, j), at r * w + j for rows padded to w panels:
    # the sums at its start and at its end, its |K15 - G7| per radian, its
    # lo and its hi
    records = np.concatenate([sums[:, :-1], sums[:, 1:], panels[:, :, 3:]], axis=2)
    records = records.reshape(-1, 13)
    # each row's inner panel ends as row + 1j * end, padded with +inf: numpy
    # orders complex numbers by real, then imaginary part, so one exact
    # searchsorted finds a bearing's panel within its own row
    ends = np.empty((n, filled.shape[1] - 1), dtype=complex)
    ends.real = np.arange(n)[:, None]
    ends.imag = np.where(filled[:, 1:], panels[:, :-1, 5], np.inf)
    ends = ends.ravel()

    def gain(k, steering):
        parts = [slice(i, i + _QUERY_CHUNK) for i in range(0, k.size, _QUERY_CHUNK)]
        return np.concatenate([query(k[part], steering[part]) for part in parts])

    def query(k, steering):
        beta0_k, beta1_k, decay_k, y_k = (v[k] for v in per_cell)
        # the cone's bearings clipped to [beta0, beta1]; a >= b where it
        # misses the segment
        lim = np.minimum(np.maximum(steering + cone, beta0_k), beta1_k)
        # the records of both ends' panels; a bearing lies in panel j of its
        # row, j = the number of the row's inner ends at or below it
        r = row[k]
        key = np.empty(lim.shape, dtype=complex)
        key.real, key.imag = r, lim
        at = ends.searchsorted(key, side="right") + r
        panel = records[at]
        # the full panels lie between the ends' panels, none where those are
        # one; suffix sums where more of C lies before them than after
        last = panel[1, :, :5]
        first = np.where((at[0] == at[1])[:, None], last, panel[0, :, 5:10])
        full = (last - first).T
        integral = np.where(last[:, 0] > -first[:, 2], full[2:4], full[:2])
        # the partial pieces [a, min(b, a's panel end)] and [max(that, b's
        # panel start), b], empty where the panels are one; G7 on each, its
        # nodes along the second axis, and its prorated |K15 - G7|
        hi = np.minimum(lim[1], panel[:, :, 12])
        lo = np.maximum(panel[:, :, 11], (lim[0], hi[0]))
        span = hi - lo
        half = 0.5 * span
        beta = 0.5 * (hi + lo) + half * GAUSS_NODES[:, None, None]
        weighted = _bearing_weight(beta, y_k, area, alpha_am, params)
        weighted *= GAUSS_WEIGHTS[:, None, None]
        integral += (half * weighted.sum(axis=1)).sum(axis=1)
        boresight = np.cos(steering - quarters)
        live = lim[0] < lim[1]
        value = np.where(live, decay_k * (boresight * integral).sum(axis=0), 0.0)
        # the error of C plus that of S bounds that of the gain, as
        # |cos(beta_s)|, |sin(beta_s)| <= 1
        bound = decay_k * (full[4] + (span * panel[:, :, 10]).sum(axis=0))
        budget = np.maximum(QUAD_REL_TOL * np.abs(value), QUAD_ABS_TOL)
        over = np.flatnonzero(live & (bound > budget))
        if over.size:
            ko, co, so = k[over], boresight[0, over, None], boresight[1, over, None]

            def integrand(i, beta):
                cs = _bearing_weight(beta, y[ko[i], None], area, alpha_am, params)
                return decay[ko[i], None] * (co[i] * cs[0] + so[i] * cs[1])

            value[over] = batched_gauss_kronrod(
                integrand, lim[0, over], lim[1, over], rel_tol=QUAD_REL_TOL,
                abs_tol=QUAD_ABS_TOL, max_panels=QUAD_MAX_PANELS,
            )
        return value

    return gain


def _optimised_steering(gain, x, y, d):
    """``optimize_steering`` for Eve at every (x[k], y[k]), y > 0, with the
    gains ``gain(k, steering)``."""
    # optimize_steering's coarse probes: np.linspace(lo, hi, 24) per position,
    # plus the foot point pi/2 where it lies strictly inside (lo, hi)
    n = x.size
    lo, hi = np.arctan2(y, x), np.arctan2(y, x - d)
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
    # the candidates in ascending order: the probes ascend, and the foot
    # probe goes after those at or below it; a position without a foot probe
    # gets a dummy last entry that is never the best and never a bracket end
    below = (probes <= math.pi / 2.0).sum(axis=1)
    slot = np.where(foot, below, _COARSE_STEERING_POINTS)
    extra = np.arange(_COARSE_STEERING_POINTS + 1) == slot[:, None]
    angles = np.empty(extra.shape)
    gains = np.empty(extra.shape)
    angles[~extra] = probes.ravel()
    gains[~extra] = values[: cells.size]
    angles[extra] = np.where(foot, math.pi / 2.0, np.inf)
    extra_gains = np.full(n, -np.inf)
    extra_gains[foot_cells] = values[cells.size:]
    gains[extra] = extra_gains
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
