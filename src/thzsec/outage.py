"""Probabilistic risk: log-normal fading of the LOS gain, the threshold gain
where the secrecy capacity meets the target rate, and the outage probability.

Only the LOS gain fluctuates; the NLOS gain stays at its deterministic
value.  The instantaneous gain G is log-normal around the deterministic mean
with log-variance equal to the spherical-wave Rytov variance, and the
log-mean is pinned to -sigma^2/2 so that E[G] equals the deterministic gain.

The threshold gain inverts Bob's information, which does not depend on Eve:
``_BobCurve`` holds it and its 513-gain table once per link, and every
solve, ``threshold_gain``'s and each scan cell's, runs the same safeguarded
Newton kernel from that table.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .atmosphere import ExtinctionBreakdown, RegimeError
from .channel import ChannelGains, LinkScenario, ScatteringParams, compute_channel_gains
from .secrecy import (
    DetectionRates, _ook_information, _ook_information_slope, _signal_count, detection_rates,
    ook_mutual_information,
)
from .units import photon_energy_j

__all__ = [
    "MonotonicityError",
    "FadingModel",
    "OutageResult",
    "lognormal_pdf",
    "lognormal_cdf",
    "threshold_gain",
    "outage_probability",
    "outage_probability_mc",
    "outage_from_gains",
    "outage_scan_point",
]

GAIN_BRACKET_LO = 1e-30
GAIN_BRACKET_HI = 1.0
BISECT_REL_WIDTH = 1e-10
BISECT_VALUE_TOL = 1e-9  # bits/slot
_MAX_BISECT_ITER = 400
# round-off the monotonicity checks forgive, bits/slot
_MONOTONE_SLACK = 1e-12
# 513 log-spaced gains over [GAIN_BRACKET_LO, GAIN_BRACKET_HI], 17 per decade,
# ends exact: a solve starts about 1e-3 from its root in ln G and takes about
# 4 evaluations of Bob's information, where 33 gains took about 6.4
_TABLE_GAINS = (GAIN_BRACKET_LO, *np.logspace(-30.0, 0.0, 513)[1:-1].tolist(), GAIN_BRACKET_HI)
# just under the relative width tolerance, as a step in ln G
_MIN_LOG_STEP = 0.5 * BISECT_REL_WIDTH
# a step in ln G at least this long leaves any bracket
_LOG_SPAN = math.log(GAIN_BRACKET_HI / GAIN_BRACKET_LO)


class MonotonicityError(RuntimeError):
    """The information values seen while solving for the threshold gain
    were not monotone."""


@dataclass(frozen=True)
class FadingModel:
    """Log-normal fading of the instantaneous LOS gain."""

    g_los_mean: float
    sigma_r2: float  # spherical-wave Rytov variance, log-domain variance

    def __post_init__(self):
        if self.g_los_mean <= 0:
            raise ValueError(f"g_los_mean must be > 0, got {self.g_los_mean}")
        if self.sigma_r2 >= 1.0:
            raise RegimeError(
                f"log-normal fading model invalid for sigma_r2 = {self.sigma_r2:.4g} >= 1"
            )
        if self.sigma_r2 <= 0.0:
            raise ValueError(
                f"sigma_r2 must be in (0, 1), got {self.sigma_r2}"
            )

    @property
    def mu_log(self) -> float:
        """Mean of ln(G/G_mean); -sigma^2/2 keeps E[G] at the mean gain."""
        return -self.sigma_r2 / 2.0

    @property
    def median_gain(self) -> float:
        return self.g_los_mean * math.exp(self.mu_log)


def lognormal_pdf(g, model: FadingModel):
    """Density of the instantaneous LOS gain at g (> 0)."""
    arr = np.asarray(g, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("gain must be > 0")
    z = np.log(arr / model.g_los_mean) - model.mu_log
    out = np.exp(-z * z / (2.0 * model.sigma_r2)) / (
        arr * math.sqrt(2.0 * math.pi * model.sigma_r2)
    )
    return float(out) if np.isscalar(g) else out


def _std_normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def lognormal_cdf(g: float, model: FadingModel) -> float:
    """P{G <= g} in closed form."""
    if g <= 0:
        return 0.0
    z = (math.log(g / model.g_los_mean) - model.mu_log) / math.sqrt(model.sigma_r2)
    return _std_normal_cdf(z)


def _tabulate(func: Callable[[float], float]) -> Tuple[float, ...]:
    """func at ``_TABLE_GAINS``; raises ``MonotonicityError`` where the
    values fall."""
    values = tuple(func(g) for g in _TABLE_GAINS)
    for g, prev, value in zip(_TABLE_GAINS[1:], values, values[1:]):
        if value < prev - _MONOTONE_SLACK:
            raise MonotonicityError(f"tabulated values fall at {g:.3e}")
    return values


@functools.lru_cache(maxsize=64)
def _bob_information(
    k_bob: float, lambda_b: float, q: float, paper_exact: bool
) -> Tuple[float, ...]:
    """Bob's information at ``_TABLE_GAINS``.  It depends on the LOS gain
    alone, so every cell, sweep value and scalar call of one link shares it:
    about 0.3 ms per link."""
    return _tabulate(lambda g: _ook_information(k_bob * g, lambda_b, q, paper_exact))


@dataclass(frozen=True)
class _BobCurve:
    """Bob's information I_bob(G) of one link as a function of the LOS gain,
    with its values at ``_TABLE_GAINS``; ``threshold(level)`` is the gain
    where it meets ``level``.  It does not depend on Eve, so a scan builds
    it once and every cell's solve reads it."""

    k_bob: float  # Bob's count per unit gain
    lambda_b: float
    q: float
    paper_exact: bool
    values: Tuple[float, ...] = field(repr=False)

    @classmethod
    def of(
        cls, scenario: LinkScenario, lambda_b: float, q: float, paper_exact: bool
    ) -> "_BobCurve":
        # Bob's count per unit gain (the factor 1.0 is exact)
        k_bob = _signal_count(scenario, scenario.bob, 1.0, photon_energy_j(scenario.freq_hz))
        values = _bob_information(k_bob, lambda_b, q, paper_exact)
        return cls(k_bob, lambda_b, q, paper_exact, values)

    # the config or DetectionRates checked q and lambda_b, and the solver's
    # gains are positive: the kernels skip the checks
    def information(self, g: float) -> float:
        return _ook_information(self.k_bob * g, self.lambda_b, self.q, self.paper_exact)

    def slope(self, g: float) -> float:
        """d I_bob / d ln G."""
        lam = self.k_bob * g
        return lam * _ook_information_slope(lam, self.lambda_b, self.q)

    def threshold(self, level: float) -> Optional[float]:
        """``threshold_gain``'s G* at the level R * tau + I_eve."""
        return _solve_tabulated(self.information, self.slope, level, self.values)


def _bisect_monotone(
    func: Callable[[float], float],
    target: float,
    lo: float = GAIN_BRACKET_LO,
    hi: float = GAIN_BRACKET_HI,
) -> Optional[float]:
    """Solve func(x) = target for a non-decreasing func by log-space bisection.

    Returns None when func(hi) < target, the lower bracket when
    func(lo) > target, and raises ``MonotonicityError`` when an evaluation
    falls outside the values bracketing it.  The tests' reference for
    ``_solve_tabulated``.
    """
    f_lo, f_hi = func(lo), func(hi)
    if f_hi < target:
        return None
    if f_lo > target:
        return lo
    for _ in range(_MAX_BISECT_ITER):
        mid = math.sqrt(lo * hi)
        f_mid = func(mid)
        if f_mid < f_lo - _MONOTONE_SLACK or f_mid > f_hi + _MONOTONE_SLACK:
            raise MonotonicityError(
                f"evaluation at {mid:.3e} fell outside the bracketing values"
            )
        if f_mid >= target:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
        if _converged(lo, hi, f_lo, f_hi, target):
            break
    return hi if abs(f_hi - target) <= abs(f_lo - target) else lo


def _converged(lo: float, hi: float, f_lo: float, f_hi: float, target: float) -> bool:
    return (hi - lo) <= BISECT_REL_WIDTH * hi and min(
        abs(f_hi - target), abs(f_lo - target)
    ) <= BISECT_VALUE_TOL


def _solve_tabulated(
    func: Callable[[float], float],
    slope: Callable[[float], float],
    target: float,
    values: Sequence[float],
) -> Optional[float]:
    """Solve func(g) = target for a non-decreasing func by safeguarded Newton
    steps in ln g, given its ``values`` at ``_TABLE_GAINS``.

    ``slope(g)`` is d func / d ln g.  The table brackets the root; each
    Newton step that would leave the bracket is replaced by a bisection
    (Brent 1973).  While the bracket is wider than the width tolerance, a
    step shorter than that is lengthened to it, so that the bracket closes
    from both sides.  Early exits, stop rule and return value are
    ``_bisect_monotone``'s, and so is the ``MonotonicityError`` on an
    evaluation outside its bracket's values.
    """
    if values[-1] < target:
        return None
    if values[0] > target:
        return GAIN_BRACKET_LO
    k = bisect.bisect_left(values, target)  # values[k - 1] < target <= values[k]
    if values[k] == target:
        return _TABLE_GAINS[k]
    lo, hi, f_lo, f_hi = _TABLE_GAINS[k - 1], _TABLE_GAINS[k], values[k - 1], values[k]
    # first point: linear interpolation of the table in ln g
    g = lo * (hi / lo) ** ((target - f_lo) / (f_hi - f_lo))
    for _ in range(_MAX_BISECT_ITER):
        if not lo < g < hi:
            g = math.sqrt(lo * hi)
        f = func(g)
        if f < f_lo - _MONOTONE_SLACK or f > f_hi + _MONOTONE_SLACK:
            raise MonotonicityError(
                f"evaluation at {g:.3e} fell outside the bracketing values"
            )
        if f >= target:
            hi, f_hi = g, f
        else:
            lo, f_lo = g, f
        if _converged(lo, hi, f_lo, f_hi, target):
            break
        s = slope(g)
        step = (target - f) / s if s > 0.0 else math.inf
        if abs(step) < _MIN_LOG_STEP and hi - lo > BISECT_REL_WIDTH * hi:
            # too short to close the bracket from the other side
            step = -_MIN_LOG_STEP if f >= target else _MIN_LOG_STEP
        # no step, or one out of the bracket, bisects the bracket instead
        g = g * math.exp(step) if abs(step) < _LOG_SPAN else math.nan
    return hi if abs(f_hi - target) <= abs(f_lo - target) else lo


def threshold_gain(
    scenario: LinkScenario,
    g_nlos_fixed: float,
    rates_template: DetectionRates,
    target_rate_bps: float,
    paper_exact: bool = False,
) -> Optional[float]:
    """LOS gain G* at which the secrecy capacity equals the target rate.

    Bob's information I_bob(G) is strictly increasing and does not depend
    on Eve, so G* inverts it at the level R * tau + I_eve
    (``_BobCurve.threshold``, the kernel of the scans' outage metric too):
    safeguarded Newton steps in ln G (``_solve_tabulated``) from the shared
    513-gain table of Bob's information, which brackets the root, down to
    1e-10 relative bracket width and 1e-9 bits/slot residual; of the final
    bracket's ends it returns the one with the smaller residual.  Returns
    None when even G = 1 cannot reach the level (outage certain); returns
    the lower bracket 1e-30 when the level is already met there (outage
    negligible).
    """
    e_p = photon_energy_j(scenario.freq_hz)
    # Eve's count as detection_rates forms lambda_n, so that I_eve is the
    # one it reports
    i_eve = ook_mutual_information(
        _signal_count(scenario, scenario.eve, g_nlos_fixed, e_p),
        rates_template.lambda_e, rates_template.q, paper_exact,
    )
    curve = _BobCurve.of(scenario, rates_template.lambda_b, rates_template.q, paper_exact)
    return curve.threshold(target_rate_bps * rates_template.integration_time_s + i_eve)


def outage_probability(model: FadingModel, g_threshold: float) -> float:
    """Closed-form P{G <= G*} under the log-normal fading model."""
    return lognormal_cdf(g_threshold, model)


def outage_probability_mc(
    model: FadingModel,
    g_threshold: float,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the outage probability from ``n_samples``
    log-normal gains.  The normals come from the first spawned child of
    ``SeedSequence(seed)``, so a seed keeps the estimate it always gave."""
    if n_samples <= 0:
        raise ValueError("n_samples must be > 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    ln_mean = math.log(model.g_los_mean) + model.mu_log
    gains = np.exp(ln_mean + math.sqrt(model.sigma_r2) * rng.standard_normal(n_samples))
    hits = int(np.count_nonzero(gains <= g_threshold))
    return hits / n_samples


@dataclass(frozen=True)
class OutageResult:
    p_o: float
    g_threshold: Optional[float]
    target_rate_bps: float
    fading: Optional[FadingModel] = None  # None when no fading model was needed

    def __post_init__(self):
        if not 0.0 <= self.p_o <= 1.0:
            raise ValueError(f"p_o must be in [0, 1], got {self.p_o}")


def outage_from_gains(
    scenario: LinkScenario,
    gains: ChannelGains,
    sigma_r2: float,
    target_rate_bps: float,
    q: float = 0.5,
    paper_exact: bool = False,
) -> OutageResult:
    """Threshold gain and closed-form outage probability for known channel
    gains, the LOS gain fading with log-variance ``sigma_r2``."""
    model = FadingModel(g_los_mean=gains.g_los, sigma_r2=sigma_r2)
    if target_rate_bps <= 0.0:
        return OutageResult(
            p_o=0.0, g_threshold=None, target_rate_bps=target_rate_bps, fading=model
        )
    rates = detection_rates(scenario, gains, q)
    g_star = threshold_gain(scenario, gains.g_nlos, rates, target_rate_bps, paper_exact)
    p_o = 1.0 if g_star is None else outage_probability(model, g_star)
    return OutageResult(p_o=p_o, g_threshold=g_star, target_rate_bps=target_rate_bps, fading=model)


def outage_scan_point(
    scenario: LinkScenario,
    ext: ExtinctionBreakdown,
    params: ScatteringParams,
    target_rate_bps: float,
    q: float = 0.5,
    paper_exact: bool = False,
) -> OutageResult:
    """Full probabilistic pipeline for one eavesdropper position.

    Channel gains -> threshold gain -> closed-form outage probability.  The
    fading variance comes from the extinction breakdown's spherical-wave
    Rytov variance, keeping a single source of truth.
    """
    if target_rate_bps <= 0.0:
        # the capacity is never below a nonpositive target under continuous fading
        return OutageResult(p_o=0.0, g_threshold=None, target_rate_bps=target_rate_bps)
    gains = compute_channel_gains(scenario, ext, params)
    return outage_from_gains(
        scenario, gains, ext.beta_r2_sph, target_rate_bps, q, paper_exact
    )
