"""Gaseous absorption, turbulence-induced extinction and turbulence-regime
diagnostics for a horizontal THz path.

The turbulence attenuation over a path of length L follows the
scintillation-index rating

    A_t = |10 * log10(1 - sqrt(sigma_i^2))|   [dB]

where sigma_i^2 is the weak-fluctuation Rytov variance of the selected wave
type,

    sigma_R^2 = 1.23 * Cn2 * k^(7/6) * L^(11/6)   (plane wave)
    beta_R^2  = 0.50 * Cn2 * k^(7/6) * L^(11/6)   (spherical wave),

valid only while the variance stays below 1 (``RegimeError`` otherwise).
Gaseous absorption is a pluggable backend (constant or interpolated table in
dB/km); no radiative-transfer model is built in, and any particulate
scattering loss is folded into the backend values.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from enum import Enum
from importlib.resources import as_file, files
from pathlib import Path
from typing import NamedTuple, Union

from .units import db_per_km_to_np_per_m, db_to_np, wavenumber

__all__ = [
    "FREQ_MIN_HZ",
    "FREQ_MAX_HZ",
    "RegimeError",
    "FrequencyRangeError",
    "Wave",
    "TurbulenceStrength",
    "classify_turbulence",
    "AtmosphereConditions",
    "ConstantAbsorption",
    "TableAbsorption",
    "AbsorptionBackend",
    "default_absorption_table",
    "gaseous_extinction",
    "RytovVariances",
    "rytov_variances",
    "turbulence_attenuation_db",
    "ExtinctionBreakdown",
    "extinction",
]

FREQ_MIN_HZ = 100e9
FREQ_MAX_HZ = 1e12

# Turbulence-strength class boundaries in m^(-2/3).
_WEAK_MAX = 1e-17
_MODERATE_MAX = 1e-13


class RegimeError(ValueError):
    """Weak-fluctuation attenuation requested outside its validity region
    (Rytov variance >= 1)."""


class FrequencyRangeError(ValueError):
    """Carrier frequency outside the supported band or the backend table."""


class Wave(str, Enum):
    PLANE = "plane"
    SPHERICAL = "spherical"


class TurbulenceStrength(str, Enum):
    WEAK = "weak"
    MODERATE = "moderate"
    STRONG = "strong"


def classify_turbulence(cn2: float) -> TurbulenceStrength:
    """Bucket a structure parameter into weak/moderate/strong.

    Boundaries sit at 1e-17 and 1e-13 m^(-2/3); the boundary values
    themselves classify as moderate.
    """
    if cn2 < 0:
        raise ValueError(f"cn2 must be >= 0, got {cn2}")
    if cn2 < _WEAK_MAX:
        return TurbulenceStrength.WEAK
    if cn2 <= _MODERATE_MAX:
        return TurbulenceStrength.MODERATE
    return TurbulenceStrength.STRONG


@dataclass(frozen=True)
class AtmosphereConditions:
    """Turbulence strength along the path.  The gaseous state (temperature,
    pressure, humidity) lives in the absorption backend's dB/km values."""

    cn2: float = 5.8e-11

    def __post_init__(self):
        if self.cn2 < 0:
            raise ValueError(f"cn2 must be >= 0, got {self.cn2}")

    @property
    def turbulence_class(self) -> TurbulenceStrength:
        return classify_turbulence(self.cn2)


@dataclass(frozen=True)
class ConstantAbsorption:
    """Flat gaseous absorption in dB/km, independent of frequency."""

    db_per_km: float

    def __post_init__(self):
        if self.db_per_km < 0:
            raise ValueError(f"absorption must be >= 0 dB/km, got {self.db_per_km}")

    def alpha_db_per_km(self, freq_hz: float) -> float:
        return self.db_per_km


@dataclass(frozen=True)
class TableAbsorption:
    """Tabulated absorption, log-linear interpolated (linear in frequency,
    linear in log10 of the dB/km value).  No extrapolation: queries outside
    the table hull raise ``FrequencyRangeError``."""

    freqs_hz: tuple
    db_per_km: tuple

    def __post_init__(self):
        if len(self.freqs_hz) != len(self.db_per_km):
            raise ValueError("frequency and absorption columns differ in length")
        if len(self.freqs_hz) < 2:
            raise ValueError("absorption table needs at least 2 rows")
        if any(b <= a for a, b in zip(self.freqs_hz, self.freqs_hz[1:])):
            raise ValueError("table frequencies must be strictly increasing")
        if any(v <= 0 for v in self.db_per_km):
            raise ValueError("table absorption values must be > 0 dB/km")

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "TableAbsorption":
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["freq_hz", "alpha_db_per_km"]:
                raise ValueError(
                    f"{path}: expected header 'freq_hz,alpha_db_per_km', got {header}"
                )
            freqs, alphas = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
                try:
                    freqs.append(float(row[0]))
                    alphas.append(float(row[1]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(tuple(freqs), tuple(alphas))

    def alpha_db_per_km(self, freq_hz: float) -> float:
        freqs = self.freqs_hz
        if not freqs[0] <= freq_hz <= freqs[-1]:
            raise FrequencyRangeError(
                f"{freq_hz / 1e9:.1f} GHz outside table hull "
                f"[{freqs[0] / 1e9:.1f}, {freqs[-1] / 1e9:.1f}] GHz"
            )
        # locate the bracketing segment
        for i in range(len(freqs) - 1):
            if freq_hz <= freqs[i + 1]:
                break
        f0, f1 = freqs[i], freqs[i + 1]
        a0, a1 = self.db_per_km[i], self.db_per_km[i + 1]
        if freq_hz == f0:
            return a0
        t = (freq_hz - f0) / (f1 - f0)
        return 10.0 ** (math.log10(a0) + t * (math.log10(a1) - math.log10(a0)))


AbsorptionBackend = Union[ConstantAbsorption, TableAbsorption]


@functools.lru_cache(maxsize=None)
def default_absorption_table() -> TableAbsorption:
    """Bundled absorption table.

    The entries are calibration values chosen so the standard scenarios
    reproduce their reference targets; they are not measured ground truth
    for any real atmosphere.
    """
    with as_file(files("thzsec.data") / "absorption_default.csv") as path:
        return TableAbsorption.from_csv(path)


def gaseous_extinction(freq_hz: float, backend: AbsorptionBackend) -> float:
    """Gaseous extinction coefficient alpha_g in Np/m; the backend owns the
    spectral model."""
    if not FREQ_MIN_HZ <= freq_hz <= FREQ_MAX_HZ:
        raise FrequencyRangeError(
            f"carrier {freq_hz / 1e9:.1f} GHz outside supported band "
            f"[{FREQ_MIN_HZ / 1e9:.0f} GHz, {FREQ_MAX_HZ / 1e9:.0f} GHz]"
        )
    return db_per_km_to_np_per_m(backend.alpha_db_per_km(freq_hz))


class RytovVariances(NamedTuple):
    plane: float
    spherical: float
    valid: bool  # True while both variances stay below 1


def rytov_variances(freq_hz: float, cn2: float, path_m: float) -> RytovVariances:
    """Weak-fluctuation Rytov variances for plane and spherical waves.

    The plane value is computed as exactly 2.46x the spherical one so the
    documented ratio holds bit-exactly.
    """
    if freq_hz <= 0 or path_m <= 0:
        raise ValueError("freq_hz and path_m must be > 0")
    if cn2 < 0:
        raise ValueError(f"cn2 must be >= 0, got {cn2}")
    k = wavenumber(freq_hz)
    spherical = 0.5 * cn2 * k ** (7.0 / 6.0) * path_m ** (11.0 / 6.0)
    plane = 2.46 * spherical
    return RytovVariances(plane, spherical, max(plane, spherical) < 1.0)


def _scintillation_index(freq_hz: float, cn2: float, path_m: float, wave: Wave) -> float:
    variances = rytov_variances(freq_hz, cn2, path_m)
    return variances.plane if wave is Wave.PLANE else variances.spherical


def turbulence_attenuation_db(
    freq_hz: float, cn2: float, path_m: float, wave: Wave = Wave.SPHERICAL
) -> float:
    """Whole-path turbulence attenuation A_t in dB.

    Raises ``RegimeError`` once the selected Rytov variance reaches 1, where
    the rating formula loses meaning.
    """
    sigma2 = _scintillation_index(freq_hz, cn2, path_m, wave)
    if sigma2 >= 1.0:
        raise RegimeError(
            f"{wave.value}-wave Rytov variance {sigma2:.4g} >= 1; "
            "attenuation rating not applicable"
        )
    if sigma2 == 0.0:
        return 0.0
    return abs(10.0 * math.log10(1.0 - math.sqrt(sigma2)))


@dataclass(frozen=True)
class ExtinctionBreakdown:
    """Extinction composition for one (frequency, state, path) triple.

    alpha_* are Np/m; a_t_db is the whole-path turbulence attenuation in dB;
    the Rytov variances are dimensionless diagnostics.
    """

    alpha_g: float
    alpha_t: float
    alpha_att: float
    a_t_db: float
    sigma_r2_plane: float
    beta_r2_sph: float

    def __post_init__(self):
        fields = (self.alpha_g, self.alpha_t, self.alpha_att, self.a_t_db,
                  self.sigma_r2_plane, self.beta_r2_sph)
        if any(v < 0 for v in fields):
            raise ValueError("extinction fields must be >= 0")
        if self.alpha_att != self.alpha_g + self.alpha_t:
            raise ValueError("alpha_att must equal alpha_g + alpha_t exactly")

    def atmospheric_gain(self, path_m: float) -> float:
        """Linear power gain exp(-alpha_att * d) over a path of d metres."""
        return math.exp(-self.alpha_att * path_m)


def extinction(
    freq_hz: float,
    conditions: AtmosphereConditions,
    path_m: float,
    backend: AbsorptionBackend,
    wave: Wave = Wave.SPHERICAL,
) -> ExtinctionBreakdown:
    """Compose gaseous and turbulence extinction for the path."""
    alpha_g = gaseous_extinction(freq_hz, backend)
    a_t_db = turbulence_attenuation_db(freq_hz, conditions.cn2, path_m, wave)
    alpha_t = db_to_np(a_t_db) / path_m
    variances = rytov_variances(freq_hz, conditions.cn2, path_m)
    return ExtinctionBreakdown(
        alpha_g=alpha_g,
        alpha_t=alpha_t,
        alpha_att=alpha_g + alpha_t,
        a_t_db=a_t_db,
        sigma_r2_plane=variances.plane,
        beta_r2_sph=variances.spherical,
    )
