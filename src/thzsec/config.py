"""Configuration parsing and resolution.

The native format is a flat INI-style file: ``[section]`` headers, ``key =
value`` lines, ``#`` comment lines.  A ``.json`` file with the same
section/key nesting is accepted as an alternate.  Unknown sections or keys
are hard errors (no silent typos), every constraint violation names the key
path and, for the INI format, the line number.  Absent keys fall back to the
standard-scenario defaults baked into the schema below.  Overrides and sweep
values are resolved and checked by the same function as the file's values,
which also builds the config's model objects (scenario, scattering, scan
spec, conditions, wave and absorption backend) once for all its callers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .atmosphere import (
    AbsorptionBackend,
    AtmosphereConditions,
    ConstantAbsorption,
    ExtinctionBreakdown,
    RegimeError,
    TableAbsorption,
    Wave,
    default_absorption_table,
    extinction,
    gaseous_extinction,
)
from .channel import LinkScenario, ReceiverParams, ScatteringParams, los_gain

__all__ = ["ConfigError", "ScanSpec", "SweepSpec", "ResolvedConfig", "parse_config"]

MODE_DETERMINISTIC = "det"
MODE_PROBABILISTIC = "prob"

# sweep parameter -> the (section, key) it sets
_SWEEP_KEYS = {
    "freq_hz": ("link", "freq_hz"),
    "cn2": ("atmosphere", "cn2"),
    "divergence_rad": ("link", "divergence_rad"),
    "eve_background": ("eve", "background_count"),
    "eve_fov_deg": ("eve", "fov_deg"),
}


class ConfigError(ValueError):
    """Config file missing, malformed, or violating a constraint."""


@dataclass(frozen=True)
class ScanSpec:
    """Grid over eavesdropper positions plus evaluation mode."""

    x_min_m: float
    x_max_m: float
    y_min_m: float
    y_max_m: float
    step_m: float
    mode: str
    target_rate_bps: float
    max_cells: float

    def _points(self, lo: float, hi: float) -> Union[int, float]:
        """Length of the axis from lo to hi; inf if it overflows a float."""
        n = (hi - lo) / self.step_m + 1e-9
        return math.floor(n) + 1 if math.isfinite(n) else math.inf

    def axis(self, lo: float, hi: float) -> List[float]:
        return [lo + self.step_m * i for i in range(self._points(lo, hi))]

    @property
    def xs(self) -> List[float]:
        return self.axis(self.x_min_m, self.x_max_m)

    @property
    def ys(self) -> List[float]:
        return self.axis(self.y_min_m, self.y_max_m)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: Tuple[float, ...]


# Schema: section -> key -> (default, parser, validator).  A validator
# returns an error message or None.
def _positive(name):
    return lambda v: None if v > 0 else f"{name} must be > 0, got {v}"


def _nonnegative(name):
    return lambda v: None if v >= 0 else f"{name} must be >= 0, got {v}"


def _in_range(name, lo, hi, lo_open=False, hi_open=False):
    def check(v):
        ok_lo = v > lo if lo_open else v >= lo
        ok_hi = v < hi if hi_open else v <= hi
        if ok_lo and ok_hi:
            return None
        b1 = "(" if lo_open else "["
        b2 = ")" if hi_open else "]"
        return f"{name} must be in {b1}{lo}, {hi}{b2}, got {v}"

    return check


# the least distance of an eavesdropper from the beam axis: much closer,
# the cube of its distance to a scatterer underflows in the single-scatter
# integrand, and 1e-100 m leaves a margin of eight orders of magnitude
MIN_EVE_HEIGHT_M = 1e-100


def _eve_height(name, zero_ok):
    def check(v):
        if abs(v) >= MIN_EVE_HEIGHT_M or (zero_ok and v == 0):
            return None
        zero = "0 or " if zero_ok else ""
        return f"{name} must be {zero}at least {MIN_EVE_HEIGHT_M:g} m from the beam axis, got {v}"

    return check


def _choice(name, options):
    return lambda v: None if v in options else f"{name} must be one of {sorted(options)}, got {v!r}"


def _parse_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_bool(raw):
    if isinstance(raw, bool):
        return raw
    s = str(raw).strip().lower()
    if s in ("true", "yes", "on", "1"):
        return True
    if s in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_str(raw):
    return str(raw).strip().strip("\"'")


def _parse_float_list(raw):
    if isinstance(raw, (list, tuple)):
        return tuple(_parse_float(v) for v in raw)
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    return tuple(_parse_float(p) for p in parts)


def _distinct_values(values):
    """Non-empty and no value twice: equal values would write one file."""
    if not values:
        return "values must be non-empty"
    seen = set()
    for v in values:
        if v in seen:
            return f"{v!r} appears more than once"
        seen.add(v)
    return None


# Bob's field of view enters no output, so only [eve] sets one
_RECEIVER_KEYS = {
    "aperture_m": (0.05, _parse_float, _positive("aperture_m")),
    "efficiency": (0.1, _parse_float, _in_range("efficiency", 0.0, 1.0, lo_open=True)),
    "integration_time_s": (None, _parse_float, _positive("integration_time_s")),
    "background_count": (0.01, _parse_float, _nonnegative("background_count")),
}

_SCHEMA = {
    "atmosphere": {
        "cn2": (5.8e-11, _parse_float, _nonnegative("cn2")),
        "wave": ("spherical", _parse_str, _choice("wave", {"plane", "spherical"})),
        "absorption": ("table", _parse_str, _choice("absorption", {"table", "constant"})),
        "absorption_db_per_km": (None, _parse_float, _nonnegative("absorption_db_per_km")),
        "absorption_table_path": (None, _parse_str, lambda v: None),
    },
    "link": {
        "freq_hz": (340e9, _parse_float, _positive("freq_hz")),
        "distance_m": (1000.0, _parse_float, _positive("distance_m")),
        "eve_x_m": (750.0, _parse_float, lambda v: None),
        "eve_y_m": (30.0, _parse_float, _eve_height("eve_y_m", zero_ok=False)),
        "divergence_rad": (0.02, _parse_float, _positive("divergence_rad")),
        "tx_power_w": (0.01, _parse_float, _positive("tx_power_w")),
    },
    "bob": dict(_RECEIVER_KEYS),
    "eve": {
        **_RECEIVER_KEYS,
        "fov_deg": (10.0, _parse_float, _in_range("fov_deg", 0.0, 180.0, lo_open=True)),
    },
    "scattering": {
        "g": (0.9, _parse_float, _in_range("g", -1.0, 1.0, lo_open=True, hi_open=True)),
        "f": (0.5, _parse_float, _nonnegative("f")),
    },
    "secrecy": {
        "duty_cycle": (0.5, _parse_float, _in_range("duty_cycle", 0.0, 1.0, lo_open=True, hi_open=True)),
        "paper_exact": (False, _parse_bool, lambda v: None),
    },
    "scan": {
        "x_min_m": (0.0, _parse_float, lambda v: None),
        "x_max_m": (1000.0, _parse_float, lambda v: None),
        "y_min_m": (2.0, _parse_float, _eve_height("y_min_m", zero_ok=True)),
        "y_max_m": (100.0, _parse_float, _eve_height("y_max_m", zero_ok=True)),
        "step_m": (2.0, _parse_float, _positive("step_m")),
        "mode": (MODE_DETERMINISTIC, _parse_str, _choice("mode", {MODE_DETERMINISTIC, MODE_PROBABILISTIC})),
        "target_rate_bps": (10e9, _parse_float, _nonnegative("target_rate_bps")),
        "max_cells": (4e6, _parse_float, _positive("max_cells")),
    },
    "sweep": {
        "parameter": (None, _parse_str, _choice("parameter", _SWEEP_KEYS)),
        "values": (None, _parse_float_list, _distinct_values),
    },
}


# Settings as given: {section: {key: (raw, lineno)}}, no line number off an INI file
Settings = Dict[str, Dict[str, Tuple[Any, Optional[int]]]]


def _read_ini(path: Path) -> Settings:
    """Parse the INI-style format into {section: {key: (raw, lineno)}}."""
    sections: Settings = {}
    current = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {current}.{key}")
        sections[current][key] = (raw.strip(), lineno)
    return sections


def _read_json(path: Path) -> Settings:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object of sections")
    sections: Settings = {}
    for sec, body in data.items():
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {sec!r} must be an object")
        sections[sec] = {k: (v, None) for k, v in body.items()}
    return sections


def _loc(path, lineno) -> str:
    return f"{path}:{lineno}" if lineno is not None else str(path)


@dataclass(frozen=True)
class _Models:
    """The model objects of one resolved config, built once by ``_resolve``:
    all are frozen, so every caller shares them."""

    scenario: LinkScenario
    scattering: ScatteringParams
    scan_spec: ScanSpec
    conditions: AtmosphereConditions
    wave: Wave
    backend: AbsorptionBackend


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully resolved, validated configuration; built only by ``_resolve``."""

    values: Dict[str, Dict[str, Any]]
    source: str
    settings: Settings = field(compare=False, repr=False)
    models: _Models = field(compare=False, repr=False)
    # the config of each sweep value, resolved with this one; None for a
    # sweep value's own config
    sweep_cfgs: Optional[Tuple["ResolvedConfig", ...]] = field(
        default=None, compare=False, repr=False
    )

    def __getitem__(self, section: str) -> Dict[str, Any]:
        return self.values[section]

    # ---- the model objects, built by _resolve -------------------------

    def conditions(self) -> AtmosphereConditions:
        return self.models.conditions

    def wave(self) -> Wave:
        return self.models.wave

    def backend(self) -> AbsorptionBackend:
        return self.models.backend

    def scenario(self) -> LinkScenario:
        return self.models.scenario

    def scattering(self) -> ScatteringParams:
        return self.models.scattering

    def scan_spec(self) -> ScanSpec:
        return self.models.scan_spec

    def sweep_spec(self) -> Optional[SweepSpec]:
        s = self.values["sweep"]
        if s["parameter"] is None:
            return None
        return SweepSpec(parameter=s["parameter"], values=s["values"])

    def duty_cycle(self) -> float:
        return self.values["secrecy"]["duty_cycle"]

    def paper_exact(self) -> bool:
        return self.values["secrecy"]["paper_exact"]

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Deep copy of the resolved values, suitable for a metadata echo."""
        return {sec: dict(body) for sec, body in self.values.items()}

    def with_value(self, section: str, key: str, value: Any) -> "ResolvedConfig":
        """Copy with one setting replaced, resolved and checked exactly as if
        the file had set it."""
        return self._override(section, key, value, f"{section}.{key} = {value!r}")

    def sweep_configs(self) -> Tuple["ResolvedConfig", ...]:
        """The config of each sweep value, in order: the ones resolved with
        this config, or resolved now for a sweep value's own config."""
        if self.sweep_cfgs is not None:
            return self.sweep_cfgs
        spec = self.sweep_spec()
        if spec is None:
            return ()
        return tuple(self.with_sweep_value(spec.parameter, v) for v in spec.values)

    def with_sweep_value(self, parameter: str, value: float) -> "ResolvedConfig":
        if parameter not in _SWEEP_KEYS:
            raise ConfigError(f"unknown sweep parameter {parameter!r}")
        section, key = _SWEEP_KEYS[parameter]
        return self._override(section, key, value, f"sweep {parameter} = {value!r}", check_sweep=False)

    def _override(self, section, key, value, origin, check_sweep=True):
        settings = {sec: dict(body) for sec, body in self.settings.items()}
        settings.setdefault(section, {})[key] = (value, None)
        return _resolve(settings, f"{self.source} with {origin}", check_sweep)


def _receiver(values, section: str, **optics) -> ReceiverParams:
    r = values[section]
    return ReceiverParams(
        aperture_d=r["aperture_m"],
        efficiency=r["efficiency"],
        integration_time_s=r["integration_time_s"],
        background_count=r["background_count"],
        **optics,
    )


def _scenario(values) -> LinkScenario:
    link = values["link"]
    return LinkScenario(
        freq_hz=link["freq_hz"],
        d=link["distance_m"],
        eve_xy=(link["eve_x_m"], link["eve_y_m"]),
        alpha_a=link["divergence_rad"],
        tx_power_w=link["tx_power_w"],
        bob=_receiver(values, "bob"),
        eve=_receiver(values, "eve", fov_full_rad=math.radians(values["eve"]["fov_deg"])),
    )


def _resolve(settings: Settings, src: str, check_sweep: bool = True) -> ResolvedConfig:
    """Parse and check each setting, fill in defaults, apply the cross-key
    rules and build every model object once (``_Models``), so a config that
    resolves also runs and its accessors return what was checked.
    ``check_sweep`` resolves each sweep value too and keeps its
    config (not for a sweep's own sub-configs, so it does not recurse).
    ``src`` prefixes the errors."""
    resolved = {sec: {k: spec[0] for k, spec in keys.items()} for sec, keys in _SCHEMA.items()}
    for sec, body in settings.items():
        if sec not in _SCHEMA:
            raise ConfigError(f"{src}: unknown section [{sec}]")
        for key, (raw, lineno) in body.items():
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"{_loc(src, lineno)}: unknown key {sec}.{key}")
            _, parser, validator = _SCHEMA[sec][key]
            try:
                value = parser(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{_loc(src, lineno)}: {sec}.{key}: {exc}") from None
            message = validator(value)
            if message is not None:
                raise ConfigError(f"{_loc(src, lineno)}: {sec}.{key}: {message}")
            resolved[sec][key] = value

    # cross-key resolution and constraints
    atmosphere = resolved["atmosphere"]
    if atmosphere["absorption"] == "constant" and atmosphere["absorption_db_per_km"] is None:
        raise ConfigError(
            f"{src}: atmosphere.absorption_db_per_km is required when absorption = constant"
        )
    rate = resolved["scan"]["target_rate_bps"]
    for sec in ("bob", "eve"):
        if resolved[sec]["integration_time_s"] is None:
            # slot time defaults to one bit period at the intended data rate
            slot = 1.0 / rate if rate > 0 else math.inf
            if not math.isfinite(slot):
                raise ConfigError(
                    f"{src}: {sec}.integration_time_s has no default at scan.target_rate_bps = {rate!r}"
                )
            resolved[sec]["integration_time_s"] = slot
    spec = ScanSpec(**resolved["scan"])
    if spec.x_max_m < spec.x_min_m:
        raise ConfigError(f"{src}: scan.x_max_m < scan.x_min_m (empty range)")
    if spec.y_max_m < spec.y_min_m:
        raise ConfigError(f"{src}: scan.y_max_m < scan.y_min_m (empty range)")
    # counted, not built: a fine step must fail here, not fill memory
    n_cells = spec._points(spec.x_min_m, spec.x_max_m) * spec._points(spec.y_min_m, spec.y_max_m)
    if n_cells > spec.max_cells:
        raise ConfigError(
            f"{src}: scan grid has {n_cells} cells, above scan.max_cells = {spec.max_cells:g}"
        )
    # a step below the spacing of floats at the axis' magnitude repeats values
    for name, axis in (("x", spec.xs), ("y", spec.ys)):
        if len(set(axis)) != len(axis):
            raise ConfigError(
                f"{src}: scan.step_m = {spec.step_m!r} repeats values on the {name} axis "
                f"({len(set(axis))} distinct of {len(axis)})"
            )
    if spec.mode == MODE_PROBABILISTIC and atmosphere["cn2"] == 0.0:
        raise ConfigError(
            f"{src}: atmosphere.cn2 must be > 0 in probabilistic mode (no fading otherwise)"
        )
    sweep_param = resolved["sweep"]["parameter"]
    if sweep_param is not None and resolved["sweep"]["values"] is None:
        raise ConfigError(f"{src}: sweep.values is required when sweep.parameter is set")
    if sweep_param is None and resolved["sweep"]["values"] is not None:
        raise ConfigError(f"{src}: sweep.parameter is required when sweep.values is set")

    # fail fast on anything the model objects would reject later, the
    # carrier's place in the supported band and the absorption table included
    try:
        scenario = _scenario(resolved)
        scattering = ScatteringParams(g=resolved["scattering"]["g"], f=resolved["scattering"]["f"])
        if atmosphere["absorption"] == "constant":
            backend = ConstantAbsorption(atmosphere["absorption_db_per_km"])
        elif atmosphere["absorption_table_path"] is not None:
            backend = TableAbsorption.from_csv(atmosphere["absorption_table_path"])
        else:
            backend = default_absorption_table()
        alpha_g = gaseous_extinction(scenario.freq_hz, backend)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{src}: {exc}") from None
    conditions, wave = AtmosphereConditions(cn2=atmosphere["cn2"]), Wave(atmosphere["wave"])
    if _los_gain_underflows(scenario, conditions, wave, backend, alpha_g):
        absorption = (
            f"atmosphere.absorption_db_per_km = {atmosphere['absorption_db_per_km']!r}"
            if atmosphere["absorption"] == "constant"
            else f"the absorption table's {backend.alpha_db_per_km(scenario.freq_hz)!r} dB/km "
            f"at link.freq_hz = {scenario.freq_hz!r}"
        )
        raise ConfigError(
            f"{src}: the line-of-sight gain underflows to 0 at link.distance_m = "
            f"{scenario.d!r}, link.divergence_rad = {scenario.alpha_a!r}, bob.aperture_m = "
            f"{scenario.bob.aperture_d!r} and {absorption}"
        )
    # los_gain's footprint, formed as it forms it: below 4 A its divergence
    # factor exceeds 1 (Bob would receive more than Alice sends), and at 0 it
    # divides by zero; a NaN fails both comparisons
    footprint = math.pi * scenario.d**2 * scenario.alpha_a**2
    if not (footprint > 0.0 and footprint >= 4.0 * scenario.bob.area):
        raise ConfigError(
            f"{src}: the beam's footprint pi d^2 alpha^2 = {footprint!r} m^2 is smaller than "
            f"4 times Bob's aperture area, so the line-of-sight gain would exceed 1, at "
            f"link.distance_m = {scenario.d!r}, link.divergence_rad = {scenario.alpha_a!r} "
            f"and bob.aperture_m = {scenario.bob.aperture_d!r}"
        )
    cfg = ResolvedConfig(
        values=resolved, source=src, settings=settings,
        models=_Models(scenario, scattering, spec, conditions, wave, backend),
    )
    if check_sweep:
        cfg = replace(cfg, sweep_cfgs=() if sweep_param is None else tuple(
            cfg.with_sweep_value(sweep_param, value) for value in resolved["sweep"]["values"]
        ))
    return cfg


def _los_gain_underflows(scenario, conditions, wave, backend, alpha_g) -> bool:
    """Whether G_LOS is 0, where Bob receives nothing and no cell means
    anything.  Its gaseous part bounds it; turbulence, within the
    weak-fluctuation regime less than 200 dB, is worked out only where that
    bound is near underflow.  A gain factor that overflows a float gives 0."""
    try:
        bound = los_gain(scenario, ExtinctionBreakdown(alpha_g, 0.0, alpha_g, 0.0, 0.0, 0.0))
        if bound > 1e-280 or bound == 0.0:
            return bound == 0.0
        return los_gain(scenario, extinction(
            scenario.freq_hz, conditions, scenario.d, backend, wave
        )) == 0.0
    except OverflowError:
        return True
    except (RegimeError, ArithmeticError):
        # outside the regime every cell is classified as such; other
        # arithmetic failures are classified where the gain is computed
        return False


def parse_config(path: Union[str, Path, None]) -> ResolvedConfig:
    """Load, validate and resolve a config file (or pure defaults for None)."""
    if path is None:
        return _resolve({}, "<defaults>")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        settings = _read_json(p) if p.suffix.lower() == ".json" else _read_ini(p)
    except OSError as exc:
        raise ConfigError(f"cannot read {p}: {exc}") from None
    return _resolve(settings, str(p))
