"""Command-line interface.

Subcommands:
  scan      evaluate the configured 2-D eavesdropper-position grid
  point     full pipeline breakdown at the configured single position
  sweep     one scan per value of the configured sweep parameter
  validate  parse and check a configuration, echo the resolved values

Exit codes: 0 success, 1 configuration error, 2 runtime/regime failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .atmosphere import RegimeError, extinction
from .channel import compute_channel_gains
from .config import MODE_PROBABILISTIC, ConfigError, parse_config
from .outage import outage_from_gains
from .scan import _emit_text, _write_over, emit, run_scan, run_sweep
from .secrecy import detection_rates, secrecy_capacity
from .units import np_per_m_to_db_per_km

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit on usage errors."""

    def error(self, message):
        raise ConfigError(message)


def _threads(raw: str) -> int:
    n = int(raw)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built on first use and then reused: parse_args keeps no
    state between calls."""
    parser = _Parser(prog="thzsec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--config": dict(type=Path, default=None, help="config file (INI-style or .json)"),
        "--out": dict(type=Path, default=None, help="output path"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--mode": dict(choices=("det", "prob"), default=None,
                       help="override scan.mode from the config"),
        "--threads": dict(type=_threads, default=1, help="worker processes for scans"),
    }
    for name, doc, names in (
        ("scan", "evaluate the 2-D position grid", options),
        ("point", "single-position pipeline breakdown", ("--config", "--out", "--mode")),
        ("sweep", "one scan per configured sweep value", options),
        ("validate", "check a configuration file", ("--config", "--mode")),
    ):
        p = sub.add_parser(name, help=doc)
        for option in names:
            p.add_argument(option, **options[option])
    return parser


def _names_stdout(path: Path) -> bool:
    """Whether ``path`` is the file open as ``sys.stdout``; never for a
    stdout without a descriptor.  A result for that file is written through
    ``sys.stdout``, after the lines printed so far: a second descriptor
    would write from its own offset, over them."""
    try:
        out, named = os.fstat(sys.stdout.fileno()), os.stat(path)
    except (OSError, ValueError):
        return False
    return (out.st_dev, out.st_ino) == (named.st_dev, named.st_ino)


def _print_flushed(text: str) -> None:
    sys.stdout.write(text)
    sys.stdout.flush()


def _resolved(args):
    cfg = parse_config(args.config)
    if args.mode is not None:
        cfg = cfg.with_value("scan", "mode", args.mode)
    return cfg


def _cmd_validate(args) -> int:
    cfg = _resolved(args)
    print(f"config OK ({cfg.source})")
    print(json.dumps(cfg.to_dict(), sort_keys=True, indent=1))
    return EXIT_OK


def _cmd_scan(args) -> int:
    cfg = _resolved(args)
    result = run_scan(cfg, threads=args.threads)
    # the count and area as extract_insecure_region gives them, without its runs
    insecure = int(result.is_insecure().sum())
    step = result.metadata["config"]["scan"]["step_m"]
    print(f"grid: {len(result.xs)} x {len(result.ys)} cells, mode={result.mode}")
    if result.msc_bps is not None:
        print(f"msc_bps: {result.msc_bps:.6g}")
    if result.mop is not None:
        print(f"mop: {result.mop:.6g}")
    print(f"insecure cells: {insecure} (area {insecure * step * step:.6g} m^2)")
    print(f"regime-error cells: {result.regime_error_cells}")
    if args.out is not None:
        if _names_stdout(args.out):
            _print_flushed(_emit_text(result, args.format))
        else:
            emit(result, args.format, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _resolved(args)
    outputs = run_sweep(cfg, out_stem=args.out, fmt=args.format, threads=args.threads)
    for value, result, path in outputs:
        summary = (
            f"msc_bps={result.msc_bps:.6g}" if result.msc_bps is not None
            else f"mop={result.mop:.6g}" if result.mop is not None
            else "all cells invalid"
        )
        where = f" -> {path}" if path else ""
        print(f"{value!r}: {summary}{where}")
    return EXIT_OK


def _cmd_point(args) -> int:
    cfg = _resolved(args)
    scenario = cfg.scenario()
    conditions = cfg.conditions()
    spec = cfg.scan_spec()
    ext = extinction(scenario.freq_hz, conditions, scenario.d, cfg.backend(), cfg.wave())
    gains = compute_channel_gains(scenario, ext, cfg.scattering())
    rates = detection_rates(scenario, gains, cfg.duty_cycle())
    secrecy = secrecy_capacity(rates, cfg.paper_exact())

    report = {
        "eve_xy_m": list(scenario.eve_xy),
        "freq_hz": scenario.freq_hz,
        "turbulence_class": conditions.turbulence_class.value,
        "extinction": {
            "alpha_g_np_per_m": ext.alpha_g,
            "alpha_t_np_per_m": ext.alpha_t,
            "alpha_att_np_per_m": ext.alpha_att,
            "alpha_att_db_per_km": np_per_m_to_db_per_km(ext.alpha_att),
            "a_t_db": ext.a_t_db,
            "sigma_r2_plane": ext.sigma_r2_plane,
            "beta_r2_sph": ext.beta_r2_sph,
            "rytov_valid": max(ext.sigma_r2_plane, ext.beta_r2_sph) < 1.0,
        },
        "gains": {
            "g_los": gains.g_los,
            "g_nlos": gains.g_nlos,
            "steering_rad": gains.steering_rad,
            "scattering_segment_m": list(gains.seg) if gains.seg else None,
        },
        "rates_per_slot": {
            "lambda_l": rates.lambda_l,
            "lambda_n": rates.lambda_n,
            "lambda_b": rates.lambda_b,
            "lambda_e": rates.lambda_e,
            "snr_bob_db": rates.snr_bob_db,
            "snr_eve_db": rates.snr_eve_db,
        },
        "secrecy": {
            "i_bob_bits_per_slot": secrecy.i_bob,
            "i_eve_bits_per_slot": secrecy.i_eve,
            "c_s_bits_per_slot": secrecy.c_s_slot,
            "c_s_bps": secrecy.c_s_bps,
            "insecure": secrecy.insecure,
        },
    }
    if spec.mode == MODE_PROBABILISTIC:
        outage = outage_from_gains(
            scenario, gains, ext.beta_r2_sph, spec.target_rate_bps,
            cfg.duty_cycle(), cfg.paper_exact(),
        )
        report["outage"] = {
            "target_rate_bps": spec.target_rate_bps,
            "g_threshold": outage.g_threshold,
            "p_o": outage.p_o,
            "sigma_r2": outage.fading.sigma_r2,
            "median_gain": outage.fading.median_gain,
        }

    def sanitize(v):
        if isinstance(v, dict):
            return {k: sanitize(x) for k, x in v.items()}
        if isinstance(v, list):
            return [sanitize(x) for x in v]
        if isinstance(v, float) and not math.isfinite(v):
            return None
        return v

    text = json.dumps(sanitize(report), indent=1, sort_keys=True)
    print(text)
    if args.out is not None:
        if _names_stdout(args.out):
            _print_flushed(text + "\n")
        else:
            _write_over(args.out, text + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handlers = {
        "scan": _cmd_scan,
        "point": _cmd_point,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RegimeError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
