#!/usr/bin/env python3
"""Generate the standard risk-map dataset for the default 340 GHz scenario.

Produces, under an output directory (default ./maps):

  capacity_map.csv      2-D secrecy-capacity map, x in [0, 1000] m, y in [2, 100] m
  capacity_y_line.csv   capacity along the x = 750 m line
  outage_y_line.csv     outage probability along the same line
  frequency_sweep/*     capacity lines at 140/220/340/675 GHz
  summary.json          MSC/MOP and insecure-region numbers for each artifact

All outputs come from the same resolved default configuration, so the run
is reproducible bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from thzsec.cli import _threads
from thzsec.config import parse_config
from thzsec.scan import emit, extract_insecure_region, run_scan


def with_all(cfg, settings):
    for (section, key), value in settings.items():
        cfg = cfg.with_value(section, key, value)
    return cfg


LINE = {
    ("scan", "x_min_m"): 750.0,
    ("scan", "x_max_m"): 750.0,
    ("scan", "y_min_m"): 2.0,
    ("scan", "y_max_m"): 100.0,
    ("scan", "step_m"): 2.0,
}


def summarise(result):
    region = extract_insecure_region(result)
    return {
        "mode": result.mode,
        "msc_bps": result.msc_bps,
        "mop": result.mop,
        "insecure_cells": region.cell_count,
        "insecure_area_m2": region.area_m2,
        "regime_error_cells": result.regime_error_cells,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("maps"))
    parser.add_argument("--threads", type=_threads, default=1)
    parser.add_argument("--step", type=float, default=2.0, help="map grid step in metres")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "frequency_sweep").mkdir(exist_ok=True)

    base = parse_config(None)
    summary = {}

    t0 = time.perf_counter()
    map_cfg = with_all(base, {
        ("scan", "x_min_m"): 0.0,
        ("scan", "x_max_m"): 1000.0,
        ("scan", "y_min_m"): 2.0,
        ("scan", "y_max_m"): 100.0,
        ("scan", "step_m"): args.step,
    })
    result = run_scan(map_cfg, threads=args.threads)
    emit(result, "csv", args.out / "capacity_map.csv")
    summary["capacity_map"] = summarise(result)
    print(f"capacity_map: MSC {result.msc_bps / 1e9:.2f} Gbps "
          f"({time.perf_counter() - t0:.1f} s)")

    line_cfg = with_all(base, LINE)
    result = run_scan(line_cfg, threads=args.threads)
    emit(result, "csv", args.out / "capacity_y_line.csv")
    summary["capacity_y_line"] = summarise(result)

    result = run_scan(with_all(line_cfg, {("scan", "mode"): "prob"}), threads=args.threads)
    emit(result, "csv", args.out / "outage_y_line.csv")
    summary["outage_y_line"] = summarise(result)
    print(f"outage_y_line: MOP {result.mop * 100:.4f}%")

    for freq in (140e9, 220e9, 340e9, 675e9):
        result = run_scan(with_all(line_cfg, {("link", "freq_hz"): freq}), threads=args.threads)
        name = f"capacity_{freq / 1e9:.0f}ghz.csv"
        emit(result, "csv", args.out / "frequency_sweep" / name)
        summary[f"capacity_{freq / 1e9:.0f}ghz"] = summarise(result)
        print(f"{name}: MSC {result.msc_bps / 1e9:.3g} Gbps")

    (args.out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}/summary.json")


if __name__ == "__main__":
    main()
