"""2-D eavesdropper-position scans, 1-D parameter sweeps, insecure-region
extraction and CSV/JSON emission.

A scan fills a preallocated array, row-major (y outer, x inner), in three
parts.  What does not depend on Eve's position (extinction, the LOS gain,
the scenario) is computed once.  One ``nlos_gain_field`` call then gives the
steering-optimised NLOS gain of every cell, and the scalar metric (secrecy
capacity or outage probability) follows per cell.  A cell's gain does not
depend on the other cells of the field call, so splitting the rows into
blocks for worker processes cannot change the output.  Cells whose metric
hits the turbulence-regime validity limit are recorded as NaN and counted;
cells at y = 0 (no defined eavesdropper geometry) likewise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .atmosphere import RegimeError, extinction
from .channel import ChannelGains, los_gain, nlos_gain_field
from .config import MODE_DETERMINISTIC, MODE_PROBABILISTIC, ResolvedConfig
from .outage import outage_from_gains
from .secrecy import detection_rates, secrecy_capacity

__all__ = [
    "ScanResult",
    "InsecureRegion",
    "run_scan",
    "run_sweep",
    "extract_insecure_region",
    "emit",
    "load_csv",
    "load_json",
    "JSON_SCHEMA",
]


@dataclass(frozen=True)
class ScanResult:
    """Dense grid of secrecy capacities (bit/s) or outage probabilities."""

    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    values: np.ndarray  # shape (len(ys), len(xs))
    mode: str
    msc_bps: Optional[float]  # deterministic mode only
    mop: Optional[float]  # probabilistic mode only
    regime_error_cells: int
    invalid_position_cells: int
    metadata: Dict[str, Any]

    def is_insecure(self) -> np.ndarray:
        """Boolean mask of insecure cells (C_s = 0 or P_o = 1, bit-exact)."""
        if self.mode == MODE_DETERMINISTIC:
            return self.values == 0.0
        return self.values == 1.0


@dataclass(frozen=True)
class InsecureRegion:
    """Per-row maximal runs of insecure cells and the region's size."""

    runs_by_row: Dict[int, List[Tuple[int, int]]]  # iy -> [(ix_first, ix_last)]
    cell_count: int
    area_m2: float


def _eval_rows(payload) -> Tuple[np.ndarray, int, int]:
    """Values of a block of rows, with its regime-error and invalid-position
    cell counts: one gain-field call, then the metric per cell."""
    (ys, xs, scenario, ext, g_los, scattering, mode, target, q, paper_exact) = payload
    block = np.full((len(ys), len(xs)), math.nan)
    y_grid, x_grid = np.meshgrid(ys, xs, indexing="ij")
    valid = y_grid != 0.0
    invalid = block.size - int(valid.sum())
    if mode == MODE_PROBABILISTIC and target <= 0.0:
        # the capacity is never below a nonpositive target (outage_scan_point)
        block[valid] = 0.0
        return block, 0, invalid
    steering, g_nlos = nlos_gain_field(x_grid[valid], y_grid[valid], scenario, ext, scattering)
    cells: List[float] = []
    regime = 0
    for angle, g in zip(steering.tolist(), g_nlos.tolist()):
        # the metrics read only the two gains, not the segment
        gains = ChannelGains(g_los=g_los, g_nlos=g, steering_rad=angle, seg=None)
        try:
            if mode == MODE_DETERMINISTIC:
                rates = detection_rates(scenario, gains, q)
                cells.append(secrecy_capacity(rates, paper_exact).c_s_bps)
            else:
                cells.append(
                    outage_from_gains(
                        scenario, gains, ext.beta_r2_sph, target, q, paper_exact
                    ).p_o
                )
        except RegimeError:
            cells.append(math.nan)
            regime += 1
    block[valid] = cells
    return block, regime, invalid


def run_scan(cfg: ResolvedConfig, threads: int = 1) -> ScanResult:
    """Evaluate the configured grid; deterministic for a fixed config.

    ``threads`` > 1 splits the rows into that many blocks, each computed in
    its own worker process.
    """
    spec = cfg.scan_spec()
    scenario = cfg.scenario()
    scattering = cfg.scattering()
    conditions = cfg.conditions()
    q = cfg.duty_cycle()
    paper_exact = cfg.paper_exact()
    xs, ys = spec.xs, spec.ys

    values = np.full((len(ys), len(xs)), np.nan)
    regime_cells = 0
    invalid_cells = 0
    try:
        ext = extinction(
            scenario.freq_hz, conditions, scenario.d, cfg.backend(), cfg.wave()
        )
    except RegimeError:
        # whole scan outside the weak-fluctuation regime: all cells NaN
        regime_cells = values.size
        ext = None

    if ext is not None:
        g_los = los_gain(scenario, ext)
        blocks = [
            b for b in np.array_split(np.arange(len(ys)), max(threads, 1)) if b.size
        ]
        payloads = [
            ([ys[i] for i in rows], xs, scenario, ext, g_los, scattering, spec.mode,
             spec.target_rate_bps, q, paper_exact)
            for rows in blocks
        ]
        if len(payloads) == 1:
            results = map(_eval_rows, payloads)
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=len(payloads)) as executor:
                results = list(executor.map(_eval_rows, payloads))
        for rows, (block, regime, invalid) in zip(blocks, results):
            values[rows] = block
            regime_cells += regime
            invalid_cells += invalid

    valid = values[~np.isnan(values)]
    msc = mop = None
    if spec.mode == MODE_DETERMINISTIC:
        msc = float(valid.max()) if valid.size else None
    else:
        mop = float(valid.min()) if valid.size else None

    metadata = {
        "config": cfg.to_dict(),
        "mode": spec.mode,
        "regime_error_cells": regime_cells,
        "invalid_position_cells": invalid_cells,
    }
    return ScanResult(
        xs=tuple(xs),
        ys=tuple(ys),
        values=values,
        mode=spec.mode,
        msc_bps=msc,
        mop=mop,
        regime_error_cells=regime_cells,
        invalid_position_cells=invalid_cells,
        metadata=metadata,
    )


def run_sweep(
    cfg: ResolvedConfig,
    out_stem: Optional[Path] = None,
    fmt: str = "csv",
    threads: int = 1,
):
    """Run one scan per sweep value; emit one file per value when asked.

    Output files follow ``<stem>_<parameter>=<value>.<ext>``.
    """
    sweep = cfg.sweep_spec()
    if sweep is None:
        raise ValueError("configuration has no [sweep] section")
    outputs = []
    for value in sweep.values:
        sub_cfg = cfg.with_sweep_value(sweep.parameter, value)
        result = run_scan(sub_cfg, threads=threads)
        path = None
        if out_stem is not None:
            path = out_stem.with_name(
                f"{out_stem.stem}_{sweep.parameter}={value!r}.{fmt}"
            )
            emit(result, fmt, path)
        outputs.append((value, result, path))
    return outputs


def extract_insecure_region(result: ScanResult) -> InsecureRegion:
    """Maximal per-row runs of insecure cells and the aggregate region."""
    mask = result.is_insecure()
    # +1 where a run starts, -1 one past where it ends; row-major nonzero
    # order pairs each row's starts with its ends
    edges = np.diff(np.pad(mask.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    start_rows, starts = np.nonzero(edges == 1)
    _, stops = np.nonzero(edges == -1)
    runs: Dict[int, List[Tuple[int, int]]] = {}
    for iy, first, last in zip(start_rows.tolist(), starts.tolist(), (stops - 1).tolist()):
        runs.setdefault(iy, []).append((first, last))
    count = int(mask.sum())
    step = result.metadata["config"]["scan"]["step_m"]
    return InsecureRegion(
        runs_by_row=runs,
        cell_count=count,
        area_m2=count * step * step,
    )


# ---------------------------------------------------------------------------
# emission / loading

JSON_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "schema_version",
        "mode",
        "x_m",
        "y_m",
        "values",
        "msc_bps",
        "mop",
        "regime_error_cells",
        "invalid_position_cells",
        "insecure_runs_by_row",
        "metadata",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "mode": {"enum": [MODE_DETERMINISTIC, MODE_PROBABILISTIC]},
        "x_m": {"type": "array", "items": {"type": "number"}},
        "y_m": {"type": "array", "items": {"type": "number"}},
        # null marks a cell outside the model's validity (NaN in memory)
        "values": {
            "type": "array",
            "items": {"type": "array", "items": {"type": ["number", "null"]}},
        },
        "msc_bps": {"type": ["number", "null"]},
        "mop": {"type": ["number", "null"]},
        "regime_error_cells": {"type": "integer"},
        "invalid_position_cells": {"type": "integer"},
        "insecure_runs_by_row": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
        "metadata": {"type": "object"},
    },
}


def _float_token(v: float) -> str:
    """Shortest exact decimal representation (round-trips via float())."""
    if math.isnan(v):
        return "nan"
    return repr(float(v))


def _config_json(metadata: Dict[str, Any]) -> str:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":"))


def emit(result: ScanResult, fmt: str, path: Union[str, Path]) -> None:
    """Write the scan result as CSV or JSON; re-parsing is bit-exact."""
    path = Path(path)
    if fmt == "csv":
        lines = [f"# config: {_config_json(result.metadata)}"]
        lines.append(f"# mode: {result.mode}")
        if result.msc_bps is not None:
            lines.append(f"# msc_bps: {_float_token(result.msc_bps)}")
        if result.mop is not None:
            lines.append(f"# mop: {_float_token(result.mop)}")
        lines.append(f"# regime_error_cells: {result.regime_error_cells}")
        lines.append(f"# invalid_position_cells: {result.invalid_position_cells}")
        lines.append("x_m,y_m,value")
        for iy, y in enumerate(result.ys):
            for ix, x in enumerate(result.xs):
                lines.append(
                    f"{_float_token(x)},{_float_token(y)},{_float_token(result.values[iy, ix])}"
                )
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        region = extract_insecure_region(result)
        payload = {
            "schema_version": 1,
            "mode": result.mode,
            "x_m": list(result.xs),
            "y_m": list(result.ys),
            "values": [
                [None if math.isnan(v) else v for v in row]
                for row in result.values.tolist()
            ],
            "msc_bps": result.msc_bps,
            "mop": result.mop,
            "regime_error_cells": result.regime_error_cells,
            "invalid_position_cells": result.invalid_position_cells,
            "insecure_runs_by_row": {
                str(iy): [list(r) for r in runs]
                for iy, runs in region.runs_by_row.items()
            },
            "metadata": result.metadata,
        }
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def load_csv(path: Union[str, Path]):
    """Re-read an emitted CSV into (xs, ys, values, header_fields).

    Only the layout ``emit`` writes is accepted: header lines, the column
    line, then one row per cell in row-major order (y outer, x inner) with
    every cell of the grid exactly once.  Anything else raises ValueError.
    """
    header: Dict[str, str] = {}
    lines = iter(Path(path).read_text().splitlines())
    columns = next(lines, "")
    while columns.startswith("#"):
        key, _, value = columns[1:].partition(":")
        header[key.strip()] = value.strip()
        columns = next(lines, "")
    if columns.strip() != "x_m,y_m,value":
        raise ValueError(f"{path}: unexpected column header {columns!r}")
    x_col, y_col, v_col = [], [], []
    for line in lines:
        sx, sy, sv = line.split(",")
        x_col.append(float(sx))
        y_col.append(float(sy))
        v_col.append(float(sv))
    if not y_col:
        raise ValueError(f"{path}: no data rows")
    nx = next((i for i in range(1, len(y_col)) if y_col[i] != y_col[0]), len(y_col))
    xs, ys = x_col[:nx], y_col[::nx]
    ny = len(ys)
    if (
        len(set(xs)) != nx
        or len(set(ys)) != ny
        or x_col != xs * ny
        or y_col != [y for y in ys for _ in xs]
    ):
        raise ValueError(f"{path}: rows are not a full {nx} x {ny} grid in row-major order")
    return xs, ys, np.array(v_col, dtype=float).reshape(ny, nx), header


def load_json(path: Union[str, Path]):
    """Re-read an emitted JSON into (xs, ys, values, payload).

    Raises ValueError unless ``values`` is a len(y_m) x len(x_m) grid.
    """
    payload = json.loads(Path(path).read_text())
    xs, ys, rows = payload["x_m"], payload["y_m"], payload["values"]
    if len(rows) != len(ys) or any(
        not isinstance(row, list) or len(row) != len(xs) for row in rows
    ):
        raise ValueError(f"{path}: values are not a {len(ys)} x {len(xs)} grid")
    values = np.array(
        [[math.nan if v is None else v for v in row] for row in rows], dtype=float
    ).reshape(len(ys), len(xs))
    return xs, ys, values, payload
