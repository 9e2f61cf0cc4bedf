"""2-D eavesdropper-position scans, 1-D parameter sweeps, insecure-region
extraction and CSV/JSON emission.

A scan is constants + field + metric, row-major (y outer, x inner).  The
constants do not depend on Eve's position: the extinction, the LOS gain,
the scenario.  The field is the steering-optimised NLOS gain of every cell,
from ``nlos_gain_field``.  The metric (secrecy capacity or outage
probability) is a function of a cell's NLOS gain alone, built once per scan
from the constants (``_metric``).  Within one scan loop the last extinction
and Bob-side constants (``_link``) are reused while their inputs stay
equal, so an ``eve_background`` sweep computes them once.  ``run_scan``
and ``run_sweep`` run one loop over their configs (``_scans``), which maps
each config's row blocks to worker calls (``_block``) that compute the
blocks' field, unless the last field has the key of the inputs the
config's is computed from (``FieldKey``) and is passed in, and then the
metric of every cell.  A cell's gain and metric do not depend on the other
cells, so splitting the rows into blocks for worker processes cannot
change the output.  A scan outside the weak-fluctuation regime computes
nothing and is NaN and counted as such in every cell; cells at y = 0 (no
defined eavesdropper geometry) are NaN and counted too.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .atmosphere import ExtinctionBreakdown, RegimeError, extinction
from .channel import LinkScenario, ScatteringParams, los_gain, nlos_gain_field
from .config import MODE_DETERMINISTIC, MODE_PROBABILISTIC, ConfigError, ResolvedConfig
from .outage import FadingModel, _BobCurve, outage_probability
from .secrecy import _signal_count, ook_mutual_information
from .units import photon_energy_j

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


@dataclass(frozen=True)
class FieldKey:
    """The inputs ``_block`` passes to ``nlos_gain_field``: the grid,
    the link length, Eve's aperture and FOV, the extinction coefficient and
    the phase function.  Equal keys give bit-identical fields."""

    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    d: float
    aperture_d: float
    fov_full_rad: float
    alpha_att: Optional[float]  # None outside the weak-fluctuation regime
    scattering: ScatteringParams


class _Last:
    """The value of the last key a scan loop met: ``get(key, fn, *args)``
    returns it while the key stays equal and calls ``fn(*args)`` for a new
    one.  Each scan loop has its own, so nothing outlives a sweep."""

    def __init__(self):
        self.key = self.value = None

    def get(self, key: tuple, fn, *args):
        if key != self.key:
            self.value = fn(*args)
            self.key = key
        return self.value


def _inputs(
    cfg: ResolvedConfig, extinctions: _Last
) -> Tuple[LinkScenario, Optional[ExtinctionBreakdown], FieldKey]:
    """The config's scenario, its extinction (None outside the
    weak-fluctuation regime; the last one while its inputs stay equal) and
    its field's key."""
    scenario, spec = cfg.scenario(), cfg.scan_spec()
    args = (scenario.freq_hz, cfg.conditions(), scenario.d, cfg.backend(), cfg.wave())
    try:
        ext = extinctions.get(args, extinction, *args)
    except RegimeError:
        ext = None
    key = FieldKey(
        tuple(spec.xs), tuple(spec.ys), scenario.d, scenario.eve.aperture_d,
        scenario.eve.fov_full_rad, None if ext is None else ext.alpha_att, cfg.scattering(),
    )
    return scenario, ext, key


class _Workers:
    """Row blocks of a grid and a map over them: in this process for a single
    block, else in one process pool, started on first use and shared by
    every map of a scan or sweep."""

    def __init__(self, threads: int):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self._pool = None

    def blocks(self, n_rows: int) -> List[slice]:
        """``np.array_split``'s blocks of the rows, as slices: the first
        n_rows % threads blocks one row longer; empty blocks dropped."""
        size, longer = divmod(n_rows, self.threads)
        ends = [i * size + min(i, longer) for i in range(self.threads + 1)]
        return [slice(lo, hi) for lo, hi in zip(ends, ends[1:]) if hi > lo]

    def map(self, fn, payloads: list) -> list:
        if len(payloads) == 1:
            return [fn(payloads[0])]
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=len(payloads))
        return list(self._pool.map(fn, payloads))

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()


@dataclass(frozen=True)
class _Link:
    """A scan's Bob-side constants: they do not depend on Eve, so a scan
    loop reuses them while their inputs stay equal (``_metric``)."""

    e_photon: float
    i_bob: float  # bits/slot
    fading: Optional[FadingModel]  # prob mode only
    bob: Optional[_BobCurve]  # prob mode only


def _link(scenario: LinkScenario, ext: ExtinctionBreakdown, q, exact, prob) -> _Link:
    """G_LOS, Bob's count and information as ``detection_rates`` and
    ``secrecy_capacity`` form them, and in prob mode the fading model and
    Bob's curve."""
    g_los = los_gain(scenario, ext)
    e_p = photon_energy_j(scenario.freq_hz)
    bob = scenario.bob
    lambda_l = _signal_count(scenario, bob, g_los, e_p)
    i_bob = ook_mutual_information(lambda_l, bob.background_count, q, exact)
    if not prob:
        return _Link(e_p, i_bob, None, None)
    curve = _BobCurve.of(scenario, bob.background_count, q, exact)
    return _Link(e_p, i_bob, FadingModel(g_los, ext.beta_r2_sph), curve)


@dataclass(frozen=True)
class _Metric:
    """A scan's metric as a function of one cell's NLOS gain.  All else it
    reads is built once per scan, by ``_metric``."""

    scenario: LinkScenario
    link: _Link
    q: float
    paper_exact: bool
    target_rate_bps: float
    target_bits: float  # the target rate times Bob's slot time, bits/slot

    def __call__(self, g_nlos: float) -> float:
        sc, link = self.scenario, self.link
        if link.fading is not None and self.target_rate_bps <= 0.0:
            return 0.0  # the capacity is never below a nonpositive target (outage_scan_point)
        lam_n = _signal_count(sc, sc.eve, g_nlos, link.e_photon)
        i_eve = ook_mutual_information(lam_n, sc.eve.background_count, self.q, self.paper_exact)
        if link.fading is None:
            return max(0.0, link.i_bob - i_eve) / sc.bob.integration_time_s
        # threshold_gain's kernel at its level R * tau + I_eve
        g_star = link.bob.threshold(self.target_bits + i_eve)
        return 1.0 if g_star is None else outage_probability(link.fading, g_star)


def _metric(cfg: ResolvedConfig, ext: ExtinctionBreakdown, links: _Last) -> _Metric:
    """The config's metric, with the last Bob-side constants of ``links``
    while their inputs stay equal."""
    scenario, spec = cfg.scenario(), cfg.scan_spec()
    q, exact, prob = cfg.duty_cycle(), cfg.paper_exact(), spec.mode == MODE_PROBABILISTIC
    # everything _link reads
    key = (scenario.freq_hz, scenario.d, scenario.alpha_a, scenario.tx_power_w, scenario.bob,
           ext, q, exact, prob)
    link = links.get(key, _link, scenario, ext, q, exact, prob)
    return _Metric(scenario, link, q, exact, spec.target_rate_bps,
                   spec.target_rate_bps * scenario.bob.integration_time_s)


def _block(payload) -> Tuple[Optional[np.ndarray], List[float]]:
    """A block of rows (``ys``, an array) in a worker: their gain field,
    NaN at y = 0, unless the payload carries it, then the metric of every
    cell with y != 0, row by row.  Returns the field computed here (None where it was given) and
    the cell values."""
    ys, xs, metric, g_nlos, scenario, ext, scattering = payload
    valid = ys != 0.0
    fresh = g_nlos is None
    if fresh:
        x_grid, y_grid = np.empty((2, int(valid.sum()), len(xs)))
        x_grid[:] = xs
        y_grid[:] = ys[valid, None]
        g_nlos = np.full((len(ys), len(xs)), math.nan)
        g_nlos[valid] = nlos_gain_field(x_grid, y_grid, scenario, ext, scattering)[1]
    values = [metric(g) for g in g_nlos[valid].ravel().tolist()]
    return (g_nlos if fresh else None), values


def _result(cfg: ResolvedConfig, key: FieldKey, values: Optional[List[float]]) -> ScanResult:
    """The scan result of the cell values of every row with y != 0, in
    row-major order; every cell a regime cell where ``values`` is None."""
    spec = cfg.scan_spec()
    xs, ys = key.xs, key.ys
    grid = np.full((len(ys), len(xs)), np.nan)
    if values is None:
        # all NaN outside the weak-fluctuation regime; inside it no cell can
        # leave it, as extinction bounded the spherical (fading) variance
        regime_cells, invalid_cells = grid.size, 0
    else:
        valid = np.asarray(ys) != 0.0
        grid[valid] = np.reshape(values, (-1, len(xs)))
        regime_cells, invalid_cells = 0, (len(ys) - int(valid.sum())) * len(xs)

    finite = grid[~np.isnan(grid)]
    msc = mop = None
    if spec.mode == MODE_DETERMINISTIC:
        msc = float(finite.max()) if finite.size else None
    else:
        mop = float(finite.min()) if finite.size else None

    metadata = {
        "config": cfg.to_dict(),
        "mode": spec.mode,
        "regime_error_cells": regime_cells,
        "invalid_position_cells": invalid_cells,
    }
    return ScanResult(
        xs=xs,
        ys=ys,
        values=grid,
        mode=spec.mode,
        msc_bps=msc,
        mop=mop,
        regime_error_cells=regime_cells,
        invalid_position_cells=invalid_cells,
        metadata=metadata,
    )


def _scans(cfgs: Iterable[ResolvedConfig], threads: int) -> Iterator[ScanResult]:
    """Each config's scan, in order, in one worker pool, one map over the
    row blocks per config inside the weak-fluctuation regime (none outside
    it).  Only the last gain field is kept, with its key: a config passes it
    to the workers while its key is that one, and has them compute a new
    one otherwise.  So are the last extinction and Bob-side constants
    (``_Last``), for this loop only."""
    key = g_nlos = None
    extinctions, links = _Last(), _Last()
    with _Workers(threads) as workers:
        for cfg in cfgs:
            scenario, ext, cfg_key = _inputs(cfg, extinctions)
            values = None
            if ext is not None:
                metric, cached = _metric(cfg, ext, links), cfg_key == key
                ys = np.asarray(cfg_key.ys)
                payloads = [
                    (ys[rows], cfg_key.xs, metric, g_nlos[rows] if cached else None,
                     scenario, ext, cfg_key.scattering)
                    for rows in workers.blocks(len(ys))
                ]
                blocks = workers.map(_block, payloads)
                if not cached:
                    key, g_nlos = cfg_key, np.concatenate([field for field, _ in blocks])
                values = [v for _, cells in blocks for v in cells]
            yield _result(cfg, cfg_key, values)


def run_scan(cfg: ResolvedConfig, threads: int = 1) -> ScanResult:
    """Evaluate the configured grid; deterministic for a fixed config.

    ``threads`` > 1 splits the rows into that many blocks, each computed in
    its own worker process.
    """
    [result] = _scans([cfg], threads)
    return result


def run_sweep(
    cfg: ResolvedConfig,
    out_stem: Optional[Path] = None,
    fmt: str = "csv",
    threads: int = 1,
):
    """Run one scan per sweep value; emit one file per value when asked.

    The gain field is computed again only when a value changes its key, so
    an ``eve_background`` or ``divergence_rad`` sweep computes it once.
    Output files follow ``<stem>_<parameter>=<value>.<ext>``.
    """
    sweep = cfg.sweep_spec()
    if sweep is None:
        raise ConfigError("configuration has no [sweep] section")
    outputs = []
    # the scans first: zip stops on their end, after the pool has shut down
    for result, value in zip(_scans(cfg.sweep_configs(), threads), sweep.values):
        path = None
        if out_stem is not None:
            path = out_stem.with_name(f"{out_stem.stem}_{sweep.parameter}={value!r}.{fmt}")
            emit(result, fmt, path)
        outputs.append((value, result, path))
    return outputs


def extract_insecure_region(result: ScanResult) -> InsecureRegion:
    """Maximal per-row runs of insecure cells and the aggregate region."""
    mask = result.is_insecure()
    # the mask between two secure columns; +1 where a run starts, -1 one past
    # where it ends; row-major nonzero order pairs each row's starts with
    # its ends
    padded = np.zeros((mask.shape[0], mask.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = padded[:, 1:] - padded[:, :-1]
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
        "schema_version", "mode", "x_m", "y_m", "values", "msc_bps", "mop",
        "regime_error_cells", "invalid_position_cells", "insecure_runs_by_row", "metadata",
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
    """Shortest exact decimal representation (round-trips via float());
    ``nan`` for every NaN.  For a Python float this is ``repr(v)``."""
    return repr(float(v))


def _config_json(metadata: Dict[str, Any]) -> str:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":"))


# A JSON file's number lists (x_m, y_m, the values grid) are written by one
# call of the C encoder each, which ``indent`` turns off, then indented by
# replacing their separators: a number's text holds no ", " and no bracket.


def _json_axis(items: list) -> str:
    """An axis as a member of ``json.dumps(sort_keys=True, indent=1)``'s
    object."""
    if not items or not set(map(type, items)) <= {int, float}:
        # encoded strings hold no raw line break
        return json.dumps(items, sort_keys=True, indent=1).replace("\n", "\n ")
    return "[\n  " + json.dumps(items)[1:-1].replace(", ", ",\n  ") + "\n ]"


def _json_grid(values: np.ndarray) -> str:
    """The values grid, NaN as null, as a member of ``json.dumps(sort_keys=True,
    indent=1)``'s object."""
    rows = values.tolist()
    if values.size == 0 or values.dtype.kind not in "biuf":
        text = json.dumps(rows, sort_keys=True, indent=1).replace("\n", "\n ")
    else:
        text = json.dumps(rows).replace(", ", ",\n   ").replace("],\n   [", "\n  ],\n  [\n   ")
        text = "[\n  [\n   " + text[2:-2] + "\n  ]\n ]"
    # no number's text holds "NaN" but NaN's own
    return text.replace("NaN", "null")


def _json_text(result: ScanResult) -> str:
    """``json.dumps(payload, sort_keys=True, indent=1)`` of the result's JSON
    payload.  The number lists sort after every other member, so they follow
    the stdlib encoding of the rest."""
    region = extract_insecure_region(result)
    head = json.dumps(
        {
            "schema_version": 1,
            "mode": result.mode,
            "msc_bps": result.msc_bps,
            "mop": result.mop,
            "regime_error_cells": result.regime_error_cells,
            "invalid_position_cells": result.invalid_position_cells,
            "insecure_runs_by_row": {
                str(iy): [list(r) for r in runs] for iy, runs in region.runs_by_row.items()
            },
            "metadata": result.metadata,
        },
        sort_keys=True,
        indent=1,
    )
    return (
        f'{head[:-2]},\n "values": {_json_grid(result.values)},\n'
        f' "x_m": {_json_axis(list(result.xs))},\n "y_m": {_json_axis(list(result.ys))}\n}}'
    )


def _write_over(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, the bytes ``Path.write_text``
    writes of ASCII text, over an existing file's old bytes, then cut a
    regular file to the new length.

    Opening with ``O_TRUNC`` makes ext4 free the old blocks first, about
    0.1 ms per file on an ext4 host mounted with ``discard``; writing over
    them and cutting the tail takes about 0.02 ms.  An existing file keeps
    its inode, hard links, symlink target and mode.  Only a regular file is
    cut: ``ftruncate`` fails on ``/dev/null`` or a pipe.  A write that
    fails leaves the new bytes written so far, never them and an old tail.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    regular = False
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        while written < len(data):
            written += os.write(fd, data[written:])
        if regular:
            os.ftruncate(fd, written)
    except BaseException:
        if regular:
            try:
                os.ftruncate(fd, written)
            except OSError:
                pass  # the first error is the one to report
        raise
    finally:
        os.close(fd)


def _emit_text(result: ScanResult, fmt: str) -> str:
    """The CSV or JSON text of the scan result, as ``emit`` writes it."""
    if np.shape(result.values) != (len(result.ys), len(result.xs)):
        raise ValueError(
            f"values of shape {np.shape(result.values)} for a "
            f"{len(result.ys)} x {len(result.xs)} grid"
        )
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
        x_tokens = [_float_token(x) for x in result.xs]
        # a row of Python floats: each one's repr is its _float_token
        for y, row in zip(result.ys, np.asarray(result.values, dtype=float).tolist()):
            y_token = _float_token(y)
            lines += [f"{x},{y_token},{v!r}" for x, v in zip(x_tokens, row)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json_text(result) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def emit(result: ScanResult, fmt: str, path: Union[str, Path]) -> None:
    """Write the scan result as CSV or JSON; re-parsing is bit-exact.  An
    existing file is rewritten in place (``_write_over``)."""
    _write_over(path, _emit_text(result, fmt))


def _row_major(path, x_col: list, y_col: list) -> Tuple[list, list]:
    """The axes (xs, ys) of the grid whose cells the columns list row-major
    (y outer, x inner), as their elements compare; ValueError where they
    list no cell or not every cell once in that order."""
    if not y_col:
        raise ValueError(f"{path}: no data rows")
    nx = next((i for i in range(1, len(y_col)) if y_col[i] != y_col[0]), len(y_col))
    xs, ys = x_col[:nx], y_col[::nx]
    if x_col != xs * len(ys) or any(
        y_col[i * nx:(i + 1) * nx] != [y] * nx for i, y in enumerate(ys)
    ):
        raise ValueError(f"{path}: rows are not a full {nx} x {len(ys)} grid in row-major order")
    return xs, ys


# the types of a JSON number as json.loads reads it (a boolean is not one),
# and of null
_NUMBER = frozenset((int, float))
_NUMBER_OR_NULL = frozenset((int, float, type(None)))


def _check_axes(path, xs: list, ys: list) -> None:
    """ValueError unless each axis holds numbers (ints or floats, not
    booleans), distinct and none NaN."""
    for name, axis in (("x_m", xs), ("y_m", ys)):
        try:
            valid = (
                _NUMBER.issuperset(map(type, axis))
                and len(set(axis)) == len(axis)
                and not any(map(math.isnan, axis))
            )
        except OverflowError:  # an int beyond a float's range
            valid = False
        if not valid:
            raise ValueError(f"{path}: the grid's {name} holds a NaN, a repeat or a non-number")


def load_csv(path: Union[str, Path]):
    """Re-read an emitted CSV into (xs, ys, values, header_fields).

    Only the layout ``emit`` writes is accepted: header lines, the column
    line, then one row per cell in row-major order (``_row_major``) on axes
    of distinct numbers and no NaN (``_check_axes``), so every cell of the
    grid exactly once.  Anything else raises ValueError.
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
    rows = list(lines)
    xs, ys, v_col = _grid_by_text(rows) or _grid_by_value(rows, path)
    return xs, ys, np.array(v_col, dtype=float).reshape(len(ys), len(xs)), header


def _grid_by_text(rows):
    """(xs, ys, values) of the data rows where each has three fields, the
    tokens are row-major as text, every number parses and the axes pass
    ``_check_axes``; else None.  ``float`` then reads each axis token once,
    and ``_grid_by_value`` would accept the rows with the same numbers."""
    sx, sy, sv = [], [], []
    try:
        for row in rows:
            x, y, v = row.split(",")
            sx.append(x)
            sy.append(y)
            sv.append(v)
        xs, ys = [list(map(float, axis)) for axis in _row_major(None, sx, sy)]
        values = list(map(float, sv))
        _check_axes(None, xs, ys)
    except ValueError:
        return None
    return xs, ys, values


def _grid_by_value(rows, path):
    """(xs, ys, values) of the data rows with every field parsed and the
    axes compared as numbers; ValueError, the first in row order, where a
    row has not three numbers or the rows are not a full grid in row-major
    order, and then where the axes fail ``_check_axes``."""
    x_col, y_col, v_col = [], [], []
    for row in rows:
        sx, sy, sv = row.split(",")
        x_col.append(float(sx))
        y_col.append(float(sy))
        v_col.append(float(sv))
    xs, ys = _row_major(path, x_col, y_col)
    _check_axes(path, xs, ys)
    return xs, ys, v_col


def load_json(path: Union[str, Path]):
    """Re-read an emitted JSON into (xs, ys, values, payload).

    Raises ValueError, naming the path, unless the file is an object whose
    ``values`` is a len(y_m) x len(x_m) grid of numbers and nulls (NaN) on
    axes of distinct numbers and no NaN, as ``JSON_SCHEMA`` has it: a
    boolean, a string or a list is not a number.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or not all(
        isinstance(payload.get(name), list) for name in ("x_m", "y_m", "values")
    ):
        raise ValueError(f"{path}: not an object with x_m, y_m and values lists")
    xs, ys, rows = payload["x_m"], payload["y_m"], payload["values"]
    if len(rows) != len(ys) or any(
        not isinstance(row, list) or len(row) != len(xs) for row in rows
    ):
        raise ValueError(f"{path}: values are not a {len(ys)} x {len(xs)} grid")
    _check_axes(path, xs, ys)
    try:
        if not all(_NUMBER_OR_NULL.issuperset(map(type, row)) for row in rows):
            raise TypeError
        # np.array reads null (None) as NaN
        values = np.array(rows, dtype=float).reshape(len(ys), len(xs))
    except (TypeError, OverflowError):
        raise ValueError(f"{path}: values hold an item that is not a number or null") from None
    return xs, ys, values, payload
