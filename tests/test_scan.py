import dataclasses
import json
import math
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thzsec.atmosphere import extinction
from thzsec.channel import ChannelGains, compute_channel_gains, los_gain
from thzsec.config import parse_config
from thzsec.outage import outage_from_gains, outage_scan_point
from thzsec import atmosphere, config, scan
from thzsec.scan import (
    JSON_SCHEMA,
    ScanResult,
    emit,
    extract_insecure_region,
    load_csv,
    load_json,
    run_scan,
    run_sweep,
)
from thzsec.secrecy import detection_rates, secrecy_capacity

from oracles import run_lengths


def cfg_from(tmp_path, text, name="scan.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return parse_config(path)


SMALL_GRID = """
[scan]
x_min_m = 600
x_max_m = 800
y_min_m = 10
y_max_m = 50
step_m = 20
"""


def synthetic_result(values, mode="det", xs=None, ys=None):
    ny, nx = values.shape
    return ScanResult(
        xs=tuple(float(i) for i in range(nx)) if xs is None else tuple(xs),
        ys=tuple(float(j) for j in range(ny)) if ys is None else tuple(ys),
        values=values,
        mode=mode,
        msc_bps=None,
        mop=None,
        regime_error_cells=0,
        invalid_position_cells=0,
        metadata={"config": {"scan": {"step_m": 2.0}}},
    )


def same_bits(a, b):
    """Arrays equal bit for bit, except that any NaN equals any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))
    )


def field_of(cfg):
    """The gain field of a config inside the weak-fluctuation regime,
    computed as a scan's worker computes it, in one block of every row."""
    scenario, ext, key = scan._inputs(cfg)
    payload = (np.asarray(key.ys), key.xs, scan._metric(cfg, ext), None, scenario, ext, key.scattering)
    return scan._block(payload)[0]


@st.composite
def grids(draw):
    """Distinct axes and values that include NaN, -0.0, subnormals and 1e300."""
    ny, nx = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    axis = st.floats(allow_nan=False, allow_infinity=False)
    xs = draw(st.lists(axis, min_size=nx, max_size=nx, unique=True))
    ys = draw(st.lists(axis, min_size=ny, max_size=ny, unique=True))
    special = st.sampled_from([math.nan, -0.0, 0.0, 5e-324, 2.5e-308, 1e300, -1e300])
    values = draw(arrays(float, (ny, nx), elements=st.one_of(st.floats(), special)))
    return xs, ys, values


def reference_csv(result):
    """The CSV bytes of ``result``, formatted line by line with _float_token."""
    config = json.dumps(result.metadata, sort_keys=True, separators=(",", ":"))
    lines = [f"# config: {config}", f"# mode: {result.mode}"]
    if result.msc_bps is not None:
        lines.append(f"# msc_bps: {scan._float_token(result.msc_bps)}")
    if result.mop is not None:
        lines.append(f"# mop: {scan._float_token(result.mop)}")
    lines.append(f"# regime_error_cells: {result.regime_error_cells}")
    lines.append(f"# invalid_position_cells: {result.invalid_position_cells}")
    lines.append("x_m,y_m,value")
    for iy, y in enumerate(result.ys):
        for ix, x in enumerate(result.xs):
            tokens = (x, y, result.values[iy, ix])
            lines.append(",".join(scan._float_token(t) for t in tokens))
    return "\n".join(lines) + "\n"


def reference_json(result):
    """The JSON bytes of ``result``: its payload through the stdlib encoder."""
    region = extract_insecure_region(result)
    payload = {
        "schema_version": 1,
        "mode": result.mode,
        "x_m": list(result.xs),
        "y_m": list(result.ys),
        "values": [
            [None if math.isnan(v) else v for v in row] for row in result.values.tolist()
        ],
        "msc_bps": result.msc_bps,
        "mop": result.mop,
        "regime_error_cells": result.regime_error_cells,
        "invalid_position_cells": result.invalid_position_cells,
        "insecure_runs_by_row": {
            str(iy): [list(r) for r in runs] for iy, runs in region.runs_by_row.items()
        },
        "metadata": result.metadata,
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# strings holding the separators that number lists are indented by, or characters
# that the encoder escapes
AWKWARD_TEXT = st.sampled_from(
    ['a, b', '"quoted", "list"', "line\nbreak, tab\t", "Auße, ω, 東京", "[1, 2]", "NaN, null"]
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), AWKWARD_TEXT, st.text(max_size=8)
)


@st.composite
def json_results(draw):
    """Scan results whose JSON text covers NaN, +-inf, -0.0, subnormals, int
    and float axes, axes of other JSON values, with and without insecure
    runs, under metadata holding awkward strings."""
    xs, ys, values = draw(grids())
    number = st.one_of(st.floats(), st.integers(-(10**20), 10**20))
    if draw(st.booleans()):
        xs = draw(st.lists(number, min_size=len(xs), max_size=len(xs)))
    if draw(st.booleans()):  # not numbers: the stdlib encoder's own path
        ys = draw(st.lists(JSON_LEAVES, min_size=len(ys), max_size=len(ys)))
    mode = draw(st.sampled_from(["det", "prob"]))
    insecure = 0.0 if mode == "det" else 1.0
    if draw(st.booleans()):  # a run of insecure cells in the first row
        first = draw(st.integers(0, len(xs) - 1))
        values[0, first:] = insecure
    if draw(st.booleans()):
        values = np.where(values == insecure, 2.0, values)  # no insecure cell
    if draw(st.booleans()):
        values = draw(arrays(np.int64, values.shape))
    extra = draw(
        st.dictionaries(
            AWKWARD_TEXT | st.text(max_size=5),
            st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8),
            max_size=4,
        )
    )
    optional = st.one_of(st.none(), st.floats())
    return ScanResult(
        xs=tuple(xs),
        ys=tuple(ys),
        values=values,
        mode=mode,
        msc_bps=draw(optional),
        mop=draw(optional),
        regime_error_cells=draw(st.integers(0, 100)),
        invalid_position_cells=draw(st.integers(0, 100)),
        metadata={"config": {"scan": {"step_m": 2.0}}, "extra": extra},
    )


class TestRunScan:
    def test_single_cell_equals_direct_pipeline(self, tmp_path):
        text = """
[scan]
x_min_m = 750
x_max_m = 750
y_min_m = 30
y_max_m = 30
step_m = 1
"""
        cfg = cfg_from(tmp_path, text)
        result = run_scan(cfg)
        assert result.values.shape == (1, 1)
        scenario = cfg.scenario().with_eve_at(750.0, 30.0)
        ext = extinction(
            scenario.freq_hz, cfg.conditions(), scenario.d, cfg.backend(), cfg.wave()
        )
        gains = ChannelGains(
            g_los=los_gain(scenario, ext), g_nlos=float(field_of(cfg)[0, 0]),
            steering_rad=math.nan, seg=None,
        )
        rates = detection_rates(scenario, gains, cfg.duty_cycle())
        direct = secrecy_capacity(rates).c_s_bps
        assert result.values[0, 0] == direct  # bit-exact composition
        assert result.msc_bps == direct
        # the field's gain is the scalar pipeline's to the table's accuracy
        scalar = compute_channel_gains(scenario, ext, cfg.scattering())
        assert gains.g_nlos == pytest.approx(scalar.g_nlos, rel=1e-9, abs=0.0)

    def test_single_cell_probabilistic(self, tmp_path):
        text = """
[scan]
x_min_m = 750
x_max_m = 750
y_min_m = 40
y_max_m = 40
step_m = 1
mode = prob
"""
        cfg = cfg_from(tmp_path, text)
        result = run_scan(cfg)
        scenario = cfg.scenario().with_eve_at(750.0, 40.0)
        ext = extinction(
            scenario.freq_hz, cfg.conditions(), scenario.d, cfg.backend(), cfg.wave()
        )
        gains = ChannelGains(
            g_los=los_gain(scenario, ext), g_nlos=float(field_of(cfg)[0, 0]),
            steering_rad=math.nan, seg=None,
        )
        target = cfg.scan_spec().target_rate_bps
        direct = outage_from_gains(scenario, gains, ext.beta_r2_sph, target, cfg.duty_cycle()).p_o
        assert result.values[0, 0] == direct  # bit-exact composition
        assert result.mop == direct
        # the scalar pipeline's G_NLOS differs from the field's within 1e-10
        # relative, and the threshold solver passes that on continuously
        scalar = outage_scan_point(scenario, ext, cfg.scattering(), target).p_o
        assert direct == pytest.approx(scalar, rel=1e-12, abs=0.0)

    def test_y_reflection_symmetry(self, tmp_path):
        text = """
[scan]
x_min_m = 700
x_max_m = 760
y_min_m = -30
y_max_m = 30
step_m = 20
"""
        cfg = cfg_from(tmp_path, text)
        result = run_scan(cfg)
        ys = list(result.ys)
        assert ys == [-30.0, -10.0, 10.0, 30.0]
        for iy, y in enumerate(ys):
            mirror = ys.index(-y)
            assert np.allclose(
                result.values[iy], result.values[mirror], rtol=1e-12, atol=0.0
            )

    def test_y_zero_cells_marked_invalid(self, tmp_path):
        text = """
[scan]
x_min_m = 700
x_max_m = 720
y_min_m = -20
y_max_m = 20
step_m = 20
"""
        cfg = cfg_from(tmp_path, text)
        result = run_scan(cfg)
        iy0 = list(result.ys).index(0.0)
        assert np.all(np.isnan(result.values[iy0]))
        assert result.invalid_position_cells == len(result.xs)
        assert result.regime_error_cells == 0

    def test_block_of_axis_rows_only(self, tmp_path):
        # three workers take one row each, so the y = 0 row is a block with
        # no position for the gain field
        text = """
[scan]
x_min_m = 700
x_max_m = 720
y_min_m = -20
y_max_m = 20
step_m = 20
"""
        cfg = cfg_from(tmp_path, text)
        serial, parallel = run_scan(cfg, threads=1), run_scan(cfg, threads=3)
        iy0 = list(parallel.ys).index(0.0)
        assert np.all(np.isnan(parallel.values[iy0]))
        assert np.array_equal(serial.values, parallel.values, equal_nan=True)

    def test_regime_error_scan_completes_all_nan(self, tmp_path):
        text = SMALL_GRID + "[atmosphere]\ncn2 = 1e-9\n"
        cfg = cfg_from(tmp_path, text)
        result = run_scan(cfg)
        assert np.all(np.isnan(result.values))
        assert result.regime_error_cells == result.values.size
        assert result.msc_bps is None

    def test_parallel_matches_serial(self, tmp_path):
        cfg = cfg_from(tmp_path, SMALL_GRID)
        serial = run_scan(cfg, threads=1)
        parallel = run_scan(cfg, threads=4)
        assert np.array_equal(serial.values, parallel.values)
        assert serial.msc_bps == parallel.msc_bps

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_scan(cfg_from(tmp_path, SMALL_GRID), threads=threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_sweep(sweep_cfg(tmp_path, "cn2", "1e-12"), threads=threads)

    @pytest.mark.parametrize("mode", ["det", "prob"])
    def test_byte_identical_csv_across_worker_counts(self, tmp_path, mode):
        cfg = cfg_from(tmp_path, SMALL_GRID).with_value("scan", "mode", mode)
        blobs = []
        for threads in (1, 4, 8):
            result = run_scan(cfg, threads=threads)
            out = tmp_path / f"t{threads}.csv"
            emit(result, "csv", out)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_subgrid_is_restriction_of_full_grid(self, tmp_path):
        full = run_scan(cfg_from(tmp_path, SMALL_GRID))
        sub_text = """
[scan]
x_min_m = 640
x_max_m = 720
y_min_m = 30
y_max_m = 50
step_m = 20
"""
        sub = run_scan(cfg_from(tmp_path, sub_text, name="sub.cfg"))
        x_idx = [full.xs.index(x) for x in sub.xs]
        y_idx = [full.ys.index(y) for y in sub.ys]
        assert np.array_equal(sub.values, full.values[np.ix_(y_idx, x_idx)])
        assert sub.msc_bps <= full.msc_bps
        # insecure region restricts consistently
        window = full.is_insecure()[np.ix_(y_idx, x_idx)]
        assert np.array_equal(sub.is_insecure(), window)

    def test_plateau_msc_independent_of_eve_background(self, tmp_path):
        # grid rows include a far standoff where Eve collects essentially
        # nothing; there the capacity saturates at Bob's mutual information
        text = """
[scan]
x_min_m = 740
x_max_m = 760
y_min_m = 30
y_max_m = 10030
step_m = 10000
"""
        base = cfg_from(tmp_path, text)
        loud = base.with_value("eve", "background_count", 1.0)
        msc_a = run_scan(base).msc_bps
        msc_b = run_scan(loud).msc_bps
        assert math.isclose(msc_a, msc_b, rel_tol=1e-9)

    def test_metadata_echoes_config_and_seed(self, tmp_path):
        cfg = cfg_from(tmp_path, SMALL_GRID)
        result = run_scan(cfg)
        assert "seed" not in result.metadata
        assert result.metadata["config"]["scan"]["step_m"] == 20.0

    def test_paper_exact_flag_flows_through(self, tmp_path):
        base = run_scan(cfg_from(tmp_path, SMALL_GRID))
        audit = run_scan(
            cfg_from(tmp_path, SMALL_GRID + "[secrecy]\npaper_exact = true\n", name="pe.cfg")
        )
        # the off-slot weight changes the mutual informations, so at least
        # some secure cells shift value
        secure = ~np.isnan(base.values) & (base.values > 0)
        assert not np.array_equal(base.values[secure], audit.values[secure])

    def test_plane_wave_selection_hits_validity_earlier(self, tmp_path):
        # at cn2 = 1e-10 the plane-wave variance exceeds 1 while the
        # spherical one stays valid
        strong = "[atmosphere]\ncn2 = 1e-10\n"
        spherical = run_scan(cfg_from(tmp_path, SMALL_GRID + strong, name="s.cfg"))
        plane = run_scan(
            cfg_from(tmp_path, SMALL_GRID + strong + "wave = plane\n", name="p.cfg")
        )
        assert spherical.regime_error_cells == 0
        assert plane.regime_error_cells == plane.values.size


# Eve's NLOS gains: exact zero, a subnormal, and the decades below the
# default G_LOS (2.3e-8), where her information nears Bob's and the last bits
# of the capacity depend on how her count is rounded
GAINS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-12, 1e-6]),
    st.floats(min_value=-12.0, max_value=-7.6).map(lambda e: 10.0**e),
    st.floats(min_value=0.0, max_value=1e-6),
)


class TestMetric:
    @pytest.mark.parametrize("mode", ["det", "prob"])
    @pytest.mark.parametrize("paper_exact", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(
        g_nlos=st.lists(GAINS, min_size=1, max_size=8),
        q=st.sampled_from([0.3, 0.5]),
        eve_background=st.sampled_from([0.0, 0.01, 1.0]),
    )
    def test_equals_the_scalar_chain(self, mode, paper_exact, g_nlos, q, eve_background):
        cfg = (
            parse_config(None)
            .with_value("scan", "mode", mode)
            .with_value("secrecy", "paper_exact", paper_exact)
            .with_value("secrecy", "duty_cycle", q)
            .with_value("eve", "background_count", eve_background)
        )
        scenario, spec = cfg.scenario(), cfg.scan_spec()
        ext = extinction(
            scenario.freq_hz, cfg.conditions(), scenario.d, cfg.backend(), cfg.wave()
        )
        # the gains as a one-row block's given field, at y != 0
        payload = (np.array([1.0]), tuple(range(len(g_nlos))), scan._metric(cfg, ext),
                   np.array([g_nlos]), scenario, ext, cfg.scattering())
        field, got = scan._block(payload)
        assert field is None
        for g, value in zip(g_nlos, got):
            gains = ChannelGains(
                g_los=los_gain(scenario, ext), g_nlos=g, steering_rad=0.0, seg=None
            )
            if mode == "det":
                rates = detection_rates(scenario, gains, q)
                want = secrecy_capacity(rates, paper_exact).c_s_bps
            else:
                want = outage_from_gains(
                    scenario, gains, ext.beta_r2_sph, spec.target_rate_bps, q, paper_exact
                ).p_o
            assert same_bits(value, want), g


class TestInsecureRegion:
    def _synthetic(self, mask, mode="det"):
        values = np.where(mask, 0.0 if mode == "det" else 1.0, 5.0 if mode == "det" else 0.25)
        return synthetic_result(values.astype(float), mode)

    def test_all_secure_empty_region(self):
        region = extract_insecure_region(self._synthetic(np.zeros((3, 5), dtype=bool)))
        assert region.runs_by_row == {}
        assert region.cell_count == 0
        assert region.area_m2 == 0.0

    def test_single_cell_run(self):
        mask = np.zeros((2, 4), dtype=bool)
        mask[1, 2] = True
        region = extract_insecure_region(self._synthetic(mask))
        assert region.runs_by_row == {1: [(2, 2)]}
        assert region.cell_count == 1
        assert region.area_m2 == 4.0

    def test_two_runs_per_row_matches_oracle(self):
        mask = np.array(
            [
                [True, True, False, True, False, True],
                [False, True, True, False, True, True],
            ]
        )
        region = extract_insecure_region(self._synthetic(mask))
        for iy in range(mask.shape[0]):
            assert region.runs_by_row[iy] == run_lengths(mask[iy])

    def test_probabilistic_predicate_is_exact_one(self):
        mask = np.zeros((1, 3), dtype=bool)
        mask[0, 1] = True
        result = self._synthetic(mask, mode="prob")
        # 0.9999... is not insecure; only exactly 1.0 is
        result.values[0, 0] = 1.0 - 1e-12
        region = extract_insecure_region(result)
        assert region.runs_by_row == {0: [(1, 1)]}

    @given(
        arrays(
            bool,
            st.tuples(st.integers(1, 6), st.integers(1, 40)),
            elements=st.booleans(),
        ),
        st.lists(st.sampled_from(["all", "none"]), max_size=6),
    )
    # runs that touch the first and the last column of a row, a whole row
    # insecure beside a secure one, and 1 x 1 grids
    @example(np.array([[True, False, False, True], [True, True, False, True]]), [])
    @example(np.array([[False, False, False], [True, True, True]]), [])
    @example(np.array([[True]]), [])
    @example(np.array([[False]]), [])
    @settings(max_examples=300, deadline=None)
    def test_runs_match_loop_oracle(self, mask, fills):
        # force some whole rows insecure or secure so those cases always occur
        for iy, fill in enumerate(fills[: mask.shape[0]]):
            mask[iy] = fill == "all"
        region = extract_insecure_region(self._synthetic(mask))
        expected = {iy: runs for iy, runs in enumerate(map(run_lengths, mask)) if runs}
        assert region.runs_by_row == expected
        assert region.cell_count == int(mask.sum())


class TestEmit:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        result = run_scan(cfg_from(tmp_path, SMALL_GRID))
        out = tmp_path / "map.csv"
        emit(result, "csv", out)
        xs, ys, values, header = load_csv(out)
        assert xs == list(result.xs) and ys == list(result.ys)
        assert np.array_equal(values, result.values)
        assert header["mode"] == "det"
        assert float(header["msc_bps"]) == result.msc_bps

    def test_csv_nan_round_trip(self, tmp_path):
        cfg = cfg_from(tmp_path, SMALL_GRID + "[atmosphere]\ncn2 = 1e-9\n")
        result = run_scan(cfg)
        out = tmp_path / "nan.csv"
        emit(result, "csv", out)
        _, _, values, header = load_csv(out)
        assert np.all(np.isnan(values))
        assert int(header["regime_error_cells"]) == result.values.size

    def test_msc_summary_matches_recomputation(self, tmp_path):
        result = run_scan(cfg_from(tmp_path, SMALL_GRID))
        out = tmp_path / "map.csv"
        emit(result, "csv", out)
        _, _, values, header = load_csv(out)
        assert float(header["msc_bps"]) == np.nanmax(values)

    def test_json_round_trip_and_schema(self, tmp_path):
        import jsonschema

        result = run_scan(cfg_from(tmp_path, SMALL_GRID))
        out = tmp_path / "map.json"
        emit(result, "json", out)
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, JSON_SCHEMA)
        xs, ys, values, payload2 = load_json(out)
        assert xs == list(result.xs) and ys == list(result.ys)
        assert np.array_equal(values, result.values)
        assert payload2["msc_bps"] == result.msc_bps
        region = extract_insecure_region(result)
        assert payload["insecure_runs_by_row"] == {
            str(k): [list(r) for r in v] for k, v in region.runs_by_row.items()
        }

    def test_json_nan_becomes_null(self, tmp_path):
        cfg = cfg_from(tmp_path, SMALL_GRID + "[atmosphere]\ncn2 = 1e-9\n")
        result = run_scan(cfg)
        out = tmp_path / "nan.json"
        emit(result, "json", out)
        payload = json.loads(out.read_text())
        assert payload["values"][0][0] is None
        assert payload["msc_bps"] is None
        _, _, values, _ = load_json(out)
        assert np.all(np.isnan(values))

    @given(grids())
    @settings(max_examples=200, deadline=None)
    def test_csv_round_trip_property(self, tmp_path_factory, grid):
        xs, ys, values = grid
        out = tmp_path_factory.getbasetemp() / "round_trip.csv"
        emit(synthetic_result(values, xs=xs, ys=ys), "csv", out)
        got_xs, got_ys, got_values, _ = load_csv(out)
        assert isinstance(got_xs, list) and isinstance(got_ys, list)
        assert same_bits(got_xs, xs) and same_bits(got_ys, ys)
        assert same_bits(got_values, values)

    # data rows from a few spellings of a few numbers, NaN, bad tokens and
    # rows of two or four fields
    CSV_TOKENS = st.sampled_from(
        ["0", "0.0", "-0.0", "1", "1.0", "1e0", "2", "nan", "inf", "x", ""]
    )
    CSV_ROWS = st.lists(
        st.lists(CSV_TOKENS, min_size=2, max_size=4).map(",".join), max_size=9
    )

    @given(rows=CSV_ROWS, grid=st.none() | grids())
    @example(rows=["0,1,1", "1,1,2", "0,2,3", "1,2,4"], grid=None)
    @example(rows=["nan,1,1", "nan,1,2"], grid=None)
    @example(rows=["0,nan,0"], grid=None)
    @example(rows=["0,nan,1", "0,2,2"], grid=None)
    @example(rows=["nan,1,1", "nan,2,2"], grid=None)
    @example(rows=["0,nan,1", "1,nan,2"], grid=None)
    @example(rows=["0,1,1", "1.0,1,2", "0,2,3", "1,2,4"], grid=None)
    @example(rows=["0,1,1", "1,1,x", "0,2", "1,2,4"], grid=None)
    @settings(max_examples=200, deadline=None)
    def test_csv_loads_as_with_every_field_parsed(self, tmp_path_factory, rows, grid):
        # reading the axes by their text gives the values, and the first
        # ValueError, that parsing every field gives: on emitted grids and
        # on rows of other spellings, NaN axes, bad tokens and field counts
        out = tmp_path_factory.getbasetemp() / "spelled.csv"
        if grid is None:
            out.write_text("# mode: det\nx_m,y_m,value\n" + "".join(r + "\n" for r in rows))
        else:
            xs, ys, values = grid
            emit(synthetic_result(values, xs=xs, ys=ys), "csv", out)

        def outcome():
            try:
                xs, ys, values, header = load_csv(out)
            except ValueError as exc:
                return str(exc)
            return repr(xs), repr(ys), values.shape, values.tobytes(), header

        fast = outcome()
        with mock.patch.object(scan, "_grid_by_text", lambda rows: None):
            assert fast == outcome()

    @pytest.mark.parametrize(
        "rows",
        [
            ["nan,1,1", "nan,1,2"],  # once loaded as xs = [nan, nan]
            ["0,nan,0"],  # once loaded as ys = [nan]
            ["0,nan,1", "0,2,2"],
            ["nan,1,1", "nan,2,2"],
            ["0,1,1", "0.0,1,2"],  # one x in two spellings
            ["0,1,1", "0,1e0,2"],  # one y in two spellings
            ["0,1,1", "-0.0,1,2"],
        ],
    )
    def test_csv_axes_with_nan_or_a_repeat_rejected(self, tmp_path, rows):
        # the text path declines the rows, and the every-field path raises
        out = tmp_path / "axes.csv"
        out.write_text("# mode: det\nx_m,y_m,value\n" + "".join(r + "\n" for r in rows))
        assert scan._grid_by_text(rows) is None
        with pytest.raises(ValueError) as by_value:
            scan._grid_by_value(rows, out)
        with pytest.raises(ValueError) as loaded:
            load_csv(out)
        assert str(loaded.value) == str(by_value.value)

    @pytest.mark.parametrize("damage", ["missing", "duplicated", "swapped"])
    def test_csv_not_a_full_grid_rejected(self, tmp_path, damage):
        out = tmp_path / "map.csv"
        emit(synthetic_result(np.arange(12.0).reshape(3, 4)), "csv", out)
        lines = out.read_text().splitlines()
        first = lines.index("x_m,y_m,value") + 1
        head, rows = lines[:first], lines[first:]
        variants = []
        for i in range(len(rows)):
            if damage == "missing":
                variants.append(rows[:i] + rows[i + 1:])
            elif damage == "duplicated":
                variants.append(rows[:i + 1] + rows[i:])
            else:
                for j in range(i + 1, len(rows)):
                    swapped = list(rows)
                    swapped[i], swapped[j] = rows[j], rows[i]
                    variants.append(swapped)
        for variant in variants:
            out.write_text("\n".join(head + variant) + "\n")
            with pytest.raises(ValueError):
                load_csv(out)

    @pytest.mark.parametrize(
        "xs,ys,rows",
        [
            ([0.0, 1.0, 2.0], [5.0], [[1.0, 2.0]]),  # 1 x 2 values for a 1 x 3 grid
            ([0.0, 1.0], [5.0, 6.0], [[1.0, 2.0], [3.0]]),  # ragged rows
            ([1.0, 1.0], [5.0], [[1.0, 2.0]]),  # a repeated x
            ([math.nan, 3.0], [5.0], [[1.0, 2.0]]),  # a NaN x
            ([0.0, 1.0], [5.0, 5], [[1.0, 2.0], [3.0, 4.0]]),  # a repeated y, int and float
            ([0.0, 1.0], [math.nan], [[1.0, 2.0]]),  # a NaN y
            (["0", "1"], [5.0], [[1.0, 2.0]]),  # not numbers
            ([0.0, 1.0], [None], [[1.0, 2.0]]),
            ([0.0, 10**400], [5.0], [[1.0, 2.0]]),  # an integer past every float
        ],
        ids=["shape_mismatch", "ragged", "repeated_x", "nan_x", "repeated_y", "nan_y",
             "string_x", "null_y", "huge_x"],
    )
    def test_json_values_not_matching_axes_rejected(self, tmp_path, xs, ys, rows):
        out = tmp_path / "map.json"
        emit(synthetic_result(np.zeros((1, 1))), "json", out)
        payload = json.loads(out.read_text())
        payload.update(x_m=xs, y_m=ys, values=rows)
        out.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="grid"):
            load_json(out)

    @pytest.mark.parametrize(
        "text",
        [
            "[1.0, 2.0]",
            '{"y_m": [1.0], "values": [[0.0]]}',
            '{"x_m": 5, "y_m": [1.0], "values": [[0.0]]}',
            '{"x_m": [1.0], "y_m": [1.0], "values": [[{}]]}',
            '{"x_m": [1.0], "y_m": [1.0], "values": [["a"]]}',
            '{"x_m": [1.0], "y_m": [1.0], "values": [[0.0]]',
        ],
        ids=["top_level_list", "missing_x", "numeric_x", "object_cell", "string_cell",
             "truncated"],
    )
    def test_json_malformed_payload_rejected_naming_the_path(self, tmp_path, text):
        out = tmp_path / "map.json"
        out.write_text(text)
        with pytest.raises(ValueError) as raised:
            load_json(out)
        assert str(raised.value).startswith(f"{out}: ")

    @given(json_results())
    @settings(max_examples=200, deadline=None)
    def test_json_bytes_equal_stdlib_encoder(self, tmp_path_factory, result):
        out = tmp_path_factory.getbasetemp() / "stdlib.json"
        emit(result, "json", out)
        assert out.read_text() == reference_json(result)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)])
    def test_json_empty_grid_bytes_equal_stdlib_encoder(self, tmp_path, shape):
        result = synthetic_result(np.zeros(shape))
        emit(result, "json", tmp_path / "empty.json")
        assert (tmp_path / "empty.json").read_text() == reference_json(result)

    @given(grids(), st.sampled_from([None, 5e-324, -0.0, math.inf]))
    @settings(max_examples=200, deadline=None)
    def test_csv_bytes_equal_line_by_line_formatter(self, tmp_path_factory, grid, msc):
        xs, ys, values = grid
        result = dataclasses.replace(synthetic_result(values, xs=xs, ys=ys), msc_bps=msc)
        out = tmp_path_factory.getbasetemp() / "reference.csv"
        emit(result, "csv", out)
        assert out.read_text() == reference_csv(result)

    def test_int_values_emit_as_their_float_copy(self, tmp_path):
        ints = np.arange(-6, 6).reshape(3, 4)
        emit(synthetic_result(ints), "csv", tmp_path / "int.csv")
        emit(synthetic_result(ints.astype(float)), "csv", tmp_path / "float.csv")
        assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_values_not_matching_axes_not_emitted(self, tmp_path, fmt):
        result = synthetic_result(np.zeros((2, 3)), xs=[0.0, 1.0], ys=[0.0, 1.0])
        with pytest.raises(ValueError, match="grid"):
            emit(result, fmt, tmp_path / f"map.{fmt}")

    def test_csv_other_spellings_of_the_axes_accepted(self, tmp_path):
        out = tmp_path / "hand.csv"
        out.write_text(
            "# mode: det\n"
            "x_m,y_m,value\n"
            "750,2,1.5\n"
            "800.0,2.0,0\n"
            "7.5e2,4,nan\n"
            "8E2,0.4e1,-2.5e-3\n"
        )
        xs, ys, values, header = load_csv(out)
        assert xs == [750.0, 800.0] and ys == [2.0, 4.0]
        assert same_bits(values, [[1.5, 0.0], [math.nan, -2.5e-3]])
        assert header == {"mode": "det"}

    @pytest.mark.parametrize(
        "damage",
        ["two_fields", "four_fields", "blank_line", "trailing_blank_line"],
    )
    def test_csv_malformed_row_rejected(self, tmp_path, damage):
        out = tmp_path / "map.csv"
        emit(synthetic_result(np.arange(6.0).reshape(2, 3)), "csv", out)
        lines = out.read_text().splitlines()
        row = lines.index("x_m,y_m,value") + 2
        if damage == "two_fields":
            lines[row] = "1.0,0.0"
        elif damage == "four_fields":
            lines[row] += ",7.0"
        elif damage == "blank_line":
            lines.insert(row, "")
        else:
            lines.append("")
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_csv(out)

    def test_unknown_format_rejected(self, tmp_path):
        result = run_scan(cfg_from(tmp_path, SMALL_GRID))
        with pytest.raises(ValueError):
            emit(result, "xml", tmp_path / "map.xml")


class TestSweep:
    def test_sweep_runs_and_names_files(self, tmp_path):
        text = SMALL_GRID + "[sweep]\nparameter = cn2\nvalues = 1e-12, 1e-11\n"
        cfg = cfg_from(tmp_path, text)
        outputs = run_sweep(cfg, out_stem=tmp_path / "sweep.csv", fmt="csv")
        assert len(outputs) == 2
        for value, result, path in outputs:
            assert path.exists()
            assert f"cn2={value!r}" in path.name
            assert result.metadata["config"]["atmosphere"]["cn2"] == value

    def test_sweep_without_section_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no \\[sweep\\]"):
            run_sweep(cfg_from(tmp_path, SMALL_GRID))

    def test_sweep_values_change_results(self, tmp_path):
        text = SMALL_GRID + "[sweep]\nparameter = divergence_rad\nvalues = 0.02, 0.04\n"
        outputs = run_sweep(cfg_from(tmp_path, text))
        msc = [result.msc_bps for _, result, _ in outputs]
        assert msc[0] > msc[1]  # wider beam, weaker LOS, lower capacity


# 3 x 3 cells, one row at y = 0
TINY_GRID = """
[scan]
x_min_m = 600
x_max_m = 800
y_min_m = 0
y_max_m = 200
step_m = 100
"""

# every sweep parameter, with values that must and must not reuse the field;
# cn2 = 1e-9 is outside the weak-fluctuation regime
SWEEPS = [
    ("freq_hz", "140e9, 340e9", "det"),
    ("cn2", "1e-12, 1e-9, 5.8e-11", "det"),
    ("divergence_rad", "0.01, 0.02, 0.04", "det"),
    ("eve_background", "0.001, 0.1, 1.0", "prob"),
    ("eve_fov_deg", "5, 20", "det"),
]


def sweep_cfg(tmp_path, parameter, values, mode="det"):
    text = TINY_GRID + f"mode = {mode}\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"
    return cfg_from(tmp_path, text)


def count_calls(monkeypatch, module, name):
    """Counts the calls of ``module.name`` made in this process."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def field_calls(monkeypatch):
    """Counts nlos_gain_field calls made in this process."""
    return count_calls(monkeypatch, scan, "nlos_gain_field")


BUNDLED_TABLE = Path(atmosphere.__file__).parent / "data" / "absorption_default.csv"


def bundled_table_copy(tmp_path):
    path = tmp_path / "table_copy.csv"
    shutil.copyfile(BUNDLED_TABLE, path)
    return str(path)


# settings that only validate when another one changes with them
TOGETHER = {
    ("atmosphere", "absorption"): {("atmosphere", "absorption_db_per_km"): 30.0},
    ("sweep", "parameter"): {("sweep", "values"): (0.01, 0.04)},
    ("sweep", "values"): {("sweep", "parameter"): "eve_background"},
}


def key_of(cfg):
    return scan._inputs(cfg)[2]


def changed_inputs(a, b):
    """The names of the key fields in which configs a and b differ."""
    ka, kb = key_of(a), key_of(b)
    return ", ".join(f.name for f in dataclasses.fields(ka) if getattr(ka, f.name) != getattr(kb, f.name))


def changed(base, tmp_path, setting, value):
    """``base`` with ``setting`` set to ``value`` (or to ``value(tmp_path)``
    where it is a function) and with its TOGETHER settings, resolved at once."""
    changes = {setting: value(tmp_path) if callable(value) else value, **TOGETHER.get(setting, {})}
    settings = {section: dict(body) for section, body in base.settings.items()}
    for (section, key), v in changes.items():
        settings.setdefault(section, {})[key] = (v, None)
    return config._resolve(settings, "changed")


class TestGainField:
    @pytest.mark.parametrize("threads", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_rows", [1, 2, 4, 7, 50])
    def test_worker_blocks_are_array_splits(self, n_rows, threads):
        # the rows each worker gets, in order: np.array_split's, without
        # the empty blocks
        got = [np.arange(n_rows)[b] for b in scan._Workers(threads).blocks(n_rows)]
        want = [b for b in np.array_split(np.arange(n_rows), threads) if b.size]
        assert [b.tolist() for b in got] == [b.tolist() for b in want]

    @pytest.mark.parametrize("parameter,values,mode", SWEEPS)
    def test_sweep_bytes_equal_fresh_scans(self, tmp_path, parameter, values, mode):
        cfg = sweep_cfg(tmp_path, parameter, values, mode)
        outputs = run_sweep(cfg, out_stem=tmp_path / "sweep.csv", fmt="csv")
        assert len(outputs) == len(cfg.sweep_spec().values)
        for value, _, path in outputs:
            fresh = tmp_path / "fresh.csv"
            emit(run_scan(cfg.with_sweep_value(parameter, value)), "csv", fresh)
            assert path.read_bytes() == fresh.read_bytes(), value

    def test_out_of_regime_sweep_value_is_all_nan(self, tmp_path):
        outputs = run_sweep(sweep_cfg(tmp_path, "cn2", "1e-12, 1e-9, 5.8e-11"))
        counts = [result.regime_error_cells for _, result, _ in outputs]
        assert counts == [0, 9, 0]
        assert np.isnan(outputs[1][1].values).all()
        assert not np.isnan(outputs[2][1].values[1:]).any()

    @pytest.mark.parametrize("parameter,values,expected", [
        ("eve_background", "0.001, 0.01, 0.1", 1),
        ("divergence_rad", "0.01, 0.02, 0.04", 1),
        ("cn2", "1e-12, 5.8e-11", 2),
        ("cn2", "1e-12, 1e-12, 5.8e-11", 2),
        # only the last field is kept
        ("cn2", "1e-12, 5.8e-11, 1e-12", 3),
        # an out-of-regime config computes none and keeps the last
        ("cn2", "1e-12, 1e-9, 1e-12", 1),
    ])
    def test_sweep_computes_one_field_per_key(
        self, tmp_path, field_calls, parameter, values, expected
    ):
        floats = [float(v) for v in values.split(",")]
        if len(set(floats)) == len(floats):
            run_sweep(sweep_cfg(tmp_path, parameter, values, "prob"))
        else:
            # a sweep may not repeat a value, but run_sweep's scan loop may
            # be given a run of configs that does
            base = cfg_from(tmp_path, TINY_GRID + "mode = prob\n")
            list(scan._scans([base.with_sweep_value(parameter, v) for v in floats], 1))
        assert len(field_calls) == expected

    def test_one_extinction_per_config(self, tmp_path, monkeypatch):
        cfg = sweep_cfg(tmp_path, "eve_background", "0.001, 0.01, 0.1", "prob")
        calls = count_calls(monkeypatch, scan, "extinction")
        run_scan(cfg)
        assert len(calls) == 1
        run_sweep(cfg)
        assert len(calls) == 1 + 3

    def test_sweep_resolves_each_value_once(self, tmp_path, monkeypatch):
        # parse_config resolves the file and each of the 3 values; run_sweep
        # runs on those sub-configs and resolves nothing again
        calls = count_calls(monkeypatch, config, "_resolve")
        cfg = sweep_cfg(tmp_path, "eve_background", "0.001, 0.01, 0.1", "prob")
        assert len(calls) == 4
        outputs = run_sweep(cfg)
        assert len(calls) == 4
        for (value, result, _), sub_cfg in zip(outputs, cfg.sweep_configs()):
            assert result.metadata["config"] == sub_cfg.to_dict()
            assert sub_cfg["eve"]["background_count"] == value

    def test_prob_zero_target_is_zero_outage(self, tmp_path):
        # the capacity is never below a nonpositive target
        text = TINY_GRID + (
            "mode = prob\ntarget_rate_bps = 0\n"
            "[bob]\nintegration_time_s = 1e-10\n[eve]\nintegration_time_s = 1e-10\n"
        )
        result = run_scan(cfg_from(tmp_path, text))
        assert (result.values[1:] == 0.0).all()
        assert result.invalid_position_cells == 3

    def test_out_of_regime_scan_computes_no_field(self, tmp_path, monkeypatch, field_calls):
        maps = count_calls(monkeypatch, scan._Workers, "map")
        result = run_scan(cfg_from(tmp_path, TINY_GRID + "[atmosphere]\ncn2 = 1e-9\n"))
        assert field_calls == maps == []
        assert np.isnan(result.values).all()
        assert result.regime_error_cells == result.values.size

    def test_one_worker_map_per_scan(self, tmp_path, monkeypatch):
        # each block's field and metric in one worker call: one map per
        # config, whether it computes the field or is given the last one
        cfg = cfg_from(tmp_path, TINY_GRID)
        prob = cfg.with_value("scan", "mode", "prob")
        want = [run_scan(cfg).values, run_scan(prob).values]
        maps = count_calls(monkeypatch, scan._Workers, "map")
        assert same_bits(run_scan(cfg, threads=2).values, want[0])
        assert len(maps) == 1
        results = list(scan._scans([cfg, prob], 2))
        assert len(maps) == 1 + 2
        assert all(same_bits(r.values, w) for r, w in zip(results, want))

    # another valid value for every setting that leaves the field key equal
    FIELD_FREE_CHANGES = {
        ("link", "divergence_rad"): 0.04,
        ("link", "tx_power_w"): 0.02,
        ("link", "eve_x_m"): 100.0,
        ("link", "eve_y_m"): -5.0,
        ("bob", "aperture_m"): 0.1,
        ("bob", "efficiency"): 0.5,
        ("bob", "integration_time_s"): 2e-10,
        ("bob", "background_count"): 0.1,
        ("eve", "background_count"): 0.1,
        ("eve", "efficiency"): 0.5,
        ("eve", "integration_time_s"): 2e-10,
        ("scan", "mode"): "prob",
        ("scan", "target_rate_bps"): 5e9,
        ("secrecy", "duty_cycle"): 0.3,
        ("secrecy", "paper_exact"): True,
        ("scan", "max_cells"): 100.0,
        ("atmosphere", "absorption_db_per_km"): 30.0,  # read only by constant absorption
        ("atmosphere", "absorption_table_path"): bundled_table_copy,
        ("sweep", "parameter"): "divergence_rad",
        ("sweep", "values"): (0.1, 1.0),
    }

    # another valid value for every setting that changes the field key, and
    # the inputs of the key it changes
    REFUSED_CHANGES = {
        ("link", "freq_hz"): (220e9, "alpha_att"),
        ("atmosphere", "cn2"): (1e-12, "alpha_att"),
        ("eve", "fov_deg"): (20.0, "fov_full_rad"),
        ("eve", "aperture_m"): (0.1, "aperture_d"),
        ("scattering", "g"): (0.5, "scattering"),
        ("scan", "step_m"): (50.0, "xs, ys"),
        ("scattering", "f"): (0.2, "scattering"),
        ("scan", "x_min_m"): (500.0, "xs"),
        ("scan", "x_max_m"): (900.0, "xs"),
        ("scan", "y_min_m"): (-100.0, "ys"),
        ("scan", "y_max_m"): (300.0, "ys"),
        ("link", "distance_m"): (900.0, "d, alpha_att"),
        ("atmosphere", "wave"): ("plane", "alpha_att"),
        ("atmosphere", "absorption"): ("constant", "alpha_att"),
    }

    def test_changes_cover_every_setting(self, tmp_path):
        cfg = cfg_from(tmp_path, TINY_GRID)
        settings = {(section, key) for section, body in cfg.to_dict().items() for key in body}
        free, refused = set(self.FIELD_FREE_CHANGES), set(self.REFUSED_CHANGES)
        assert not free & refused
        assert free | refused == settings

    @pytest.mark.parametrize("setting", sorted(FIELD_FREE_CHANGES))
    def test_field_free_setting_leaves_field_bit_identical(self, tmp_path, field_calls, setting):
        base = cfg_from(tmp_path, TINY_GRID)
        other = changed(base, tmp_path, setting, self.FIELD_FREE_CHANGES[setting])
        assert other.to_dict() != base.to_dict()
        assert key_of(other) == key_of(base)
        assert same_bits(field_of(base), field_of(other))
        # the scan loop evaluates other on base's field
        calls = len(field_calls)
        _, result = scan._scans([base, other], 1)
        assert len(field_calls) == calls + 1
        assert same_bits(result.values, run_scan(other).values)

    @pytest.mark.parametrize("setting,value", [(s, v) for s, (v, _) in REFUSED_CHANGES.items()])
    def test_evaluate_refuses_field_of_other_settings(self, tmp_path, field_calls, setting, value):
        base = cfg_from(tmp_path, TINY_GRID)
        other = changed(base, tmp_path, setting, value)
        assert changed_inputs(base, other) == self.REFUSED_CHANGES[setting][1]
        assert not same_bits(field_of(other), field_of(base))
        # the scan loop evaluates base on its own field, not on other's
        calls = len(field_calls)
        _, result = scan._scans([other, base], 1)
        assert len(field_calls) == calls + 2
        assert same_bits(result.values, run_scan(base).values)

    def test_rewritten_absorption_table_refuses_old_field(self, tmp_path, field_calls):
        # the key holds the extinction, not the table's path
        table = tmp_path / "table.csv"
        text = TINY_GRID + f"[atmosphere]\nabsorption_table_path = {table}\n"
        shutil.copyfile(BUNDLED_TABLE, table)
        old = cfg_from(tmp_path, text)
        table.write_text(BUNDLED_TABLE.read_text().replace(",20.95", ",30.0"))
        cfg = cfg_from(tmp_path, text)
        assert changed_inputs(old, cfg) == "alpha_att"
        _, result = scan._scans([old, cfg], 1)
        assert len(field_calls) == 2
        assert same_bits(result.values, run_scan(cfg).values)

    def test_evaluate_reuses_field_across_metrics(self, tmp_path, field_calls):
        det = cfg_from(tmp_path, TINY_GRID)
        cfgs = (det, det.with_value("scan", "mode", "prob"))
        results = list(scan._scans(cfgs, 1))
        assert len(field_calls) == 1
        for cfg, result in zip(cfgs, results):
            assert same_bits(result.values, run_scan(cfg).values)

    @pytest.mark.parametrize("parameter,values,mode", SWEEPS)
    def test_sweep_bytes_independent_of_threads(self, tmp_path, parameter, values, mode):
        cfg = sweep_cfg(tmp_path, parameter, values, mode)
        blobs = []
        for threads in (1, 2):
            stem = tmp_path / f"t{threads}.json"
            outputs = run_sweep(cfg, out_stem=stem, fmt="json", threads=threads)
            blobs.append([path.read_bytes() for _, _, path in outputs])
        assert blobs[0] == blobs[1]
