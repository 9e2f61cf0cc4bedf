import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thzsec import channel, cli, outage
from thzsec.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main
from thzsec.scan import ScanResult, extract_insecure_region, load_csv

POINT_CFG = """
[scan]
x_min_m = 740
x_max_m = 760
y_min_m = 20
y_max_m = 40
step_m = 10
"""


# a 1 m step where floats lie 16 m apart: 65 x values, 5 distinct
REPEATED_X_GRID = """[scan]
x_min_m = 1e17
x_max_m = 1.00000000000000064e17
y_min_m = 2
y_max_m = 2
step_m = 1
"""


def write(tmp_path, text, name="cli.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path = write(tmp_path, POINT_CFG)
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config OK" in out
        assert json.loads(out.split("\n", 1)[1])["scan"]["step_m"] == 10.0

    def test_defaults_without_config(self, capsys):
        assert main(["validate"]) == EXIT_OK

    def test_config_error(self, tmp_path, capsys):
        path = write(tmp_path, "[link]\ndivergance_angle = 1\n")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "divergance_angle" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


class TestScan:
    def test_writes_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, POINT_CFG)
        out = tmp_path / "map.csv"
        code = main(["scan", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        xs, ys, values, header = load_csv(out)
        assert len(xs) == 3 and len(ys) == 3
        assert not np.any(np.isnan(values))
        stdout = capsys.readouterr().out
        assert "msc_bps" in stdout

    def test_json_format(self, tmp_path):
        cfg = write(tmp_path, POINT_CFG)
        out = tmp_path / "map.json"
        assert main(["scan", "--config", str(cfg), "--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["mode"] == "det"

    def test_mode_override(self, tmp_path):
        cfg = write(tmp_path, POINT_CFG)
        out = tmp_path / "map.json"
        code = main([
            "scan", "--config", str(cfg), "--mode", "prob",
            "--format", "json", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["mode"] == "prob"
        assert payload["mop"] is not None

    def test_io_error(self, tmp_path):
        cfg = write(tmp_path, POINT_CFG)
        out = tmp_path / "missing-dir" / "map.csv"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == EXIT_IO

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, FloatingPointError])
    def test_arithmetic_error_is_a_runtime_error(self, tmp_path, capsys, monkeypatch, error):
        def failing(cfg, threads):
            raise error("numbers out of range")

        monkeypatch.setattr(cli, "run_scan", failing)
        assert main(["scan", "--config", str(write(tmp_path, POINT_CFG))]) == EXIT_RUNTIME
        assert "runtime error: numbers out of range" in capsys.readouterr().err

    def test_summary_only_without_out(self, tmp_path, capsys):
        cfg = write(tmp_path, POINT_CFG)
        assert main(["scan", "--config", str(cfg)]) == EXIT_OK
        assert "insecure cells" in capsys.readouterr().out

    def test_insecure_count_and_area_as_extracted(self, tmp_path, capsys, monkeypatch):
        # runs of insecure cells (C_s = 0) in two rows, one of them split
        values = np.array([[0.0, 0.0, 1.0, 0.0], [2.0, 3.0, 4.0, 5.0], [1.0, 0.0, 0.0, np.nan]])
        result = ScanResult(
            xs=(0.0, 2.5, 5.0, 7.5), ys=(2.0, 4.5, 7.0), values=values, mode="det",
            msc_bps=5.0, mop=None, regime_error_cells=0, invalid_position_cells=0,
            metadata={"config": {"scan": {"step_m": 2.5}}},
        )
        monkeypatch.setattr(cli, "run_scan", lambda cfg, threads: result)
        assert main(["scan", "--config", str(write(tmp_path, POINT_CFG))]) == EXIT_OK
        region = extract_insecure_region(result)
        assert sorted(region.runs_by_row) == [0, 2]
        line = f"insecure cells: {region.cell_count} (area {region.area_m2:.6g} m^2)"
        assert line == "insecure cells: 5 (area 31.25 m^2)"
        assert line in capsys.readouterr().out.splitlines()


class TestPoint:
    def test_breakdown_fields(self, tmp_path, capsys):
        cfg = write(tmp_path, POINT_CFG)
        assert main(["point", "--config", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["gains"]["g_los"] > 0
        assert report["extinction"]["alpha_att_np_per_m"] > 0
        assert "secrecy" in report and "c_s_bps" in report["secrecy"]
        assert "outage" not in report  # deterministic mode by default

    def test_probabilistic_breakdown(self, tmp_path, capsys):
        cfg = write(tmp_path, POINT_CFG)
        assert main(["point", "--config", str(cfg), "--mode", "prob"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert "outage" in report
        assert 0.0 <= report["outage"]["p_o"] <= 1.0

    def test_regime_failure_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "[atmosphere]\ncn2 = 1e-8\n")
        assert main(["point", "--config", str(cfg)]) == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err

    def test_eavesdropper_at_the_least_height_is_a_runtime_error(self, tmp_path, capsys):
        # 1e-100 m from the beam axis, the least height a config accepts:
        # the scalar quadrature runs out of panels, a classified failure
        # with no RuntimeWarning on the way (pyproject.toml makes one an
        # error)
        cfg = write(tmp_path, "[link]\neve_y_m = 1e-100\n")
        assert main(["point", "--config", str(cfg)]) == EXIT_RUNTIME
        assert "runtime error: exceeded 2048 panels" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["det", "prob"])
    def test_channel_gains_computed_once(self, tmp_path, capsys, monkeypatch, mode):
        calls = []

        def counting(*args):
            calls.append(args)
            return channel.compute_channel_gains(*args)

        monkeypatch.setattr(cli, "compute_channel_gains", counting)
        monkeypatch.setattr(outage, "compute_channel_gains", counting)
        cfg = write(tmp_path, POINT_CFG)
        assert main(["point", "--config", str(cfg), "--mode", mode]) == EXIT_OK
        assert len(calls) == 1

    def test_loud_eavesdropper_background(self, tmp_path, capsys):
        # against a 1e9 background the x*log2(x) terms of I(X;Z) nearly
        # cancel; the result must stay a small nonnegative number
        cfg = write(tmp_path, POINT_CFG + "[eve]\nbackground_count = 1e9\n")
        assert main(["point", "--config", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["secrecy"]["i_eve_bits_per_slot"] < 1e-6

    def test_out_file(self, tmp_path, capsys):
        cfg = write(tmp_path, POINT_CFG)
        out = tmp_path / "point.json"
        assert main(["point", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["gains"]["g_nlos"] >= 0


class TestSweep:
    def test_sweep_emits_files(self, tmp_path, capsys):
        text = POINT_CFG + "[sweep]\nparameter = eve_fov_deg\nvalues = 5, 20\n"
        cfg = write(tmp_path, text)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in tmp_path.glob("sweep_*.csv"))
        assert names == ["sweep_eve_fov_deg=20.0.csv", "sweep_eve_fov_deg=5.0.csv"]

    def test_sweep_without_section(self, tmp_path, capsys):
        cfg = write(tmp_path, POINT_CFG)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG


# the commands that write a result to --out: scan as CSV, scan as JSON, point
OUTPUTS = {
    "csv": ["scan"],
    "json": ["scan", "--format", "json"],
    "point": ["point"],
}


@pytest.mark.parametrize("output", list(OUTPUTS))
class TestOutputRewrittenInPlace:
    """An existing output file is written over and cut to the new length:
    the bytes of a write to a fresh path, in the same file."""

    def run(self, tmp_path, output, out):
        cfg = write(tmp_path, POINT_CFG)
        return main(OUTPUTS[output] + ["--config", str(cfg), "--out", str(out)])

    def fresh(self, tmp_path, output):
        out = tmp_path / "fresh.out"
        assert self.run(tmp_path, output, out) == EXIT_OK
        return out.read_bytes()

    def test_longer_and_shorter_files_rewritten_as_a_fresh_write(self, tmp_path, capsys, output):
        fresh = self.fresh(tmp_path, output)
        out = tmp_path / "old.out"
        for old in (b"x" * (3 * len(fresh)), b"x" * (len(fresh) // 3), b"", fresh[::-1]):
            out.write_bytes(old)
            assert self.run(tmp_path, output, out) == EXIT_OK
            assert out.read_bytes() == fresh

    def test_links_inode_and_mode_kept(self, tmp_path, capsys, output):
        fresh = self.fresh(tmp_path, output)
        target, link, hard = tmp_path / "target.out", tmp_path / "link.out", tmp_path / "hard.out"
        target.write_bytes(b"x" * (2 * len(fresh)))
        target.chmod(0o640)
        link.symlink_to(target)
        os.link(target, hard)
        inode = target.stat().st_ino
        assert self.run(tmp_path, output, link) == EXIT_OK
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == hard.read_bytes() == fresh
        assert target.stat().st_ino == inode
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_dev_null(self, tmp_path, capsys, output):
        # ftruncate fails on a character device with EINVAL
        assert self.run(tmp_path, output, "/dev/null") == EXIT_OK

    def test_pipe(self, tmp_path, capsys, output):
        fresh = self.fresh(tmp_path, output)
        read_end, write_end = os.pipe()
        try:
            assert self.run(tmp_path, output, f"/dev/fd/{write_end}") == EXIT_OK
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            assert pipe.read() == fresh

    def test_failed_write_leaves_the_bytes_written(self, tmp_path, capsys, monkeypatch, output):
        fresh = self.fresh(tmp_path, output)
        out = tmp_path / "old.out"
        out.write_bytes(b"x" * (2 * len(fresh)))
        real_write, sizes = os.write, []

        def short_then_failing(fd, data):
            sizes.append(len(data))
            if len(sizes) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data[:100])

        monkeypatch.setattr(os, "write", short_then_failing)
        assert self.run(tmp_path, output, out) == EXIT_IO
        monkeypatch.undo()
        assert sizes == [len(fresh), len(fresh) - 100]
        assert "I/O error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == fresh[:100]


THREE_CELLS = """
[scan]
x_min_m = 0
x_max_m = 1000
y_min_m = 2
y_max_m = 2
step_m = 500
"""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("output", list(OUTPUTS))
def test_out_naming_stdout_holds_the_result_whole(tmp_path, capsys, output, unbuffered):
    """--out /dev/stdout with stdout a regular file: the result is written
    through stdout, after the report lines, not over them from offset 0."""
    cfg = write(tmp_path, THREE_CELLS)
    fresh = tmp_path / "fresh.out"
    assert main(OUTPUTS[output] + ["--config", str(cfg), "--out", str(fresh)]) == EXIT_OK
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    stdout = tmp_path / "stdout.txt"
    with open(stdout, "wb") as fh:
        run = subprocess.run(
            [sys.executable, "-m", "thzsec.cli", *OUTPUTS[output], "--config", str(cfg),
             "--out", "/dev/stdout"],
            stdout=fh, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    assert run.returncode == EXIT_OK, run.stderr
    # the report as printed (for point, the result itself), the result, the note
    printed = capsys.readouterr().out
    report = printed[:printed.rindex("wrote ")].encode()
    assert stdout.read_bytes() == report + fresh.read_bytes() + b"wrote /dev/stdout\n"


def test_stdout_without_a_descriptor_names_no_file(tmp_path, capsys):
    # capsys's stdout has no fileno; the path is then an ordinary --out
    assert cli._names_stdout(Path("/dev/stdout")) is False


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_no_command(self, capsys):
        assert main([]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["point", "--threads", "2"],
        ["point", "--format", "json"],
        ["validate", "--out", "x.json"],
        ["validate", "--threads", "2"],
    ])
    def test_option_not_read_by_the_subcommand(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        out = tmp_path / "map.csv"
        assert main(["scan", "--out", str(out), "--threads", threads]) == EXIT_CONFIG
        assert "threads" in capsys.readouterr().err
        assert not out.exists()

    def test_risk_maps_threads_below_one(self, tmp_path):
        out = tmp_path / "maps"
        script = Path(__file__).resolve().parents[1] / "scripts" / "risk_maps.py"
        run = subprocess.run(
            [sys.executable, str(script), "--threads", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 2
        assert "--threads: must be >= 1, got 0" in run.stderr
        assert "Traceback" not in run.stderr
        assert not out.exists()

    def test_consecutive_calls_share_no_state(self, tmp_path, monkeypatch):
        seen = []

        def record(args):
            seen.append(vars(args))
            return EXIT_OK

        for name in ("scan", "point", "sweep", "validate"):
            monkeypatch.setattr(cli, f"_cmd_{name}", record)
        cfg = str(write(tmp_path, POINT_CFG))
        calls = [
            ["scan", "--config", cfg, "--mode", "prob", "--threads", "2", "--format", "json",
             "--out", "a.json"],
            ["validate"],
            ["sweep", "--config", cfg],
            ["point", "--mode", "det"],
            ["scan"],
        ]
        for argv in calls:
            assert main(argv) == EXIT_OK
            assert main(argv + ["--bogus"]) == EXIT_CONFIG
        defaults = {"config": None, "out": None, "format": "csv", "mode": None, "threads": 1}
        assert seen == [
            {**defaults, "command": "scan", "config": Path(cfg), "mode": "prob", "threads": 2,
             "format": "json", "out": Path("a.json")},
            {"command": "validate", "config": None, "mode": None},
            {**defaults, "command": "sweep", "config": Path(cfg)},
            {"command": "point", "config": None, "out": None, "mode": "det"},
            {**defaults, "command": "scan"},
        ]
        assert cli._build_parser() is cli._build_parser()

    def test_each_subcommand_has_only_its_own_options(self):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        options = {
            name: sorted(o for a in p._actions for o in a.option_strings if o.startswith("--")
                         and o != "--help")
            for name, p in sub.choices.items()
        }
        both = sorted(["--config", "--format", "--mode", "--out", "--threads"])
        assert options == {
            "scan": both,
            "sweep": both,
            "point": ["--config", "--mode", "--out"],
            "validate": ["--config", "--mode"],
        }


@pytest.mark.parametrize("text, extra, command", [
    ("[atmosphere]\ncn2 = 0\n", ["--mode", "prob"], "scan"),
    ("[sweep]\nparameter = eve_fov_deg\nvalues = 5, 200\n", [], "sweep"),
    ("[sweep]\nparameter = freq_hz\nvalues = 340e9, -1\n", [], "sweep"),
    ("[sweep]\nparameter = eve_background\nvalues = 0.01, -5\n", [], "sweep"),
    ("[atmosphere]\nabsorption_table_path = {bad_header}\n", [], "scan"),
    ("[atmosphere]\nabsorption_table_path = {missing}\n", [], "point"),
    ("[link]\nfreq_hz = 700e9\n", [], "point"),
    ("[bob]\naperture_m = 1e200\n", [], "scan"),
    ("[eve]\naperture_m = 1e200\n", [], "scan"),
    ("[link]\neve_y_m = 1e-300\n", [], "point"),
    ("[atmosphere]\nabsorption = constant\nabsorption_db_per_km = 1.7e308\n", [], "point"),
    ("[atmosphere]\nabsorption = constant\nabsorption_db_per_km = 1.7e308\n", ["--mode", "prob"],
     "scan"),
    ("[sweep]\nparameter = divergence_rad\nvalues = 0.02, 1e200\n", [], "sweep"),
    ("[link]\ndistance_m = 1e-300\n", [], "point"),
    ("[link]\ndivergence_rad = 1e-300\n", [], "scan"),
    ("[link]\ndivergence_rad = 1e-6\n", ["--mode", "prob"], "point"),
    (REPEATED_X_GRID, [], "scan"),
], ids=["prob-cn2-0", "sweep-fov-200", "sweep-freq-neg", "sweep-background-neg",
        "table-bad-header", "table-missing", "freq-past-table", "bob-area-overflows",
        "eve-area-overflows", "eve-height-cube-underflows", "los-gain-underflows-point",
        "los-gain-underflows-scan", "sweep-los-gain-underflows", "los-footprint-zero-point",
        "los-footprint-zero-scan", "los-gain-above-one-point", "scan-axis-repeats"])
@pytest.mark.parametrize("run", ["validate", "command"])
def test_rejected_before_any_work(tmp_path, capsys, text, extra, command, run):
    """Configs that only fail once the physics or a file read would reach the
    bad value: validate and the subcommand both reject them as config errors,
    before any output file is written."""
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("freq,alpha\n140e9,2.0\n400e9,30.0\n")
    text = text.format(bad_header=bad_header, missing=tmp_path / "missing.csv")
    # a case with its own grid replaces POINT_CFG's
    cfg = write(tmp_path, text if text.startswith("[scan]") else POINT_CFG + text)
    out = tmp_path / "out" / "result.csv"
    out.parent.mkdir()
    argv = ["validate"] if run == "validate" else [command, "--out", str(out)]
    assert main(argv + ["--config", str(cfg)] + extra) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []
