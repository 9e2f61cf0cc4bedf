#!/usr/bin/env python3
"""thzsec performance benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (perfbench/README.md says why each was chosen):

  det_map        22-cell deterministic capacity map through ``thzsec scan``,
                 then the CSV is re-read
  prob_bg_sweep  outage sweep of the 8-cell x = 750 m line over 3 eve_background
                 values, emitted as JSON and re-read
  io_roundtrip   CSV and JSON emit + reload of a seeded 2,505-cell ScanResult

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``cells_per_s`` and
``peak_rss_mb``; ``failed_frac`` is ``failed / attempted`` of the result line.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics.  Every pass repeats the workload's timed phase until ``--seconds`` of
timed phase have run.  The last line on stdout is one JSON object; the exit
code is nonzero when any output check fails.  ``--workload all`` (the default)
runs each workload in its own process.  Work files, spans and a results log
with the machine description go under ``.bench_build/perfbench``.
"""

import os

# One thread everywhere: with two shared cores, parallel scaling would
# measure the scheduler, not thzsec.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import setup_probe  # noqa: E402  (this directory is on sys.path as the script's own)
from tracer import LAYER_METRICS, Stopwatch, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 11
ORACLE_SAMPLE = 12
# A scan cell must match the scalar oracle within ORACLE_REL_TOL of its value
# plus ORACLE_ABS_TOL of the map scale (the recorded MSC in det mode, 1 in
# prob mode).  The same tolerance applies to the recorded MSC/MOP values.
ORACLE_REL_TOL = 1e-6
ORACLE_ABS_TOL = 1e-9

END_TO_END_UNITS = {"setup_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MB"}


def import_thzsec():
    """Import thzsec from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "thzsec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no thzsec sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import thzsec

    if Path(thzsec.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported thzsec from {thzsec.__file__}, not {package}")


# ---------------------------------------------------------------------------
# checks shared by the workloads


def same_bits(a, b) -> bool:
    """Bit-exact array equality with NaN equal to NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return bool(np.array_equal(nan_a, nan_b)) and a[~nan_a].tobytes() == b[~nan_b].tobytes()


def close(value, reference, scale) -> bool:
    if math.isnan(value) or math.isnan(reference):
        return math.isnan(value) and math.isnan(reference)
    limit = ORACLE_REL_TOL * max(abs(value), abs(reference)) + ORACLE_ABS_TOL * scale
    return abs(value - reference) <= limit


def result_from_csv(loaded):
    from thzsec.scan import ScanResult

    xs, ys, values, header = loaded
    return ScanResult(
        xs=tuple(xs), ys=tuple(ys), values=values, mode=header["mode"],
        msc_bps=float(header["msc_bps"]) if "msc_bps" in header else None,
        mop=float(header["mop"]) if "mop" in header else None,
        regime_error_cells=int(header["regime_error_cells"]),
        invalid_position_cells=int(header["invalid_position_cells"]),
        metadata=json.loads(header["config"]),
    )


def result_from_json(loaded):
    from thzsec.scan import ScanResult

    xs, ys, values, payload = loaded
    return ScanResult(
        xs=tuple(xs), ys=tuple(ys), values=values, mode=payload["mode"],
        msc_bps=payload["msc_bps"], mop=payload["mop"],
        regime_error_cells=payload["regime_error_cells"],
        invalid_position_cells=payload["invalid_position_cells"],
        metadata=payload["metadata"],
    )


def holds(ok: bool, message: str) -> bool:
    """Report a failed output check on stderr; returns ``ok``."""
    if not ok:
        print(f"check failed: {message}", file=sys.stderr)
    return ok


def round_trips(path: Path, loaded) -> bool:
    """Re-emitting what was loaded must reproduce the file byte for byte."""
    from thzsec.scan import emit

    fmt = path.suffix[1:]
    result = result_from_csv(loaded) if fmt == "csv" else result_from_json(loaded)
    again = path.with_name("reemit." + fmt)
    emit(result, fmt, again)
    ok = again.read_bytes() == path.read_bytes()
    again.unlink()
    return holds(ok, f"{path.name} does not round-trip bit-exactly")


def nan_counts_ok(name, result, expected) -> bool:
    """Header NaN counters equal the recorded ones and the NaNs in the grid."""
    nan_cells = int(np.isnan(result.values).sum())
    counts = (result.regime_error_cells, result.invalid_position_cells)
    want = (expected["regime_error_cells"], expected["invalid_position_cells"])
    return holds(counts == want and nan_cells == sum(want),
                 f"{name} NaN counters {counts}, NaN cells {nan_cells}, recorded {want}")


def oracle_mismatches(name, cells, scale) -> int:
    """Count sampled (scan value, scalar oracle value) pairs that disagree."""
    return sum(not holds(close(value, oracle, scale),
                         f"{name} cell {label}: scan {value!r}, oracle {oracle!r}")
               for label, value, oracle in cells)


def recorded():
    return json.loads((HERE / "expected.json").read_text())


def extinction_for(cfg):
    from thzsec.atmosphere import extinction

    scenario = cfg.scenario()
    return extinction(scenario.freq_hz, cfg.conditions(), scenario.d, cfg.backend(), cfg.wave())


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One set of generated inputs and the timed phase that consumes them."""

    config_text = ""
    overrides = ()  # (sweep parameter, value) pairs resolved during set-up
    cells = 0  # grid cells completed by one pass
    ops = 0  # operations attempted by one pass

    def __init__(self, seed: int, work: Path):
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.config = work / "config.ini"
        self.config.write_text(self.config_text)

    def run_pass(self, out: Path):
        """The timed phase; returns {emitted path: what the reload returned}."""
        raise NotImplementedError

    def check(self, loaded) -> int:
        """Full output checks of one pass; returns the failed operations."""
        raise NotImplementedError


class DetMap(Workload):
    name = "det_map"
    config_text = (
        "[scan]\nx_min_m = 0\nx_max_m = 1000\ny_min_m = 2\ny_max_m = 100\n"
        "step_m = 98\nmode = det\n"
    )
    shape = (2, 11)  # y = 2 and 100 m; x = 0, 98, ..., 980 m
    cells = ops = 2 * 11

    def run_pass(self, out):
        from thzsec import cli, scan

        path = out / "det_map.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["scan", "--config", str(self.config), "--out", str(path),
                             "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"thzsec scan exited with {code}")
        return {path: scan.load_csv(path)}

    def check(self, loaded):
        from thzsec.channel import compute_channel_gains
        from thzsec.config import parse_config
        from thzsec.atmosphere import RegimeError
        from thzsec.secrecy import detection_rates, secrecy_capacity

        (path, data), = loaded.items()
        result = result_from_csv(data)
        expected = recorded()[self.name]
        msc = result.msc_bps
        if not (round_trips(path, data)
                and nan_counts_ok(self.name, result, expected)
                and holds(result.values.shape == self.shape,
                          f"{self.name} grid shape {result.values.shape}")
                and holds(msc == float(np.nanmax(result.values)),
                          f"{self.name} MSC {msc!r} is not the grid maximum")
                and holds(close(msc, expected["msc_bps"], expected["msc_bps"]),
                          f"{self.name} MSC {msc!r}, recorded {expected['msc_bps']!r}")):
            return self.ops

        cfg = parse_config(self.config)
        ext = extinction_for(cfg)
        cells = []
        for flat in self.rng.choice(result.values.size, ORACLE_SAMPLE, replace=False):
            iy, ix = divmod(int(flat), len(result.xs))
            x, y = result.xs[ix], result.ys[iy]
            scenario = cfg.scenario().with_eve_at(x, y)
            try:
                gains = compute_channel_gains(scenario, ext, cfg.scattering())
                rates = detection_rates(scenario, gains, cfg.duty_cycle())
                oracle = secrecy_capacity(rates, cfg.paper_exact()).c_s_bps
            except RegimeError:
                oracle = math.nan
            cells.append(((x, y), float(result.values[iy, ix]), oracle))
        return oracle_mismatches(self.name, cells, expected["msc_bps"])


class ProbBackgroundSweep(Workload):
    name = "prob_bg_sweep"
    config_text = (
        "[scan]\nx_min_m = 750\nx_max_m = 750\ny_min_m = 2\ny_max_m = 100\n"
        "step_m = 14\nmode = prob\n\n"
        "[sweep]\nparameter = eve_background\nvalues = 0.001, 0.01, 0.1\n"
    )
    overrides = (("eve_background", 0.001), ("eve_background", 0.01), ("eve_background", 0.1))
    shape = (8, 1)  # x = 750 m; y = 2, 16, ..., 100 m
    cells = ops = 3 * 8

    def run_pass(self, out):
        from thzsec import config, scan

        cfg = config.parse_config(self.config)
        outputs = scan.run_sweep(cfg, out_stem=out / "sweep.json", fmt="json", threads=1)
        return {path: (value, result, scan.load_json(path)) for value, result, path in outputs}

    def check(self, loaded):
        from thzsec.config import parse_config
        from thzsec.outage import outage_scan_point

        expected = recorded()[self.name]
        per_file = self.cells // 3
        failed = 0
        if not holds(sorted(repr(v) for v, _, _ in loaded.values()) == sorted(expected),
                     f"{self.name} emitted {sorted(p.name for p in loaded)}"):
            return self.ops
        base = parse_config(self.config)
        sample = self.rng.choice(self.cells, ORACLE_SAMPLE, replace=False)
        for k, (path, (value, result, data)) in enumerate(sorted(loaded.items())):
            want = expected[repr(value)]
            reloaded = result_from_json(data)
            mop = reloaded.mop
            if not (round_trips(path, data)
                    and holds(same_bits(reloaded.values, result.values),
                              f"{path.name} reloads other values than were emitted")
                    and holds(reloaded.values.shape == self.shape,
                              f"{path.name} grid shape {reloaded.values.shape}")
                    and nan_counts_ok(path.name, reloaded, want)
                    and holds(mop == float(np.nanmin(reloaded.values)),
                              f"{path.name} MOP {mop!r} is not the grid minimum")
                    and holds(close(mop, want["mop"], 1.0),
                              f"{path.name} MOP {mop!r}, recorded {want['mop']!r}")):
                failed += per_file
                continue
            cfg = base.with_sweep_value("eve_background", value)
            ext = extinction_for(cfg)
            spec = cfg.scan_spec()
            cells = []
            for flat in sample[(sample >= k * per_file) & (sample < (k + 1) * per_file)]:
                iy, ix = divmod(int(flat) - k * per_file, len(reloaded.xs))
                x, y = reloaded.xs[ix], reloaded.ys[iy]
                oracle = outage_scan_point(
                    cfg.scenario().with_eve_at(x, y), ext, cfg.scattering(),
                    spec.target_rate_bps, cfg.duty_cycle(), cfg.paper_exact(),
                ).p_o
                cells.append(((value, x, y), float(reloaded.values[iy, ix]), oracle))
            failed += oracle_mismatches(self.name, cells, 1.0)
        return failed


class IoRoundtrip(Workload):
    name = "io_roundtrip"
    # 501 x 5 cells at 2 m: rows as long as the standard map's, so load_csv's
    # per-line axis lookups, which grow with the row length, dominate as they
    # do on the full map.  The physics never runs on this grid.
    config_text = (
        "[scan]\nx_min_m = 0\nx_max_m = 1000\ny_min_m = 2\ny_max_m = 10\n"
        "step_m = 2\nmode = det\n"
    )
    cells = 501 * 5
    ops = 2  # one CSV and one JSON file round trip

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from thzsec.config import parse_config
        from thzsec.scan import ScanResult

        cfg = parse_config(self.config)
        spec = cfg.scan_spec()
        xs, ys = spec.xs, spec.ys
        rng = self.rng
        values = rng.lognormal(mean=math.log(2e10), sigma=1.0, size=(len(ys), len(xs)))
        # bands of exact zeros make insecure runs in about half of the rows
        for iy in np.flatnonzero(rng.random(len(ys)) < 0.5):
            start = rng.integers(0, len(xs))
            values[iy, start:start + rng.integers(1, 200)] = 0.0
        values[rng.random(values.shape) < 0.01] = math.nan
        nan_cells = int(np.isnan(values).sum())
        self.expected_runs = insecure_runs(values == 0.0)
        self.result = ScanResult(
            xs=tuple(xs), ys=tuple(ys), values=values, mode="det",
            msc_bps=float(np.nanmax(values)), mop=None,
            regime_error_cells=nan_cells, invalid_position_cells=0,
            metadata={"config": cfg.to_dict(), "mode": "det", "seed": seed,
                      "regime_error_cells": nan_cells, "invalid_position_cells": 0},
        )

    def run_pass(self, out):
        from thzsec import scan

        csv_path, json_path = out / "io.csv", out / "io.json"
        scan.emit(self.result, "csv", csv_path)
        scan.emit(self.result, "json", json_path)
        return {csv_path: scan.load_csv(csv_path), json_path: scan.load_json(json_path)}

    def check(self, loaded):
        want = self.result
        failed = 0
        for path, data in loaded.items():
            xs, ys, values, _ = data
            got = result_from_csv(data) if path.suffix == ".csv" else result_from_json(data)
            ok = (round_trips(path, data)
                  and holds(tuple(xs) == want.xs and tuple(ys) == want.ys,
                            f"{path.name} reloads other axes than were emitted")
                  and holds(same_bits(values, want.values),
                            f"{path.name} reloads other values than were emitted")
                  and holds(got.msc_bps == want.msc_bps and got.metadata == want.metadata,
                            f"{path.name} reloads another MSC or metadata")
                  and nan_counts_ok(path.name, got, {
                      "regime_error_cells": want.regime_error_cells,
                      "invalid_position_cells": 0}))
            if ok and path.suffix == ".json":
                ok = holds(data[3]["insecure_runs_by_row"] == self.expected_runs,
                           f"{path.name} insecure runs differ from the zero bands")
            failed += not ok
        return failed


def insecure_runs(mask):
    """Per-row [first, last] runs of True, keyed like the JSON output."""
    runs = {}
    for iy, row in enumerate(mask):
        edges = np.diff(np.concatenate(([0], row.astype(np.int8), [0])))
        starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
        if starts.size:
            runs[str(iy)] = [[int(a), int(b)] for a, b in zip(starts, stops)]
    return runs


WORKLOADS = {w.name: w for w in (DetMap, ProbBackgroundSweep, IoRoundtrip)}


# ---------------------------------------------------------------------------
# measurement


def file_digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def setup_probe_seconds(wl: Workload) -> float:
    """One set-up in a fresh interpreter, timed by the child itself."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(wl.config),
           json.dumps(wl.overrides)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def measure(wl: Workload, seconds: float, trace: bool, before_pass=lambda elapsed: None):
    """Repeat the timed phase for ``seconds``; with ``trace`` alternate
    untraced and traced passes.  ``before_pass`` runs before each untraced
    pass with the timed seconds so far.  Returns (pass times, traced pass
    times, the Stopwatch marks of each untraced pass with its start and end
    added, tracer, attempted, failed)."""
    tracer = Tracer() if trace else None
    times, traced_times, marks = [], [], []
    reference = None
    attempted = failed = 0
    while not times or sum(times) + sum(traced_times) < seconds:
        for traced in (False, True) if trace else (False,):
            out = wl.work / ("traced" if traced else "plain")
            out.mkdir(exist_ok=True)
            if not traced:
                before_pass(sum(times))
            attempted += wl.ops
            try:
                if traced:
                    with tracer:
                        setup_probe.set_up(wl.config, wl.overrides)
                        t0 = time.perf_counter()
                        loaded = wl.run_pass(out)
                        dt = time.perf_counter() - t0
                else:
                    with Stopwatch() as watch:
                        t0 = time.perf_counter_ns()
                        loaded = wl.run_pass(out)
                        t1 = time.perf_counter_ns()
                    dt = (t1 - t0) / 1e9
                    marks.append([t0, *watch.marks, t1])
            except Exception:
                traceback.print_exc()
                return times, traced_times, marks, tracer, attempted, failed + wl.ops
            digests = file_digests(loaded)
            if reference is None:
                reference = digests
                failed += wl.check(loaded)
            elif not holds(digests == reference, f"a {'traced' if traced else 'repeated'} "
                                                 f"pass emitted other bytes than the first"):
                failed += wl.ops
            (traced_times if traced else times).append(dt)
    return times, traced_times, marks, tracer, attempted, failed


def quiet_pass_seconds(pass_marks) -> float:
    """One pass's time at the host's quiet speed.

    The Stopwatch marks cut every pass into the same sequence of segments
    (the code is deterministic): per-cell calls, I/O calls and the gaps
    between them, each a few milliseconds.  Each segment's fastest time in
    the run is summed.  Whole passes last long enough that few of them run
    entirely in a quiet moment of a shared host; single segments do.
    Passes whose segment count differs from the most common one are left
    out."""
    common, _ = collections.Counter(map(len, pass_marks)).most_common(1)[0]
    segments = np.array([np.diff(m) for m in pass_marks if len(m) == common])
    return float(segments.min(axis=0).sum()) / 1e9


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches_per_core": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "threads": 1,
        "io_note": "io_roundtrip files are a few MB, far smaller than the L3 cache and "
                   "served from the page cache: it times formatting and parsing, not "
                   "memory or disk bandwidth",
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_thzsec()
    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        wl = WORKLOADS[name](seed, work)
        probes = []
        if trace:
            measured = measure(wl, seconds, trace)
        else:
            # Set-ups are spread evenly over the run, so that their median
            # does not hang on one moment's load on the host.
            def probe(elapsed):
                if len(probes) * seconds / SETUP_REPEATS <= elapsed:
                    probes.append(setup_probe_seconds(wl))

            setup_probe_seconds(wl)  # warm-up: writes the bytecode caches
            measured = measure(wl, seconds, trace, probe)
            while len(probes) < SETUP_REPEATS:
                probes.append(setup_probe_seconds(wl))
        times, traced_times, marks, tracer, attempted, failed = measured
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        overhead = 0.0
        if times and traced_times:
            overhead = (min(traced_times) - min(times)) / min(times)
        tracer.write_spans(WORK / f"spans_{name}.csv")
        values = tracer.layer_metrics(max(len(traced_times), 1), overhead)
        units = LAYER_METRICS
    else:
        values = {
            "setup_s": statistics.median(probes),
            # quiet moments on a shared host are often shorter than a whole
            # pass, so passes are timed by segment (perfbench/README.md)
            "cells_per_s": wl.cells / quiet_pass_seconds(marks) if marks else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    correct = failed == 0 and bool(times)
    env = environment()
    print(f"# workload {name}: seed {seed}, {len(times)} untraced and {len(traced_times)} "
          f"traced passes of {wl.cells} cells, {seconds:g} s of timed phase")
    for label, ts in (("untraced", times), ("traced", traced_times)):
        if ts:
            print(f"# {label} pass s: min {min(ts):.4f} median {statistics.median(ts):.4f} "
                  f"max {max(ts):.4f}")
    if marks:
        print(f"# quiet pass s: {quiet_pass_seconds(marks):.4f} "
              f"({len(marks[0]) - 1} segments per pass)")
    print("# env " + json.dumps(env, sort_keys=True))
    for key, value in values.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    print(f"{name} failed_frac = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} operations)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(WORK / "results.jsonl", "a") as log:
        log.write(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                              "trace": int(trace), "env": env, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return 1
        summary["correct"] &= result["correct"] and done.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
