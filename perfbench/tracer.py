"""In-memory span tracer that instruments thzsec from outside the package.

The tracer replaces the module-level names that thzsec's callers bind (for
example ``thzsec.scan.compute_channel_gains`` and
``thzsec.channel.nlos_gain``) with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Spans stay in a list
until the benchmark writes them out.  Nothing inside ``src/`` is edited;
uninstalling restores every original binding.

``Stopwatch`` is the light counterpart used on untraced passes: it only
timestamps the start and end of calls to a few per-cell and I/O functions,
so that a pass can be cut into short segments (see ``run.quiet_pass_seconds``).
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np

# (module, attribute, span name).  A dotted attribute names a method.
PLAIN_TARGETS = (
    ("thzsec.config", "parse_config", "config.parse_config"),
    ("thzsec.config", "ResolvedConfig.with_value", "config.with_value"),
    ("thzsec.atmosphere", "extinction", "atmosphere.extinction"),
    ("thzsec.channel", "compute_channel_gains", "channel.compute_channel_gains"),
    ("thzsec.channel", "optimize_steering", "channel.optimize_steering"),
    ("thzsec.channel", "nlos_gain", "channel.nlos_gain"),
    ("thzsec.secrecy", "ook_mutual_information", "secrecy.ook_mutual_information"),
    ("thzsec.secrecy", "secrecy_capacity", "secrecy.secrecy_capacity"),
    ("thzsec.outage", "outage_scan_point", "outage.outage_scan_point"),
    ("thzsec.outage", "threshold_gain", "outage.threshold_gain"),
    ("thzsec.scan", "run_scan", "scan.run_scan"),
    ("thzsec.scan", "extract_insecure_region", "scan.extract_insecure_region"),
    ("thzsec.scan", "load_csv", "scan.load_csv"),
    ("thzsec.scan", "load_json", "scan.load_json"),
    ("thzsec.cli", "main", "cli.main"),
)

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "config.parse_config.s": "s",
    "config.with_value.calls": "count",
    "atmosphere.extinction.calls": "count",
    "atmosphere.extinction.s": "s",
    "channel.compute_channel_gains.calls": "count",
    "channel.compute_channel_gains.self_s": "s",
    "channel.compute_channel_gains.us_p50": "us",
    "channel.compute_channel_gains.us_p99": "us",
    "channel.optimize_steering.self_s": "s",
    "channel.nlos_gain.calls": "count",
    "channel.nlos_gain.self_s": "s",
    "channel.nlos_gain.per_cell": "ratio",
    "numerics.adaptive_gauss_kronrod.calls": "count",
    "numerics.adaptive_gauss_kronrod.self_s": "s",
    "numerics.adaptive_gauss_kronrod.integrand_points": "count",
    "numerics.adaptive_gauss_kronrod.integrand_calls": "count",
    "numerics.adaptive_gauss_kronrod.points_per_call": "ratio",
    "numerics.golden_section_max.calls": "count",
    "numerics.golden_section_max.evals": "count",
    "secrecy.ook_mutual_information.calls": "count",
    "secrecy.ook_mutual_information.self_s": "s",
    "secrecy.secrecy_capacity.calls": "count",
    "outage.threshold_gain.calls": "count",
    "outage.threshold_gain.self_s": "s",
    "outage.threshold_gain.evals_per_call": "ratio",
    "scan.run_scan.self_s": "s",
    "scan.extract_insecure_region.s": "s",
    "scan.emit.csv_s": "s",
    "scan.emit.json_s": "s",
    "scan.emit.bytes": "bytes",
    "scan.load_csv.s": "s",
    "scan.load_json.s": "s",
    "cli.main.self_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


# (module, attribute) of the functions whose call boundaries cut an untraced
# pass into segments: the per-cell work and the file I/O.
CUT_TARGETS = (
    ("thzsec.channel", "compute_channel_gains"),
    ("thzsec.outage", "outage_scan_point"),
    ("thzsec.scan", "emit"),
    ("thzsec.scan", "load_csv"),
    ("thzsec.scan", "load_json"),
)


def _thzsec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "thzsec" or name.startswith("thzsec."))]


def _rebind(original, wrapper, restore: list) -> None:
    """Replace every binding of ``original`` in thzsec's modules, noting each
    in ``restore`` as (module, attribute, original)."""
    for module in _thzsec_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                restore.append((module, attr, original))


class _Installed:
    """Context manager base: ``install`` fills ``_restore``, exit undoes it."""

    def __init__(self):
        self._restore: List[tuple] = []

    def install(self):
        raise NotImplementedError

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class Stopwatch(_Installed):
    """Appends ``perf_counter_ns`` to ``marks`` at the start and end of every
    call to a CUT_TARGETS function; two clock reads per call, nothing else."""

    def __init__(self):
        super().__init__()
        self.marks: List[int] = []

    def _marked(self, fn):
        marks, clock = self.marks, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            marks.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())

        return wrapper

    def install(self):
        for module_name, attr in CUT_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            _rebind(original, self._marked(original), self._restore)


class Tracer(_Installed):
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        super().__init__()
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    # ---- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _quadrature(self, agk):
        counts = self.counts

        def counted_quadrature(f, *args, **kwargs):
            def integrand(x):
                counts["integrand_calls"] += 1
                counts["integrand_points"] += np.size(x)
                return f(x)

            return agk(integrand, *args, **kwargs)

        return self._span("numerics.adaptive_gauss_kronrod", counted_quadrature)

    def _golden(self, gsm):
        counts = self.counts

        def counted_golden(f, *args, **kwargs):
            def objective(x):
                counts["golden_evals"] += 1
                return f(x)

            return gsm(objective, *args, **kwargs)

        return self._span("numerics.golden_section_max", counted_golden)

    def _emit(self, emit):
        by_format = {fmt: self._span(f"scan.emit.{fmt}", emit) for fmt in ("csv", "json")}
        counts = self.counts

        def sized_emit(result, fmt, path):
            by_format.get(fmt, emit)(result, fmt, path)
            counts["emit_bytes"] += os.path.getsize(path)

        return sized_emit

    # ---- install -----------------------------------------------------------

    def _rebind(self, original, wrapper):
        _rebind(original, wrapper, self._restore)

    def install(self):
        from thzsec import numerics, scan

        for module_name, attr, name in PLAIN_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                setattr(cls, method, self._span(name, original))
                self._restore.append((cls, method, original))
            else:
                original = getattr(module, attr)
                self._rebind(original, self._span(name, original))
        self._rebind(numerics.adaptive_gauss_kronrod,
                     self._quadrature(numerics.adaptive_gauss_kronrod))
        self._rebind(numerics.golden_section_max,
                     self._golden(numerics.golden_section_max))
        self._rebind(scan.emit, self._emit(scan.emit))

    # ---- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")

    def layer_metrics(self, passes: int, overhead_frac: float) -> Dict[str, float]:
        """Per-pass layer metrics; layers no span reached report 0."""
        n = len(self.spans)
        start = np.fromiter((s[1] for s in self.spans), dtype=np.int64, count=n)
        end = np.fromiter((s[2] for s in self.spans), dtype=np.int64, count=n)
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=n)
        dur = end - start
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child

        by_name: Dict[str, List[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)

        def idx(name):
            return np.array(by_name.get(name, []), dtype=np.int64)

        def calls(name):
            return len(by_name.get(name, [])) / passes

        def incl_s(name):
            return float(dur[idx(name)].sum()) / 1e9 / passes

        def self_s(name):
            return float(self_ns[idx(name)].sum()) / 1e9 / passes

        def ratio(num, den):
            return num / den if den else 0.0

        ccg = dur[idx("channel.compute_channel_gains")] / 1e3
        tg = idx("outage.threshold_gain")
        mi = idx("secrecy.ook_mutual_information")
        mi_in_tg = int(np.isin(parent[mi], tg).sum()) if len(tg) else 0
        agk_calls = calls("numerics.adaptive_gauss_kronrod")
        points = self.counts["integrand_points"] / passes
        return {
            "config.parse_config.s": incl_s("config.parse_config"),
            "config.with_value.calls": calls("config.with_value"),
            "atmosphere.extinction.calls": calls("atmosphere.extinction"),
            "atmosphere.extinction.s": incl_s("atmosphere.extinction"),
            "channel.compute_channel_gains.calls": calls("channel.compute_channel_gains"),
            "channel.compute_channel_gains.self_s": self_s("channel.compute_channel_gains"),
            "channel.compute_channel_gains.us_p50":
                float(np.percentile(ccg, 50)) if ccg.size else 0.0,
            "channel.compute_channel_gains.us_p99":
                float(np.percentile(ccg, 99)) if ccg.size else 0.0,
            "channel.optimize_steering.self_s": self_s("channel.optimize_steering"),
            "channel.nlos_gain.calls": calls("channel.nlos_gain"),
            "channel.nlos_gain.self_s": self_s("channel.nlos_gain"),
            "channel.nlos_gain.per_cell": ratio(
                calls("channel.nlos_gain"), calls("channel.compute_channel_gains")),
            "numerics.adaptive_gauss_kronrod.calls": agk_calls,
            "numerics.adaptive_gauss_kronrod.self_s": self_s("numerics.adaptive_gauss_kronrod"),
            "numerics.adaptive_gauss_kronrod.integrand_points": points,
            "numerics.adaptive_gauss_kronrod.integrand_calls":
                self.counts["integrand_calls"] / passes,
            "numerics.adaptive_gauss_kronrod.points_per_call": ratio(points, agk_calls),
            "numerics.golden_section_max.calls": calls("numerics.golden_section_max"),
            "numerics.golden_section_max.evals": self.counts["golden_evals"] / passes,
            "secrecy.ook_mutual_information.calls": calls("secrecy.ook_mutual_information"),
            "secrecy.ook_mutual_information.self_s": self_s("secrecy.ook_mutual_information"),
            "secrecy.secrecy_capacity.calls": calls("secrecy.secrecy_capacity"),
            "outage.threshold_gain.calls": calls("outage.threshold_gain"),
            "outage.threshold_gain.self_s": self_s("outage.threshold_gain"),
            "outage.threshold_gain.evals_per_call": ratio(mi_in_tg, len(tg)),
            "scan.run_scan.self_s": self_s("scan.run_scan"),
            "scan.extract_insecure_region.s": incl_s("scan.extract_insecure_region"),
            "scan.emit.csv_s": incl_s("scan.emit.csv"),
            "scan.emit.json_s": incl_s("scan.emit.json"),
            "scan.emit.bytes": self.counts["emit_bytes"] / passes,
            "scan.load_csv.s": incl_s("scan.load_csv"),
            "scan.load_json.s": incl_s("scan.load_json"),
            "cli.main.self_s": self_s("cli.main"),
            "bench.trace_overhead_frac": overhead_frac,
        }
