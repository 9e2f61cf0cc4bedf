"""The benchmark's set-up step, and a child-process probe that times it.

Set-up is what a user pays before the first grid cell: importing thzsec,
resolving the configuration (parse plus overrides) and computing the first
extinction.  Run as a script, this file does that in a fresh interpreter and
prints the elapsed seconds, counted from its own first statement:

    python3 perfbench/setup_probe.py ROOT CONFIG '[["eve_background", 0.001]]'
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def set_up(config_path, overrides):
    """Parse ``config_path``, apply each (sweep parameter, value) override and
    compute the base configuration's extinction.  Calls go through module
    attributes, so a tracer installed on thzsec sees them."""
    from thzsec import atmosphere, config

    cfg = config.parse_config(config_path)
    for parameter, value in overrides:
        cfg.with_sweep_value(parameter, value)
    scenario = cfg.scenario()
    return atmosphere.extinction(
        scenario.freq_hz, cfg.conditions(), scenario.d, cfg.backend(), cfg.wave()
    )


def main(argv):
    root, config_path, overrides = argv
    sys.path.insert(0, str(Path(root) / "src"))
    set_up(config_path, json.loads(overrides))
    print(repr(time.perf_counter() - _T0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
