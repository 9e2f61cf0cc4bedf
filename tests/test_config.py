import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from thzsec.atmosphere import ConstantAbsorption, TableAbsorption
from thzsec.config import (
    _SCHEMA,
    _SWEEP_KEYS,
    ConfigError,
    _parse_bool,
    _parse_float,
    _parse_float_list,
    parse_config,
)
from thzsec.scan import run_scan, run_sweep


def write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_file_gives_standard_scenario(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        scenario = cfg.scenario()
        assert scenario.d == 1000.0
        assert scenario.eve_xy == (750.0, 30.0)
        assert scenario.alpha_a == 0.02
        assert scenario.tx_power_w == 0.01
        assert scenario.freq_hz == 340e9
        assert scenario.bob.efficiency == 0.1
        assert scenario.bob.aperture_d == 0.05
        assert math.isclose(scenario.eve.fov_full_rad, math.radians(10.0), rel_tol=1e-12)
        # slot time defaults to one bit period at the 10 Gbps target rate
        assert scenario.bob.integration_time_s == 1e-10
        assert cfg.conditions().cn2 == 5.8e-11
        spec = cfg.scan_spec()
        assert spec.target_rate_bps == 10e9
        assert spec.mode == "det"
        assert cfg.duty_cycle() == 0.5
        assert cfg.scattering().g == 0.9 and cfg.scattering().f == 0.5

    def test_none_path_gives_defaults(self):
        cfg = parse_config(None)
        assert cfg.scenario().d == 1000.0

    def test_integration_time_follows_target_rate(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[scan]\ntarget_rate_bps = 20e9\n"))
        assert cfg.scenario().bob.integration_time_s == 1.0 / 20e9

    def test_explicit_integration_time_wins(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[bob]\nintegration_time_s = 5e-11\n"))
        assert cfg.scenario().bob.integration_time_s == 5e-11
        assert cfg.scenario().eve.integration_time_s == 1e-10


# settings that earlier releases accepted but no model read
REMOVED_SETTINGS = [
    ("atmosphere", "temperature_c"),
    ("atmosphere", "pressure_hpa"),
    ("atmosphere", "relative_humidity_pct"),
    ("bob", "fov_deg"),
]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_unknown_key_with_line(self, tmp_path):
        path = write(tmp_path, "[link]\ndivergance_angle = 0.02\n")
        with pytest.raises(ConfigError, match=r"case\.cfg:2.*divergance_angle"):
            parse_config(path)

    @pytest.mark.parametrize("section,key", REMOVED_SETTINGS)
    def test_removed_setting_is_unknown_key(self, tmp_path, section, key):
        path = write(tmp_path, f"# no longer a setting\n[{section}]\n{key} = 10\n")
        with pytest.raises(ConfigError, match=rf"case\.cfg:3: unknown key {section}\.{key}$"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[alice\]"):
            parse_config(write(tmp_path, "[alice]\nx = 1\n"))

    def test_constraint_violation_names_key_and_line(self, tmp_path):
        path = write(tmp_path, "[atmosphere]\ncn2 = -1\n")
        with pytest.raises(ConfigError, match=r"case\.cfg:2.*cn2"):
            parse_config(path)

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(write(tmp_path, "[link]\njust some words\n"))

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(ConfigError, match="outside of any"):
            parse_config(write(tmp_path, "freq_hz = 1e11\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write(tmp_path, "[link]\nfreq_hz = 1e11\nfreq_hz = 2e11\n"))

    def test_unparseable_value(self, tmp_path):
        with pytest.raises(ConfigError, match=r"link\.freq_hz"):
            parse_config(write(tmp_path, "[link]\nfreq_hz = banana\n"))

    def test_eve_on_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="eve_y_m"):
            parse_config(write(tmp_path, "[link]\neve_y_m = 0\n"))

    def test_grid_cap(self, tmp_path):
        text = "[scan]\nstep_m = 0.01\nmax_cells = 1000\n"
        with pytest.raises(ConfigError, match="max_cells"):
            parse_config(write(tmp_path, text))

    def test_empty_range(self, tmp_path):
        with pytest.raises(ConfigError, match="empty range"):
            parse_config(write(tmp_path, "[scan]\nx_min_m = 10\nx_max_m = 5\n"))

    def test_bad_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(write(tmp_path, "[scan]\nmode = banana\n"))

    def test_prob_mode_requires_fading(self, tmp_path):
        text = "[scan]\nmode = prob\n[atmosphere]\ncn2 = 0\n"
        with pytest.raises(ConfigError, match="cn2"):
            parse_config(write(tmp_path, text))

    def test_constant_absorption_requires_value(self, tmp_path):
        with pytest.raises(ConfigError, match="absorption_db_per_km"):
            parse_config(write(tmp_path, "[atmosphere]\nabsorption = constant\n"))

    def test_sweep_needs_both_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep.values"):
            parse_config(write(tmp_path, "[sweep]\nparameter = cn2\n"))
        with pytest.raises(ConfigError, match="sweep.parameter"):
            parse_config(write(tmp_path, "[sweep]\nvalues = 1e-12, 1e-11\n"))

    def test_bad_sweep_parameter(self, tmp_path):
        text = "[sweep]\nparameter = banana\nvalues = 1, 2\n"
        with pytest.raises(ConfigError, match="parameter"):
            parse_config(write(tmp_path, text))


class TestUnrepresentableLinks:
    """An eavesdropper closer to the beam axis than 1e-100 m, where the
    cube of its distance to a scatterer underflows, and a link whose
    line-of-sight gain underflows to 0: config errors that name the key,
    from an INI file, a JSON file, an override and a sweep value alike, with
    RuntimeWarning an error (pyproject.toml)."""

    CASES = [
        ({"link": {"eve_y_m": 1e-300}}, r"link\.eve_y_m"),
        ({"link": {"eve_y_m": -5e-324}}, r"link\.eve_y_m"),
        ({"link": {"eve_y_m": 0.0}}, r"link\.eve_y_m"),
        ({"scan": {"y_min_m": 5e-324}}, r"scan\.y_min_m"),
        ({"scan": {"y_max_m": -1e-101}}, r"scan\.y_max_m"),
        ({"atmosphere": {"absorption_db_per_km": 1.7e308, "absorption": "constant"}},
         r"underflows to 0 .* atmosphere\.absorption_db_per_km = 1\.7e\+308"),
        ({"link": {"distance_m": 1e6}}, r"underflows to 0 at link\.distance_m = 1000000\.0"),
        ({"link": {"distance_m": 1e200}}, r"underflows to 0 at link\.distance_m = 1e\+200"),
        ({"link": {"divergence_rad": 1e200}}, r"underflows to 0 .* link\.divergence_rad = 1e\+200"),
        ({"bob": {"aperture_m": 5e-324}}, r"underflows to 0 .* bob\.aperture_m = 5e-324"),
        ({"link": {"distance_m": 1e-300}},
         r"footprint .* = 0\.0 m\^2 .* exceed 1, at link\.distance_m = 1e-300, "
         r"link\.divergence_rad = 0\.02 and bob\.aperture_m = 0\.05"),
        ({"link": {"divergence_rad": 1e-300}},
         r"footprint .* = 0\.0 m\^2 .* exceed 1, .* link\.divergence_rad = 1e-300 "),
        ({"link": {"divergence_rad": 1e-6}},
         r"footprint .* exceed 1, at link\.distance_m = 1000\.0, "
         r"link\.divergence_rad = 1e-06 and bob\.aperture_m = 0\.05"),
    ]

    @pytest.mark.parametrize("settings_,match", CASES)
    def test_file_and_override_routes(self, tmp_path, settings_, match):
        ini = "".join(
            f"[{sec}]\n" + "".join(f"{k} = {v!r}\n" for k, v in body.items())
            for sec, body in settings_.items()
        )
        for path in (write(tmp_path, ini), tmp_path / "case.json"):
            if path.suffix == ".json":
                path.write_text(json.dumps(settings_))
            with pytest.raises(ConfigError, match=match):
                parse_config(path)
        (sec, body), = list(settings_.items())[-1:]
        (key, value), = list(body.items())[-1:]
        base = parse_config(write(tmp_path, "".join(
            f"[{s}]\n" + "".join(f"{k} = {v!r}\n" for k, v in b.items() if k != key)
            for s, b in settings_.items()
        ), name="base.cfg"))
        with pytest.raises(ConfigError, match=match):
            base.with_value(sec, key, value)

    def test_sweep_route(self, tmp_path):
        text = "[sweep]\nparameter = divergence_rad\nvalues = 0.02, 1e200\n"
        with pytest.raises(ConfigError, match=r"sweep divergence_rad = 1e\+200: .*underflows to 0"):
            parse_config(write(tmp_path, text))
        cfg = parse_config(write(tmp_path, "[sweep]\nparameter = divergence_rad\nvalues = 0.02\n"))
        with pytest.raises(ConfigError, match="underflows to 0"):
            cfg.with_sweep_value("divergence_rad", 1e200)

    @pytest.mark.parametrize("value", [1e-300, 1e-6])
    def test_sweep_route_footprint_below_the_aperture(self, tmp_path, value):
        text = f"[sweep]\nparameter = divergence_rad\nvalues = 0.02, {value!r}\n"
        with pytest.raises(ConfigError, match=rf"sweep divergence_rad = {value!r}: .*footprint"):
            parse_config(write(tmp_path, text))
        cfg = parse_config(write(tmp_path, "[sweep]\nparameter = divergence_rad\nvalues = 0.02\n"))
        with pytest.raises(ConfigError, match="exceed 1"):
            cfg.with_sweep_value("divergence_rad", value)

    def test_footprint_bound_is_a_gain_of_one(self, tmp_path):
        # the divergence factor 4 A / (pi d^2 alpha^2) is <= 1 on the side
        # that resolves; D / d = 5e-5 rad puts the bound between these two
        cfg = parse_config(write(tmp_path, "[link]\ndivergence_rad = 5.0001e-5\n"))
        scenario = cfg.scenario()
        assert 4.0 * scenario.bob.area / (math.pi * scenario.d**2 * scenario.alpha_a**2) <= 1.0
        with pytest.raises(ConfigError, match="exceed 1"):
            parse_config(write(tmp_path, "[link]\ndivergence_rad = 4.9999e-5\n"))

    @pytest.mark.parametrize("text", [
        "[link]\neve_y_m = 1e-100\n",
        "[link]\neve_y_m = -1e-100\n",
        "[scan]\ny_min_m = 0\ny_max_m = 1e-100\n",
        "[link]\ndistance_m = 1e5\n",
    ])
    def test_nearby_values_resolve(self, tmp_path, text):
        parse_config(write(tmp_path, text))


class TestFormats:
    def test_ini_comments_and_values(self, tmp_path):
        text = """
# full-line comment
[link]
freq_hz = 220e9
; alt comment
eve_x_m = 500

[secrecy]
paper_exact = true
"""
        cfg = parse_config(write(tmp_path, text))
        assert cfg.scenario().freq_hz == 220e9
        assert cfg.scenario().eve_xy[0] == 500.0
        assert cfg.paper_exact() is True

    def test_json_alternate(self, tmp_path):
        payload = {
            "link": {"freq_hz": 140e9},
            "scattering": {"g": 0.5, "f": 0.0},
            "sweep": {"parameter": "cn2", "values": [1e-12, 1e-11]},
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(payload))
        cfg = parse_config(path)
        assert cfg.scenario().freq_hz == 140e9
        assert cfg.scattering().g == 0.5
        assert cfg.sweep_spec().values == (1e-12, 1e-11)

    def test_json_unknown_key(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({"link": {"divergance_angle": 0.02}}))
        with pytest.raises(ConfigError, match="divergance_angle"):
            parse_config(path)

    @pytest.mark.parametrize("section,key", REMOVED_SETTINGS)
    def test_json_removed_setting_is_unknown_key(self, tmp_path, section, key):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({section: {key: 10}}))
        with pytest.raises(ConfigError, match=rf"unknown key {section}\.{key}$"):
            parse_config(path)

    def test_json_bad_syntax(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(path)


class TestBackends:
    def test_constant_backend(self, tmp_path):
        text = "[atmosphere]\nabsorption = constant\nabsorption_db_per_km = 12.5\n"
        cfg = parse_config(write(tmp_path, text))
        backend = cfg.backend()
        assert isinstance(backend, ConstantAbsorption)
        assert backend.db_per_km == 12.5

    def test_table_backend_from_path(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("freq_hz,alpha_db_per_km\n140e9,2.0\n400e9,30.0\n")
        text = f"[atmosphere]\nabsorption_table_path = {table}\n"
        cfg = parse_config(write(tmp_path, text))
        backend = cfg.backend()
        assert isinstance(backend, TableAbsorption)
        assert backend.freqs_hz == (140e9, 400e9)

    def test_default_backend_is_bundled_table(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert isinstance(cfg.backend(), TableAbsorption)

    def test_table_read_once_per_resolution(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("freq_hz,alpha_db_per_km\n140e9,2.0\n400e9,30.0\n")
        text = (
            f"[atmosphere]\nabsorption_table_path = {table}\n"
            "[scan]\nx_min_m = 700\nx_max_m = 800\ny_min_m = 10\ny_max_m = 10\nstep_m = 50\n"
            "[sweep]\nparameter = eve_background\nvalues = 0.01, 0.1\n"
        )
        cfg = parse_config(write(tmp_path, text))
        scan, sweep = run_scan(cfg), run_sweep(cfg)
        table.unlink()
        assert np.array_equal(run_scan(cfg).values, scan.values)
        assert all(
            np.array_equal(again.values, first.values)
            for (_, again, _), (_, first, _) in zip(run_sweep(cfg), sweep)
        )
        # a new resolution reads the file again
        with pytest.raises(ConfigError, match="No such file"):
            cfg.with_value("scan", "mode", "prob")


class TestSweepResolution:
    def test_with_sweep_value(self, tmp_path):
        text = "[sweep]\nparameter = cn2\nvalues = 1e-12, 1e-11, 1e-10\n"
        cfg = parse_config(write(tmp_path, text))
        sub = cfg.with_sweep_value("cn2", 1e-11)
        assert sub.conditions().cn2 == 1e-11
        # original untouched
        assert cfg.conditions().cn2 == 5.8e-11

    def test_metadata_echo_round_trips(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[link]\nfreq_hz = 220e9\n"))
        echo = cfg.to_dict()
        assert echo["link"]["freq_hz"] == 220e9
        assert json.loads(json.dumps(echo)) == echo


# ---- one resolution path for files, overrides and sweep values ---------


@pytest.fixture
def table_dir(tmp_path, monkeypatch):
    """Work in a directory that holds a good and a bad absorption table."""
    (tmp_path / "table.csv").write_text("freq_hz,alpha_db_per_km\n140e9,2.0\n400e9,30.0\n")
    (tmp_path / "bad_header.csv").write_text("freq,alpha\n140e9,2.0\n400e9,30.0\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


_NUMBERS = st.one_of(
    st.floats(), st.floats(-2e12, 2e12), st.integers(-1000, 1000),
    st.sampled_from([0, 10, 1, 0.5, 2e-9, 5e-324, 1e300]),
)
_WORDS = {
    "wave": ["plane", "spherical"],
    "absorption": ["table", "constant"],
    "absorption_table_path": ["table.csv", "bad_header.csv", "missing.csv"],
    "mode": ["det", "prob"],
    "parameter": sorted(_SWEEP_KEYS),
}


@st.composite
def _setting(draw):
    """A (section, key, value) drawn from the schema, valid or not."""
    section = draw(st.sampled_from(sorted(_SCHEMA)))
    key = draw(st.sampled_from(sorted(_SCHEMA[section])))
    parser = _SCHEMA[section][key][1]
    if parser is _parse_float:
        value = draw(_NUMBERS)
    elif parser is _parse_float_list:
        value = tuple(draw(st.lists(_NUMBERS, max_size=3)))
    elif parser is _parse_bool:
        value = draw(st.booleans())
    else:
        value = draw(st.sampled_from(_WORDS[key] + ["banana"]))
    return section, key, value


def _ini(value):
    if isinstance(value, tuple):
        return ", ".join(_ini(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _outcome(resolve):
    """The metadata echo as JSON text, or ConfigError."""
    try:
        return json.dumps(resolve().to_dict(), sort_keys=True)
    except ConfigError:
        return ConfigError


class TestOneResolutionPath:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(setting=_setting())
    @example(setting=("scan", "step_m", 10))
    @example(setting=("scan", "target_rate_bps", 20e9))
    @example(setting=("scan", "step_m", 0.001))
    @example(setting=("scan", "mode", "banana"))
    @example(setting=("atmosphere", "absorption_table_path", "bad_header.csv"))
    @example(setting=("link", "freq_hz", 700e9))
    # the phase-function check must not overflow before the config route
    # can answer: a huge forward fraction, and |g| an ulp below 1
    @example(setting=("scattering", "f", 8.98846567431158e+307))
    @example(setting=("scattering", "g", 0.9999999999999999))
    @example(setting=("scattering", "g", -0.9999999999999999))
    @example(setting=("sweep", "values", (0.01, 0.01)))
    def test_override_equals_file(self, table_dir, setting):
        section, key, value = setting
        path = write(table_dir, f"[{section}]\n{key} = {_ini(value)}\n")
        from_file = _outcome(lambda: parse_config(path))
        overridden = _outcome(lambda: parse_config(None).with_value(section, key, value))
        assert overridden == from_file

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(settings_=st.lists(_setting(), max_size=4))
    @example(settings_=[("scan", "step_m", 10), ("scan", "mode", "prob")])
    @example(settings_=[("sweep", "parameter", "cn2"), ("sweep", "values", (1e-12, 1e-11))])
    @example(settings_=[("scan", "target_rate_bps", 5e-324)])
    def test_echo_round_trips_through_json(self, table_dir, settings_):
        cfg = parse_config(None)
        for section, key, value in settings_:
            try:
                cfg = cfg.with_value(section, key, value)
            except ConfigError:
                pass
        echo = {
            sec: {k: v for k, v in body.items() if v is not None}
            for sec, body in cfg.to_dict().items()
        }
        path = table_dir / "echo.json"
        path.write_text(json.dumps(echo))
        again = parse_config(path)
        assert again.values == cfg.values
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(cfg.to_dict(), sort_keys=True)

    def test_override_rederives_defaults(self):
        cfg = parse_config(None).with_value("scan", "target_rate_bps", 20e9)
        assert cfg.scenario().bob.integration_time_s == 5e-11

    def test_override_is_checked_against_the_grid_cap(self):
        with pytest.raises(ConfigError, match=r"scan\.step_m = 0\.001: .*max_cells"):
            parse_config(None).with_value("scan", "step_m", 0.001)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_repeated_axis_values_rejected(self, tmp_path, axis):
        # floats near 1e17 lie 16 apart: a 1 m step over 64 m gives 65 axis
        # values, 5 of them distinct, which the scan would write as 65 cells
        bounds = {f"{axis}_min_m": 1e17, f"{axis}_max_m": 1.00000000000000064e17}
        match = rf"scan\.step_m = 1\.0 repeats values on the {axis} axis \(5 distinct of 65\)"
        settings_ = {"scan": {**bounds, "step_m": 1.0}}
        ini = "[scan]\n" + "".join(f"{k} = {v!r}\n" for k, v in settings_["scan"].items())
        json_path = tmp_path / "case.json"
        json_path.write_text(json.dumps(settings_))
        for path in (write(tmp_path, ini), json_path):
            with pytest.raises(ConfigError, match=match):
                parse_config(path)
        # a step of the float spacing resolves; the override to 1 m does not
        base = parse_config(write(tmp_path, ini.replace("step_m = 1.0", "step_m = 16.0")))
        assert len(set(getattr(base.scan_spec(), f"{axis}s"))) == 5
        with pytest.raises(ConfigError, match=match):
            base.with_value("scan", "step_m", 1.0)

    def test_grid_cap_with_an_overflowing_cell_count(self, tmp_path):
        with pytest.raises(ConfigError, match="scan grid has inf cells"):
            parse_config(write(tmp_path, "[scan]\nstep_m = 5e-324\n"))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_numbers_rejected(self, tmp_path, raw):
        with pytest.raises(ConfigError, match=r"case\.cfg:2: scan\.x_min_m: .*finite"):
            parse_config(write(tmp_path, f"[scan]\nx_min_m = {raw}\n"))

    @pytest.mark.parametrize("parameter, values, bad", [
        ("eve_fov_deg", "5, 200", "200.0"),
        ("freq_hz", "340e9, -1", "-1.0"),
        ("eve_background", "0.01, -5", "-5.0"),
    ])
    def test_each_sweep_value_resolved(self, tmp_path, parameter, values, bad):
        text = f"[sweep]\nparameter = {parameter}\nvalues = {values}\n"
        section, key = _SWEEP_KEYS[parameter]
        pattern = rf"with sweep {parameter} = {bad}: {section}\.{key}"
        with pytest.raises(ConfigError, match=pattern):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("values, repeated", [
        ("0.01, 0.01, 1e-2", "0.01"),
        ("0.001, 0.1, 1e-1", "0.1"),
        ("0, -0", "-0.0"),
    ])
    def test_repeated_sweep_value_rejected(self, tmp_path, values, repeated):
        # equal values would write one file and report several
        text = f"[sweep]\nparameter = eve_background\nvalues = {values}\n"
        with pytest.raises(ConfigError, match=rf"case\.cfg:3: sweep\.values: {repeated} appears more than once"):
            parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match=rf"sweep\.values: {repeated} appears more than once"):
            parse_config(None).with_value("sweep", "values", _parse_float_list(values))

    def test_prob_mode_checks_each_cn2_sweep_value(self, tmp_path):
        text = "[scan]\nmode = prob\n[sweep]\nparameter = cn2\nvalues = 1e-12, 0\n"
        with pytest.raises(ConfigError, match=r"with sweep cn2 = 0\.0: atmosphere\.cn2 must be > 0"):
            parse_config(write(tmp_path, text))

    def test_mode_override_checks_the_sweep_values(self, tmp_path):
        text = "[sweep]\nparameter = cn2\nvalues = 1e-12, 0\n"
        cfg = parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match="atmosphere.cn2 must be > 0"):
            cfg.with_value("scan", "mode", "prob")

    @pytest.mark.parametrize("text, message", [
        ("[atmosphere]\nabsorption_table_path = bad_header.csv\n", "expected header"),
        ("[atmosphere]\nabsorption_table_path = missing.csv\n", "No such file"),
        ("[atmosphere]\nabsorption_table_path = table.csv\n[link]\nfreq_hz = 420e9\n",
         "outside table hull"),
        ("[link]\nfreq_hz = 700e9\n", "outside table hull"),
        ("[link]\nfreq_hz = 1.5e12\n[atmosphere]\nabsorption = constant\n"
         "absorption_db_per_km = 1\n", "outside supported band"),
    ], ids=["bad-header", "missing", "past-own-table", "past-bundled-table", "past-band"])
    def test_backend_checked_against_the_carrier(self, table_dir, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(write(table_dir, text))
