import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thzsec.atmosphere import (
    FREQ_MAX_HZ,
    FREQ_MIN_HZ,
    AtmosphereConditions,
    ConstantAbsorption,
    FrequencyRangeError,
    RegimeError,
    TableAbsorption,
    TurbulenceStrength,
    Wave,
    classify_turbulence,
    default_absorption_table,
    extinction,
    gaseous_extinction,
    rytov_variances,
    turbulence_attenuation_db,
)
from thzsec.outage import FadingModel
from thzsec.units import np_per_m_to_db_per_km, wavenumber

COND = AtmosphereConditions()


def cn2_for_spherical_variance(target, freq_hz, path_m):
    """Invert beta_R^2 = 0.5 * cn2 * k^(7/6) * L^(11/6) for cn2."""
    k = wavenumber(freq_hz)
    return target / (0.5 * k ** (7.0 / 6.0) * path_m ** (11.0 / 6.0))


class TestClassification:
    def test_boundaries(self):
        assert classify_turbulence(9.99e-18) is TurbulenceStrength.WEAK
        assert classify_turbulence(1e-17) is TurbulenceStrength.MODERATE
        assert classify_turbulence(1e-15) is TurbulenceStrength.MODERATE
        assert classify_turbulence(1e-13) is TurbulenceStrength.MODERATE
        assert classify_turbulence(1.0001e-13) is TurbulenceStrength.STRONG

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_turbulence(-1e-18)


class TestConditions:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            AtmosphereConditions(cn2=-1.0)

    def test_turbulence_class_property(self):
        # 5.8e-11 sits above the 1e-13 boundary
        assert COND.turbulence_class is TurbulenceStrength.STRONG


class TestGaseousExtinction:
    def test_constant_zero(self):
        assert gaseous_extinction(340e9, ConstantAbsorption(0.0)) == 0.0

    def test_constant_hand_value(self):
        # 100 dB/km -> 100 * ln(10) / 10 / 1000 Np/m
        expected = 100.0 * math.log(10.0) / 10.0 / 1000.0
        got = gaseous_extinction(340e9, ConstantAbsorption(100.0))
        assert math.isclose(got, expected, rel_tol=1e-15)
        assert math.isclose(got, 0.023026, rel_tol=1e-4)

    def test_table_interpolation_between_nodes(self):
        table = TableAbsorption((140e9, 220e9), (2.0, 6.0))
        # log-linear: halfway in frequency means the geometric mean in dB/km
        expected_db = math.sqrt(2.0 * 6.0)
        got = gaseous_extinction(180e9, table)
        assert 2.0 * math.log(10) / 1e4 < got < 6.0 * math.log(10) / 1e4
        assert math.isclose(got, expected_db * math.log(10.0) / 1e4, rel_tol=1e-12)

    def test_table_nodes_exact(self):
        table = TableAbsorption((140e9, 220e9, 340e9), (2.0, 6.0, 21.0))
        assert math.isclose(
            gaseous_extinction(220e9, table),
            6.0 * math.log(10.0) / 1e4,
            rel_tol=1e-12,
        )

    def test_out_of_hull_rejected(self):
        table = TableAbsorption((140e9, 220e9), (2.0, 6.0))
        with pytest.raises(FrequencyRangeError):
            gaseous_extinction(139e9, table)
        with pytest.raises(FrequencyRangeError):
            gaseous_extinction(221e9, table)

    def test_out_of_band_rejected(self):
        with pytest.raises(FrequencyRangeError):
            gaseous_extinction(50e9, ConstantAbsorption(1.0))
        with pytest.raises(FrequencyRangeError):
            gaseous_extinction(1.5e12, ConstantAbsorption(1.0))

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TableAbsorption((140e9,), (2.0,))
        with pytest.raises(ValueError):
            TableAbsorption((220e9, 140e9), (2.0, 6.0))
        with pytest.raises(ValueError):
            TableAbsorption((140e9, 220e9), (2.0, 0.0))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("freq_hz,alpha_db_per_km\n140e9,2.0\n220e9,6.0\n")
        table = TableAbsorption.from_csv(path)
        assert table.freqs_hz == (140e9, 220e9)
        bad = tmp_path / "bad.csv"
        bad.write_text("frequency,alpha\n1,2\n")
        with pytest.raises(ValueError):
            TableAbsorption.from_csv(bad)

    def test_bundled_table_has_calibration_nodes(self):
        table = default_absorption_table()
        for f in (140e9, 220e9, 340e9, 625e9, 675e9):
            assert f in table.freqs_hz

    def test_bundled_table_read_like_any_table(self):
        from importlib.resources import as_file, files

        with as_file(files("thzsec.data") / "absorption_default.csv") as path:
            assert default_absorption_table() == TableAbsorption.from_csv(path)
        assert default_absorption_table() is default_absorption_table()


class TestRytov:
    def test_zero_turbulence(self):
        v = rytov_variances(340e9, 0.0, 1000.0)
        assert v.plane == 0.0 and v.spherical == 0.0
        assert v.valid

    def test_plane_spherical_ratio_exact(self):
        v = rytov_variances(340e9, 5.8e-11, 1000.0)
        assert v.plane == 2.46 * v.spherical  # bit-exact by construction

    def test_chamber_point_hand_value(self):
        # 625 GHz, cn2 = 2.3e-9, L = 1 m
        k = 2.0 * math.pi * 625e9 / 299792458.0
        expected_plane = 1.23 * 2.3e-9 * k ** (7.0 / 6.0) * 1.0 ** (11.0 / 6.0)
        v = rytov_variances(625e9, 2.3e-9, 1.0)
        assert math.isclose(v.plane, expected_plane, rel_tol=1e-12)
        assert math.isclose(v.plane, 1.8e-4, rel_tol=2e-2)

    def test_validity_flag(self):
        assert rytov_variances(340e9, 1e-12, 1000.0).valid
        assert not rytov_variances(340e9, 1e-9, 1000.0).valid


class TestTurbulenceAttenuation:
    def test_zero_cn2(self):
        assert turbulence_attenuation_db(340e9, 0.0, 1000.0, Wave.PLANE) == 0.0

    def test_quarter_variance_hand_value(self):
        cn2 = cn2_for_spherical_variance(0.25, 340e9, 1000.0)
        a_t = turbulence_attenuation_db(340e9, cn2, 1000.0, Wave.SPHERICAL)
        assert math.isclose(a_t, abs(10.0 * math.log10(1.0 - 0.5)), rel_tol=1e-9)
        assert math.isclose(a_t, 3.0103, rel_tol=1e-4)

    def test_boundary_stays_finite(self):
        cn2 = cn2_for_spherical_variance(0.99, 340e9, 1000.0)
        a_t = turbulence_attenuation_db(340e9, cn2, 1000.0, Wave.SPHERICAL)
        assert math.isclose(a_t, abs(10.0 * math.log10(1.0 - math.sqrt(0.99))), rel_tol=1e-9)
        assert math.isclose(a_t, 23.0, rel_tol=1e-3)
        assert math.isfinite(a_t)

    def test_regime_error_exactly_at_one(self):
        cn2 = cn2_for_spherical_variance(1.0, 340e9, 1000.0)
        with pytest.raises(RegimeError):
            turbulence_attenuation_db(340e9, cn2 * (1 + 1e-9), 1000.0, Wave.SPHERICAL)
        # just below stays usable
        turbulence_attenuation_db(340e9, cn2 * (1 - 1e-6), 1000.0, Wave.SPHERICAL)

    def test_plane_wave_uses_bigger_variance(self):
        cn2 = cn2_for_spherical_variance(0.3, 340e9, 1000.0)
        a_sph = turbulence_attenuation_db(340e9, cn2, 1000.0, Wave.SPHERICAL)
        a_pl = turbulence_attenuation_db(340e9, cn2, 1000.0, Wave.PLANE)
        assert a_pl > a_sph

    def test_strictly_increasing_in_cn2(self):
        # valid span at 140 GHz / 1 km covers part of the reference range
        cn2_grid = [3.5e-11, 1e-10, 2e-10, 4e-10, 5e-10]
        values = [turbulence_attenuation_db(140e9, c, 1000.0, Wave.SPHERICAL) for c in cn2_grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        # chamber-style short path keeps the whole reference range valid
        chamber = [3.5e-11, 1e-10, 1e-9, 2.3e-9]
        values = [turbulence_attenuation_db(625e9, c, 1.0, Wave.SPHERICAL) for c in chamber]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestExtinction:
    def test_lossless(self):
        cond = AtmosphereConditions(cn2=0.0)
        ext = extinction(340e9, cond, 1000.0, ConstantAbsorption(0.0))
        assert ext.alpha_att == 0.0
        assert ext.atmospheric_gain(1000.0) == 1.0

    def test_hand_composition(self):
        # alpha_g = 0.001 Np/m, alpha_t = 0.002 Np/m, d = 1000 m -> exp(-3)
        alpha_g_db_km = np_per_m_to_db_per_km(0.001)
        a_t_db = np_per_m_to_db_per_km(0.002)  # whole path over 1 km
        sqrt_var = 1.0 - 10.0 ** (-a_t_db / 10.0)
        cn2 = cn2_for_spherical_variance(sqrt_var**2, 340e9, 1000.0)
        ext = extinction(
            340e9,
            AtmosphereConditions(cn2=cn2),
            1000.0,
            ConstantAbsorption(alpha_g_db_km),
        )
        assert ext.alpha_att == ext.alpha_g + ext.alpha_t  # exact composition
        assert math.isclose(ext.alpha_t, 0.002, rel_tol=1e-9)
        assert math.isclose(ext.atmospheric_gain(1000.0), math.exp(-3.0), rel_tol=1e-9)
        assert math.isclose(ext.atmospheric_gain(1000.0), 0.049787, rel_tol=1e-4)

    def test_gain_reproducible_from_fields(self):
        ext = extinction(340e9, COND, 1000.0, default_absorption_table())
        assert math.isclose(
            ext.atmospheric_gain(1000.0),
            math.exp(-(ext.alpha_g + ext.alpha_t) * 1000.0),
            rel_tol=1e-12,
        )

    @given(
        a1=st.floats(min_value=0.0, max_value=0.01),
        a2=st.floats(min_value=0.0, max_value=0.01),
    )
    def test_additive_coefficients_multiply_gains(self, a1, a2):
        from thzsec.atmosphere import ExtinctionBreakdown

        def gain(alpha):
            return ExtinctionBreakdown(alpha, 0.0, alpha, 0.0, 0.0, 0.0).atmospheric_gain(1000.0)

        assert math.isclose(gain(a1 + a2), gain(a1) * gain(a2), rel_tol=1e-12)

    def test_attenuation_increases_with_cn2(self):
        # fixed frequency, growing turbulence eats the path gain
        cn2s = [1e-12, 1e-11, 5.8e-11, 1e-10]
        gains = []
        for c in cn2s:
            ext = extinction(340e9, AtmosphereConditions(cn2=c), 1000.0, default_absorption_table())
            gains.append(ext.atmospheric_gain(1000.0))
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_propagates_regime_error(self):
        with pytest.raises(RegimeError):
            extinction(340e9, AtmosphereConditions(cn2=1e-9), 1000.0, ConstantAbsorption(1.0))

    @given(
        freq_hz=st.floats(min_value=FREQ_MIN_HZ, max_value=FREQ_MAX_HZ),
        path_m=st.floats(min_value=1.0, max_value=1e4),
        # the selected wave's variance, around the regime edge at 1
        variance=st.one_of(
            st.floats(min_value=1e-6, max_value=2.0),
            st.sampled_from([1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]),
        ),
        wave=st.sampled_from(list(Wave)),
    )
    def test_fading_model_valid_wherever_extinction_returns(self, freq_hz, path_m, variance, wave):
        # a scan's fading variance is the spherical one; extinction bounds the
        # selected wave's, and the plane one is 2.46 times the spherical one
        cn2 = cn2_for_spherical_variance(variance, freq_hz, path_m)
        if wave is Wave.PLANE:
            cn2 /= 2.46
        try:
            ext = extinction(freq_hz, AtmosphereConditions(cn2=cn2), path_m,
                             ConstantAbsorption(1.0), wave)
        except RegimeError:
            return
        FadingModel(g_los_mean=1e-8, sigma_r2=ext.beta_r2_sph)
