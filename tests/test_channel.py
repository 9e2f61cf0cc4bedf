import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from thzsec import channel, numerics
from thzsec.atmosphere import ExtinctionBreakdown, default_absorption_table, extinction
from thzsec.config import parse_config
from thzsec.numerics import QuadratureError, gauss_kronrod_panels
from thzsec.channel import (
    EmptySegment,
    LinkScenario,
    ReceiverParams,
    ScatteringParams,
    compute_channel_gains,
    los_gain,
    nlos_gain,
    nlos_gain_field,
    optimize_steering,
    phase_function,
    scattering_segment,
)

from oracles import extinction_oracle, hg_phase_mu_integral, steered_nlos_gain_oracle


def breakdown(alpha_g=0.0, alpha_t=0.0):
    return ExtinctionBreakdown(
        alpha_g=alpha_g,
        alpha_t=alpha_t,
        alpha_att=alpha_g + alpha_t,
        a_t_db=0.0,
        sigma_r2_plane=0.0,
        beta_r2_sph=0.0,
    )


SCENARIO = LinkScenario()
EXT = breakdown(alpha_g=0.004, alpha_t=0.0016)
ISOTROPIC = ScatteringParams(g=0.0, f=0.0)
FORWARD = ScatteringParams(g=0.9, f=0.5)


class TestReceiverParams:
    def test_area_matches_aperture(self):
        r = ReceiverParams(aperture_d=0.05)
        assert math.isclose(r.area, math.pi * 0.05**2 / 4.0, rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReceiverParams(aperture_d=0.0)
        with pytest.raises(ValueError):
            ReceiverParams(fov_full_rad=0.0)
        with pytest.raises(ValueError):
            ReceiverParams(fov_full_rad=math.pi + 0.1)
        with pytest.raises(ValueError):
            ReceiverParams(efficiency=1.5)
        with pytest.raises(ValueError):
            ReceiverParams(background_count=-1.0)


class TestScenario:
    def test_eve_on_axis_rejected(self):
        with pytest.raises(ValueError):
            LinkScenario(eve_xy=(500.0, 0.0))

    def test_with_eve_at(self):
        moved = SCENARIO.with_eve_at(100.0, -5.0)
        assert moved.eve_xy == (100.0, -5.0)
        assert moved.d == SCENARIO.d


class TestLosGain:
    def test_divergence_only_hand_value(self):
        # D = 5 cm, d = 1000 m, alpha_A = 20 mrad -> D^2 / (d^2 alpha_A^2)
        g = los_gain(SCENARIO, breakdown())
        assert math.isclose(g, 6.25e-6, rel_tol=1e-12)

    def test_inverse_square_distance(self):
        near = LinkScenario(d=500.0)
        g_near = los_gain(near, breakdown())
        g_far = los_gain(SCENARIO, breakdown())
        assert math.isclose(g_near, 4.0 * g_far, rel_tol=1e-12)

    def test_equals_divergence_times_atmosphere(self):
        g = los_gain(SCENARIO, EXT)
        assert math.isclose(g, 6.25e-6 * math.exp(-EXT.alpha_att * 1000.0), rel_tol=1e-12)

    def test_monotone_decreasing_in_extinction(self):
        gains = [los_gain(SCENARIO, breakdown(alpha_g=a)) for a in (0.0, 1e-3, 5e-3, 1e-2)]
        assert all(b < a for a, b in zip(gains, gains[1:]))


class TestPhaseFunction:
    def test_isotropic(self):
        assert math.isclose(phase_function(0.3, ISOTROPIC), 1.0 / (4.0 * math.pi), rel_tol=1e-12)

    def test_forward_peak_hand_value(self):
        # g = 0.5, f = 0, mu = 1: 0.75/(4 pi) * 0.25^(-3/2)
        p = phase_function(1.0, ScatteringParams(g=0.5, f=0.0))
        assert math.isclose(p, 0.75 / (4.0 * math.pi) * 0.25**-1.5, rel_tol=1e-12)
        assert math.isclose(p, 0.47746, rel_tol=1e-4)

    @pytest.mark.parametrize("g", [0.0, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0])
    def test_normalisation(self, g, f):
        params = ScatteringParams(g=g, f=f)
        total, _ = quad(lambda mu: phase_function(mu, params), -1.0, 1.0,
                        epsabs=1e-10, epsrel=1e-10, limit=200)
        assert abs(2.0 * math.pi * total - 1.0) < 1e-6
        # cross-check through the standalone oracle
        assert abs(hg_phase_mu_integral(g, f) - 1.0) < 1e-6

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phase_function(1.5, ISOTROPIC)

    @pytest.mark.parametrize("g", [0.9999999999999999, -0.9999999999999999])
    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_finite_at_the_poles_as_g_nears_one(self, g, mu):
        # at g * mu ~ 1 the base 1 + g^2 - 2 g mu rounds to 0 in floats, but
        # is (1 - g)^2 ~ 1.2e-32: the formula on the exact base is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = phase_function(mu, ScatteringParams(g=g, f=0.5))
        base = 1 + Fraction(g) ** 2 - 2 * Fraction(g) * Fraction(mu)
        corr = 0.5 * (3.0 * mu * mu - 1.0) / (2.0 * (1.0 + g * g) ** 1.5)
        want = (1.0 - g * g) / (4.0 * math.pi) * (float(base) ** -1.5 + corr)
        assert math.isfinite(p)
        assert math.isclose(p, want, rel_tol=1e-15)

    def test_negative_phase_params_rejected(self):
        # large f drives p(mu ~ 0) negative
        with pytest.raises(ValueError):
            ScatteringParams(g=0.9, f=10.0)

    def test_negative_phase_params_rejected_every_time(self):
        # the check's result is cached per (g, f); the error is not
        for _ in range(2):
            with pytest.raises(ValueError, match="goes negative"):
                ScatteringParams(g=0.5, f=2.5)

    @given(
        g=st.floats(min_value=-0.95, max_value=0.95),
        f=st.floats(min_value=0.0, max_value=1.0),
        mu=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_on_supported_range(self, g, f, mu):
        try:
            params = ScatteringParams(g=g, f=f)
        except ValueError:
            return  # outside the supported (g, f) region
        assert phase_function(mu, params) >= 0.0


class TestScatteringSegment:
    def test_perpendicular_hand_geometry(self):
        sc = SCENARIO.with_eve_at(500.0, 30.0)
        l_a, l_b = scattering_segment(sc, math.pi / 2.0)
        half = math.radians(5.0)
        assert math.isclose(l_a, 500.0 - 30.0 * math.tan(half), rel_tol=1e-12)
        assert math.isclose(l_b, 500.0 + 30.0 * math.tan(half), rel_tol=1e-12)
        assert math.isclose(l_a, 497.375, abs_tol=5e-4)
        assert math.isclose(l_b, 502.625, abs_tol=5e-4)

    def test_parallel_pointing_away_is_empty(self):
        # boresight parallel to the axis toward +x; the cone only meets the
        # axis beyond x + y/tan(fov/2) = 1093 m > d
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        with pytest.raises(EmptySegment):
            scattering_segment(sc, math.pi)

    def test_full_fov_covers_whole_axis(self):
        wide = ReceiverParams(fov_full_rad=math.pi)
        sc = LinkScenario(eve_xy=(500.0, 30.0), eve=wide)
        assert scattering_segment(sc, math.pi / 2.0) == (0.0, 1000.0)

    def test_clamped_to_link_extent(self):
        sc = SCENARIO.with_eve_at(1.0, 30.0)
        l_a, l_b = scattering_segment(sc, math.pi / 2.0)
        assert l_a == 0.0  # cone reaches past the transmitter, clamped
        assert l_b == pytest.approx(1.0 + 30.0 * math.tan(math.radians(5.0)), rel=1e-12)

    def test_mirrored_eve_same_segment(self):
        above = scattering_segment(SCENARIO.with_eve_at(500.0, 30.0), 1.2)
        below = scattering_segment(SCENARIO.with_eve_at(500.0, -30.0), 1.2)
        assert above == below

    def test_bad_steering_rejected(self):
        with pytest.raises(ValueError):
            scattering_segment(SCENARIO, -0.1)

    @given(
        x=st.floats(min_value=-200.0, max_value=1200.0),
        y=st.floats(min_value=0.5, max_value=300.0).flatmap(lambda y: st.sampled_from([y, -y])),
        fov_deg=st.floats(min_value=1.0, max_value=179.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_kinks_meet_the_link_ends(self, x, y, fov_deg):
        # at s_a the cone's lower edge meets Alice, l_a = 0, and at s_b its
        # upper edge meets Bob, l_b = d, wherever they lie in the steering
        # range; 1e-6 rad further in, that end has left the link's end
        sc = LinkScenario(eve_xy=(x, y), eve=ReceiverParams(fov_full_rad=math.radians(fov_deg)))
        lo, hi = channel._steering_bounds(sc)
        (s_a, s_b), = channel._kinks(
            np.array([x]), np.array([abs(y)]), sc.d, sc.eve.fov_full_rad / 2.0
        )
        if lo <= s_a <= hi:
            assert scattering_segment(sc, s_a)[0] == pytest.approx(0.0, abs=1e-9)
            assert scattering_segment(sc, s_a + 1e-6)[0] > 1e-9
        if lo <= s_b <= hi:
            assert scattering_segment(sc, s_b)[1] == pytest.approx(sc.d, abs=1e-9)
            assert scattering_segment(sc, s_b - 1e-6)[1] < sc.d - 1e-9

    @given(
        x=st.floats(min_value=-200.0, max_value=1200.0),
        y=st.floats(min_value=0.5, max_value=300.0),
        steering=st.floats(min_value=0.0, max_value=math.pi),
        fov_deg=st.floats(min_value=1.0, max_value=180.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_segment_always_inside_link(self, x, y, steering, fov_deg):
        sc = LinkScenario(
            eve_xy=(x, y), eve=ReceiverParams(fov_full_rad=math.radians(fov_deg))
        )
        try:
            l_a, l_b = scattering_segment(sc, steering)
        except EmptySegment:
            return
        assert 0.0 <= l_a < l_b <= sc.d


class TestNlosGain:
    def test_zero_extinction_means_zero(self):
        assert nlos_gain(SCENARIO, breakdown(), FORWARD, math.pi / 2.0) == 0.0

    def test_empty_segment_means_zero(self):
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        assert nlos_gain(sc, EXT, FORWARD, math.pi) == 0.0

    def _fixed_legendre(self, sc, ext, params, steering, n):
        from thzsec.channel import _normalized_eve, _phase_values

        l_a, l_b = scattering_segment(sc, steering)
        x, y = _normalized_eve(sc)
        nodes, weights = np.polynomial.legendre.leggauss(n)
        l = 0.5 * (l_b - l_a) * nodes + 0.5 * (l_a + l_b)
        dx = x - l
        r = np.hypot(dx, y)
        proj = np.maximum(dx * math.cos(steering) + y * math.sin(steering), 0.0)
        omega = sc.eve.area * proj / r**3
        alpha = ext.alpha_att
        vals = omega * _phase_values(dx / r, params.g, params.f) * alpha * np.exp(-alpha * (l + r))
        return 0.5 * (l_b - l_a) * float(weights @ vals)

    def test_self_convergence_against_fixed_rules(self):
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        coarse = self._fixed_legendre(sc, EXT, FORWARD, math.pi / 2.0, 20)
        dense = self._fixed_legendre(sc, EXT, FORWARD, math.pi / 2.0, 2000)
        adaptive = nlos_gain(sc, EXT, FORWARD, math.pi / 2.0)
        assert math.isclose(coarse, dense, rel_tol=1e-6)
        assert math.isclose(adaptive, dense, rel_tol=1e-6)

    def test_tolerance_self_consistency(self):
        # halving the tolerance moves the result by far less than 10x tol
        import thzsec.channel as channel

        sc = SCENARIO.with_eve_at(750.0, 30.0)
        v1 = nlos_gain(sc, EXT, FORWARD, 0.8)
        old = channel.QUAD_REL_TOL
        try:
            channel.QUAD_REL_TOL = old / 2.0
            v2 = nlos_gain(sc, EXT, FORWARD, 0.8)
        finally:
            channel.QUAD_REL_TOL = old
        assert abs(v2 - v1) <= 10.0 * 1e-8 * max(abs(v1), abs(v2))

    @given(
        x=st.floats(min_value=-100.0, max_value=1100.0),
        y=st.floats(min_value=1.0, max_value=200.0),
        steering=st.floats(min_value=0.05, max_value=math.pi - 0.05),
    )
    @settings(max_examples=40, deadline=None)
    def test_reflection_symmetry(self, x, y, steering):
        above = nlos_gain(SCENARIO.with_eve_at(x, y), EXT, FORWARD, steering)
        below = nlos_gain(SCENARIO.with_eve_at(x, -y), EXT, FORWARD, steering)
        assert above == pytest.approx(below, rel=1e-12, abs=0.0) or (above == 0 and below == 0)

    def test_linear_in_receiver_area(self):
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        bigger = LinkScenario(
            eve_xy=(750.0, 30.0),
            eve=ReceiverParams(aperture_d=0.05 * math.sqrt(2.0)),
        )
        g1 = nlos_gain(sc, EXT, FORWARD, 1.0)
        g2 = nlos_gain(bigger, EXT, FORWARD, 1.0)
        assert math.isclose(g2, 2.0 * g1, rel_tol=1e-9)


class TestOptimizeSteering:
    def test_isotropic_never_below_foot_point(self):
        # No steering symmetry exists even for isotropic scattering: the
        # path factor exp(-alpha*(l+r)) weights the transmitter side, so the
        # optimum leans toward Alice.  The contract is only that the result
        # never falls below aiming at the foot point, and that it tracks a
        # dense steering grid.
        sc = SCENARIO.with_eve_at(500.0, 30.0)
        steering, gain = optimize_steering(sc, EXT, ISOTROPIC)
        assert gain >= nlos_gain(sc, EXT, ISOTROPIC, math.pi / 2.0) * (1.0 - 1e-9)
        grid = np.linspace(0.05, math.pi - 0.05, 400)
        dense = max(nlos_gain(sc, EXT, ISOTROPIC, a) for a in grid)
        assert gain >= dense * (1.0 - 1e-6)

    def test_beats_fixed_probe_angles(self):
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        steering, gain = optimize_steering(sc, EXT, FORWARD)
        for probe in (0.3, 0.8, math.pi / 2.0, 2.0, 2.6):
            assert gain >= nlos_gain(sc, EXT, FORWARD, probe) * (1.0 - 1e-9)

    def test_forward_scattering_aims_toward_transmitter(self):
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        grid = np.linspace(0.05, math.pi - 0.05, 400)
        gains = [nlos_gain(sc, EXT, FORWARD, a) for a in grid]
        dense_best = grid[int(np.argmax(gains))]
        steering, gain = optimize_steering(sc, EXT, FORWARD)
        assert dense_best < math.pi / 2.0  # forward lobe pulls the aim toward Alice
        assert steering < math.pi / 2.0
        assert gain >= max(gains) * (1.0 - 1e-6)

    @pytest.mark.parametrize("n", [3, 90])
    def test_a_coarse_probe_can_beat_the_golden_section(self, monkeypatch, n):
        # a gain that spikes to 2.0 at probe 9 alone: the golden section
        # between probes 8 and 10 never evaluates it, so the probe itself is
        # the result, of the scalar search and of the field's, along
        # predicted paths (3 positions) and in lockstep (90)
        rng = np.random.default_rng(n)
        x, y = rng.uniform(0.0, SCENARIO.d, n), rng.uniform(2.0, 100.0, n)
        lo, hi = np.arctan2(y, x), np.arctan2(y, x - SCENARIO.d)
        spike = np.array([np.linspace(a, b, 24)[9] for a, b in zip(lo, hi)])

        def gain(k, steering):
            return np.where(steering == spike[k], 2.0, 1.0 - (steering - 0.5 * (lo + hi)[k]) ** 2)

        steering, g_nlos = channel._optimised_steering(
            gain, x, y, SCENARIO.d, SCENARIO.eve.fov_full_rad / 2.0
        )
        assert steering.tolist() == spike.tolist()
        assert g_nlos.tolist() == [2.0] * n
        for k in range(3):
            sc = SCENARIO.with_eve_at(x[k], y[k])
            a, b = channel._steering_bounds(sc)
            probe = np.linspace(a, b, 24)[9]
            monkeypatch.setattr(
                channel, "nlos_gain",
                lambda sc, ext, params, s: 2.0 if s == probe else 1.0 - (s - 0.5 * (a + b)) ** 2,
            )
            assert optimize_steering(sc, EXT, FORWARD) == (probe, 2.0)

    def test_gain_non_increasing_in_standoff(self):
        gains = []
        for y in (10.0, 20.0, 40.0, 80.0):
            sc = SCENARIO.with_eve_at(500.0, y)
            gains.append(optimize_steering(sc, EXT, ISOTROPIC)[1])
        assert all(b <= a * (1 + 1e-12) for a, b in zip(gains, gains[1:]))


class TestComputeChannelGains:
    def test_composes_los_and_optimised_nlos(self):
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        gains = compute_channel_gains(sc, EXT, FORWARD)
        assert gains.g_los == los_gain(sc, EXT)
        assert gains.g_nlos == pytest.approx(
            nlos_gain(sc, EXT, FORWARD, gains.steering_rad), rel=1e-12
        )
        assert gains.seg is not None
        l_a, l_b = gains.seg
        assert 0.0 <= l_a < l_b <= sc.d

    def test_reflection_invariance_of_gains(self):
        up = compute_channel_gains(SCENARIO.with_eve_at(600.0, 25.0), EXT, FORWARD)
        down = compute_channel_gains(SCENARIO.with_eve_at(600.0, -25.0), EXT, FORWARD)
        assert up.g_los == down.g_los
        assert up.g_nlos == pytest.approx(down.g_nlos, rel=1e-12)

    @pytest.mark.parametrize("x,y", [(1e300, 30.0), (750.0, 1e200)])
    def test_far_eavesdropper_gets_no_nlos_gain(self, x, y):
        # r**3 overflows in the integrand, whose limit there is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gains = compute_channel_gains(SCENARIO.with_eve_at(x, y), EXT, FORWARD)
        assert gains.g_nlos == 0.0


# Eve positions for the gain field: y of either sign, x on both sides of
# [0, d] (no foot probe) and inside it (foot probe among the candidates).
positions = st.tuples(
    st.floats(min_value=-300.0, max_value=1300.0),
    st.floats(min_value=0.5, max_value=200.0).flatmap(lambda y: st.sampled_from([y, -y])),
)


def panel_by_panel(f, item, lo, hi, rel_tol, abs_tol):
    """``gauss_kronrod_panels``'s final panels from each first panel refined
    on its own, depth first and left half first, one panel per estimate."""
    panels = []
    for i, a, b in zip(item, lo, hi):
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            ik, err = numerics._panel_estimates(f, np.array([i]), np.array([a]), np.array([b]))
            if err.sum(axis=1) > np.maximum(rel_tol * np.abs(ik).max(axis=1), abs_tol):
                mid = 0.5 * (a + b)
                todo += [(mid, b), (a, mid)]
            else:
                panels.append((i, a, b, ik[0], err[0]))
    return tuple(np.array(column) for column in zip(*panels))


def field_scenario(fov_deg):
    return LinkScenario(eve=ReceiverParams(fov_full_rad=math.radians(fov_deg)))


def reference_nlos_gain(scenario, ext, params, steering):
    """nlos_gain by scipy's quad to 1e-12, split at the foot point.  The
    package's 1e-8 quadrature tests an error estimate, not a bound, so it
    is checked against this rather than used as the reference."""
    try:
        l_a, l_b = scattering_segment(scenario, steering)
    except EmptySegment:
        return 0.0
    x, y = scenario.eve_xy[0], abs(scenario.eve_xy[1])
    cos_a, sin_a = math.cos(steering), math.sin(steering)

    def integrand(l):
        return float(channel._nlos_integrand(
            np.array([l]), x, y, cos_a, y * sin_a, scenario.eve.area, ext.alpha_att, params
        )[0])

    points = [x] if l_a < x < l_b else None
    return quad(integrand, l_a, l_b, points=points, epsabs=0.0, epsrel=1e-12, limit=1000)[0]


class TestNlosGainField:
    @given(
        cells=st.lists(positions, min_size=1, max_size=4),
        # 0.5 deg leaves many steering probes with an empty segment
        fov_deg=st.sampled_from([0.5, 3.0, 10.0, 60.0]),
        ext=st.sampled_from([EXT, breakdown(), breakdown(alpha_g=0.02)]),
        params=st.sampled_from([FORWARD, ISOTROPIC]),
    )
    # near Alice the foot probe is the best coarse candidate and sets the bracket
    @example(cells=[(10.0, 100.0)], fov_deg=10.0, ext=EXT, params=ISOTROPIC)
    @example(cells=[(50.0, -100.0)], fov_deg=60.0, ext=EXT, params=FORWARD)
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_optimize_steering(self, cells, fov_deg, ext, params):
        # the same search on gains from the steering-free table: the same
        # steering (or, at a near-tie of two candidates, two equally good
        # ones) and G_NLOS to well inside the 1e-8 quadrature tolerance
        sc = field_scenario(fov_deg)
        xs, ys = zip(*cells)
        steering, g_nlos = nlos_gain_field(xs, ys, sc, ext, params)
        for k, (x, y) in enumerate(cells):
            cell = sc.with_eve_at(x, y)
            want_steering, _ = optimize_steering(cell, ext, params)
            want_gain = reference_nlos_gain(cell, ext, params, want_steering)
            if steering[k] != want_steering:
                assert reference_nlos_gain(cell, ext, params, steering[k]) == pytest.approx(
                    want_gain, rel=1e-9, abs=0.0
                )
            assert g_nlos[k] == pytest.approx(want_gain, rel=1e-9, abs=0.0)

    @given(
        cell=positions,
        others=st.lists(positions, min_size=1, max_size=40),
        where=st.integers(min_value=0, max_value=40),
        fov_deg=st.sampled_from([0.5, 10.0]),
    )
    # tables of other rows: y = 900 m and y = 0.5 m must not shape each other
    @example(cell=(400.0, 900.0), others=[(600.0, 0.5)], where=1, fov_deg=10.0)
    @example(cell=(600.0, 0.5), others=[(400.0, 900.0)], where=0, fov_deg=10.0)
    # one row's table shared with cells of the same |y|, on either side,
    # before Alice (x < 0), over the link and past Bob (x > d)
    @example(
        cell=(-150.0, 30.0), others=[(500.0, 30.0), (1200.0, -30.0), (40.0, 7.0)],
        where=1, fov_deg=10.0,
    )
    @example(
        cell=(500.0, -30.0), others=[(-150.0, -30.0), (1200.0, 30.0), (500.0, 30.0)],
        where=0, fov_deg=10.0,
    )
    @example(
        cell=(1200.0, 2.0), others=[(1100.0, 2.0), (-20.0, -2.0), (0.0, 2.0), (1000.0, -2.0)],
        where=4, fov_deg=0.5,
    )
    @settings(max_examples=25, deadline=None)
    def test_cell_independent_of_its_batch(self, cell, others, where, fov_deg):
        sc = field_scenario(fov_deg)
        alone = nlos_gain_field([cell[0]], [cell[1]], sc, EXT, FORWARD)
        batch = others[:where] + [cell] + others[where:]
        xs, ys = zip(*batch)
        steering, g_nlos = nlos_gain_field(xs, ys, sc, EXT, FORWARD)
        k = min(where, len(others))
        assert steering[k].tobytes() == alone[0][0].tobytes()
        assert g_nlos[k].tobytes() == alone[1][0].tobytes()

    def test_keeps_the_positions_shape(self):
        xs, ys = np.meshgrid([600.0, 750.0, 900.0], [-30.0, 30.0])
        steering, g_nlos = nlos_gain_field(xs, ys, SCENARIO, EXT, FORWARD)
        assert steering.shape == g_nlos.shape == (2, 3)
        assert np.array_equal(g_nlos[0], g_nlos[1])  # reflection y -> -y

    def test_no_positions(self):
        # a scan block whose rows all lie on the axis passes no position
        empty = np.ones((0, 3))
        steering, g_nlos = nlos_gain_field(empty, empty, SCENARIO, EXT, FORWARD)
        assert steering.shape == g_nlos.shape == (0, 3)

    def test_on_axis_position_rejected(self):
        with pytest.raises(ValueError):
            nlos_gain_field([500.0], [0.0], SCENARIO, EXT, FORWARD)

    @given(
        cell=positions,
        where=st.floats(min_value=0.0, max_value=1.0),
        # 180 deg: the projection reaches 0 at the cone's edge
        fov_deg=st.sampled_from([0.5, 3.0, 10.0, 60.0, 120.0, 180.0]),
        ext=st.sampled_from(
            [EXT, breakdown(), breakdown(alpha_g=0.0005), breakdown(alpha_g=0.02)]
        ),
        params=st.sampled_from([FORWARD, ISOTROPIC]),
    )
    @example(cell=(750.0, 30.0), where=1.0, fov_deg=10.0, ext=EXT, params=FORWARD)
    # a segment far down h's tail: prefix sums alone lose it to rounding
    @example(
        cell=(-219.12169102644583, 113.82672893035362), where=0.9764977727581451,
        fov_deg=3.0, ext=breakdown(alpha_g=0.02), params=ISOTROPIC,
    )
    @example(cell=(500.0, 30.0), where=0.5, fov_deg=180.0, ext=EXT, params=ISOTROPIC)
    @example(
        cell=(1026.6468536056873, -29.096720587743494), where=0.43210195308910504, fov_deg=120.0,
        ext=breakdown(alpha_g=0.0005), params=FORWARD,
    )
    @settings(max_examples=150, deadline=None)
    def test_table_is_the_clip_free_identity(self, cell, where, fov_deg, ext, params):
        # G(s) = e^(-alpha x) (cos(beta_s) C + sin(beta_s) S) from the
        # steering-free row table equals the clamped integral of nlos_gain at
        # any steering in the search range
        sc = field_scenario(fov_deg).with_eve_at(*cell)
        lo, hi = channel._steering_bounds(sc)
        steering = lo + where * (hi - lo)
        gain = channel._steering_free_gain(
            np.array([cell[0]]), np.array([abs(cell[1])]), sc, ext, params
        )
        table = gain(np.array([0]), np.array([steering]))[0]
        try:
            scattering_segment(sc, steering)
        except EmptySegment:
            assert table == 0.0 and nlos_gain(sc, ext, params, steering) == 0.0
            return
        want = reference_nlos_gain(sc, ext, params, steering)
        assert table == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_query_over_its_budget_is_integrated_adaptively(self, monkeypatch):
        # a coarse table leaves partial panels whose error estimate misses
        # the 1e-8 budget; those queries must not be trusted.  The graded
        # first mesh alone already meets that budget, so the refinement
        # starts from the two panels (-pi/2, 0] and [0, pi/2)
        monkeypatch.setattr(channel, "_TABLE_REL_TOL", 1e-3)
        monkeypatch.setattr(channel, "_FIRST_MESH", channel._first_mesh(0))
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        gain = channel._steering_free_gain(np.array([750.0]), np.array([30.0]), sc, EXT, FORWARD)
        adaptive = []
        monkeypatch.setattr(
            channel, "gauss_kronrod_panels",
            lambda f, item, *args: adaptive.append(len(item)) or gauss_kronrod_panels(f, item, *args),
        )
        steering = np.linspace(*channel._steering_bounds(sc), 12)
        values = gain(np.zeros(12, dtype=int), steering)
        assert sum(adaptive) > 0
        for angle, value in zip(steering, values):
            assert value == pytest.approx(
                reference_nlos_gain(sc, EXT, FORWARD, angle), rel=1e-9, abs=0.0
            )

    def test_interior_optima_still_found(self):
        # at x = 0, y = 2, 4 and 6 m the maximum lies inside the steering
        # range (2.77-2.88 rad); the gain at the kink s_a = pi/2 + FOV/2 -
        # atan(x/y), where the cone's edge meets Alice, is lower by 14.5 %,
        # 8.7 % and 3.8 %: only the golden section finds the maximum.  At
        # y = 8 and 10 m the model's maximum is at s_a itself (+0.70 % and
        # +4.84 % over the interior peak at 2.70-2.73 rad), a narrow peak
        # between two coarse probes that both the search and the oracle
        # miss; there the field still matches the oracle's interior peak
        cfg = parse_config(None)
        sc = cfg.scenario()
        params = cfg.scattering()
        ext = extinction(sc.freq_hz, cfg.conditions(), sc.d, cfg.backend(), cfg.wave())
        alpha_att = extinction_oracle(
            default_absorption_table().alpha_db_per_km(sc.freq_hz), cfg.conditions().cn2
        )
        kink = math.pi / 2.0 + sc.eve.fov_full_rad / 2.0
        ys = [2.0, 4.0, 6.0, 8.0, 10.0]
        _, g_nlos = nlos_gain_field(np.zeros(5), ys, sc, ext, params)
        for y, gain in zip(ys, g_nlos):
            want_angle, want_gain = steered_nlos_gain_oracle(alpha_att, 0.0, y)
            assert 2.6 < want_angle < 2.9
            assert gain == pytest.approx(want_gain, rel=1e-8, abs=0.0)
            if y <= 6.0:
                assert want_gain >= 1.03 * nlos_gain(sc.with_eve_at(0.0, y), ext, params, kink)

    def test_standard_map_subsample_matches_scalar_search(self):
        # the standard scenario at x = 0, 2, 98, ..., 980, 998 and 1000 m (the
        # kinks at Alice and Bob, the foot point crossing either end) and
        # y = 2, 10, 50 and 100 m: the scalar search's steering on every
        # cell, and its G_NLOS to 1e-9
        cfg = parse_config(None)
        sc, params = cfg.scenario(), cfg.scattering()
        ext = extinction(sc.freq_hz, cfg.conditions(), sc.d, cfg.backend(), cfg.wave())
        xs = [0.0, 2.0, *(98.0 * k for k in range(1, 11)), 998.0, 1000.0]
        ys, xs = np.meshgrid([2.0, 10.0, 50.0, 100.0], xs, indexing="ij")
        steering, g_nlos = nlos_gain_field(xs, ys, sc, ext, params)
        for k in np.ndindex(xs.shape):
            cell = sc.with_eve_at(xs[k], ys[k])
            want_steering, _ = optimize_steering(cell, ext, params)
            assert steering[k] == want_steering
            want_gain = reference_nlos_gain(cell, ext, params, want_steering)
            assert g_nlos[k] == pytest.approx(want_gain, rel=1e-9, abs=0.0)

    # the cells perfbench times: det_map's x = 0, 98, ..., 980 m at y = 2 and
    # 100 m, and prob_bg_sweep's x = 750 m line at y = 2, 16, ..., 100 m
    BENCH_CELLS = {
        "det_map": np.meshgrid(98.0 * np.arange(11), [2.0, 100.0]),
        "prob_bg_sweep": (np.full(8, 750.0), 2.0 + 14.0 * np.arange(8)),
    }

    @pytest.mark.parametrize("workload", ["det_map", "prob_bg_sweep"])
    def test_benchmark_cells_match_scalar_search(self, workload):
        # the scalar search's steering, bit for bit, and its G_NLOS to 1e-9
        cfg = parse_config(None)
        sc, params = cfg.scenario(), cfg.scattering()
        ext = extinction(sc.freq_hz, cfg.conditions(), sc.d, cfg.backend(), cfg.wave())
        xs, ys = self.BENCH_CELLS[workload]
        steering, g_nlos = nlos_gain_field(xs, ys, sc, ext, params)
        for k in np.ndindex(np.shape(xs)):
            cell = sc.with_eve_at(xs[k], ys[k])
            want_steering, _ = optimize_steering(cell, ext, params)
            assert steering[k].tobytes() == np.float64(want_steering).tobytes()
            want_gain = reference_nlos_gain(cell, ext, params, want_steering)
            assert g_nlos[k] == pytest.approx(want_gain, rel=1e-9, abs=0.0)

    # cells where a row table's reach ends: the standard map's x = 0 and
    # 1000 m at each of its y; and with a 179-degree cone, cells over the
    # link, at its ends, before Alice and past Bob
    EDGE_CELLS = {
        "standard_edges": (10.0, np.meshgrid([0.0, 1000.0], 2.0 + 2.0 * np.arange(50))),
        "wide_cone": (179.0, np.meshgrid(
            [-50.0, 0.0, 2.0, 250.0, 500.0, 750.0, 998.0, 1000.0, 1050.0], [2.0, 10.0, 30.0, 100.0]
        )),
    }

    @pytest.mark.parametrize("cells", sorted(EDGE_CELLS))
    def test_reach_edge_cells_match_scalar_search(self, cells):
        # the scalar search's steering, bit for bit
        fov_deg, (xs, ys) = self.EDGE_CELLS[cells]
        cfg = parse_config(None).with_value("eve", "fov_deg", fov_deg)
        sc, params = cfg.scenario(), cfg.scattering()
        ext = extinction(sc.freq_hz, cfg.conditions(), sc.d, cfg.backend(), cfg.wave())
        steering, _ = nlos_gain_field(xs, ys, sc, ext, params)
        for k in np.ndindex(np.shape(xs)):
            want_steering, _ = optimize_steering(sc.with_eve_at(xs[k], ys[k]), ext, params)
            assert steering[k].tobytes() == np.float64(want_steering).tobytes(), k

    @pytest.mark.parametrize("fov_deg", [10.0, 179.0])
    def test_every_query_lands_in_a_real_panel_of_its_row(self, monkeypatch, fov_deg):
        # a row's table spans the reach of its positions' limits only: each
        # bearing a query looks up lies in the panel the lookup gives, a
        # panel of the query's row and not padding after its last one
        lookups = []
        panels_of = channel._panels_of

        def recorded(ends, records, row, beta):
            at, rec = panels_of(ends, records, row, beta)
            lookups.append((ends, row, beta, at, rec))
            return at, rec

        monkeypatch.setattr(channel, "_panels_of", recorded)
        xs, ys = np.meshgrid(
            [-300.0, -2.0, 0.0, 2.0, 98.0, 500.0, 750.0, 980.0, 998.0, 1000.0, 1002.0, 1300.0],
            [2.0, 16.0, 30.0, 100.0],
        )
        nlos_gain_field(xs, ys, field_scenario(fov_deg), EXT, FORWARD)
        assert lookups
        for ends, row, beta, at, rec in lookups:
            width = ends.size // (int(ends.real.max()) + 1)
            assert (at // width == row).all()
            lo, hi = rec[..., 6], rec[..., 7]
            assert (lo < hi).all()
            assert ((lo <= beta) & (beta <= hi)).all()

    @pytest.mark.parametrize("workload,calls", [("det_map", 3), ("prob_bg_sweep", 2)])
    def test_benchmark_cells_query_rounds(self, monkeypatch, workload, calls):
        # the coarse probes and kinks, then the golden section's rounds along
        # predicted paths: 3 numpy query rounds on det_map's cells, where
        # x = 0, y = 2 m, an interior maximum, takes one more round than the
        # kink paths of the other 21, and 2 on the x = 750 m line (8 and 7
        # one level per round)
        rounds = []
        table = channel._steering_free_gain

        def counted(*args):
            gain = table(*args)
            return lambda k, steering: rounds.append(k.size) or gain(k, steering)

        monkeypatch.setattr(channel, "_steering_free_gain", counted)
        cfg = parse_config(None)
        sc, params = cfg.scenario(), cfg.scattering()
        ext = extinction(sc.freq_hz, cfg.conditions(), sc.d, cfg.backend(), cfg.wave())
        nlos_gain_field(*self.BENCH_CELLS[workload], sc, ext, params)
        assert len(rounds) == calls

    def test_missed_paths_match_the_lockstep_search(self, monkeypatch):
        # a batch with both kinds of missed path: x = 750, y = 86 m, a kink
        # that a linear model on each side mispredicted, and x = 0, y = 2-12
        # m, interior maxima whose first path, from the cubic through the
        # best probes, misses.  Along predicted paths it takes 3 query
        # rounds and gets the steering and G_NLOS of the lockstep search
        # (batched_golden_section_max without a guide), bit for bit
        rounds = []
        table = channel._steering_free_gain

        def counted(*args):
            gain = table(*args)
            return lambda k, steering: rounds.append(k.size) or gain(k, steering)

        monkeypatch.setattr(channel, "_steering_free_gain", counted)
        cfg = parse_config(None)
        sc, params = cfg.scenario(), cfg.scattering()
        ext = extinction(sc.freq_hz, cfg.conditions(), sc.d, cfg.backend(), cfg.wave())
        xs = np.array([750.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        ys = np.array([86.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
        guided = nlos_gain_field(xs, ys, sc, ext, params)
        assert len(rounds) == 3
        search = numerics.batched_golden_section_max
        monkeypatch.setattr(
            channel, "batched_golden_section_max",
            lambda *args, guide, **kwargs: search(*args, **kwargs),
        )
        lockstep = nlos_gain_field(xs, ys, sc, ext, params)
        assert [v.tobytes() for v in guided] == [v.tobytes() for v in lockstep]

    def test_large_batches_step_one_level_per_round(self, monkeypatch):
        # the probe round takes 25 candidates per position, the 24 probes
        # and the foot point, or the last probe again where the foot point
        # is not strictly inside the steering range.  Up to _GUIDED_BATCH
        # positions it takes each kink and the points either side of it
        # too, 6 points per position, and the golden section follows
        # predicted paths; above it, the next round takes c and d, and each
        # later one a level, one point per live position
        rounds = []
        table = channel._steering_free_gain

        def counted(*args):
            gain = table(*args)
            return lambda k, steering: rounds.append(np.bincount(k)) or gain(k, steering)

        monkeypatch.setattr(channel, "_steering_free_gain", counted)
        cfg = parse_config(None)
        sc, params = cfg.scenario(), cfg.scattering()
        ext = extinction(sc.freq_hz, cfg.conditions(), sc.d, cfg.backend(), cfg.wave())
        n = channel._GUIDED_BATCH
        xs, ys = np.linspace(0.0, sc.d, n + 1), np.full(n + 1, 30.0)
        for count, kinks in ((n, 6), (n + 1, 0)):
            rounds.clear()
            nlos_gain_field(xs[:count], ys[:count], sc, ext, params)
            assert rounds[0].tolist() == [25 + kinks] * count
            if kinks:
                assert len(rounds) <= 4
            else:
                assert rounds[1].tolist() == [2] * count
                assert all(r.max() == 1 for r in rounds[2:])
                assert len(rounds) >= 2 + 15

    @pytest.mark.parametrize("rungs", [channel._BEARING_RUNGS, 0])
    def test_row_table_panels_match_a_panel_by_panel_refinement(self, monkeypatch, rungs):
        # the panels of the row tables, bit for bit and in the same order, as
        # each first panel refined on its own: the graded first mesh needs no
        # split, the two panels (-pi/2, 0] and [0, pi/2) alone need several
        monkeypatch.setattr(channel, "_FIRST_MESH", channel._first_mesh(rungs))
        calls = []

        def recorded(f, *args):
            calls.append((f, args, gauss_kronrod_panels(f, *args)))
            return calls[-1][2]

        monkeypatch.setattr(channel, "gauss_kronrod_panels", recorded)
        sc = field_scenario(60.0)
        xs, ys = np.array([750.0, 40.0]), np.array([30.0, 2.0])
        channel._steering_free_gain(xs, ys, sc, EXT, FORWARD)
        (f, (item, lo, hi, rel_tol, abs_tol, _), got), = calls
        assert (got[0].size > item.size) == (rungs == 0)
        want = panel_by_panel(f, item, lo, hi, rel_tol, abs_tol)
        for column, reference in zip(got, want):
            assert column.tobytes() == reference.tobytes()

    def test_unsorted_mirrored_and_repeated_rows(self):
        # rows met out of order, at -y and +y and more than once: each cell
        # gets the bits of a call of its own
        cfg = parse_config(None)
        sc, params = cfg.scenario(), cfg.scattering()
        ext = extinction(sc.freq_hz, cfg.conditions(), sc.d, cfg.backend(), cfg.wave())
        xs = [750.0, 10.0, 500.0, -50.0, 1200.0, 990.0]
        ys = [100.0, -2.0, 2.0, 50.0, -100.0, 2.0]
        steering, g_nlos = nlos_gain_field(xs, ys, sc, ext, params)
        for k, (x, y) in enumerate(zip(xs, ys)):
            alone = nlos_gain_field([x], [y], sc, ext, params)
            assert steering[k].tobytes() == alone[0][0].tobytes()
            assert g_nlos[k].tobytes() == alone[1][0].tobytes()

    def test_panel_budget_raises(self, monkeypatch):
        sc = field_scenario(60.0)  # wide segments need several panels
        nlos_gain_field([750.0], [30.0], sc, EXT, FORWARD)
        monkeypatch.setattr(channel, "QUAD_MAX_PANELS", 4)
        with pytest.raises(QuadratureError):
            nlos_gain_field([750.0], [30.0], sc, EXT, FORWARD)
