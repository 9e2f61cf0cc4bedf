import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from thzsec import channel
from thzsec.atmosphere import ExtinctionBreakdown, default_absorption_table, extinction
from thzsec.config import parse_config
from thzsec.numerics import QuadratureError, batched_gauss_kronrod
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


# Eve positions for the gain field: y of either sign, x on both sides of
# [0, d] (no foot probe) and inside it (foot probe among the candidates).
positions = st.tuples(
    st.floats(min_value=-300.0, max_value=1300.0),
    st.floats(min_value=0.5, max_value=200.0).flatmap(lambda y: st.sampled_from([y, -y])),
)


def field_scenario(fov_deg):
    return LinkScenario(eve=ReceiverParams(fov_full_rad=math.radians(fov_deg)))


def reference_nlos_gain(scenario, ext, params, steering):
    """nlos_gain by scipy's quad to 1e-12, split at the foot point.  The
    package's 1e-8 quadrature can itself be off by more than 1e-9: 2.4e-8
    at Eve (1026.6, 29.1) m, FOV 120 deg, alpha_att 5e-4, steering
    0.374 rad."""
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
        monkeypatch.setattr(channel, "_BEARING_RUNGS", 0)
        adaptive = []
        monkeypatch.setattr(
            channel, "batched_gauss_kronrod",
            lambda f, a, b, **kw: adaptive.append(len(a)) or batched_gauss_kronrod(f, a, b, **kw),
        )
        sc = SCENARIO.with_eve_at(750.0, 30.0)
        gain = channel._steering_free_gain(np.array([750.0]), np.array([30.0]), sc, EXT, FORWARD)
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

    @pytest.mark.parametrize("workload,calls", [("det_map", 7), ("prob_bg_sweep", 6)])
    def test_benchmark_cells_query_rounds(self, monkeypatch, workload, calls):
        # the coarse probes, then the golden section's rounds, its first
        # inner points folded into the first: 7 numpy query rounds on
        # det_map's cells (8 before the folding) and 6 on the x = 750 m line
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

    def test_panel_budget_raises(self, monkeypatch):
        sc = field_scenario(60.0)  # wide segments need several panels
        nlos_gain_field([750.0], [30.0], sc, EXT, FORWARD)
        monkeypatch.setattr(channel, "QUAD_MAX_PANELS", 4)
        with pytest.raises(QuadratureError):
            nlos_gain_field([750.0], [30.0], sc, EXT, FORWARD)
