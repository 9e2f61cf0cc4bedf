import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from thzsec.atmosphere import (
    AtmosphereConditions,
    ConstantAbsorption,
    RegimeError,
    extinction,
    rytov_variances,
)
from thzsec.channel import ChannelGains, LinkScenario, ReceiverParams, ScatteringParams
from thzsec.config import parse_config
from thzsec.outage import (
    FadingModel,
    MonotonicityError,
    outage_probability,
    outage_probability_mc,
    outage_scan_point,
    lognormal_cdf,
    lognormal_pdf,
    threshold_gain,
)
from thzsec.scan import run_scan
from thzsec.secrecy import DetectionRates, detection_rates, ook_mutual_information

MODEL = FadingModel(g_los_mean=2.3e-8, sigma_r2=0.287)


def template(lam_b=0.01, lam_e=0.01, q=0.5, tau=1e-10):
    return DetectionRates(
        lambda_l=0.0, lambda_n=0.0, lambda_b=lam_b, lambda_e=lam_e,
        q=q, e_photon=2.25e-22, integration_time_s=tau,
    )


class TestFadingModel:
    def test_validity(self):
        with pytest.raises(RegimeError):
            FadingModel(g_los_mean=1e-8, sigma_r2=1.0)
        with pytest.raises(ValueError):
            FadingModel(g_los_mean=1e-8, sigma_r2=0.0)
        with pytest.raises(ValueError):
            FadingModel(g_los_mean=0.0, sigma_r2=0.5)

    def test_mu_log(self):
        assert MODEL.mu_log == -MODEL.sigma_r2 / 2.0


def support(model, spread=9.0):
    """Finite range carrying all but ~1e-18 of the log-normal mass."""
    sigma = math.sqrt(model.sigma_r2)
    centre = model.g_los_mean * math.exp(model.mu_log)
    return centre * math.exp(-spread * sigma), centre * math.exp(spread * sigma)


class TestLognormalPdf:
    def test_normalisation(self):
        lo, hi = support(MODEL)
        total, _ = quad(lambda g: lognormal_pdf(g, MODEL), lo, hi,
                        epsabs=1e-13, epsrel=1e-12, limit=400)
        assert abs(total - 1.0) < 1e-9

    def test_mean_preserved(self):
        # mu_log = -sigma^2/2 pins E[G] to the deterministic gain
        lo, hi = support(MODEL, spread=12.0)
        mean, _ = quad(lambda g: g * lognormal_pdf(g, MODEL), lo, hi,
                       epsabs=1e-22, epsrel=1e-12, limit=400)
        assert math.isclose(mean, MODEL.g_los_mean, rel_tol=1e-9)

    def test_median(self):
        median = MODEL.median_gain
        assert math.isclose(lognormal_cdf(median, MODEL), 0.5, abs_tol=1e-12)
        below, _ = quad(lambda g: lognormal_pdf(g, MODEL), 0.0, median,
                        epsabs=1e-12, epsrel=1e-11, limit=400)
        assert abs(below - 0.5) < 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lognormal_pdf(0.0, MODEL)
        with pytest.raises(ValueError):
            lognormal_pdf(-1e-9, MODEL)


class TestOutageProbability:
    def test_cdf_limits(self):
        assert outage_probability(MODEL, 1e-300) < 1e-15
        assert outage_probability(MODEL, 1e3) == 1.0

    def test_median_is_half(self):
        assert math.isclose(outage_probability(MODEL, MODEL.median_gain), 0.5, abs_tol=1e-12)

    def test_closed_form_matches_quadrature(self):
        for g_star in (MODEL.g_los_mean * r for r in (0.05, 0.3, 1.0, 2.5)):
            closed = outage_probability(MODEL, g_star)
            numeric, _ = quad(lambda g: lognormal_pdf(g, MODEL), 0.0, g_star,
                              epsabs=1e-12, epsrel=1e-11, limit=400)
            assert abs(closed - numeric) < 1e-9

    def test_monte_carlo_within_binomial_tolerance(self):
        n = 1_000_000
        for ratio in (0.1, 0.5, 1.2):
            g_star = MODEL.g_los_mean * ratio
            p = outage_probability(MODEL, g_star)
            p_mc = outage_probability_mc(MODEL, g_star, n_samples=n, seed=1234)
            tol = 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p_mc - p) <= tol

    def test_monte_carlo_stream_is_pinned(self):
        g_star = MODEL.g_los_mean * 0.4
        a = outage_probability_mc(MODEL, g_star, n_samples=10_000, seed=7)
        assert a == 0.0759  # the estimate this seed has always given
        c = outage_probability_mc(MODEL, g_star, n_samples=10_000, seed=8)
        assert a != c  # different seed, different stream


class TestThresholdGain:
    def scenario(self):
        return LinkScenario(
            bob=ReceiverParams(background_count=0.01),
            eve=ReceiverParams(background_count=0.01),
        )

    def test_blind_eve_matches_grid_inversion(self):
        sc = self.scenario()
        tmpl = template()
        target_bps = 10e9
        g_star = threshold_gain(sc, 0.0, tmpl, target_bps)
        # dense grid inversion oracle on the same capacity curve
        k_bob = sc.bob.integration_time_s * sc.bob.efficiency * sc.tx_power_w / (
            6.62607015e-34 * sc.freq_hz
        )
        target_bits = target_bps * tmpl.integration_time_s
        grid = np.logspace(-12, -6, 40001)
        vals = np.array([
            ook_mutual_information(k_bob * g, tmpl.lambda_b, tmpl.q) for g in grid
        ])
        idx = int(np.searchsorted(vals, target_bits))
        lo, hi = grid[idx - 1], grid[idx]
        f_lo, f_hi = vals[idx - 1], vals[idx]
        # linear interpolation inside one fine grid cell
        oracle = lo + (target_bits - f_lo) * (hi - lo) / (f_hi - f_lo)
        assert math.isclose(g_star, oracle, rel_tol=1e-6)
        # residual at the solution is tiny
        i_sol = ook_mutual_information(k_bob * g_star, tmpl.lambda_b, tmpl.q)
        assert abs(i_sol - target_bits) <= 1e-9

    def test_unreachable_target_returns_none(self):
        sc = self.scenario()
        # Eve's channel gain so large that capacity never reaches the target
        g_star = threshold_gain(sc, 1.0, template(), 10e9)
        assert g_star is None

    def test_already_exceeded_returns_lower_bracket(self):
        sc = self.scenario()
        tmpl = template(lam_b=0.0)
        # a vanishing target is beaten even at the bottom bracket gain
        g_star = threshold_gain(sc, 0.0, tmpl, target_rate_bps=1e-12)
        assert g_star == 1e-30

    def test_monotonicity_guard(self):
        from thzsec.outage import _bisect_monotone

        def wavy(g):
            # rises on average but oscillates hard enough to violate the
            # bracketing invariant during bisection
            t = math.log(g)
            return 1.0 + 3.0 * (t / 69.1) + 2.0 * math.sin(t)

        with pytest.raises(MonotonicityError):
            _bisect_monotone(wavy, target=1.0)

    @staticmethod
    def solves(monkeypatch):
        """Record each ``_solve_tabulated`` call that threshold_gain makes as
        (level, number of evaluations of Bob's information)."""
        from thzsec import outage

        solve, seen = outage._solve_tabulated, []

        def recorded(func, slope, level, values):
            calls = []

            def counted(g):
                calls.append(g)
                return func(g)

            try:
                return solve(counted, slope, level, values)
            finally:
                seen.append((level, len(calls)))

        monkeypatch.setattr(outage, "_solve_tabulated", recorded)
        return seen

    def test_eve_information_is_the_reported_one(self, monkeypatch):
        # the level R * tau + I_eve takes I_eve from Eve's count as
        # detection_rates forms lambda_n, bit for bit: with a zero target
        # the level is I_eve itself.  Forming the count as (count per unit
        # gain) * G differs in the last bit on thousands of these gains.
        cfg = parse_config(None)
        sc, q = cfg.scenario(), cfg.duty_cycle()
        seen = self.solves(monkeypatch)
        for g_nlos in np.logspace(-16.0, -6.0, 20001):
            gains = ChannelGains(g_los=1e-8, g_nlos=float(g_nlos), steering_rad=1.0, seg=None)
            rates = detection_rates(sc, gains, q)
            threshold_gain(sc, float(g_nlos), rates, 0.0)
            level, _ = seen.pop()
            assert level == ook_mutual_information(rates.lambda_n, rates.lambda_e, q)

    def test_wavy_capacity_fails_in_the_solver(self):
        from thzsec.outage import _solve_tabulated, _tabulate

        def wavy(g):  # test_monotonicity_guard's function
            t = math.log(g)
            return 1.0 + 3.0 * (t / 69.1) + 2.0 * math.sin(t)

        def wavy_slope(g):
            return 3.0 / 69.1 + 2.0 * math.cos(math.log(g))

        with pytest.raises(MonotonicityError):
            _solve_tabulated(wavy, wavy_slope, 1.0, _tabulate(wavy))

    def test_solver_checks_each_evaluation_against_its_bracket(self):
        # rises at every table gain, and wiggles in between
        from thzsec.outage import _TABLE_GAINS, _solve_tabulated, _tabulate

        step = math.log(_TABLE_GAINS[1] / _TABLE_GAINS[0])

        def rippled(g):
            t = math.log(g)
            return t + 5.0 * math.sin(2.0 * math.pi * (t - math.log(1e-30)) / step)

        values = _tabulate(rippled)
        with pytest.raises(MonotonicityError):
            _solve_tabulated(rippled, lambda g: 1.0, -30.0, values)

    @settings(max_examples=400, deadline=None)
    @given(
        log_k_bob=st.floats(min_value=2.0, max_value=14.0),
        lambda_b=st.one_of(st.just(0.0), st.floats(min_value=-4.0, max_value=1.0).map(
            lambda e: 10.0 ** e)),
        q=st.floats(min_value=0.05, max_value=0.95),
        paper_exact=st.booleans(),
        i_eve=st.floats(min_value=0.0, max_value=3.0),
        kind=st.sampled_from(["root", "unreachable", "at_top", "met", "at_bottom"]),
        log_lam=st.floats(min_value=-3.0, max_value=2.5),
    )
    def test_solver_matches_bisection_oracle(
        self, log_k_bob, lambda_b, q, paper_exact, i_eve, kind, log_lam
    ):
        # the solve inverts Bob's information I_bob, the oracle bisects the
        # unshifted capacity I_bob - I_eve.  Each gets its own curve's value
        # at the same gain g, or one ulp past it at an end of the bracket:
        # a target shifted by I_eve can round past an end, which moves
        # threshold_gain's G* by round-off but is not the solve's doing
        from thzsec.outage import _bisect_monotone, _bob_information, _solve_tabulated
        from thzsec.secrecy import _ook_information, _ook_information_slope

        k_bob = 10.0 ** log_k_bob

        def i_bob(g):
            return _ook_information(k_bob * g, lambda_b, q, paper_exact)

        def slope(g):
            return k_bob * g * _ook_information_slope(k_bob * g, lambda_b, q)

        def capacity(g):
            return i_bob(g) - i_eve

        ends = {"unreachable": 1.0, "at_top": 1.0, "met": 1e-30, "at_bottom": 1e-30}
        g = ends.get(kind, 10.0 ** log_lam / k_bob)
        assume(1e-30 <= g <= 1.0)
        level, target = i_bob(g), capacity(g)
        if kind in ("unreachable", "met"):
            past = math.inf if kind == "unreachable" else -math.inf
            level, target = math.nextafter(level, past), math.nextafter(target, past)
        elif kind == "at_bottom":
            # the level at the table's first gain.  With lambda_b > 0 Bob's
            # table reads about 4e-45 there and 0.0 at the next three gains,
            # from cancellation, so the level is ill-posed
            assume(lambda_b == 0.0)
        else:
            # a root that the capacity's round-off fixes to about 1e-12
            scale = max(1.0, i_eve, abs(target + i_eve))
            assume(slope(g) >= 1e-3 * scale)
        oracle = _bisect_monotone(capacity, target)
        got = _solve_tabulated(i_bob, slope, level, _bob_information(k_bob, lambda_b, q, paper_exact))
        if oracle is None or oracle == 1e-30:
            assert got == oracle
        else:
            assert got is not None
            assert math.isclose(got, oracle, rel_tol=1e-10)
            assert abs(capacity(got) - target) <= 1e-9

    def test_evaluations_per_solve(self, monkeypatch):
        # beyond the shared 513-gain table: 4.1 here and 4.0 per cell on the
        # standard outage map, against 6.3 there from 33 gains and 42 for
        # the bisection
        cfg = parse_config(None)
        sc, q = cfg.scenario(), cfg.duty_cycle()
        rates = detection_rates(sc, ChannelGains(1e-8, 0.0, 1.0, None), q)
        target_bps = cfg.scan_spec().target_rate_bps
        seen = self.solves(monkeypatch)
        for g_nlos in np.logspace(-16.0, -4.0, 121):
            assert threshold_gain(sc, float(g_nlos), rates, target_bps) is not None
        counts = [n for _, n in seen]
        assert len(counts) == 121
        assert np.mean(counts) <= 4.25
        assert max(counts) <= 5

    def test_evaluations_per_solve_on_the_outage_line(self, monkeypatch):
        # the benchmark's sweep: the x = 750 m line (y = 2, 16, ..., 100 m)
        # at three eavesdropper backgrounds.  Each cell's solve starts from
        # the 513-gain table about 1e-3 from its root in ln G and takes 4
        # evaluations of Bob's information; 6.4 from the 33-gain table
        cfg = parse_config(None)
        for key, value in (("mode", "prob"), ("x_min_m", 750.0), ("x_max_m", 750.0),
                           ("step_m", 14.0)):
            cfg = cfg.with_value("scan", key, value)
        seen = self.solves(monkeypatch)
        for background in (0.001, 0.01, 0.1):
            run_scan(cfg.with_value("eve", "background_count", background))
        counts = [n for _, n in seen]
        assert len(counts) == 24
        assert np.mean(counts) == 4.0

    def test_falling_table_fails(self):
        # a table is checked where it is built, before any solve reads it
        from thzsec.outage import _tabulate

        with pytest.raises(MonotonicityError, match="fall"):
            _tabulate(lambda g: -math.log(g))

    def test_bisection_solves_smooth_monotone(self):
        from thzsec.outage import _bisect_monotone

        root = _bisect_monotone(lambda g: math.log10(g) + 30.0, target=15.0)
        assert math.isclose(root, 1e-15, rel_tol=1e-9)


class TestOutageScanPoint:
    def setup_method(self):
        self.sc = LinkScenario()
        self.cond = AtmosphereConditions()
        self.ext = extinction(
            self.sc.freq_hz, self.cond, self.sc.d, ConstantAbsorption(21.0)
        )
        self.scat = ScatteringParams()

    def test_zero_target_rate(self):
        res = outage_scan_point(self.sc, self.ext, self.scat, 0.0)
        assert res.p_o == 0.0
        assert res.g_threshold is None

    def test_single_source_of_truth_for_sigma(self):
        v = rytov_variances(self.sc.freq_hz, self.cond.cn2, self.sc.d)
        assert self.ext.beta_r2_sph == v.spherical
        res = outage_scan_point(self.sc, self.ext, self.scat, 10e9)
        # recompute through the public pieces with the extinction's variance
        from thzsec.channel import compute_channel_gains

        gains = compute_channel_gains(self.sc, self.ext, self.scat)
        model = FadingModel(g_los_mean=gains.g_los, sigma_r2=self.ext.beta_r2_sph)
        assert res.g_threshold is not None
        assert res.p_o == outage_probability(model, res.g_threshold)

    def test_monotone_in_target_rate(self):
        probs = [
            outage_scan_point(self.sc, self.ext, self.scat, r).p_o
            for r in (1e9, 5e9, 10e9, 20e9, 40e9)
        ]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_monotone_in_eavesdropper_gain(self):
        # larger NLOS gain raises Eve's information, the threshold, and
        # with it the outage probability
        model = FadingModel(g_los_mean=2.3e-8, sigma_r2=self.ext.beta_r2_sph)
        tmpl = template()
        probs = []
        for g_nlos in (0.0, 1e-9, 5e-9, 1e-8, 2e-8):
            g_star = threshold_gain(self.sc, g_nlos, tmpl, 10e9)
            probs.append(1.0 if g_star is None else outage_probability(model, g_star))
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_non_increasing_in_mean_gain(self):
        g_star = 5e-9
        probs = [
            outage_probability(FadingModel(g_los_mean=m, sigma_r2=0.287), g_star)
            for m in (5e-9, 1e-8, 3e-8, 1e-7)
        ]
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    def test_insecure_position_certain_outage(self):
        # deep inside the insecure region Eve's channel dominates by a large
        # factor and the outage probability saturates at exactly 1.0
        sc = self.sc.with_eve_at(200.0, 2.0)
        res = outage_scan_point(sc, self.ext, self.scat, 10e9)
        assert res.p_o == 1.0
