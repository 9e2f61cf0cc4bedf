import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thzsec.channel import ChannelGains, LinkScenario, ReceiverParams
from thzsec.secrecy import (
    DetectionRates,
    _ook_information_slope,
    detection_rates,
    ook_mutual_information,
    secrecy_capacity,
)

from oracles import poisson_ook_mi_bits


def gains(g_los, g_nlos):
    return ChannelGains(g_los=g_los, g_nlos=g_nlos, steering_rad=1.0, seg=None)


def rates(lam_l, lam_n, lam_b=0.01, lam_e=0.01, q=0.5, tau=1e-10):
    return DetectionRates(
        lambda_l=lam_l,
        lambda_n=lam_n,
        lambda_b=lam_b,
        lambda_e=lam_e,
        q=q,
        e_photon=2.25e-22,
        integration_time_s=tau,
    )


class TestDetectionRates:
    def test_hand_value(self):
        # f = 340 GHz, P = 10 mW, eta = 0.1, tau = 1e-10 s, G_LOS = 6.25e-6
        sc = LinkScenario(
            bob=ReceiverParams(efficiency=0.1, integration_time_s=1e-10),
            eve=ReceiverParams(efficiency=0.1, integration_time_s=1e-10),
        )
        r = detection_rates(sc, gains(6.25e-6, 0.0))
        expected = 1e-10 * 0.1 * 6.25e-6 * 0.01 / (6.62607e-34 * 340e9)
        assert math.isclose(r.lambda_l, expected, rel_tol=1e-6)
        assert math.isclose(r.lambda_l, 2774.2, rel_tol=1e-4)
        assert math.isclose(r.e_photon, 2.2529e-22, rel_tol=1e-4)
        assert r.lambda_n == 0.0

    def test_zero_gain_zero_rate(self):
        r = detection_rates(LinkScenario(), gains(0.0, 0.0))
        assert r.lambda_l == 0.0 and r.lambda_n == 0.0

    def test_linear_in_power(self):
        base = LinkScenario()
        double = LinkScenario(tx_power_w=base.tx_power_w * 2.0)
        r1 = detection_rates(base, gains(1e-8, 1e-9))
        r2 = detection_rates(double, gains(1e-8, 1e-9))
        assert r2.lambda_l == 2.0 * r1.lambda_l
        assert r2.lambda_n == 2.0 * r1.lambda_n

    def test_receivers_can_differ(self):
        sc = LinkScenario(
            bob=ReceiverParams(efficiency=0.1, integration_time_s=1e-10),
            eve=ReceiverParams(efficiency=0.2, integration_time_s=2e-10),
        )
        r = detection_rates(sc, gains(1e-8, 1e-8))
        assert math.isclose(r.lambda_n, 4.0 * r.lambda_l, rel_tol=1e-12)

    def test_snr_report(self):
        r = rates(10.0, 1.0, lam_b=10.0, lam_e=0.1)
        assert math.isclose(r.snr_bob_db, 0.0, abs_tol=1e-12)
        assert math.isclose(r.snr_eve_db, 10.0, abs_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rates(-1.0, 0.0)
        with pytest.raises(ValueError):
            rates(1.0, 0.0, q=1.0)


class TestMutualInformation:
    def test_zero_signal_is_exactly_zero(self):
        for lam_n in (0.0, 0.3, 7.0):
            for q in (0.1, 0.5, 0.9):
                assert ook_mutual_information(0.0, lam_n, q) == 0.0

    def test_noiseless_hand_value(self):
        # q = 0.5, lambda_s = 2, lambda_n = 0: 0.5*2*log2(2) - 1*log2(1) = 1 bit
        assert ook_mutual_information(2.0, 0.0, 0.5) == 1.0

    def test_strictly_increasing_in_signal(self):
        lams = np.linspace(0.1, 40.0, 200)
        vals = [ook_mutual_information(l, 1.0, 0.5) for l in lams]
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0)

    @given(
        lam_s=st.floats(min_value=0.0, max_value=1e4),
        lam_n=st.floats(min_value=0.0, max_value=1e3),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    # q * lam_s underflows to 0 with no noise
    @example(lam_s=5e-324, lam_n=0.0, q=0.5)
    @settings(max_examples=500, deadline=None)
    def test_nonnegative(self, lam_s, lam_n, q):
        assert ook_mutual_information(lam_s, lam_n, q) >= 0.0

    def test_paper_exact_variant_can_go_negative(self):
        # dropping the (1-q) weight on the off-slot term breaks nonnegativity
        val = ook_mutual_information(1e-6, 0.5, 0.3, paper_exact=True)
        assert val < 0.0

    def test_paper_exact_relation_to_standard(self):
        lam_s, lam_n, q = 3.0, 0.5, 0.3
        std = ook_mutual_information(lam_s, lam_n, q)
        paper = ook_mutual_information(lam_s, lam_n, q, paper_exact=True)
        off = lam_n * math.log2(lam_n)
        assert math.isclose(paper - std, q * off, rel_tol=1e-9)

    def test_matches_decimal_reference(self):
        # large backgrounds make the x*log2(x) terms nearly cancel: on 51 of
        # these 1,105 inputs the direct three-term sum came out below -1e-9
        def reference(ls, ln, q):
            with localcontext() as ctx:
                ctx.prec = 50
                s, n, w = Decimal(ls), Decimal(ln), Decimal(q)

                def xln(v):
                    return v * v.ln() if v > 0 else Decimal(0)

                info = w * xln(s + n) + (1 - w) * xln(n) - xln(w * s + n)
                return float(info / Decimal(2).ln())

        lam_s = np.logspace(-6, 6, 13)
        lam_n = np.concatenate(([0.0], np.logspace(-6, 9, 16)))
        for ls, ln, q in itertools.product(lam_s, lam_n, (0.1, 0.3, 0.5, 0.7, 0.9)):
            ls, ln = float(ls), float(ln)
            ref = reference(ls, ln, q)
            got = ook_mutual_information(ls, ln, q)
            assert abs(got - ref) <= 1e-9 * ref + 1e-14 * ls, (ls, ln, q, got, ref)

    def test_slope_matches_central_difference(self):
        lam_s = np.logspace(-4, 4, 9)
        lam_n = np.concatenate(([0.0], np.logspace(-4, 3, 8)))
        for ls, ln, q, exact in itertools.product(
            lam_s, lam_n, (0.1, 0.5, 0.9), (False, True)
        ):
            ls, ln, h = float(ls), float(ln), 1e-3 * float(ls)
            up = ook_mutual_information(ls + h, ln, q, exact)
            down = ook_mutual_information(ls - h, ln, q, exact)
            diff = (up - down) / (2.0 * h)
            # paper_exact's constant term adds the round-off of its size
            rounding = 1e-15 * max(abs(up), abs(down)) / h
            slope = _ook_information_slope(ls, ln, q)
            assert slope > 0.0
            assert math.isclose(slope, diff, rel_tol=1e-5, abs_tol=rounding), (
                ls, ln, q, exact, slope, diff
            )

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            ook_mutual_information(-1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            ook_mutual_information(1.0, -0.1, 0.5)

    def test_matches_poisson_oracle_in_small_flux_limit(self):
        # the capacity-form expression coincides with the true Poisson OOK
        # mutual information as the per-slot flux goes to zero
        for lam_s, lam_n, q in [
            (5e-4, 1e-4, 0.5),
            (2e-4, 0.0, 0.3),
            (8e-4, 2e-4, 0.7),
            (1e-3, 0.0, 0.5),
        ]:
            form = ook_mutual_information(lam_s, lam_n, q)
            true = poisson_ook_mi_bits(lam_s, lam_n, q)
            assert abs(form - true) < 1e-6

    def test_oracle_discrepancy_grows_with_flux(self):
        # outside the small-flux regime the two quantities part ways; the
        # comparison is reported, not asserted equal
        form = ook_mutual_information(2.0, 0.0, 0.5)
        true = poisson_ook_mi_bits(2.0, 0.0, 0.5)
        assert form - true > 0.1  # capacity form overshoots at lambda ~ 2


class TestSecrecyCapacity:
    def test_identical_channels_insecure(self):
        r = rates(5.0, 5.0, lam_b=1.0, lam_e=1.0)
        s = secrecy_capacity(r)
        assert s.c_s_slot == 0.0
        assert s.insecure

    def test_blind_eavesdropper(self):
        r = rates(5.0, 0.0, lam_b=0.5, lam_e=0.5)
        s = secrecy_capacity(r)
        assert s.i_eve == 0.0
        assert s.c_s_slot == s.i_bob > 0.0
        assert not s.insecure

    def test_bps_conversion(self):
        r = rates(5.0, 0.0, tau=1e-10)
        s = secrecy_capacity(r)
        assert math.isclose(s.c_s_bps, s.c_s_slot * 1e10, rel_tol=1e-12)

    def test_clamped_when_eve_dominates(self):
        # Eve enjoys a strictly better channel and no worse noise
        r = rates(2.0, 4.0, lam_b=1.0, lam_e=1.0)
        s = secrecy_capacity(r)
        assert s.c_s_slot == 0.0 and s.insecure

    def test_monotone_in_bob_gain(self):
        caps = [
            secrecy_capacity(rates(l, 1.0, lam_b=0.5, lam_e=0.5)).c_s_slot
            for l in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b >= a for a, b in zip(caps, caps[1:]))

    def test_monotone_in_eve_gain(self):
        caps = [
            secrecy_capacity(rates(8.0, l, lam_b=0.5, lam_e=0.5)).c_s_slot
            for l in (0.0, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b <= a for a, b in zip(caps, caps[1:]))
