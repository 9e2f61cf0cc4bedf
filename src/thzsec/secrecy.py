"""Poisson-OOK detection rates, mutual information and secrecy capacity.

Photoelectron counts per bit slot are lambda = tau * eta * G * P / E_p with
E_p = h * f.  The mutual information of the direct-detection OOK channel with
duty cycle q uses the capacity-form expression

    I = q*(ls+ln)*log2(ls+ln) + (1-q)*ln*log2(ln) - (q*ls+ln)*log2(q*ls+ln)

which is nonnegative by convexity of x*log(x).  It is evaluated as

    I = [q*(ls+ln)*log1p((1-q)*ls/(q*ls+ln)) - (1-q)*ln*log1p(q*ls/ln)] / ln(2)

which avoids subtracting the near-equal x*log(x) terms when ln >> ls.  A
``paper_exact`` switch drops the (1-q) weight on the middle term,
reproducing a published variant that can go negative; it exists for
auditability only and is never used by the risk pipeline defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelGains, LinkScenario, ReceiverParams
from .units import photon_energy_j

__all__ = [
    "DetectionRates",
    "SecrecyResult",
    "detection_rates",
    "ook_mutual_information",
    "secrecy_capacity",
]


@dataclass(frozen=True)
class DetectionRates:
    """Mean detected photoelectrons per slot for both receivers."""

    lambda_l: float  # signal at Bob (LOS)
    lambda_n: float  # signal at Eve (NLOS)
    lambda_b: float  # background at Bob
    lambda_e: float  # background at Eve
    q: float  # OOK duty cycle
    e_photon: float  # photon energy h*f, J
    integration_time_s: float  # Bob's slot time, used for bit/s conversion

    def __post_init__(self):
        for name in ("lambda_l", "lambda_n", "lambda_b", "lambda_e"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"duty cycle q must be in (0, 1), got {self.q}")
        if self.e_photon <= 0 or self.integration_time_s <= 0:
            raise ValueError("e_photon and integration_time_s must be > 0")

    @property
    def snr_bob_db(self) -> float:
        """Derived report: Bob's signal-to-background ratio in dB."""
        if self.lambda_b == 0:
            return math.inf
        return 10.0 * math.log10(self.lambda_l / self.lambda_b) if self.lambda_l else -math.inf

    @property
    def snr_eve_db(self) -> float:
        if self.lambda_e == 0:
            return math.inf
        return 10.0 * math.log10(self.lambda_n / self.lambda_e) if self.lambda_n else -math.inf


@dataclass(frozen=True)
class SecrecyResult:
    i_bob: float  # bits/slot
    i_eve: float  # bits/slot
    c_s_slot: float  # bits/slot
    c_s_bps: float  # bit/s
    insecure: bool


def detection_rates(
    scenario: LinkScenario, gains: ChannelGains, q: float = 0.5
) -> DetectionRates:
    """Convert channel gains to per-slot photoelectron counts.

    Each receiver's own integration time and efficiency apply, so Bob and
    Eve may differ; background counts come straight from the receiver
    parameters.
    """
    e_p = photon_energy_j(scenario.freq_hz)
    return DetectionRates(
        lambda_l=_signal_count(scenario, scenario.bob, gains.g_los, e_p),
        lambda_n=_signal_count(scenario, scenario.eve, gains.g_nlos, e_p),
        lambda_b=scenario.bob.background_count,
        lambda_e=scenario.eve.background_count,
        q=q,
        e_photon=e_p,
        integration_time_s=scenario.bob.integration_time_s,
    )


def _signal_count(scenario: LinkScenario, rx: ReceiverParams, gain: float, e_p: float) -> float:
    """Mean signal photoelectrons per slot, tau * eta * G * P / E_p in this
    order, so that the scan metric rounds Eve's count as detection_rates does."""
    return rx.integration_time_s * rx.efficiency * gain * scenario.tx_power_w / e_p


def ook_mutual_information(
    lambda_s: float, lambda_noise: float, q: float, paper_exact: bool = False
) -> float:
    """Mutual information of the Poisson OOK channel in bits/slot."""
    if lambda_s < 0 or lambda_noise < 0:
        raise ValueError("photoelectron rates must be >= 0")
    if not 0.0 < q < 1.0:
        raise ValueError(f"duty cycle q must be in (0, 1), got {q}")
    return _ook_information(lambda_s, lambda_noise, q, paper_exact)


def _ook_information(
    lambda_s: float, lambda_noise: float, q: float, paper_exact: bool
) -> float:
    """``ook_mutual_information`` without its argument checks, for callers
    that checked the arguments once and evaluate it many times."""
    if lambda_s == 0.0:
        # no signal, no information; exact by construction in both forms
        return 0.0
    mix = q * lambda_s + lambda_noise
    # mix is 0 only when q * lambda_s underflows without noise; the ratio's
    # limit there is (1 - q) / q
    ratio = (1.0 - q) * lambda_s / mix if mix > 0.0 else (1.0 - q) / q
    on_term = q * (lambda_s + lambda_noise) * math.log1p(ratio)
    off_term = 0.0  # ln * log1p(c / ln) -> 0 as ln -> 0
    if lambda_noise > 0.0:
        off_term = (1.0 - q) * lambda_noise * math.log1p(q * lambda_s / lambda_noise)
    # both terms are nonnegative; clamp the round-off of their difference
    info = max(0.0, (on_term - off_term) / math.log(2.0))
    if paper_exact and lambda_noise > 0.0:
        info += q * lambda_noise * math.log2(lambda_noise)
    return info


def _ook_information_slope(lambda_s: float, lambda_noise: float, q: float) -> float:
    """dI/dlambda_s of ``_ook_information`` in bits/slot per photoelectron:
    q * log1p((1 - q) * ls / (q * ls + ln)) / ln(2).  The derivatives of the
    log1p arguments cancel, and ``paper_exact``'s extra term does not depend
    on the signal, so both forms share this slope."""
    mix = q * lambda_s + lambda_noise
    ratio = (1.0 - q) * lambda_s / mix if mix > 0.0 else (1.0 - q) / q
    return q * math.log1p(ratio) / math.log(2.0)


def secrecy_capacity(rates: DetectionRates, paper_exact: bool = False) -> SecrecyResult:
    """Wyner secrecy capacity C_s = [I(X;Y) - I(X;Z)]^+ in bits/slot and bit/s."""
    i_bob = ook_mutual_information(rates.lambda_l, rates.lambda_b, rates.q, paper_exact)
    i_eve = ook_mutual_information(rates.lambda_n, rates.lambda_e, rates.q, paper_exact)
    c_slot = max(0.0, i_bob - i_eve)
    return SecrecyResult(
        i_bob=i_bob,
        i_eve=i_eve,
        c_s_slot=c_slot,
        c_s_bps=c_slot / rates.integration_time_s,
        insecure=c_slot == 0.0,
    )
