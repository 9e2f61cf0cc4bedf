"""Eavesdropping-risk evaluation for point-to-point THz wireless links in
atmospheric turbulence: channel gains, Poisson-OOK secrecy capacity,
log-normal outage probability, and position/parameter scans."""

from .atmosphere import (
    AtmosphereConditions,
    ConstantAbsorption,
    ExtinctionBreakdown,
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
from .channel import (
    ChannelGains,
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
from .config import ConfigError, ResolvedConfig, ScanSpec, SweepSpec, parse_config
from .outage import (
    FadingModel,
    MonotonicityError,
    OutageResult,
    lognormal_cdf,
    lognormal_pdf,
    outage_probability,
    outage_probability_mc,
    outage_scan_point,
    threshold_gain,
)
from .scan import (
    InsecureRegion,
    ScanResult,
    emit,
    extract_insecure_region,
    load_csv,
    load_json,
    run_scan,
    run_sweep,
)
from .secrecy import (
    DetectionRates,
    SecrecyResult,
    detection_rates,
    ook_mutual_information,
    secrecy_capacity,
)

__version__ = "0.1.0"
