"""Toolkit for single-photon timestamp streams.

Simulates emitters measured through a beam-splitter detector pair, builds
cross-correlation, decay, and intensity histograms from timestamp streams,
fits antibunching and multi-exponential decay models, characterizes
blinking dwell statistics, and reads/writes a compact binary timestamp
format. The ``photonkit`` CLI exposes the same stages as subcommands.
"""

from .core import (
    CHANNEL_A,
    CHANNEL_B,
    SYNC_CHANNEL,
    PS_PER_MS,
    PS_PER_NS,
    PS_PER_S,
    BlinkingResult,
    CoincidenceHistogram,
    DecayHistogram,
    FitResult,
    G2CwParams,
    G2PwParams,
    IntensityTrace,
    Measurement,
    MultiExpParams,
    PeriodicStream,
    Segment,
    TimestampStream,
    ValidationReport,
    Verdict,
    ns_to_ps,
    ps_to_ns,
    validate_stream,
)
from .sim import (
    BlinkingLaw,
    DetectorModel,
    EmissionRecord,
    EmitterModel,
    ExcitationConfig,
    detect_hbt,
    generate_emission,
    sample_dwells_ms,
    simulate_intensity_trace,
    simulate_poissonian,
)
from .correlator import (
    brute_force_correlate,
    cross_correlate,
    intensity_trace,
    sync_decay_histogram,
)
from .fit import (
    NoDipError,
    average_lifetime,
    cw_g2_model,
    fit_g2_cw,
    fit_g2_pw,
    fit_multiexp,
    levenberg_marquardt,
    multi_exp_model,
    normalize_g2,
    pulsed_g2_model,
    single_photon_verdict,
)
from .blinking import (
    DwellDensity,
    DwellModelComparison,
    alpha_distribution,
    analyze_blinking,
    compare_dwell_models,
    dwell_histogram,
    fit_exponential_dwell,
    fit_power_law_mle,
    fit_power_law_slope,
    segment_trace,
)
from .fileio import (
    BadMagicError,
    ReportDocument,
    TimestampFileError,
    TruncatedFileError,
    UnsortedRecordsError,
    UnsupportedVersionError,
    export_histogram_csv,
    read_histogram_csv,
    read_timestamps,
    write_timestamps,
)
from .pipeline import run_pipeline

__version__ = "0.1.0"
