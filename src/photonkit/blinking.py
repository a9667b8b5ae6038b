"""Blinking analysis: thresholding, dwell times, power-law statistics.

An intensity trace is split into ON and OFF runs against a count-rate
threshold (default 50 counts/ms for the usual 1 ms binning). Each state's
dwell durations get a maximum-likelihood power-law exponent, taken on the
raw durations rather than on a binned histogram, and a likelihood
comparison against an exponential dwell model on the same durations
decides which family describes the state. The power-law fit, the model
comparison and the bootstrap read the durations at or above one cut-off,
``tau_min_ms``, by default the sample minimum (``_dwell_sample``).

Durations are in milliseconds throughout; the power-law exponent alpha
follows the survival-function convention P(t > T) ~ T^-alpha, so the
probability density falls as T^-(1+alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlinkingResult,
    IntensityTrace,
    Measurement,
    Segment,
    _number,
    _seed,
    _whole,
)

__all__ = [
    "DwellModelComparison",
    "segment_trace",
    "fit_power_law_mle",
    "fit_exponential_dwell",
    "compare_dwell_models",
    "alpha_distribution",
    "analyze_blinking",
]

_MIN_FIT_SEGMENTS = 8  # fewest surviving dwells for which a state is fitted


@dataclass(frozen=True)
class DwellModelComparison:
    """Power-law versus exponential dwell model, same data, same support."""

    alpha: Measurement
    rate_per_ms: Measurement
    log_likelihood_power: float
    log_likelihood_exponential: float
    n: int

    @property
    def log_ratio(self) -> float:
        """Positive favors the power law."""
        return self.log_likelihood_power - self.log_likelihood_exponential

    @property
    def verdict(self) -> str:
        return "power_law" if self.log_ratio >= 0 else "exponential"


def segment_trace(trace: IntensityTrace, threshold_per_ms: float) -> list[Segment]:
    """Split a trace into maximal ON/OFF runs against a rate threshold.

    A bin is ON when its rate is at or above ``threshold_per_ms``. The
    returned segments tile [0, n_bins * bin_width) exactly, alternate in
    state, and are half-open in ps.
    """
    threshold_per_ms = _number(threshold_per_ms, "threshold_per_ms")
    if threshold_per_ms < 0:
        raise ValueError(
            f"threshold must be non-negative, got {threshold_per_ms}")
    on = trace.rates_per_ms >= threshold_per_ms
    n = on.size
    if n == 0:
        return []
    change = np.nonzero(on[1:] != on[:-1])[0]
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change + 1, [n]))
    bw = trace.bin_width
    return [Segment(bool(on[s]), int(s) * bw, int(e) * bw)
            for s, e in zip(starts, ends)]


def _positive_durations(durations_ms) -> np.ndarray:
    d = np.asarray(durations_ms, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError(f"durations must be one-dimensional, got {d.ndim}D")
    if d.size and (not np.all(np.isfinite(d)) or np.any(d <= 0)):
        raise ValueError("durations must be finite and positive")
    return d


def _cutoff(tau_min_ms) -> float | None:
    """The cut-off ``tau_min_ms``: None (the sample minimum) or a positive
    number, else an error naming it."""
    if tau_min_ms is None:
        return None
    tau_min_ms = _number(tau_min_ms, "tau_min_ms")
    if tau_min_ms <= 0:
        raise ValueError(f"tau_min_ms must be positive, got {tau_min_ms}")
    return tau_min_ms


def _dwell_sample(durations_ms, tau_min_ms) -> tuple[np.ndarray, float]:
    """The durations at or above the cut-off ``tau_min_ms``, and the
    cut-off: the sample minimum when it is None, else by :func:`_cutoff`.
    The one rule by which the power-law estimators read their sample."""
    d = _positive_durations(durations_ms)
    tau_min_ms = _cutoff(tau_min_ms)
    if tau_min_ms is None:
        if d.size == 0:
            raise ValueError("cannot fit an empty duration sample")
        return d, float(d.min())
    return d[d >= tau_min_ms], tau_min_ms


def fit_power_law_mle(durations_ms, tau_min_ms: float | None = None) -> Measurement:
    """Maximum-likelihood power-law exponent of dwell durations.

    For density p(t) = alpha * tau_min^alpha * t^-(1+alpha) on
    [tau_min, inf) the estimator is alpha = n / sum(ln(t_i / tau_min)) with
    standard error alpha / sqrt(n). Durations below ``tau_min_ms`` are
    excluded; when it is omitted the sample minimum is used, which biases
    alpha slightly high for small samples.
    """
    d, tau_min_ms = _dwell_sample(durations_ms, tau_min_ms)
    n = d.size
    if n < 2:
        raise ValueError(f"need at least 2 durations above tau_min, got {n}")
    s = float(np.log(d / tau_min_ms).sum())
    if s <= 0:
        raise ValueError("durations have no spread above tau_min")
    alpha = n / s
    return Measurement(alpha, alpha / math.sqrt(n))


def fit_exponential_dwell(durations_ms) -> Measurement:
    """Maximum-likelihood exponential dwell rate, in 1/ms.

    The estimate is 1/mean with standard error rate / sqrt(n).
    """
    d = _positive_durations(durations_ms)
    if d.size < 2:
        raise ValueError(f"need at least 2 durations, got {d.size}")
    rate = 1.0 / float(d.mean())
    return Measurement(rate, rate / math.sqrt(d.size))


def compare_dwell_models(durations_ms,
                         tau_min_ms: float | None = None) -> DwellModelComparison:
    """Fit power-law and exponential dwell models and compare likelihoods.

    Both likelihoods are evaluated on the same durations (those at or
    above ``tau_min_ms``). The power-law density is
    alpha * tau_min^alpha * t^-(1+alpha); the exponential is
    lambda * exp(-lambda t).
    """
    d, tau_min_ms = _dwell_sample(durations_ms, tau_min_ms)
    alpha = fit_power_law_mle(d, tau_min_ms)
    rate = fit_exponential_dwell(d)
    n = d.size
    log_sum = float(np.log(d).sum())
    llp = (n * math.log(alpha.value) + n * alpha.value * math.log(tau_min_ms)
           - (1.0 + alpha.value) * log_sum)
    lle = n * math.log(rate.value) - rate.value * float(d.sum())
    return DwellModelComparison(alpha, rate, llp, lle, n)


def alpha_distribution(durations_ms, n_boot: int = 200, seed: int = 0,
                       tau_min_ms: float | None = None) -> np.ndarray:
    """Bootstrap distribution of the power-law exponent estimate.

    Resamples the durations with replacement ``n_boot`` times and runs the
    likelihood estimator on each. The spread of the result checks the
    analytic alpha / sqrt(n) error in a model-free way. A resample the
    estimator refuses, with fewer than 2 durations at or above
    ``tau_min_ms`` or none above it (as when every dwell drawn is the
    shortest, whole-bin one), gives NaN. Durations or a cut-off that the
    estimator refuses, and a negative ``seed``, raise before any resample
    is drawn.
    """
    d = _positive_durations(durations_ms)
    n_boot = _whole(n_boot, "n_boot", low=1)
    rng = np.random.Generator(np.random.PCG64(_seed(seed)))
    fit_power_law_mle(d, tau_min_ms)  # raises on a sample it refuses
    out = np.empty(n_boot)
    for i in range(n_boot):
        sample = rng.choice(d, size=d.size, replace=True)
        try:
            out[i] = fit_power_law_mle(sample, tau_min_ms).value
        except ValueError:  # the estimator refused this resample
            out[i] = np.nan
    return out


def analyze_blinking(trace: IntensityTrace, threshold_per_ms: float = 50.0,
                     min_dwell_ms: float = 0.0,
                     tau_min_ms: float | None = None) -> BlinkingResult:
    """Full blinking characterization of an intensity trace.

    The trace is thresholded into segments; the trace's first and last
    segments are dropped from the dwell statistics, since they are the
    only two that the trace's ends cut short. Dwells shorter than
    ``min_dwell_ms`` are also dropped, which suppresses the bias from
    single-bin quantization near the threshold. Each state with at least
    ``_MIN_FIT_SEGMENTS`` (8) surviving dwells at or above the cut-off
    ``tau_min_ms`` (``_dwell_sample``) gets a power-law exponent and a
    model verdict. A sparser state reports None, and so does a state
    whose sample the estimator refuses (as when every dwell in it is as
    long as the cut-off); the other state is fitted all the same. A
    ``tau_min_ms`` that is not a positive number is refused before
    either state is fitted.

    Mean ON/OFF rates are computed over all bins of that state, not just
    the surviving segments.
    """
    min_dwell_ms = _number(min_dwell_ms, "min_dwell_ms")
    tau_min_ms = _cutoff(tau_min_ms)
    segments = segment_trace(trace, threshold_per_ms)
    rates = trace.rates_per_ms
    on_bins = rates >= threshold_per_ms
    bw_ms = trace.bin_width_ms

    def mean_rate(mask) -> float:
        n = int(mask.sum())
        if n == 0:
            return 0.0
        return float(trace.counts[mask].sum()) / (n * bw_ms)

    interior = segments[1:-1] if len(segments) >= 3 else []
    on_d = np.array([s.duration_ms for s in interior
                     if s.on and s.duration_ms >= min_dwell_ms])
    off_d = np.array([s.duration_ms for s in interior
                      if not s.on and s.duration_ms >= min_dwell_ms])

    def characterize(durations):
        if durations.size == 0:
            return None, None
        sample, cutoff = _dwell_sample(durations, tau_min_ms)
        if sample.size < _MIN_FIT_SEGMENTS:
            return None, None
        try:
            comp = compare_dwell_models(sample, cutoff)
        except ValueError:  # the estimator refused this sample
            return None, None
        return comp.alpha, comp.verdict

    alpha_on, model_on = characterize(on_d)
    alpha_off, model_off = characterize(off_d)
    return BlinkingResult(
        threshold=float(threshold_per_ms),
        on_durations_ms=on_d,
        off_durations_ms=off_d,
        alpha_on=alpha_on,
        alpha_off=alpha_off,
        model_on=model_on,
        model_off=model_off,
        mean_on_rate_per_ms=mean_rate(on_bins),
        mean_off_rate_per_ms=mean_rate(~on_bins),
    )
