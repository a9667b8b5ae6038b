"""End-to-end orchestration: a config dict in, a report document out.

``run_pipeline`` drives the two top-level workflows:

* mode "simulate": generate an emitter trace, push it through the
  beam-splitter detector model, and write a binary timestamp file.
* mode "analyze": read a timestamp file back.

Either mode can then run any subset of the named analyses ("g2cw",
"g2pw", "lifetime", "blinking") on the resulting streams. Every analysis
runs inside its own error boundary; a failing stage adds an entry to the
report's ``errors`` list instead of aborting the rest.

Each step is a ``run_*`` stage function of the job config; the CLI
subcommands call the same functions, so the two cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import fit
from .blinking import analyze_blinking
from .core import (
    CHANNEL_A,
    CHANNEL_B,
    PS_PER_MS,
    PS_PER_NS,
    PS_PER_S,
    SYNC_CHANNEL,
    CoincidenceHistogram,
    DecayHistogram,
    PeriodicStream,
    TimestampStream,
)
from .correlator import cross_correlate, intensity_trace, sync_decay_histogram
from .fileio import (
    ReportDocument,
    export_histogram_csv,
    file_digest,
    read_timestamps,
    write_timestamps,
)
from .sim import (
    DetectorModel,
    EmitterModel,
    ExcitationConfig,
    detect_hbt,
    generate_emission,
)

__all__ = ["run_pipeline", "KNOWN_ANALYSES"]

KNOWN_ANALYSES = ("g2cw", "g2pw", "lifetime", "blinking")


def _build(cls, cfg, label: str):
    """Construct a config dataclass from a dict, rejecting unknown keys.
    A field whose default is a config dataclass is built from its own
    sub-dict the same way."""
    cfg = dict(cfg or {})
    fields = dataclasses.fields(cls)
    unknown = sorted(set(cfg) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown {label} options: {', '.join(unknown)}")
    for f in fields:
        if f.name in cfg and dataclasses.is_dataclass(f.default_factory):
            cfg[f.name] = _build(f.default_factory, cfg[f.name], f.name)
    return cls(**cfg)


def _export_csv(out: dict, histogram, stage_cfg: dict, base: str) -> None:
    """Write ``histogram`` to the stage's ``csv`` path, if it names one."""
    csv_name = stage_cfg.get("csv")
    if csv_name:
        path = os.path.join(base, csv_name)
        export_histogram_csv(histogram, path)
        out["csv"] = path


def _fit_entry(res) -> dict:
    return {
        "fit": res.as_dict(),
        "converged": res.converged,
        "chi2_reduced": res.chi2_reduced,
        "flags": list(res.flags),
    }


def _sync(streams: dict) -> TimestampStream | PeriodicStream | None:
    sync = streams.get(SYNC_CHANNEL)
    return sync if sync is not None and len(sync) >= 2 else None


def merged_photons(streams: dict) -> TimestampStream:
    """Both detector channels as one time-ordered photon stream."""
    parts = [s for s in (streams.get(CHANNEL_A), streams.get(CHANNEL_B))
             if s is not None and len(s)]
    if not parts:
        raise ValueError("no detector events to analyze")
    events = np.sort(np.concatenate([s.events for s in parts]), kind="stable")
    return TimestampStream(CHANNEL_A, events, max(s.duration for s in parts))


def resolved_period_ns(streams: dict, config: dict, stage_cfg: dict) -> float:
    """Pulse period from the sync channel (its grid period, or the median
    spacing of explicit pulses), else from ``period_ns`` in the stage
    config, else from the job config."""
    sync = _sync(streams)
    if isinstance(sync, PeriodicStream):
        return sync.period / PS_PER_NS
    if sync is not None:
        return float(np.median(np.diff(sync.events))) / PS_PER_NS
    period = stage_cfg.get("period_ns", config.get("period_ns"))
    if period:
        return float(period)
    raise ValueError(
        "pulse period unknown: no sync channel in the data and no "
        "period_ns in the config (--period on the command line)")


# ---------------------------------------------------------------------------
# stages

def run_simulate(config: dict, base: str = ".") -> tuple[dict, dict]:
    """Simulate emission and detection, then write the timestamp file;
    returns the stage result and the detector streams by channel."""
    seed = int(config.get("seed", 0))
    duration = int(round(float(config.get("duration_s", 1.0)) * PS_PER_S))
    emitter = _build(EmitterModel, config.get("emitter"), "emitter")
    excitation = _build(ExcitationConfig, config.get("excitation"),
                        "excitation")
    detector = _build(DetectorModel, config.get("detector"), "detector")
    workers = int(config.get("workers", 1))
    emission = generate_emission(emitter, excitation, duration, seed, workers)
    ch0, ch1, sync = detect_hbt(emission, detector, seed)
    path = os.path.join(base, config.get("output", "timestamps.ptst"))
    streams = [ch0, ch1] + ([sync] if len(sync) else [])
    n = write_timestamps(streams, path)
    digest = file_digest(path)
    return {
        "output": path,
        "records": n,
        "duration_ps": duration,
        "counts": {"channel_0": len(ch0), "channel_1": len(ch1),
                   "sync": len(sync)},
        "rates_per_ms": {"channel_0": ch0.rate_per_ms,
                         "channel_1": ch1.rate_per_ms},
        "sha256": digest,
    }, {CHANNEL_A: ch0, CHANNEL_B: ch1, SYNC_CHANNEL: sync}


def run_load(config: dict) -> tuple[dict, dict]:
    """Read the ``input`` timestamp file; returns the stage result and the
    streams by channel."""
    path = config.get("input")
    if not path:
        raise ValueError("analyze mode needs an 'input' file")
    streams = read_timestamps(path, config.get("duration_ps"))
    return {
        "channels": sorted(streams),
        "counts": {str(c): len(s) for c, s in sorted(streams.items())},
        "duration_ps": max((s.duration for s in streams.values()), default=0),
    }, streams


def run_correlate(streams: dict, config: dict) -> CoincidenceHistogram:
    """Cross-correlate detector channels 0 and 1."""
    ch0, ch1 = streams.get(CHANNEL_A), streams.get(CHANNEL_B)
    if ch0 is None or ch1 is None:
        raise ValueError(
            "analysis needs events on both detector channels 0 and 1")
    corr_cfg = config.get("correlation") or {}
    window = int(round(float(corr_cfg.get("window_ns", 1000.0)) * PS_PER_NS))
    bin_width = int(corr_cfg.get("bin_width_ps", 500))
    return cross_correlate(ch0, ch1, window, bin_width,
                           int(config.get("workers", 1)))


def run_g2_fit(kind: str, histogram: CoincidenceHistogram, streams: dict,
               config: dict, base: str = ".") -> dict:
    """Fit the CW ("g2cw") or pulsed ("g2pw") g2 model and normalize."""
    corr_cfg = config.get("correlation") or {}
    if kind == "g2cw":
        res = fit.fit_g2_cw(histogram)
    else:
        period_ns = resolved_period_ns(streams, config, corr_cfg)
        res = fit.fit_g2_pw(histogram, period_ns,
                            int(corr_cfg.get("n_side", 5)))
    normalized, g2 = fit.normalize_g2(histogram, res)
    out = {
        **_fit_entry(res),
        "n_pairs": int(histogram.counts.sum()),
        "g2_at_dip": g2,
        "verdict": fit.single_photon_verdict(g2),
    }
    _export_csv(out, normalized, corr_cfg, base)
    return out


def run_decay_histogram(streams: dict, config: dict) -> DecayHistogram:
    """Sync-referenced decay histogram of both detector channels; without
    a sync channel, photons are folded on the configured period."""
    life_cfg = config.get("lifetime") or {}
    bin_width = int(life_cfg.get("bin_width_ps", 500))
    photons = merged_photons(streams)
    sync = _sync(streams)
    period_ps = None if sync is not None else int(round(
        resolved_period_ns(streams, config, life_cfg) * PS_PER_NS))
    return sync_decay_histogram(photons, sync=sync, period=period_ps,
                                bin_width=bin_width)


def run_lifetime(histogram: DecayHistogram, config: dict,
                 base: str = ".") -> dict:
    """Multi-exponential fit of a decay histogram."""
    life_cfg = config.get("lifetime") or {}
    res = fit.fit_multiexp(histogram, int(life_cfg.get("n_components", 3)))
    out = {
        **_fit_entry(res),
        "tau_avg_ns": fit.average_lifetime(res),
        "discarded": histogram.discarded,
    }
    _export_csv(out, histogram, life_cfg, base)
    return out


def run_blinking(streams: dict, config: dict) -> dict:
    """Threshold the intensity trace of both detector channels and
    characterize ON/OFF dwell statistics."""
    blink_cfg = config.get("blinking") or {}
    bin_width = int(round(float(blink_cfg.get("bin_width_ms", 1.0))
                          * PS_PER_MS))
    res = analyze_blinking(
        intensity_trace(merged_photons(streams), bin_width),
        threshold_per_ms=float(blink_cfg.get("threshold_per_ms", 50.0)),
        min_dwell_ms=float(blink_cfg.get("min_dwell_ms", 0.0)),
        tau_min_ms=blink_cfg.get("tau_min_ms"),
    )
    return {
        "threshold_per_ms": res.threshold,
        "n_on_dwells": int(res.on_durations_ms.size),
        "n_off_dwells": int(res.off_durations_ms.size),
        "alpha_on": res.alpha_on,
        "alpha_off": res.alpha_off,
        "model_on": res.model_on,
        "model_off": res.model_off,
        "mean_on_rate_per_ms": res.mean_on_rate_per_ms,
        "mean_off_rate_per_ms": res.mean_off_rate_per_ms,
    }


def _analyze(name: str, streams: dict, config: dict, base: str) -> dict:
    if name in ("g2cw", "g2pw"):
        return run_g2_fit(name, run_correlate(streams, config), streams,
                          config, base)
    if name == "lifetime":
        return run_lifetime(run_decay_histogram(streams, config), config,
                            base)
    if name == "blinking":
        return run_blinking(streams, config)
    raise ValueError(f"unknown analysis {name!r}; expected one of "
                     f"{', '.join(KNOWN_ANALYSES)}")


def run_pipeline(config: dict, base_dir: str | None = None) -> ReportDocument:
    """Run a configured simulate or analyze job.

    Parameters
    ----------
    config : dict
        Job description; see the module docstring for the shape. The dict
        is echoed verbatim into the report.
    base_dir : str, optional
        Directory that relative output paths are resolved against.
        Defaults to ``config["output_dir"]``, then the current directory.

    Returns
    -------
    ReportDocument
        Echoed config, per-analysis results, and one error entry per
        failed stage. ``doc.ok`` is False iff any stage failed. An error
        entry names the stage, the exception's class as ``type``, its
        message, and its stable ``code`` when it has one.
    """
    mode = config.get("mode")
    if mode not in ("simulate", "analyze"):
        raise ValueError(f"mode must be 'simulate' or 'analyze', got {mode!r}")
    base = base_dir or config.get("output_dir") or "."
    results: dict = {}
    errors: list = []
    input_info: dict | None = None
    streams: dict = {}

    def stage(name, fn, *args):
        try:
            results[name] = fn(*args)
        except Exception as e:
            entry = {"stage": name, "type": type(e).__name__,
                     "message": str(e)}
            if getattr(e, "code", None) is not None:
                entry["code"] = e.code
            errors.append(entry)

    def source():
        nonlocal streams, input_info
        if mode == "simulate":
            result, streams = run_simulate(config, base)
            input_info = {"path": result["output"], "sha256": result["sha256"]}
        else:
            result, streams = run_load(config)
            path = config["input"]
            input_info = {"path": str(path), "sha256": file_digest(path)}
        return result

    stage("simulate" if mode == "simulate" else "input", source)

    for name in config.get("analyses", []):
        stage(name, _analyze, name, streams, config, base)

    return ReportDocument(config=dict(config), results=results,
                          errors=errors, input=input_info)
