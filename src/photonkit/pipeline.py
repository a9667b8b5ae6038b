"""End-to-end orchestration: a config dict in, a report document out.

``run_pipeline`` drives the two top-level workflows:

* mode "simulate": generate an emitter trace, push it through the
  beam-splitter detector model, and write a binary timestamp file.
* mode "analyze": read a timestamp file back.

Either mode can then run any subset of the named analyses ("g2", "g2cw",
"g2pw", "lifetime", "blinking") on its streams, each inside its own
error boundary: a failing stage adds an entry to the report's ``errors``
list instead of aborting the rest, and none runs after a failed source.

Each step is a ``run_*`` stage function of the job config. An analysis
is a build stage that makes a histogram, then a fit stage:
``run_correlate``/``run_g2_fit``, ``run_decay_histogram``/``run_lifetime``
and ``run_intensity_trace``/``run_blinking``; "g2" is the correlation
alone, exported raw. The CLI subcommands ``simulate``, ``correlate``,
``lifetime`` and ``blink`` run their work as a ``run_pipeline`` job of
one source or one analysis, so the two cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

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
    IntensityTrace,
    PeriodicStream,
    TimestampStream,
    _number,
    _path,
    _seed,
    _span,
    _whole,
    _whole_ps,
)
from .correlator import (_sync_period, cross_correlate, intensity_trace,
                         sync_decay_histogram)
from .fileio import (
    ReportDocument,
    export_histogram_csv,
    file_digest,  # noqa: F401  not called here; bench/tracing.py wraps it
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

KNOWN_ANALYSES = ("g2", "g2cw", "g2pw", "lifetime", "blinking")
# The analyses that correlate, each writing ``correlation.csv`` if set.
_G2_ANALYSES = ("g2", "g2cw", "g2pw")

# Every scalar job key by section ("" is the top level): its rule, which
# gives a span in whole ps, and default; null is unset only if that is None.
_KEYS = {
    "": {"seed": (_seed, 0), "duration_s": (_span(PS_PER_S), 1.0),
         "workers": (_whole, 1), "output": (_path, "timestamps.ptst"),
         "input": (_path, None), "duration_ps": (_whole_ps, None)},
    "correlation": {"window_ns": (_span(PS_PER_NS), 1000.0),
                    "bin_width_ps": (_whole_ps, 500),
                    "period_ns": (_span(PS_PER_NS), None),
                    "n_side": (_whole, 5), "csv": (_path, None)},
    "lifetime": {"bin_width_ps": (_whole_ps, 500),
                 "period_ns": (_span(PS_PER_NS), None),
                 "n_components": (_whole, 3), "csv": (_path, None)},
    "blinking": {"bin_width_ms": (_span(PS_PER_MS), 1.0),
                 "threshold_per_ms": (_number, 50.0),
                 "min_dwell_ms": (_number, 0.0),
                 "tau_min_ms": (_number, None)},
}
# The keys a job config may hold: the model blocks, the analysis sections
# and the top level's own.
_JOB_KEYS = {"mode", "emitter", "excitation", "detector", "analyses",
             *_KEYS, *_KEYS[""]} - {""}


def _check_keys(cfg: dict, known, label: str) -> None:
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ValueError(f"unknown {label} options: {', '.join(unknown)}")


def _block(cfg, label: str) -> dict:
    """A block of a job config: a JSON object, or null for an empty one."""
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ValueError(f"{label} must be a JSON object, got {cfg!r}")
    return cfg


def _section(config: dict, name: str = "") -> dict:
    """Every key of a job section (``""``, the top level, by default) in
    ``_KEYS``, read by its rule under its job name (``correlation.csv``),
    or its default; an unknown key in the section is refused."""
    cfg = _block(config.get(name), name) if name else config
    _check_keys(cfg, _KEYS[name] if name else _JOB_KEYS, name or "job")
    prefix = f"{name}." if name else ""
    out = {}
    for key, (rule, default) in _KEYS[name].items():
        value = cfg.get(key, default)
        out[key] = (None if value is None and default is None
                    else rule(value, prefix + key))
    return out


def _build(cls, cfg, label: str):
    """Construct a config dataclass from a :func:`_block`, rejecting
    unknown keys. A field whose default is a config dataclass is built
    from its own sub-block the same way."""
    cfg = dict(_block(cfg, label))
    fields = dataclasses.fields(cls)
    _check_keys(cfg, [f.name for f in fields], label)
    for f in fields:
        if f.name in cfg and dataclasses.is_dataclass(f.default_factory):
            cfg[f.name] = _build(f.default_factory, cfg[f.name], f.name)
    return cls(**cfg)


def _out_path(base: str, path: str | None, key: str) -> str | None:
    """``path`` joined to ``base``, or None if unset. A directory that does
    not exist is refused by ``key``, before the stage's work."""
    if path is not None:
        path = os.path.join(base, path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{key}: directory of {path!r} does not exist")
    return path


def _export_csv(out: dict, histogram, path: str | None) -> None:
    """Write ``histogram`` to ``path``, if there is one."""
    if path:
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


def _detector_channels(streams: dict) -> list[TimestampStream]:
    """The detector channels that hold events."""
    parts = [s for s in (streams.get(CHANNEL_A), streams.get(CHANNEL_B))
             if s is not None and len(s)]
    if not parts:
        raise ValueError("no detector events to analyze")
    return parts


def _period_ps(streams: dict, stage_cfg: dict) -> int:
    """Pulse period in whole ps from the sync channel (``_sync_period``),
    else ``period_ns`` from the stage's :func:`_section`."""
    sync = _sync(streams)
    period = (_sync_period(sync) if sync is not None
              else stage_cfg.get("period_ns"))
    if period is None:
        raise ValueError(
            "pulse period unknown: no sync channel in the data and no "
            "period_ns in the config (--period on the command line)")
    return period


def resolved_period_ns(streams: dict, stage_cfg: dict) -> float:
    """The whole-ps pulse period of :func:`_period_ps` in ns."""
    return _period_ps(streams, stage_cfg) / PS_PER_NS


# ---------------------------------------------------------------------------
# stages

def run_simulate(config: dict, base: str = ".") -> tuple[dict, dict]:
    """Simulate emission and detection, then write the timestamp file;
    returns the stage result and the detector streams by channel."""
    job = _section(config)
    duration, seed, workers = job["duration_s"], job["seed"], job["workers"]
    emitter = _build(EmitterModel, config.get("emitter"), "emitter")
    excitation = _build(ExcitationConfig, config.get("excitation"),
                        "excitation")
    detector = _build(DetectorModel, config.get("detector"), "detector")
    path = _out_path(base, job["output"], "output")
    # The emission record is not kept here, so detection writes the
    # routed photons back into the record's own times (``detect_hbt``).
    # This stage peaks while emission joins its pieces, or while
    # detection routes them into the record.
    ch0, ch1, sync = detect_hbt(
        generate_emission(emitter, excitation, duration, seed, workers),
        detector, seed, workers)
    streams = [ch0, ch1] + ([sync] if len(sync) else [])
    hasher = hashlib.sha256()
    n = write_timestamps(streams, path, workers=workers, hasher=hasher)
    return {
        "output": path,
        "records": n,
        "duration_ps": duration,
        "counts": {"channel_0": len(ch0), "channel_1": len(ch1),
                   "sync": len(sync)},
        "rates_per_ms": {"channel_0": ch0.rate_per_ms,
                         "channel_1": ch1.rate_per_ms},
        "sha256": hasher.hexdigest(),
    }, {CHANNEL_A: ch0, CHANNEL_B: ch1, SYNC_CHANNEL: sync}


def run_load(config: dict, hasher=None) -> tuple[dict, dict]:
    """Read the ``input`` timestamp file; returns the stage result and the
    streams by channel. ``hasher`` (a :mod:`hashlib` object) is fed the
    file's bytes as they are read."""
    job = _section(config)
    if not job["input"]:
        raise ValueError("analyze mode needs an 'input' file")
    try:
        streams = read_timestamps(job["input"], job["duration_ps"],
                                  workers=job["workers"], hasher=hasher)
    except ValueError as e:
        # Every other input was checked under its job key above, so the
        # reader refused the duration, under its own argument name.
        if job["duration_ps"] is None:
            raise
        raise ValueError(f"duration_ps: {e}") from None
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
    corr = _section(config, "correlation")
    return cross_correlate(ch0, ch1, corr["window_ns"],
                           corr["bin_width_ps"], _section(config)["workers"])


def run_g2_fit(kind: str, histogram: CoincidenceHistogram, streams: dict,
               config: dict, csv: str | None = None) -> dict:
    """Fit the CW ("g2cw") or pulsed ("g2pw") g2 model and normalize;
    export to ``csv``, a resolved path, unless it is None."""
    corr = _section(config, "correlation")
    if kind == "g2cw":
        res = fit.fit_g2_cw(histogram)
    else:
        res = fit.fit_g2_pw(histogram, resolved_period_ns(streams, corr),
                            corr["n_side"])
    normalized, g2 = fit.normalize_g2(histogram, res)
    out = {
        **_fit_entry(res),
        "n_pairs": int(histogram.counts.sum()),
        "n_bins": histogram.n_bins,
        "g2_at_dip": g2,
        "verdict": fit.single_photon_verdict(g2),
    }
    _export_csv(out, normalized, csv)
    return out


def run_decay_histogram(streams: dict, config: dict) -> DecayHistogram:
    """Sync-referenced decay histogram of both detector channels; without
    a sync, folded on the configured period."""
    life = _section(config, "lifetime")
    sync = _sync(streams)
    return sync_decay_histogram(
        _detector_channels(streams), sync=sync, bin_width=life["bin_width_ps"],
        period=None if sync is not None else _period_ps(streams, life))


def run_lifetime(histogram: DecayHistogram, config: dict,
                 csv: str | None = None) -> dict:
    """Multi-exponential fit of a decay histogram; export the histogram
    to ``csv``, a resolved path, unless it is None."""
    life = _section(config, "lifetime")
    res = fit.fit_multiexp(histogram, life["n_components"])
    out = {
        **_fit_entry(res),
        "tau_avg_ns": fit.average_lifetime(res),
        "discarded": histogram.discarded,
    }
    _export_csv(out, histogram, csv)
    return out


def run_intensity_trace(streams: dict, config: dict) -> IntensityTrace:
    """Intensity trace of both detector channels, on the longer duration."""
    return intensity_trace(_detector_channels(streams),
                           _section(config, "blinking")["bin_width_ms"])


def run_blinking(trace: IntensityTrace, config: dict) -> dict:
    """Threshold an intensity trace; characterize ON/OFF dwell statistics."""
    blink = _section(config, "blinking")
    del blink["bin_width_ms"]  # the trace's; the rest are keyword arguments
    res = analyze_blinking(trace, **blink)
    return {
        "threshold_per_ms": res.threshold,
        "n_on_dwells": int(res.on_durations_ms.size),
        "n_off_dwells": int(res.off_durations_ms.size),
        "alpha_on": res.alpha_on,
        "alpha_off": res.alpha_off,
        "model_on": res.model_on,
        "model_off": res.model_off,
        "reason_on": res.reason_on,
        "reason_off": res.reason_off,
        "mean_on_rate_per_ms": res.mean_on_rate_per_ms,
        "mean_off_rate_per_ms": res.mean_off_rate_per_ms,
    }


def _analyze(name: str, streams: dict, config: dict, base: str) -> dict:
    if name not in KNOWN_ANALYSES:
        raise ValueError(f"unknown analysis {name!r}; expected one of "
                         f"{', '.join(KNOWN_ANALYSES)}")
    if name == "blinking":
        return run_blinking(run_intensity_trace(streams, config), config)
    # The csv path is resolved once, and refused before the histogram.
    section = "lifetime" if name == "lifetime" else "correlation"
    csv = _out_path(base, _section(config, section)["csv"], f"{section}.csv")
    if name == "lifetime":
        return run_lifetime(run_decay_histogram(streams, config), config, csv)
    hist = run_correlate(streams, config)
    if name != "g2":
        return run_g2_fit(name, hist, streams, config, csv)
    out = {"n_pairs": int(hist.counts.sum()), "n_bins": hist.n_bins}
    _export_csv(out, hist, csv)
    return out


def run_pipeline(config: dict, base_dir: str | None = None) -> ReportDocument:
    """Run a configured simulate or analyze job.

    Parameters
    ----------
    config : dict
        Job description; see the module docstring for the shape. The dict
        is echoed verbatim into the report. An unknown top-level key, an
        ``analyses`` value that is not a list of strings, a name listed
        twice in it, or more than one of "g2", "g2cw" and "g2pw" while
        ``correlation.csv`` is set raises ``ValueError``; an unknown key
        in an analysis section becomes that analysis's error entry.
    base_dir : str, optional
        Directory that relative output paths are resolved against.
        Defaults to the current directory.

    Returns
    -------
    ReportDocument
        Echoed config, per-analysis results, and one error entry per
        failed stage. ``doc.ok`` is False iff any stage failed. An error
        entry names the stage, the exception's class as ``type``, its
        message, and its stable ``code`` when it has one.
    """
    _check_keys(config, _JOB_KEYS, "job")
    mode = config.get("mode")
    if mode not in ("simulate", "analyze"):
        raise ValueError(f"mode must be 'simulate' or 'analyze', got {mode!r}")
    analyses = config.get("analyses", [])
    if not (isinstance(analyses, list)
            and all(isinstance(a, str) for a in analyses)):
        raise ValueError(
            f"analyses must be a list of analysis names, got {analyses!r}")
    for name in analyses:
        if analyses.count(name) > 1:
            raise ValueError(f"analysis {name!r} is listed more than once")
    # One correlation.csv holds one histogram, so only one may write it.
    writers = [name for name in analyses if name in _G2_ANALYSES]
    corr = config.get("correlation")
    if (len(writers) > 1 and isinstance(corr, dict)
            and corr.get("csv") is not None):
        raise ValueError(f"analyses {', '.join(map(repr, writers))} would "
                         f"each write correlation.csv")
    base = base_dir or "."
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
            hasher = hashlib.sha256()
            result, streams = run_load(config, hasher)
            input_info = {"path": config["input"],
                          "sha256": hasher.hexdigest()}
        return result

    stage("simulate" if mode == "simulate" else "input", source)
    if not errors:  # every analysis reads the source's streams
        for name in analyses:
            stage(name, _analyze, name, streams, config, base)

    return ReportDocument(config=dict(config), results=results,
                          errors=errors, input=input_info)
