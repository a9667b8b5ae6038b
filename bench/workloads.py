"""The seeded workloads, the fit ensemble, and their correctness checks.

Each workload has a ``setup(seed, scale, workdir)`` that builds its inputs
from the seed alone, and a ``job(inputs, span)`` that runs one closed-loop
job on them and checks its outputs. ``span(name)`` is a context manager
yielding a dict for counts; the untraced runner passes one that records
nothing. Every job in a run repeats the same inputs, so the results of a
run are a pure function of (workload, seed, scale).

The fit ensemble (``fit_setup`` and ``fit_job``) follows the same shape
but is not a workload: traced runs of every workload run it as a probe.

``scale`` shrinks data volumes for the smoke test; the benchmark proper
always runs at 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import photonkit as pk
from photonkit import blinking as pk_blinking
from photonkit import fit as pk_fit
from photonkit import sim as pk_sim
from photonkit.pipeline import run_pipeline

TAU_NS = 4.7                 # configured exciton lifetime, every workload
CW_RATE_PER_S = 5e6          # cw_blinking excitation rate
TAU_SIGMAS = 5.0             # lifetime checks pass within this many sigma
DECAY_LEVELS = (1_000, 10_000, 100_000)


def no_span(name):
    return contextlib.nullcontext({})


@dataclass
class JobResult:
    """Timings, work counts and check outcome of one job."""

    job_s: float = 0.0
    simulate_s: float = 0.0
    analyze_s: float = 0.0
    events: int = 0            # photon counts the job analyzed
    fits: int = 0              # fit-driver and blinking-analysis calls
    ptst_mb: float = 0.0       # size of the timestamp file written
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprint: str = ""
    pulls: dict = field(default_factory=dict)  # fit ensemble: level -> pulls

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(float(v)) for v in values)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _strip_paths(obj):
    """Drop output-location keys so results compare across directories."""
    if isinstance(obj, dict):
        return {k: _strip_paths(v) for k, v in obj.items()
                if k not in ("csv", "output", "path")}
    if isinstance(obj, list):
        return [_strip_paths(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# pipeline workloads: simulate -> write -> read -> analyze -> report

@dataclass
class PipelineInputs:
    simulate: dict
    analyze: dict
    report: str
    expected_tau_ns: float    # time constant the analysis must recover
    tau_result: tuple         # (analysis, key) holding the fitted constant
    verdict_from: str
    needs_blinking: bool
    files: tuple


def _pipeline_inputs(name, seed, duration_s, workdir, emitter, excitation,
                     workers, analyses, extra, expected_tau_ns, tau_result):
    ptst = os.path.join(workdir, f"{name}.ptst")
    g2_csv = os.path.join(workdir, f"{name}_g2.csv")
    decay_csv = os.path.join(workdir, f"{name}_decay.csv")
    report = os.path.join(workdir, f"{name}_report.json")
    simulate = {
        "mode": "simulate", "seed": seed, "duration_s": duration_s,
        "emitter": emitter, "excitation": excitation,
        "detector": {"efficiency": 0.6}, "workers": workers, "output": ptst,
    }
    analyze = {
        "mode": "analyze", "input": ptst,
        "duration_ps": int(round(duration_s * pk.PS_PER_S)),
        "workers": workers, "analyses": list(analyses),
        "correlation": {**extra["correlation"], "csv": g2_csv},
    }
    if "lifetime" in analyses:
        analyze["lifetime"] = {**extra["lifetime"], "csv": decay_csv}
    if "blinking" in analyses:
        analyze["blinking"] = dict(extra["blinking"])
    return PipelineInputs(
        simulate, analyze, report, expected_tau_ns, tau_result,
        verdict_from=analyses[0], needs_blinking="blinking" in analyses,
        files=(ptst, g2_csv, decay_csv, report))


def pulsed_setup(seed, scale, workdir):
    return _pipeline_inputs(
        "pulsed_sync", seed, 1.0 * scale, workdir,
        emitter={"lifetime_ns": TAU_NS},
        excitation={"mode": "pulsed", "excitation_probability": 0.5},
        workers=1, analyses=("g2pw", "lifetime"),
        extra={"correlation": {"window_ns": 600.0},
               "lifetime": {"n_components": 1}},
        expected_tau_ns=TAU_NS, tau_result=("lifetime", "tau_avg_ns"))


BLINK_LAW = {"kind": "power_law", "max_dwell_ms": 500.0}


def _balanced_blinking_seed(seed: int, duration: int) -> int:
    """First seed derived from ``seed`` whose ON/OFF ground truth is ON for
    49-51% of the trace.

    Power-law dwells make the ON fraction of a few-second trace swing by a
    third between seeds, and the photon count with it. Holding it near one
    half keeps the work per job the same for every seed, so run-to-run
    spread measures the code rather than the draw. The ground truth comes
    from ``simulate_intensity_trace``, which shares ``generate_emission``'s
    segment sequence for a given law, duration and seed.
    """
    law = pk.BlinkingLaw(**BLINK_LAW)
    for k in range(10_000):
        candidate = seed * 10_000 + k
        _, segments = pk.simulate_intensity_trace(law, 1.0, duration,
                                                  candidate, bin_width=duration)
        on = sum(s.end - s.start for s in segments if s.on) / duration
        if abs(on - 0.5) <= 0.01:
            return candidate
    raise RuntimeError(f"no balanced blinking trace near seed {seed}")


def cw_setup(seed, scale, workdir):
    duration_s = 3.0 * scale
    emitter_seed = _balanced_blinking_seed(
        seed, int(round(duration_s * pk.PS_PER_S)))
    return _pipeline_inputs(
        "cw_blinking", emitter_seed, duration_s, workdir,
        emitter={"lifetime_ns": TAU_NS, "blinking": dict(BLINK_LAW)},
        excitation={"mode": "cw", "cw_rate_per_s": CW_RATE_PER_S},
        workers=2, analyses=("g2cw", "blinking"),
        extra={"correlation": {"window_ns": 1000.0},
               "blinking": {"threshold_per_ms": 500.0}},
        # Under CW pumping at rate r the dip recovers at 1/tau + r.
        expected_tau_ns=1.0 / (1.0 / TAU_NS + CW_RATE_PER_S * 1e-9),
        tau_result=("g2cw", "fit", "tau_x_ns"))


def pipeline_job(inp: PipelineInputs, span=no_span) -> JobResult:
    """Simulate to a file, analyze that file, write the report; then check.

    The two ``run_pipeline`` calls are the job's two operations. Simulate
    fails if it raises or reports errors; analyze fails if it raises,
    reports errors, or misses any output check.
    """
    res = JobResult(attempted=2)
    sim_doc = doc = None
    try:
        with span("bench.job"):
            t0 = time.perf_counter()
            with span("pipeline.run_pipeline"):
                sim_doc = run_pipeline(inp.simulate)
            t1 = time.perf_counter()
            with span("pipeline.run_pipeline"):
                analyzed = run_pipeline(inp.analyze)
            with span("fileio.ReportDocument.write"):
                analyzed.write(inp.report)
            t2 = time.perf_counter()
        doc = analyzed
        res.ptst_mb = os.path.getsize(inp.simulate["output"]) / 1e6
    except Exception as e:  # an operation that raises counts as failed
        res.problems.append(f"{type(e).__name__}: {e}")
    finally:
        for path in inp.files:
            if os.path.exists(path):
                os.remove(path)

    if sim_doc is None or not res.check(not sim_doc.errors,
                                        f"simulate errors {sim_doc.errors}"):
        res.failed = 2   # without a clean simulation the analysis is unchecked
        return res
    if doc is None or not _analysis_ok(res, inp, sim_doc, doc.to_dict()):
        res.failed = 1
        return res
    res.job_s, res.simulate_s, res.analyze_s = t2 - t0, t1 - t0, t2 - t1
    return res


def _analysis_ok(res: JobResult, inp: PipelineInputs, sim_doc, report) -> bool:
    results = report["results"]
    sim_counts = sim_doc.results["simulate"]["counts"]
    res.events = sim_counts["channel_0"] + sim_counts["channel_1"]
    res.fits = len(inp.analyze["analyses"])
    res.fingerprint = _digest(_strip_paths(
        {k: v for k, v in report.items() if k not in ("created", "config")}))
    if not res.check(not report["errors"], f"analyze errors {report['errors']}"):
        return False

    read = results["input"]["counts"]
    ok = res.check(
        read.get("0") == sim_counts["channel_0"]
        and read.get("1") == sim_counts["channel_1"],
        f"read-back counts {read} differ from simulated {sim_counts}")
    verdict = results[inp.verdict_from]["verdict"]
    ok &= res.check(verdict == "single_photon", f"verdict {verdict}")
    m = results
    for key in inp.tau_result:
        m = m[key]
    ok &= res.check(
        _finite(m["value"], m["sigma"])
        and abs(m["value"] - inp.expected_tau_ns) <= TAU_SIGMAS * m["sigma"],
        f"{'.'.join(inp.tau_result)} = {m} is not within {TAU_SIGMAS} "
        f"sigma of {inp.expected_tau_ns:.4f} ns")
    if inp.needs_blinking:
        b = results["blinking"]
        ok &= res.check(
            all(b[k] is not None and _finite(b[k]["value"], b[k]["sigma"])
                for k in ("alpha_on", "alpha_off")),
            f"blinking exponents {b['alpha_on']}, {b['alpha_off']}")
    return ok


# ---------------------------------------------------------------------------
# fit ensemble: seeded Poisson histograms and count-level traces, no files

@dataclass
class FitInputs:
    decays: list              # (level, DecayHistogram)
    pulsed: list              # CoincidenceHistogram
    cw: list                  # CoincidenceHistogram
    traces: list              # (law, on_rate_per_ms, duration, seed)


def decay_inputs(rng, n_per_level: int):
    """Mono-exponential TCSPC histograms, 100 ps bins over a 100 ns period,
    with 2% flat background, holding about ``level`` counts each."""
    bw, period = 100, 100_000
    t = (np.arange(period // bw) + 0.5) * bw / 1000.0
    shape = np.exp(-np.clip(t - 0.2, 0.0, None) / TAU_NS) * (t >= 0.2)
    out = []
    for level in DECAY_LEVELS:
        lam = 0.98 * level * shape / shape.sum() + 0.02 * level / t.size
        for _ in range(n_per_level):
            out.append((level, pk.DecayHistogram(
                bw, period, rng.poisson(lam).astype(np.int64))))
    return out


def _centers_ns(bin_width, window):
    return pk.CoincidenceHistogram(
        bin_width, window, np.zeros(2 * window // bin_width, np.int64)
    ).tau_centers_ns


def fit_setup(seed, scale, workdir):
    rng = np.random.default_rng(seed)
    n = max(int(round(16 * scale)), 1)
    decays = decay_inputs(rng, n)

    window, bw = 600_000, 500
    tau = _centers_ns(bw, window)
    theta = np.concatenate(([5.0], np.full(11, 400.0), [0.0, TAU_NS]))
    theta[6] = 8.0                                  # suppressed center peak
    lam = pk.pulsed_g2_model(tau, theta, 100.0)
    pulsed = [pk.CoincidenceHistogram(bw, window, rng.poisson(lam).astype(np.int64))
              for _ in range(max(int(round(8 * scale)), 1))]

    window = 100_000
    lam = pk.cw_g2_model(_centers_ns(bw, window), [300.0, 0.95, 0.0, TAU_NS])
    cw = [pk.CoincidenceHistogram(bw, window, rng.poisson(lam).astype(np.int64))
          for _ in range(n)]

    law = pk.BlinkingLaw(kind="power_law", max_dwell_ms=1000.0)
    duration = int(round(150 * scale * pk.PS_PER_S))
    traces = [(law, 100.0, duration, int(s))
              for s in rng.integers(0, 2**31, size=2)]
    return FitInputs(decays, pulsed, cw, traces)


def _fit_ok(res: JobResult, fr, what) -> bool:
    return res.check(
        fr.converged and _finite(*fr.params.to_vector(), *fr.sigma),
        f"{what}: converged={fr.converged}, flags={fr.flags}")


def fit_job(inp: FitInputs, span=no_span) -> JobResult:
    """Simulate the count-level traces, then run every fit and blinking
    analysis on the prepared inputs. Each fit-layer or blinking-layer call
    is one operation; it fails if it raises or misses its check."""
    res = JobResult()
    summary = []

    def op(what, fn, *args):
        res.attempted += 1
        try:
            ok, value = fn(*args)
        except Exception as e:  # an operation that raises counts as failed
            ok, value = res.check(False, f"{what}: {type(e).__name__}: {e}"), None
        res.failed += not ok
        return value

    def decay_fit(level, h):
        fr = pk_fit.fit_multiexp(h, 1)
        summary.append(fr.as_dict())
        m = fr.value_of("tau1_ns")
        ok = (_fit_ok(res, fr, "fit_multiexp")
              and res.check(m.sigma > 0, f"tau1_ns sigma {m.sigma}"))
        if ok:
            res.pulls.setdefault(level, []).append((m.value - TAU_NS) / m.sigma)
        return ok, fr

    def g2_fit(h, driver, *args):
        fr = driver(h, *args)
        if not _fit_ok(res, fr, driver.__name__):
            return False, fr
        _, g2 = pk_fit.normalize_g2(h, fr)
        summary.append([fr.as_dict(), g2.value, g2.sigma])
        return res.check(_finite(g2.value, g2.sigma), f"g2 {g2}"), fr

    def blink(trace):
        b = pk_blinking.analyze_blinking(trace, threshold_per_ms=60.0)
        summary.append([b.alpha_on, b.alpha_off])
        return res.check(
            b.alpha_on is not None and b.alpha_off is not None
            and _finite(b.alpha_on.value, b.alpha_on.sigma,
                        b.alpha_off.value, b.alpha_off.sigma),
            f"blinking exponents {b.alpha_on}, {b.alpha_off}"), b

    def bootstrap(durations, seed):
        alphas = pk_blinking.alpha_distribution(durations, seed=seed)
        summary.append(alphas.tolist())
        return res.check(bool(np.all(np.isfinite(alphas))),
                         "bootstrap exponents not finite"), alphas

    with span("bench.job"):
        t0 = time.perf_counter()
        traces = [pk_sim.simulate_intensity_trace(law, rate, dur, seed)[0]
                  for law, rate, dur, seed in inp.traces]
        t1 = time.perf_counter()
        for level, h in inp.decays:
            op("fit_multiexp", decay_fit, level, h)
        for h in inp.pulsed:
            op("fit_g2_pw", g2_fit, h, pk_fit.fit_g2_pw, 100.0)
        for h in inp.cw:
            op("fit_g2_cw", g2_fit, h, pk_fit.fit_g2_cw)
        for i, trace in enumerate(traces):
            b = op("analyze_blinking", blink, trace)
            if b is not None:
                op("alpha_distribution", bootstrap, b.on_durations_ms, i)
                op("alpha_distribution", bootstrap, b.off_durations_ms, i)
        t2 = time.perf_counter()

    res.job_s, res.simulate_s, res.analyze_s = t2 - t0, t1 - t0, t2 - t1
    res.fits = len(inp.decays) + len(inp.pulsed) + len(inp.cw) + len(traces)
    res.events = int(sum(int(h.counts.sum()) for _, h in inp.decays)
                     + sum(int(h.counts.sum()) for h in inp.pulsed + inp.cw)
                     + sum(int(t.counts.sum()) for t in traces))
    res.fingerprint = _digest(summary)
    return res


# ---------------------------------------------------------------------------
# probe run once per traced run, on inputs derived from the seed

def worker_speedup_probe(seed, scale, repeats: int = 3) -> tuple[dict, int, int]:
    """Wall time at workers=1 over workers=2 for ``generate_emission`` and
    ``cross_correlate`` on the cw_blinking inputs, medians of alternating
    repeats. Also returns the number of worker-count comparisons and how
    many gave different outputs; the worker count may change wall time
    only."""
    inp = cw_setup(seed, scale, "")
    cfg = inp.simulate
    emitter = pk.EmitterModel(TAU_NS, blinking=pk.BlinkingLaw(**BLINK_LAW))
    excitation = pk.ExcitationConfig(**cfg["excitation"])
    duration = int(round(cfg["duration_s"] * pk.PS_PER_S))
    window = int(round(inp.analyze["correlation"]["window_ns"] * pk.PS_PER_NS))

    def compare(fn):
        times = {1: [], 2: []}
        outs = {}
        for _ in range(repeats):
            for w in (1, 2):
                t0 = time.perf_counter()
                outs[w] = fn(w)
                times[w].append(time.perf_counter() - t0)
        speedup = float(np.median(times[1]) / np.median(times[2]))
        return speedup, int(not outs[1] == outs[2]), outs[1]

    gen_speedup, gen_bad, emission = compare(
        lambda w: pk.generate_emission(emitter, excitation, duration,
                                       cfg["seed"], w))
    ch0, ch1, _ = pk.detect_hbt(emission, pk.DetectorModel(efficiency=0.6),
                                cfg["seed"])
    corr_speedup, corr_bad, _ = compare(
        lambda w: pk.cross_correlate(ch0, ch1, window, 500, w))
    return ({"sim.generate_emission.speedup_w2": gen_speedup,
             "correlator.cross_correlate.speedup_w2": corr_speedup},
            2, gen_bad + corr_bad)


WORKLOADS = {
    "pulsed_sync": (pulsed_setup, pipeline_job),
    "cw_blinking": (cw_setup, pipeline_job),
}
