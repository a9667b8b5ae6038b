"""Seeded benchmark of photonkit's simulate -> write -> read -> analyze ->
report loop and of the layers inside it.

Run from the repository root:

    python3 bench/run.py --workload pulsed_sync --seed 1 --seconds 40 --trace 0

One run is a closed loop: a single client runs one job at a time, the same
job again and again, until ``--seconds`` have passed (at least one job, two
with ``--trace 1``). ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs traced and untraced jobs alternately and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric with its unit. The exit code is 0 when every check
passed, 1 when any check failed, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 7        # this process plus six fresh child processes

END_TO_END = {
    "setup_s": "s", "job_s": "s", "simulate_s": "s", "analyze_s": "s",
    "events_per_s": "1/s", "fits_per_s": "1/s", "peak_rss_mb": "MB",
    "ptst_mb": "MB",
}

# Per-layer metrics summed over one traced job, as <span>.<quantity>.
# Quantity "s" is the span's duration; any other is a count it recorded.
SPAN_METRICS = {
    "sim.generate_emission": {"s": "s", "events": "count"},
    "sim.detect_hbt": {"s": "s", "events_out": "count", "sync_records": "count"},
    "fileio.write_timestamps": {"s": "s", "records": "count", "mb": "MB"},
    "fileio.read_timestamps": {"s": "s", "records": "count"},
    "fileio.file_digest": {"s": "s"},
    "fileio.export_histogram_csv": {"s": "s"},
    "fileio.ReportDocument.write": {"s": "s"},
    "correlator.cross_correlate": {"s": "s", "pairs": "count"},
    "correlator.sync_decay_histogram": {"s": "s", "photons": "count",
                                        "discarded": "count"},
    "correlator.intensity_trace": {"s": "s"},
    "fit.fit_g2_pw": {"s": "s", "iterations": "count"},
    "fit.fit_g2_cw": {"s": "s", "iterations": "count"},
    "fit.fit_multiexp": {"s": "s", "iterations": "count", "flagged": "count"},
    "fit.normalize_g2": {"s": "s"},
    "blinking.analyze_blinking": {"s": "s", "dwells": "count"},
}
# Ratios of two span metrics: (numerator, denominator, unit).
RATE_METRICS = {
    "fileio.write_timestamps.mb_per_s":
        ("fileio.write_timestamps.mb", "fileio.write_timestamps.s", "MB/s"),
    "correlator.cross_correlate.pairs_per_s":
        ("correlator.cross_correlate.pairs", "correlator.cross_correlate.s", "1/s"),
}
# Span sums over one fit-ensemble job, reported as <span>.ensemble_<quantity>.
ENSEMBLE_METRICS = {
    "sim.simulate_intensity_trace": {"s": "s"},
    "fit.fit_multiexp": {"s": "s", "iterations": "count"},
    "fit.fit_g2_pw": {"s": "s", "iterations": "count"},
    "fit.fit_g2_cw": {"s": "s", "iterations": "count"},
    "fit.normalize_g2": {"s": "s"},
    "blinking.analyze_blinking": {"s": "s", "dwells": "count"},
    "blinking.alpha_distribution": {"s": "s"},
}
ENSEMBLE_JOBS = 3
OTHER_LAYER_METRICS = {
    "pipeline.run_pipeline.self_s": "s",
    "bench.fit_ensemble.fits_per_s": "1/s",
    "fit.fit_multiexp.bias_sigma_1e3": "sigma",
    "fit.fit_multiexp.bias_sigma_1e4": "sigma",
    "fit.fit_multiexp.bias_sigma_1e5": "sigma",
    "sim.generate_emission.speedup_w2": "x",
    "correlator.cross_correlate.speedup_w2": "x",
    "bench.job.s": "s",
    "bench.job.span_coverage": "fraction",
    "bench.job.tracing_overhead": "fraction",
}
PER_LAYER = {
    **{f"{span}.{q}": unit for span, qs in SPAN_METRICS.items()
       for q, unit in qs.items()},
    **{name: unit for name, (_, _, unit) in RATE_METRICS.items()},
    **{f"{span}.ensemble_{q}": unit for span, qs in ENSEMBLE_METRICS.items()
       for q, unit in qs.items()},
    **OTHER_LAYER_METRICS,
}


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "ptst_read": "warm from the page cache"}


def timed_setup(workload: str, seed: int, scale: float, workdir: str):
    """Import photonkit and build the workload's inputs; returns (s, inputs)."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    setup, job = workloads.WORKLOADS[workload]
    inputs = setup(seed, scale, workdir)
    return time.perf_counter() - t0, (inputs, job)


def setup_samples(args, own: float) -> list[float]:
    """This process's set-up time plus that of fresh child processes, each
    of which imports photonkit from scratch."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--scale", str(args.scale),
           "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def run_jobs(job, inputs, seconds: float, trace: bool):
    """Closed loop until ``seconds`` pass. With tracing, jobs alternate
    between traced and untraced, starting traced, so both kinds see the same
    machine conditions."""
    from tracing import Tracer, installed
    import workloads
    tracer = Tracer()
    results = []
    t_end = time.perf_counter() + seconds
    while (time.perf_counter() < t_end or not results
           or (trace and len(results) < 2)):
        traced = trace and len(results) % 2 == 0
        if traced:
            tracer.job = len(results)
            with installed(tracer):
                r = job(inputs, tracer.span)
        else:
            r = job(inputs, workloads.no_span)
        results.append((traced, r))
    return results, tracer


def median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(passed, setup) -> dict:
    return {
        "setup_s": median(setup),
        "job_s": median([r.job_s for r in passed]),
        "simulate_s": median([r.simulate_s for r in passed]),
        "analyze_s": median([r.analyze_s for r in passed]),
        "events_per_s": median([r.events / r.job_s for r in passed]),
        "fits_per_s": median([r.fits / r.job_s for r in passed]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ptst_mb": median([r.ptst_mb for r in passed]),
    }


def job_sums(tracer) -> dict:
    """Per job: each span's summed duration and counts as <span>.<quantity>,
    the job span's duration, the run_pipeline self time, and the share of
    the job that the self times of the spans below the job span cover."""
    per_job = collections.defaultdict(lambda: collections.defaultdict(float))
    for span, own in zip(tracer.spans, tracer.self_times()):
        m = per_job[span.job]
        if span.name == "bench.job":
            m["bench.job.s"] = span.duration
            continue
        m["covered_s"] += own
        if span.name == "pipeline.run_pipeline":
            m["pipeline.run_pipeline.self_s"] += own
            continue
        for q, v in [("s", span.duration), *span.counts.items()]:
            m[f"{span.name}.{q}"] += v
    for m in per_job.values():
        m["bench.job.span_coverage"] = m["covered_s"] / m["bench.job.s"]
        for name, (num, den, _) in RATE_METRICS.items():
            m[name] = m[num] / m[den] if m[den] else 0.0
    return per_job


def per_layer_metrics(results, tracer) -> dict:
    """Medians over the passing traced jobs of their span sums, and the
    tracing overhead against the untraced jobs. Probe metrics read 0 here
    and are filled in by the probes."""
    sums = job_sums(tracer)
    jobs = [sums[j] for j, (traced, r) in enumerate(results)
            if traced and r.ok]
    out = {name: median([m[name] for m in jobs]) for name in PER_LAYER}
    untraced = [r.job_s for traced, r in results if not traced and r.ok]
    out["bench.job.tracing_overhead"] = (
        out["bench.job.s"] / median(untraced) - 1.0 if untraced else 0.0)
    return out


def fit_ensemble_probe(seed: int, scale: float) -> tuple[dict, int, int]:
    """Run the fit ensemble a few times, traced, and report its span sums,
    its fits per second, and the fit_multiexp bias at each count level."""
    import workloads
    from tracing import Tracer, installed
    inputs = workloads.fit_setup(seed, scale, "")
    tracer = Tracer()
    results = []
    with installed(tracer):
        for j in range(ENSEMBLE_JOBS):
            tracer.job = j
            results.append(workloads.fit_job(inputs, tracer.span))
    sums = job_sums(tracer)
    ok = [j for j, r in enumerate(results) if r.ok]
    metrics = {f"{span}.ensemble_{q}": median([sums[j][f"{span}.{q}"] for j in ok])
               for span, qs in ENSEMBLE_METRICS.items() for q in qs}
    metrics["bench.fit_ensemble.fits_per_s"] = median(
        [results[j].fits / results[j].job_s for j in ok])
    for level, pulls in results[0].pulls.items():
        name = f"fit.fit_multiexp.bias_sigma_1e{round(math.log10(level))}"
        metrics[name] = abs(float(statistics.mean(pulls)))
    failed = sum(r.failed for r in results)
    if len({r.fingerprint for r in results}) > 1:
        failed += 1
    return metrics, sum(r.attempted for r in results), failed


def run_probes(seed: int, scale: float) -> tuple[dict, int, int]:
    """Probes that every traced run reports after its jobs: the fit
    ensemble and the workers=2 speed-up. Returns (metrics, attempted,
    failed)."""
    import workloads
    metrics, attempted, failed = {}, 0, 0
    for probe in (fit_ensemble_probe, workloads.worker_speedup_probe):
        values, n, bad = probe(seed, scale)
        metrics.update(values)
        attempted += n
        failed += bad
    return metrics, attempted, failed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["pulsed_sync", "cw_blinking"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="data-volume factor; below 1 only for smoke tests")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    return p.parse_args(argv)


def run_benchmark(args) -> dict:
    """One run: set up, loop jobs, check, and reduce to metrics."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        own, (inputs, job) = timed_setup(args.workload, args.seed, args.scale,
                                         workdir)
        setup = [] if args.trace else setup_samples(args, own)
        results, tracer = run_jobs(job, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for _, r in results)
    failed = sum(r.failed for _, r in results)
    problems = [p for _, r in results for p in r.problems]

    if args.trace:
        probes, p_attempted, p_failed = run_probes(args.seed, args.scale)
        attempted += p_attempted
        failed += p_failed
        if len({r.fingerprint for _, r in results if r.ok}) > 1:
            failed += 1
            problems.append("traced and untraced jobs gave different results")
        ok = any(traced and r.ok for traced, r in results)
        metrics = {**per_layer_metrics(results, tracer), **probes} if ok else {}
        tracer.dump(os.path.join(
            WORK, f"spans-{args.workload}-seed{args.seed}.json"))
        units = PER_LAYER
    else:
        passed = [r for _, r in results if r.ok]
        metrics = end_to_end_metrics(passed, setup) if passed else {}
        units = END_TO_END
    return {"results": results, "attempted": attempted, "failed": failed,
            "problems": problems, "metrics": metrics, "units": units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "photonkit", "__init__.py")):
        print(f"photonkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(timed_setup(args.workload, args.seed, args.scale, WORK)[0])
        return 0

    out = run_benchmark(args)
    attempted, failed = out["attempted"], out["failed"]
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# job_s per job: " + " ".join(
        f"{r.job_s:.3f}{'t' if traced else ''}" for traced, r in out["results"]),
        file=sys.stderr)
    env = environment()
    print(f"# {args.workload} seed={args.seed} jobs={len(out['results'])} "
          f"nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} ptst read={env['ptst_read']}")
    metrics, units = out["metrics"], out["units"]
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
