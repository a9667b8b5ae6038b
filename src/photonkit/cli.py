"""Command-line interface.

Subcommands cover the full workflow: ``simulate`` writes synthetic
timestamp files, ``correlate``/``lifetime``/``blink`` run the individual
analyses on a timestamp file, ``fit`` refits an exported histogram CSV,
and ``pipeline`` executes a JSON job description end to end.

The simulate and analysis subcommands map their flags onto job-config
keys and call the stage functions of ``photonkit.pipeline``; an unset
flag takes the same default a JSON job would.

Option precedence is defaults, then command-line flags, then values from
a ``--config`` JSON file, which override flags by design so a saved
config fully pins an analysis. Output files land in ``--outdir`` (or the
``PHOTONKIT_OUTDIR`` environment variable) unless given absolute.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (PS_PER_NS, CoincidenceHistogram, DecayHistogram,
                   Measurement, _span, ns_to_ps)
from .fileio import TimestampFileError, export_histogram_csv, read_histogram_csv
from .pipeline import (
    _section,
    run_blinking,
    run_correlate,
    run_decay_histogram,
    run_g2_fit,
    run_intensity_trace,
    run_lifetime,
    run_load,
    run_pipeline,
    run_simulate,
)

__all__ = ["main", "build_parser"]


def _outdir(args) -> str:
    outdir = args.outdir or os.environ.get("PHOTONKIT_OUTDIR") or "."
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _apply_config(args, parser):
    """Overlay values from a JSON config file onto parsed flags."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as f:
        overrides = json.load(f)
    if not isinstance(overrides, dict):
        parser.error(f"config file {args.config} must hold a JSON object")
    valid = set(vars(args)) - {"config", "command", "func"}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in valid:
            parser.error(
                f"config key {key!r} does not match any {args.command} option")
        setattr(args, dest, value)
    return args


def _given(**keys) -> dict:
    """Job-config keys for the flags that were set. An unset flag is None
    and is left out, so the stage or model default applies."""
    return {k: v for k, v in keys.items() if v is not None}


def _print_fit(result: dict) -> None:
    """Print a g2 or lifetime stage result."""
    for name, m in result["fit"].items():
        print(f"{name} = {Measurement(**m)}")
    print(f"chi2_reduced = {result['chi2_reduced']:.4g}")
    if "g2_at_dip" in result:
        print(f"g2(tau0) = {result['g2_at_dip']}")
        print(f"verdict = {result['verdict'].value}")
    else:
        print(f"tau_avg_ns = {result['tau_avg_ns']}")
    if not result["converged"]:
        print("warning: fit did not converge", file=sys.stderr)
    for flag in result["flags"]:
        print(f"flag: {flag}", file=sys.stderr)
    if result.get("discarded"):
        print(f"{result['discarded']} photons outside the sync window",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    period_ps = (None if args.period is None
                 else _span(PS_PER_NS)(args.period, "--period"))
    blinking = _given(kind=args.blinking, alpha_on=args.alpha,
                      alpha_off=args.alpha,
                      off_emission_rate_per_ms=args.background_per_ms)
    config = _given(
        seed=args.seed, duration_s=args.duration_s, workers=args.workers,
        output=args.output,
        emitter=_given(lifetime_ns=args.lifetime_ns, blinking=blinking),
        excitation=_given(
            mode=args.mode, cw_rate_per_s=args.rate_per_s,
            pulse_period_ps=period_ps,
            excitation_probability=args.excitation_probability),
        detector=_given(
            efficiency=args.efficiency, dark_rate_per_ms=args.dark_rate_per_ms,
            jitter_sigma_ps=args.jitter_ps, dead_time_ps=args.dead_time_ps))
    result, _ = run_simulate(config, _outdir(args))
    counts, rates = result["counts"], result["rates_per_ms"]
    print(f"wrote {result['records']} records to {result['output']}")
    for ch in (0, 1):
        print(f"channel {ch}: {counts[f'channel_{ch}']} events "
              f"({rates[f'channel_{ch}']:.2f}/ms)")
    if counts["sync"]:
        print(f"sync: {counts['sync']} pulses")
    return 0


def cmd_correlate(args) -> int:
    config = _given(
        input=args.input, duration_ps=args.duration_ps, workers=args.workers,
        correlation=_given(window_ns=args.window, bin_width_ps=args.bin_width,
                           period_ns=args.period, n_side=args.n_side,
                           csv=args.output))
    corr = _section(config, "correlation")  # refused before any file is read
    _, streams = run_load(config)
    hist = run_correlate(streams, config)
    print(f"{int(hist.counts.sum())} pairs in {hist.n_bins} bins")
    if args.fit == "none":
        path = os.path.join(_outdir(args), corr["csv"])
        export_histogram_csv(hist, path)
    else:
        kind = "g2cw" if args.fit == "cw" else "g2pw"
        result = run_g2_fit(kind, hist, streams, config, _outdir(args))
        _print_fit(result)
        path = result["csv"]
    print(f"histogram written to {path}")
    return 0


def cmd_lifetime(args) -> int:
    config = _given(
        input=args.input, duration_ps=args.duration_ps, workers=args.workers,
        lifetime=_given(bin_width_ps=args.bin_width, period_ns=args.period,
                        n_components=args.components, csv=args.output))
    _, streams = run_load(config)
    result = run_lifetime(run_decay_histogram(streams, config), config,
                          _outdir(args))
    _print_fit(result)
    print(f"histogram written to {result['csv']}")
    return 0


def cmd_blink(args) -> int:
    config = _given(
        input=args.input, duration_ps=args.duration_ps, workers=args.workers,
        blinking=_given(threshold_per_ms=args.threshold,
                        bin_width_ms=args.bin_ms,
                        min_dwell_ms=args.min_dwell_ms,
                        tau_min_ms=args.tau_min_ms))
    _, streams = run_load(config)
    res = run_blinking(run_intensity_trace(streams, config), config)
    print(f"threshold = {res['threshold_per_ms']:g} counts/ms")
    print(f"on dwells = {res['n_on_dwells']}, "
          f"off dwells = {res['n_off_dwells']}")
    for state in ("on", "off"):
        alpha = res[f"alpha_{state}"]
        if alpha is None:
            print(f"{state}: too few dwells to characterize")
        else:
            print(f"{state}: alpha = {alpha}, model = {res[f'model_{state}']}")
    print(f"mean rates: on {res['mean_on_rate_per_ms']:.2f}/ms, "
          f"off {res['mean_off_rate_per_ms']:.2f}/ms")
    return 0


def cmd_fit(args) -> int:
    columns = read_histogram_csv(args.input)
    centers = columns.get("bin_center_ns")
    counts = columns.get("count")
    if centers is None or counts is None:
        raise ValueError(
            "fit needs a raw histogram CSV with bin_center_ns,count columns")
    if centers.size < 2:
        raise ValueError("histogram CSV has fewer than 2 rows")
    bin_ps = ns_to_ps(centers[1] - centers[0])
    # Read by the flag's name for every model; the g2 fits then take the
    # same value as their job key.
    period_ps = (None if args.period is None
                 else _span(PS_PER_NS)(args.period, "--period"))
    if args.model in ("cw", "pulsed"):
        window_ps = int(round(-centers[0] * PS_PER_NS + bin_ps / 2.0))
        hist = CoincidenceHistogram(bin_ps, window_ps, counts)
        config = {"correlation": _given(period_ns=args.period,
                                        n_side=args.n_side)}
        kind = "g2cw" if args.model == "cw" else "g2pw"
        _print_fit(run_g2_fit(kind, hist, {}, config))
    else:
        if period_ps is None:
            period_ps = int(round(centers[-1] * PS_PER_NS + bin_ps / 2.0))
        hist = DecayHistogram(bin_ps, period_ps, counts)
        config = {"lifetime": _given(n_components=args.components)}
        _print_fit(run_lifetime(hist, config))
    return 0


def cmd_pipeline(args) -> int:
    with open(args.job) as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValueError(f"job file {args.job} must hold a JSON object")
    doc = run_pipeline(config, base_dir=_outdir(args))
    path = os.path.join(_outdir(args), args.output)
    doc.write(path)
    print(f"report written to {path}")
    for err in doc.errors:
        where = ":".join(str(err[k]) for k in ("stage", "code") if k in err)
        print(f"error[{where}]: {err['message']}", file=sys.stderr)
    return 0 if doc.ok else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--outdir", default=None,
        help="output directory (default: $PHOTONKIT_OUTDIR or current)")
    overridable = argparse.ArgumentParser(add_help=False)
    overridable.add_argument(
        "--config", default=None, metavar="JSON",
        help="JSON file whose values override command-line flags")
    reader = argparse.ArgumentParser(add_help=False)
    reader.add_argument("input", help="binary timestamp file")
    reader.add_argument("--duration-ps", type=int)
    reader.add_argument("--workers", type=int)

    parser = argparse.ArgumentParser(
        prog="photonkit",
        description="Photon correlation analysis for single-emitter "
                    "characterization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common, overridable],
                       help="generate a synthetic timestamp file")
    p.add_argument("--mode", choices=["cw", "pulsed"])
    p.add_argument("--duration-s", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--lifetime-ns", type=float)
    p.add_argument("--rate-per-s", type=float,
                   help="CW excitation rate (1/s)")
    p.add_argument("--period", type=float,
                   help="pulse period in ns (pulsed mode)")
    p.add_argument("--excitation-probability", type=float)
    p.add_argument("--efficiency", type=float)
    p.add_argument("--dark-rate-per-ms", type=float)
    p.add_argument("--jitter-ps", type=float)
    p.add_argument("--dead-time-ps", type=int)
    p.add_argument("--blinking",
                   choices=["none", "power_law", "two_state_exponential"])
    p.add_argument("--alpha", type=float,
                   help="power-law exponent for both states")
    p.add_argument("--background-per-ms", type=float,
                   help="uncorrelated background in counts/ms")
    p.add_argument("--workers", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", parents=[common, overridable, reader],
                       help="cross-correlate the two detector channels")
    p.add_argument("--window", type=float, help="half-window in ns")
    p.add_argument("--bin-width", type=int, help="bin width in ps")
    p.add_argument("--fit", choices=["none", "cw", "pulsed"], default="none")
    p.add_argument("--period", type=float,
                   help="pulse period in ns when the file has no sync channel")
    p.add_argument("--n-side", type=int,
                   help="side peaks per side in the pulsed fit")
    p.add_argument("-o", "--output", default="g2.csv")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("lifetime", parents=[common, overridable, reader],
                       help="sync-referenced decay histogram and fit")
    p.add_argument("--bin-width", type=int, help="bin width in ps")
    p.add_argument("--period", type=float,
                   help="pulse period in ns when the file has no sync channel")
    p.add_argument("--components", type=int)
    p.add_argument("-o", "--output", default="decay.csv")
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("blink", parents=[common, overridable, reader],
                       help="intensity thresholding and dwell statistics")
    p.add_argument("--threshold", type=float,
                   help="ON/OFF threshold in counts/ms")
    p.add_argument("--bin-ms", type=float, help="intensity bin width in ms")
    p.add_argument("--min-dwell-ms", type=float)
    p.add_argument("--tau-min-ms", type=float)
    p.set_defaults(func=cmd_blink)

    p = sub.add_parser("fit", parents=[common, overridable],
                       help="refit an exported histogram CSV")
    p.add_argument("input", help="histogram CSV with bin_center_ns,count")
    p.add_argument("--model", choices=["cw", "pulsed", "decay"],
                   required=True)
    p.add_argument("--period", type=float, help="pulse period in ns")
    p.add_argument("--components", type=int)
    p.add_argument("--n-side", type=int)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("pipeline", parents=[common],
                       help="run a JSON job end to end and write a report")
    p.add_argument("job", help="JSON job description")
    p.add_argument("-o", "--output", default="report.json")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args, parser)
    try:
        return args.func(args)
    except (OSError, ValueError, TimestampFileError) as e:
        code = getattr(e, "code", None)
        where = f"[{code}]" if code is not None else ""
        print(f"error{where}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
