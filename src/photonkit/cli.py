"""Command-line interface.

``simulate``, ``correlate``, ``lifetime`` and ``blink`` each map their
flags onto job-config keys (an unset flag takes the job's default) and
run that one job with ``pipeline.run_pipeline``; ``fit`` refits what
``fileio.histogram_from_csv`` reads back; ``pipeline`` runs a JSON job.

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

from .core import PS_PER_NS, DecayHistogram, Measurement, _path, _span
from .fileio import TimestampFileError, histogram_from_csv
from .pipeline import (_out_path, _section, run_g2_fit, run_lifetime,
                       run_pipeline)

__all__ = ["main", "build_parser"]


def _outdir(args) -> str:
    outdir = args.outdir or os.environ.get("PHOTONKIT_OUTDIR") or "."
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _read_json(path: str, what: str):
    """Load a JSON file; a decode error names the file it came from."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{e} in {what} {path}") from None


def _apply_config(args, parser):
    """Overlay values from a JSON config file onto parsed flags, refusing
    a key that names no option and a value outside its option's choices."""
    if not getattr(args, "config", None):
        return args
    overrides = _read_json(args.config, "--config")
    if not isinstance(overrides, dict):
        parser.error(f"config file {args.config} must hold a JSON object")
    actions = {a.dest: a for a in args.parser._actions
               if a.dest not in ("help", "config")}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            parser.error(
                f"config key {key!r} does not match any {args.command} option")
        if action.choices and value not in action.choices:
            parser.error(f"config key {key!r} must be one of "
                         f"{action.choices}, got {value!r}")
        setattr(args, action.dest, value)
    return args


def _given(**keys) -> dict:
    """Job-config keys for the flags that were set. An unset flag is None
    and is left out, so the stage or model default applies."""
    return {k: v for k, v in keys.items() if v is not None}


def _print_errors(errors, keys=("code",)) -> None:
    """Print error entries as ``error[<keys>]: message``, or ``error:``."""
    for err in errors:
        where = ":".join(str(err[k]) for k in keys if err.get(k) is not None)
        print(f"error{f'[{where}]' if where else ''}: {err['message']}",
              file=sys.stderr)


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


def _print_result(name: str, res: dict) -> None:
    """Print the report entry ``res`` of the source or analysis ``name``."""
    if name == "simulate":
        counts, rates = res["counts"], res["rates_per_ms"]
        print(f"wrote {res['records']} records to {res['output']}")
        for ch in (0, 1):
            print(f"channel {ch}: {counts[f'channel_{ch}']} events "
                  f"({rates[f'channel_{ch}']:.2f}/ms)")
        if counts["sync"]:
            print(f"sync: {counts['sync']} pulses")
    elif name == "blinking":
        print(f"threshold = {res['threshold_per_ms']:g} counts/ms")
        print(f"on dwells = {res['n_on_dwells']}, "
              f"off dwells = {res['n_off_dwells']}")
        for state in ("on", "off"):
            alpha = res[f"alpha_{state}"]
            if alpha is None:
                print(f"{state}: too few dwells to characterize")
            else:
                print(f"{state}: alpha = {alpha}, "
                      f"model = {res[f'model_{state}']}")
        print(f"mean rates: on {res['mean_on_rate_per_ms']:.2f}/ms, "
              f"off {res['mean_off_rate_per_ms']:.2f}/ms")
    else:
        if "n_pairs" in res:
            print(f"{res['n_pairs']} pairs in {res['n_bins']} bins")
        if "fit" in res:
            _print_fit(res)
        print(f"histogram written to {res['csv']}")


def _run_job(args, name: str, **keys) -> int:
    """Run the source or analysis ``name`` alone, as a job of ``keys`` and
    of an analysis's reader flags; print its result or its error."""
    if name == "simulate":
        config = {"mode": "simulate", **keys}
    else:
        config = _given(mode="analyze", analyses=[name], input=args.input,
                        duration_ps=args.duration_ps, workers=args.workers,
                        **keys)
        for section in keys:  # refused before any file is read
            _section(config, section)
    doc = run_pipeline(config, base_dir=_outdir(args))
    _print_errors(doc.errors)
    if doc.ok:
        _print_result(name, doc.results[name])
    return 0 if doc.ok else 1


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    period_ps = (None if args.period is None
                 else _span(PS_PER_NS)(args.period, "--period"))
    blinking = _given(kind=args.blinking, alpha_on=args.alpha,
                      alpha_off=args.alpha,
                      off_emission_rate_per_ms=args.background_per_ms)
    return _run_job(args, "simulate", **_given(
        seed=args.seed, duration_s=args.duration_s,
        workers=args.workers, output=args.output,
        emitter=_given(lifetime_ns=args.lifetime_ns, blinking=blinking),
        excitation=_given(
            mode=args.mode, cw_rate_per_s=args.rate_per_s,
            pulse_period_ps=period_ps,
            excitation_probability=args.excitation_probability),
        detector=_given(
            efficiency=args.efficiency, dark_rate_per_ms=args.dark_rate_per_ms,
            jitter_sigma_ps=args.jitter_ps, dead_time_ps=args.dead_time_ps)))


def cmd_correlate(args) -> int:
    name = {"none": "g2", "cw": "g2cw", "pulsed": "g2pw"}[args.fit]
    return _run_job(args, name, correlation=_given(
        window_ns=args.window, bin_width_ps=args.bin_width,
        period_ns=args.period, n_side=args.n_side, csv=args.output))


def cmd_lifetime(args) -> int:
    return _run_job(args, "lifetime", lifetime=_given(
        bin_width_ps=args.bin_width, period_ns=args.period,
        n_components=args.components, csv=args.output))


def cmd_blink(args) -> int:
    return _run_job(args, "blinking", blinking=_given(
        threshold_per_ms=args.threshold, bin_width_ms=args.bin_ms,
        min_dwell_ms=args.min_dwell_ms, tau_min_ms=args.tau_min_ms))


def cmd_fit(args) -> int:
    # Read by the flag's name for every model, then refused, not ignored,
    # where the model does not read it.
    period_ps = (None if args.period is None
                 else _span(PS_PER_NS)(args.period, "--period"))
    for dest in {"cw": ("period", "n_side", "components"),
                 "pulsed": ("components",), "decay": ("n_side",)}[args.model]:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} does not apply "
                             f"to --model {args.model}")
    hist = histogram_from_csv(
        args.input, period_ps if args.model == "decay" else None)
    if isinstance(hist, DecayHistogram) != (args.model == "decay"):
        raise ValueError(f"{args.input} holds a {type(hist).__name__}, "
                         f"which --model {args.model} does not fit")
    config = {"correlation": _given(period_ns=args.period, n_side=args.n_side),
              "lifetime": _given(n_components=args.components)}
    _print_fit(run_lifetime(hist, config) if args.model == "decay" else
               run_g2_fit({"cw": "g2cw", "pulsed": "g2pw"}[args.model],
                          hist, {}, config))
    return 0


def cmd_pipeline(args) -> int:
    output = _path(args.output, "-o")
    config = _read_json(args.job, "job file")
    if not isinstance(config, dict):
        raise ValueError(f"job file {args.job} must hold a JSON object")
    # Refused after a bad job file, which leaves no outdir behind, and
    # before the job runs.
    outdir = _outdir(args)
    path = _out_path(outdir, output, "-o")
    doc = run_pipeline(config, base_dir=outdir)
    doc.write(path)
    print(f"report written to {path}")
    _print_errors(doc.errors, ("stage", "code"))
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
    p.set_defaults(func=cmd_simulate, parser=p)

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
    p.set_defaults(func=cmd_correlate, parser=p)

    p = sub.add_parser("lifetime", parents=[common, overridable, reader],
                       help="sync-referenced decay histogram and fit")
    p.add_argument("--bin-width", type=int, help="bin width in ps")
    p.add_argument("--period", type=float,
                   help="pulse period in ns when the file has no sync channel")
    p.add_argument("--components", type=int)
    p.add_argument("-o", "--output", default="decay.csv")
    p.set_defaults(func=cmd_lifetime, parser=p)

    p = sub.add_parser("blink", parents=[common, overridable, reader],
                       help="intensity thresholding and dwell statistics")
    p.add_argument("--threshold", type=float,
                   help="ON/OFF threshold in counts/ms")
    p.add_argument("--bin-ms", type=float, help="intensity bin width in ms")
    p.add_argument("--min-dwell-ms", type=float)
    p.add_argument("--tau-min-ms", type=float)
    p.set_defaults(func=cmd_blink, parser=p)

    p = sub.add_parser("fit", parents=[common, overridable],
                       help="refit an exported histogram CSV")
    p.add_argument("input", help="histogram CSV with bin_center_ns,count")
    p.add_argument("--model", choices=["cw", "pulsed", "decay"],
                   required=True)
    p.add_argument("--period", type=float, help="pulse period in ns")
    p.add_argument("--components", type=int)
    p.add_argument("--n-side", type=int)
    p.set_defaults(func=cmd_fit, parser=p)

    p = sub.add_parser("pipeline", parents=[common],
                       help="run a JSON job end to end and write a report")
    p.add_argument("job", help="JSON job description")
    p.add_argument("-o", "--output", default="report.json")
    p.set_defaults(func=cmd_pipeline, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _apply_config(args, parser).func(args)
    except (OSError, ValueError, TimestampFileError) as e:
        _print_errors([{"message": str(e), "code": getattr(e, "code", None)}])
        return 1


if __name__ == "__main__":
    sys.exit(main())
