"""Command-line interface.

``simulate``, ``correlate``, ``lifetime`` and ``blink`` each run one job
with ``pipeline.run_pipeline``. Each of their flags is one row of
``_FLAGS``: its names, its argparse options and the job-config keys it
sets, so a new flag is one row there (and one row in the README's flag
table). A flag left unset takes the job's default. ``fit`` refits what
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
from .pipeline import (_KEYS, _out_path, _section, run_g2_fit, run_lifetime,
                       run_pipeline)

__all__ = ["main", "build_parser"]

# The one-job subcommands: their help, and the job each runs, "simulate"
# or an analysis; ``correlate`` runs the analysis of its ``--fit``.
_JOBS = {
    "simulate": ("generate a synthetic timestamp file", "simulate"),
    "correlate": ("cross-correlate the two detector channels", None),
    "lifetime": ("sync-referenced decay histogram and fit", "lifetime"),
    "blink": ("intensity thresholding and dwell statistics", "blinking"),
}
# The analysis of each g2 fit, as ``correlate --fit`` and ``fit --model``
# name it.
_G2_FITS = {"none": "g2", "cw": "g2cw", "pulsed": "g2pw"}


def _period_flag(ns):
    """``--period`` (ns) in whole ps, refused by the flag's name, or None."""
    return None if ns is None else _span(PS_PER_NS)(ns, "--period")


# Each flag of the one-job subcommands, in help order: the subcommands
# that take it, its names, the job keys it sets (by path; ``--fit`` sets
# none), its argparse options and, for simulate's ``--period``, what turns
# its value into the key's.
_FLAGS = (
    ("simulate", "--mode", "excitation.mode", dict(choices=["cw", "pulsed"])),
    ("simulate", "--duration-s", "duration_s", dict(type=float)),
    ("simulate", "--seed", "seed", dict(type=int)),
    ("simulate", "--lifetime-ns", "emitter.lifetime_ns", dict(type=float)),
    ("simulate", "--rate-per-s", "excitation.cw_rate_per_s",
     dict(type=float, help="CW excitation rate (1/s)")),
    ("simulate", "--period", "excitation.pulse_period_ps",
     dict(type=float, help="pulse period in ns (pulsed mode)"), _period_flag),
    ("simulate", "--excitation-probability",
     "excitation.excitation_probability", dict(type=float)),
    ("simulate", "--efficiency", "detector.efficiency", dict(type=float)),
    ("simulate", "--dark-rate-per-ms", "detector.dark_rate_per_ms",
     dict(type=float)),
    ("simulate", "--jitter-ps", "detector.jitter_sigma_ps", dict(type=float)),
    ("simulate", "--dead-time-ps", "detector.dead_time_ps", dict(type=int)),
    ("simulate", "--blinking", "emitter.blinking.kind",
     dict(choices=["none", "power_law", "two_state_exponential"])),
    ("simulate", "--alpha",
     "emitter.blinking.alpha_on emitter.blinking.alpha_off",
     dict(type=float, help="power-law exponent for both states")),
    ("simulate", "--background-per-ms",
     "emitter.blinking.off_emission_rate_per_ms",
     dict(type=float, help="uncorrelated background in counts/ms")),
    ("correlate lifetime blink", "input", "input",
     dict(help="binary timestamp file")),
    ("correlate lifetime blink", "--duration-ps", "duration_ps",
     dict(type=int)),
    ("simulate correlate lifetime blink", "--workers", "workers",
     dict(type=int)),
    ("simulate", "-o --output", "output", {}),
    ("correlate", "--window", "correlation.window_ns",
     dict(type=float, help="half-window in ns")),
    ("correlate", "--bin-width", "correlation.bin_width_ps",
     dict(type=int, help="bin width in ps")),
    ("correlate", "--fit", "", dict(choices=list(_G2_FITS), default="none")),
    ("correlate", "--period", "correlation.period_ns",
     dict(type=float,
          help="pulse period in ns when the file has no sync channel")),
    ("correlate", "--n-side", "correlation.n_side",
     dict(type=int, help="side peaks per side in the pulsed fit")),
    ("correlate", "-o --output", "correlation.csv", dict(default="g2.csv")),
    ("lifetime", "--bin-width", "lifetime.bin_width_ps",
     dict(type=int, help="bin width in ps")),
    ("lifetime", "--period", "lifetime.period_ns",
     dict(type=float,
          help="pulse period in ns when the file has no sync channel")),
    ("lifetime", "--components", "lifetime.n_components", dict(type=int)),
    ("lifetime", "-o --output", "lifetime.csv", dict(default="decay.csv")),
    ("blink", "--threshold", "blinking.threshold_per_ms",
     dict(type=float, help="ON/OFF threshold in counts/ms")),
    ("blink", "--bin-ms", "blinking.bin_width_ms",
     dict(type=float, help="intensity bin width in ms")),
    ("blink", "--min-dwell-ms", "blinking.min_dwell_ms", dict(type=float)),
    ("blink", "--tau-min-ms", "blinking.tau_min_ms", dict(type=float)),
)


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
            if alpha is None:  # too few dwells, or the estimator refused
                print(f"{state}: {res[f'reason_{state}']}")
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


def _run_job(args) -> int:
    """Run a one-job subcommand's job: each flag that was set gives its
    value to the job keys of its ``_FLAGS`` row, and an unset one (None)
    leaves them to the job's default. Print the job's result or error."""
    name = args.job or _G2_FITS[args.fit]
    config = ({"mode": "simulate"} if name == "simulate"
              else {"mode": "analyze", "analyses": [name]})
    for commands, names, keys, _, *to_job in _FLAGS:
        if args.command not in commands.split():
            continue
        # argparse's dest: the last name, without dashes
        value = getattr(args, names.split()[-1].lstrip("-").replace("-", "_"))
        if value is not None:
            value = to_job[0](value) if to_job else value
            for key in keys.split():
                *parents, last = key.split(".")
                node = config
                for part in parents:
                    node = node.setdefault(part, {})
                node[last] = value
    for section in config.keys() & _KEYS.keys():
        _section(config, section)  # refused before any file is read
    doc = run_pipeline(config, base_dir=_outdir(args))
    _print_errors(doc.errors)
    if doc.ok:
        _print_result(name, doc.results[name])
    return 0 if doc.ok else 1


def cmd_fit(args) -> int:
    # Read by the flag's name for every model, then refused, not ignored,
    # where the model does not read it.
    period_ps = _period_flag(args.period)
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
               run_g2_fit(_G2_FITS[args.model], hist, {}, config))
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

    parser = argparse.ArgumentParser(
        prog="photonkit",
        description="Photon correlation analysis for single-emitter "
                    "characterization")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, job) in _JOBS.items():
        p = sub.add_parser(command, parents=[common, overridable],
                           help=summary)
        for commands, names, _, options, *_ in _FLAGS:
            if command in commands.split():
                p.add_argument(*names.split(), **options)
        p.set_defaults(func=_run_job, parser=p, job=job)

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
