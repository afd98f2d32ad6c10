"""Command line interface for the benchmark harness.

Subcommands: solve (one OCP), sweep (the full method/sens/N grid), lowtol
(short control interval at tight tolerances), and report (re-emit a saved
JSON stats table). A run command takes a flag, or a key in an optional
config file, only for the RunConfig fields it does not set itself
(``FIXED``); flags override the file, and a config key for a field the
command sets is a configuration error.
Exit codes: 0 success (even with non-converged rows), 2 configuration
error, 3 I/O error.
"""

import argparse
import sys

from .bench import (LOW_TOL, METHODS, SENS_MODES, SWEEP_FIELDS, config_from,
                    emit_report, parse_config_file, run_low_tol_experiment,
                    run_single, run_sweep, stats_from_json, stats_to_csv,
                    stats_to_json)
from .errors import ConfigError

#: (flag, RunConfig field, argparse options, help) of every run flag
RUN_FLAGS = (
    ("--method", "method", {"choices": METHODS}, "integration method"),
    ("--sens", "sens", {"choices": SENS_MODES},
     "sensitivity computation mode"),
    ("--steps", "N", {"type": int, "metavar": "N"},
     "integration steps per control interval"),
    ("--ts", "Ts", {"type": float}, "control interval [s]"),
    ("--nc", "Nc", {"type": int}, "number of control intervals"),
    ("--tol-sqp", "tol_sqp", {"type": float}, "SQP KKT tolerance"),
    ("--tol-qp", "tol_qp", {"type": float}, "QP tolerance"),
    ("--tol-step", "tol_step", {"type": float},
     "line search step tolerance"),
    ("--abs", "abs", {"type": float}, "Newton absolute tolerance"),
    ("--rel", "rel", {"type": float}, "Newton relative tolerance"),
    ("--tau", "tau", {"type": float}, "Newton accuracy factor"),
)

#: the RunConfig fields that each run command sets itself
FIXED = {"solve": (), "sweep": SWEEP_FIELDS,
         "lowtol": SWEEP_FIELDS + tuple(LOW_TOL)}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esdirkopt",
        description="ESDIRK/IND sensitivity benchmark on the quadruple "
                    "tank optimal control problem")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format (default csv)")
        p.add_argument("--no-walltime", action="store_true",
                       help="omit the wall_time column")

    for command, text in (("solve", "solve a single OCP"),
                          ("sweep", "run the full benchmark sweep"),
                          ("lowtol", "run the low-tolerance experiment")):
        p = sub.add_parser(command, help=text)
        for flag, name, options, flag_help in RUN_FLAGS:
            if name not in FIXED[command]:
                p.add_argument(flag, dest=name, help=flag_help, **options)
        p.add_argument("--config", metavar="FILE",
                       help="key = value configuration file")
        add_output(p)
        if command != "solve":
            p.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="parallel worker processes (default 1)")

    p_rep = sub.add_parser("report", help="re-emit a saved JSON stats table")
    p_rep.add_argument("stats_file", help="JSON stats table to read")
    add_output(p_rep)
    return parser


def config_from_args(args):
    """RunConfig from the optional config file plus flag overrides."""
    values = parse_config_file(args.config) if args.config else {}
    fixed = sorted(set(values) & set(FIXED[args.command]))
    if fixed:
        raise ConfigError(f"{args.config}: {', '.join(fixed)}: set by the "
                          f"{args.command} command")
    for _, name, _, _ in RUN_FLAGS:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    return config_from(values)


def _emit(stats, args):
    include_walltime = not args.no_walltime
    render = stats_to_csv if args.format == "csv" else stats_to_json
    sys.stdout.write(render(stats, include_walltime))
    if args.out:
        emit_report(stats, args.out, args.format, include_walltime)


#: the rows each run command produces from its RunConfig
RUNNERS = {
    "solve": lambda config, args: [run_single(config, out_dir=args.out)],
    "sweep": lambda config, args: run_sweep(config, jobs=args.jobs),
    "lowtol": lambda config, args: run_low_tol_experiment(config,
                                                          jobs=args.jobs),
}


def cmd_run(args):
    _emit(RUNNERS[args.command](config_from_args(args), args), args)
    return 0


def cmd_report(args):
    try:
        with open(args.stats_file) as fh:
            stats = stats_from_json(fh.read())
    except OSError as exc:
        raise OSError(f"cannot read {args.stats_file}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad stats table {args.stats_file}: {exc}") from exc
    if not stats:
        raise ConfigError(f"empty stats table {args.stats_file}")
    _emit(stats, args)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = cmd_report if args.command == "report" else cmd_run
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
