"""Command line interface for the benchmark harness.

Subcommands: solve (one OCP), sweep (the full method/sens/N grid), lowtol
(short control interval at tight tolerances), and report (re-emit a saved
JSON stats table). Flags override values from an optional config file.
Exit codes: 0 success (even with non-converged rows), 2 configuration
error, 3 I/O error.
"""

import argparse
import sys

from .bench import (METHODS, SENS_MODES, SWEEP_N, config_from, emit_report,
                    parse_config_file, run_low_tol_experiment, run_single,
                    run_sweep, stats_from_json, stats_to_csv, stats_to_json)
from .errors import ConfigError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esdirkopt",
        description="ESDIRK/IND sensitivity benchmark on the quadruple "
                    "tank optimal control problem")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_run_flags=True):
        if with_run_flags:
            p.add_argument("--method", choices=METHODS,
                           help="integration method")
            p.add_argument("--sens", choices=SENS_MODES,
                           help="sensitivity computation mode")
            p.add_argument("--steps", type=int, metavar="N",
                           help="integration steps per control interval")
            p.add_argument("--ts", type=float, help="control interval [s]")
            p.add_argument("--nc", type=int, help="number of control intervals")
            p.add_argument("--tol-sqp", type=float, help="SQP KKT tolerance")
            p.add_argument("--tol-qp", type=float, help="QP tolerance")
            p.add_argument("--tol-step", type=float,
                           help="line search step tolerance")
            p.add_argument("--abs", type=float, help="Newton absolute tolerance")
            p.add_argument("--rel", type=float, help="Newton relative tolerance")
            p.add_argument("--tau", type=float, help="Newton accuracy factor")
            p.add_argument("--config", metavar="FILE",
                           help="key = value configuration file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format (default csv)")
        p.add_argument("--no-walltime", action="store_true",
                       help="omit the wall_time column")

    p_solve = sub.add_parser("solve", help="solve a single OCP")
    add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="run the full benchmark sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel worker processes (default 1)")

    p_low = sub.add_parser("lowtol", help="run the low-tolerance experiment")
    add_common(p_low)
    p_low.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="parallel worker processes (default 1)")

    p_rep = sub.add_parser("report", help="re-emit a saved JSON stats table")
    p_rep.add_argument("stats_file", help="JSON stats table to read")
    add_common(p_rep, with_run_flags=False)
    return parser


#: CLI flag -> RunConfig field for the scalar overrides
_OVERRIDES = (("method", "method"), ("sens", "sens"), ("steps", "N"),
              ("ts", "Ts"), ("nc", "Nc"), ("tol_sqp", "tol_sqp"),
              ("tol_qp", "tol_qp"), ("tol_step", "tol_step"),
              ("abs", "abs"), ("rel", "rel"), ("tau", "tau"))


def config_from_args(args):
    """RunConfig from the optional config file plus flag overrides."""
    values = parse_config_file(args.config) if args.config else {}
    config = config_from(values)
    for flag, field in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, field, value)
    config.validate()
    return config


def _emit(stats, args):
    include_walltime = not args.no_walltime
    render = stats_to_csv if args.format == "csv" else stats_to_json
    sys.stdout.write(render(stats, include_walltime))
    if args.out:
        emit_report(stats, args.out, args.format, include_walltime)


def cmd_solve(args):
    config = config_from_args(args)
    stats = run_single(config, out_dir=args.out)
    _emit([stats], args)
    return 0


def cmd_sweep(args):
    config = config_from_args(args)
    stats = run_sweep(config, n_list=SWEEP_N, jobs=args.jobs)
    _emit(stats, args)
    return 0


def cmd_lowtol(args):
    config = config_from_args(args)
    stats = run_low_tol_experiment(config, jobs=args.jobs)
    _emit(stats, args)
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
    handler = {"solve": cmd_solve, "sweep": cmd_sweep,
               "lowtol": cmd_lowtol, "report": cmd_report}[args.command]
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
