"""The esdirkopt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's round of ops from the seed, repeats the round back
to back in one process for about S seconds (a closed loop with one
client, no worker pool), checks every op's output outside the timed part,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones. With --trace 1 the rounds alternate untraced and traced,
and the metrics are the per-layer ones of the traced rounds, per round,
plus the tracing overhead.

The line before the result holds the machine block, the work digest and
the failures; the same, with per-op times, goes to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOADS = ("converge", "long-horizon", "ivp")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must lie in (0, 60]")
    return args


def import_program():
    """Import esdirkopt from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "esdirkopt" / "__init__.py").is_file():
        sys.exit(f"esdirkopt sources not found under {src}")
    sys.path.insert(0, str(src))
    import esdirkopt
    if Path(esdirkopt.__file__).resolve().parent != src / "esdirkopt":
        sys.exit(f"imported esdirkopt from {esdirkopt.__file__}, not {src}")


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be read."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_block():
    import numpy as np
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")}}


@dataclass
class Round:
    wall: float
    op_times: list
    op_cpu: list       # process CPU seconds of each op, BLAS threads included
    records: list      # deterministic fields of each op's output
    errors: list       # (op index, message)


def run_round(ops, tracer=None, first_op_id=0):
    """Run every op once, timed; then record and check the outputs."""
    outputs, times, cpus = [], [], []
    wall0 = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op_id + i
        c = process_time()
        t = perf_counter()
        try:
            out = op.run()
        except Exception as exc:   # a raising op is a failed op
            out = exc
        times.append(perf_counter() - t)
        cpus.append(process_time() - c)
        outputs.append(out)
    wall = perf_counter() - wall0
    records, errors = [], []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            records.append({"op": op.label, "raised": type(out).__name__})
            errors.append((i, f"{op.label}: raised {out!r}"))
            continue
        records.append(op.record(out))
        message = op.check(out)
        if message:
            errors.append((i, message))
    return Round(wall, times, cpus, records, errors), outputs


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds back to back: at least one, and another while that
    brings the expected run time closer to seconds.

    With a tracer the rounds alternate untraced and traced, starting
    untraced, with at least one of each. Returns the untraced rounds, the
    traced rounds and the raw outputs of the first round.
    """
    plain, traced, first_outputs = [], [], None
    start = perf_counter()
    while True:
        done = plain + traced
        if done and (tracer is None or traced) and (
                perf_counter() - start
                + statistics.mean(r.wall for r in done) / 2 > seconds):
            break
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.instrument(ops)
        try:
            r, outputs = run_round(ops, tracer if trace_this else None,
                                   len(done) * len(ops))
        finally:
            if trace_this:
                tracer.restore()
        (traced if trace_this else plain).append(r)
        if first_outputs is None:
            first_outputs = outputs
    return plain, traced, first_outputs


def op_medians(rounds, attr="op_times"):
    """Each op's median time over the rounds.

    The time metrics are built from these, so that a stall of the machine
    moves one sample of one op instead of a whole round or a percentile.
    """
    return [statistics.median(times)
            for times in zip(*(getattr(r, attr) for r in rounds))]


def digest(records):
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_rounds(ops, rounds, first_outputs):
    """Determinism across rounds and the first round's sampled
    finite-difference checks.

    Adds errors to the rounds in place.
    """
    for r in rounds[1:]:
        for i, (rec, ref) in enumerate(zip(r.records, rounds[0].records)):
            if rec != ref:
                r.errors.append((i, f"{ops[i].label}: work differs from "
                                    f"the first round"))
    for i, (op, out) in enumerate(zip(ops, first_outputs)):
        message = None if isinstance(out, Exception) else op.check_fd(out)
        if message:
            rounds[0].errors.append((i, message))


def time_setups(workload, seed):
    """Seconds of SETUP_REPEATS set-ups, each in a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload,
             str(seed)], capture_output=True, text=True, check=True,
            timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return times


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    setup_times = time_setups(args.workload, args.seed)
    setup_s = statistics.median(setup_times)
    ops = workloads.build_ops(args.workload, args.seed)
    workloads.warm_up(ops)

    tracer = tracing.Tracer() if args.trace else None
    rounds, traced, first_outputs = run_rounds(ops, args.seconds, tracer)
    all_rounds = rounds + traced
    check_rounds(ops, all_rounds, first_outputs)

    attempted = len(ops) * len(all_rounds)
    failures = [msg for r in all_rounds for _, msg in r.errors]
    failed = sum(len({i for i, _ in r.errors}) for r in all_rounds)
    op_median = op_medians(rounds)
    wall_s = sum(op_median)

    if args.trace:
        metrics = tracing.layer_metrics(
            tracer, len(traced), [rec for r in traced for rec in r.records])
        traced_wall = sum(op_medians(traced))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (wall_s, "s")
        metrics["trace.overhead"] = (traced_wall / wall_s - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (sum(op_medians(rounds, "op_cpu")), "s"),
            "op_s.p50": (statistics.median(op_median), "s"),
            "op_s.p99": (statistics.quantiles(
                op_median, n=100, method="inclusive")[98], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_block(),
        "digest": digest(all_rounds[0].records),
        "rounds": len(all_rounds), "ops_per_round": len(ops),
        "op_samples": len(rounds) * len(ops),
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "report": str((OUT / f"{stem}.json").relative_to(ROOT)),
    }
    report = dict(detail,
                  setup_times_s=setup_times,
                  labels=[op.label for op in ops],
                  round_wall_s=[r.wall for r in rounds],
                  round_op_s=[r.op_times for r in rounds],
                  round_op_cpu_s=[r.op_cpu for r in rounds],
                  work=all_rounds[0].records,
                  metrics={k: v for k, (v, _) in metrics.items()})
    if tracer is not None:
        spans = OUT / f"{stem}-spans.jsonl.gz"
        tracer.write(spans)
        report["spans"] = str(spans.relative_to(ROOT))
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
