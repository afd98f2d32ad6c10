"""Before/after benchmark of two checkouts, written to one BENCH_*.json.

    python3 tools/bench_pairs.py BASE CHANGE --out BENCH_tag.json

BASE and CHANGE are checkouts of this repository (for example the parent
commit and the change, each cloned into its own directory). For every
workload, each of the ten pairs i runs
`perfbench/run.py --seed i+1 --seconds 35 --trace 0` once in each
checkout, the base first in even pairs and the change first in odd ones.
The file records every run, and per workload and metric each side's
median and quartiles, the number of pairs the change won and the bound
from BENCHMARK.json. It also names, per workload, the seeds whose run
printed `correct: false` on each side and the seeds whose work digest
differs between the sides. One traced run per side and workload (seed 1)
gives the per-layer metrics. The sweep, `run_sweep(RunConfig())`, and the
low-tolerance experiment, `run_low_tol_experiment(RunConfig())`, run once
per side at the machine's BLAS thread count; for each the file holds the
BLAS thread count the child process read before it started, the wall
time and summed counters per (method, sens) pair, and every row whose
counts differ between the sides. The sweep also runs once per side with
`jobs=2`; the file holds its wall time and whether its rows, wall times
aside, equal that side's `jobs=1` rows.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("converge", "long-horizon", "ivp")
PAIRS = 10
SECONDS = 35
COUNTS = ("converged", "sqp_iters", "qp_iters", "f_evals", "jac_x_evals",
          "jac_u_evals", "lu_factorizations")

#: report key -> the esdirkopt.bench function that runs the rows
SWEEPS = {"sweep": "run_sweep", "low_tol": "run_low_tol_experiment"}
SWEEP = """
import json, sys, time
sys.path[:0] = ["src", "perfbench"]
from esdirkopt import bench
from run import blas_threads
threads = blas_threads()
t = time.perf_counter()
rows = getattr(bench, sys.argv[1])(bench.RunConfig(), jobs=int(sys.argv[2]))
print(json.dumps({"wall_s": time.perf_counter() - t, "blas_threads": threads,
                  "rows": [dict(r.as_dict(), kkt=repr(float(r.kkt)))
                           for r in rows]}))
"""


def child(args, **kwargs):
    """The stdout of a child process; its stderr ends the script if it
    fails."""
    out = subprocess.run(args, capture_output=True, text=True, **kwargs)
    if out.returncode:
        sys.exit(f"{args[0]} in {kwargs.get('cwd', '.')} ended with exit "
                 f"code {out.returncode}:\n{out.stderr}")
    return out.stdout


def git(checkout, *args):
    return child(["git", "-C", str(checkout), *args]).strip()


def revision(checkout):
    return {"commit": git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(git(checkout, "status", "--porcelain",
                              "--untracked-files=no"))}


def perfbench(checkout, workload, seed, trace):
    """The detail line and the result line of one perfbench run."""
    out = child([sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SECONDS),
                 "--trace", str(trace)],
                cwd=checkout, timeout=20 * SECONDS + 300)
    detail, result = out.strip().splitlines()[-2:]
    detail, result = json.loads(detail), json.loads(result)
    return {"seed": seed, "digest": detail["digest"],
            "correct": result["correct"], "machine": detail["machine"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs, end_to_end):
    """Per metric: each side's median and quartiles, and pairs won."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(base, change))
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "bound": spec["bound"], "base": spread(base),
                 "change": spread(change), "change_wins": wins,
                 "pairs": len(runs)}
        b, c = entry["base"]["median"], entry["change"]["median"]
        entry["change_over_base"] = c / b if b else None
        out[name] = entry
    return out


def runs_to_check(runs):
    """The seeds whose run printed correct: false, per side, and the seeds
    whose work digest differs between the sides."""
    sides = ("base", "change")
    return {"incorrect": {side: [r[side]["seed"] for r in runs
                                 if not r[side]["correct"]]
                          for side in sides},
            "digest_differs": [r["base"]["seed"] for r in runs
                               if r["base"]["digest"]
                               != r["change"]["digest"]]}


def sweep(checkout, function, jobs=1):
    out = child([sys.executable, "-c", SWEEP, function, str(jobs)],
                cwd=checkout)
    return json.loads(out.strip().splitlines()[-1])


def same_rows(a, b):
    """Whether two sweeps hold the same rows, wall times aside."""
    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time"}
                for r in rows]
    return strip(a["rows"]) == strip(b["rows"])


def sweep_summary(result):
    pairs = {}
    for row in result["rows"]:
        key = f"{row['method']}/{row['sens']}"
        agg = pairs.setdefault(key, dict.fromkeys(("wall_s",) + COUNTS, 0))
        agg["wall_s"] += row["wall_time"]
        for name in COUNTS:
            agg[name] += int(row[name])
    return {"wall_s": result["wall_s"], "rows": len(result["rows"]),
            "converged": sum(row["converged"] for row in result["rows"]),
            "per_pair": pairs}


def row_label(row):
    return f"{row['method']}/{row['sens']}/N={row['N']}"


def moved_rows(base, change):
    """Rows whose counts differ, and the largest relative kkt change of
    the rows whose counts agree. The two sides must hold the same rows in
    the same order."""
    labels = [[row_label(row) for row in side["rows"]]
              for side in (base, change)]
    if labels[0] != labels[1]:
        raise ValueError(f"the sides' rows differ: {labels[0]} against "
                         f"{labels[1]}")
    moved, kkt_rel = [], 0.0
    for b, c in zip(base["rows"], change["rows"]):
        label = row_label(b)
        diff = {k: [b[k], c[k]] for k in COUNTS if b[k] != c[k]}
        if diff:
            moved.append(dict(row=label, **diff))
        else:
            kb, kc = float(b["kkt"]), float(c["kkt"])
            if kb != kc:
                kkt_rel = max(kkt_rel, abs(kc - kb) / abs(kb))
    return moved, kkt_rel


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())

    report = {"revisions": {s: revision(p) for s, p in sides.items()},
              "pairs": PAIRS, "seconds": SECONDS,
              "workloads": {}, "traced": {}}
    for workload in WORKLOADS:
        runs = []
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            run = {"pair": i, "first": order[0]}
            for side in order:
                run[side] = perfbench(sides[side], workload, i + 1, 0)
                report.setdefault("machine", run[side].pop("machine"))
                print(workload, i, side, run[side]["metrics"]["wall_s"],
                      file=sys.stderr)
            runs.append(run)
        report["workloads"][workload] = {
            "summary": summarize(runs, spec["end_to_end"]),
            "check": runs_to_check(runs), "runs": runs}
        traced = {}
        for side, path in sides.items():
            traced[side] = perfbench(path, workload, 1, 1)
            traced[side].pop("machine")
        report["traced"][workload] = traced
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    rows = {}
    for name, function in SWEEPS.items():
        rows[name] = results = {side: sweep(path, function)
                                for side, path in sides.items()}
        moved, kkt_rel = moved_rows(results["base"], results["change"])
        report[name] = {
            "blas_threads": {side: r["blas_threads"]
                             for side, r in results.items()},
            **{side: sweep_summary(r) for side, r in results.items()},
            "moved_rows": moved,
            "max_kkt_rel_change_of_unmoved_rows": kkt_rel}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    report["sweep_jobs2"] = {}
    for side, path in sides.items():
        result = sweep(path, SWEEPS["sweep"], jobs=2)
        report["sweep_jobs2"][side] = {
            "wall_s": result["wall_s"],
            "rows_equal_jobs1": same_rows(result, rows["sweep"][side])}
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
