"""One timed set-up of a workload, as a fresh process pays it.

    python3 perfbench/setup_once.py WORKLOAD SEED

Imports numpy and esdirkopt, builds the workload's ops from the seed and
warms them up, then prints the elapsed seconds. The interpreter's own
start-up is not counted. run.py runs this several times and reports the
median as setup_s.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402

import run  # noqa: E402


def main(workload, seed):
    run.import_program()
    import workloads
    workloads.warm_up(workloads.build_ops(workload, int(seed)))
    print(perf_counter() - T0)


if __name__ == "__main__":
    main(*sys.argv[1:])
