"""The names and signatures the benchmark in perfbench/ calls and patches.

Builds every workload's round, instruments it with the benchmark's tracer,
and runs the first draw of ``ivp`` ops traced, so a refactor that renames
or re-signs something the benchmark depends on fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["converge", "long-horizon", "ivp"])
def test_workload_builds_and_traces(workload):
    ops = workloads.build_ops(workload, 1)
    tracer = tracing.Tracer()
    tracer.instrument(ops)
    try:
        if workload == "ivp":
            draw0 = [op for op in ops if op.label.endswith("/draw0")]
            assert len(draw0) == 9
            for op in draw0:
                out = op.run()
                assert op.check(out) is None
                assert op.check_fd(out) is None
            assert tracer.calls["integrator.esdirk_step"] > 0
    finally:
        tracer.restore()
