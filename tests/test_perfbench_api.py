"""The names and signatures the benchmark in perfbench/ calls and patches.

Builds every workload's round, instruments it with the benchmark's tracer,
and runs the first draw of ``ivp`` ops and one ``converge`` op traced, so a
refactor that renames or re-signs something the benchmark depends on, or
changes a field its observers read, fails here.
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


def test_ocp_op_traces_its_layers():
    # the QP observer reads sol.iterations and len(sol.active_set), the
    # line-search observer result[0]; the values are those of seed 1
    op, = [op for op in workloads.build_ops("converge", 1)
           if op.label == "esdirk34/iterated/N5/Nc40"]
    tracer = tracing.Tracer()
    tracer.instrument([op])
    try:
        res = op.run()
    finally:
        tracer.restore()
    assert op.check(res) is None
    metrics = tracing.layer_metrics(tracer, 1, [op.record(res)])
    assert metrics["qp.iterations"] == (41, "count")
    assert metrics["qp.active_set.mean"] == (134 / 37, "count")
    assert metrics["sqp.iterations"] == (37, "count")
    assert tracer.counts["sqp.line_search.accepted"] == 37
