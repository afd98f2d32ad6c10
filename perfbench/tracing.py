"""Outside-in tracing of the program's layers.

The tracer wraps a public function at the name its caller looks it up by,
a module attribute or a model instance attribute, so nothing in the
program changes. Every wrapped call becomes a span (name, start, end,
parent span, op id) kept in memory and written out when the run ends.
Per-name calls, busy time and self time (span time minus child spans)
are summed as the spans close.
"""

import gzip
import json
from collections import defaultdict
from time import perf_counter

from esdirkopt import integrator, linalg, nlp, qp, sqp
from esdirkopt.errors import EvaluationError

import workloads

_MISSING = object()

#: spans whose call counts are reported
CALLS = ("model.f_batch", "model.jacobians_batch",
         "linalg.lu_factorize_batch", "linalg.lu_solve_batch",
         "integrator.integrate_intervals_batch", "nlp.evaluate",
         "qp.solve_qp")
#: spans whose self times are reported
SELF = ("model.f_batch", "model.jacobians_batch",
        "linalg.lu_factorize_batch", "linalg.lu_solve_batch",
        "linalg.lu_factorize", "linalg.lu_solve",
        "integrator.integrate_intervals_batch",
        "integrator.integrate_interval",
        "integrator.esdirk_step", "sensitivity.iterated_propagate",
        "sensitivity.direct_propagate", "nlp.evaluate", "qp.solve_qp",
        "qp.condense", "sqp.solve_ocp", "sqp.bfgs_update",
        "sqp.kkt_violation")
COUNTERS = ("f_evals", "jac_x_evals", "jac_u_evals", "lu_factorizations",
            "newton_iterations")


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index, op id)
        self.op = None             # id of the op running now
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []           # [span index, time covered by children]
        self._patches = []

    def span(self, name, fn, observe=None):
        """fn wrapped in a span; observe(args, result) sees each return."""
        def traced(*args, **kwargs):
            frame = [len(self.spans), 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[frame[0]] = (name, start, end, parent, self.op)
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.busy[name] += duration
                self.self_time[name] += duration - frame[1]
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def patch(self, owner, attr, wrap):
        """Replace owner.attr by wrap(owner.attr) until restore()."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def restore(self):
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def instrument(self, ops):
        """Wrap every traced name; undo with restore()."""

        def spanned(name, observe=None):
            return lambda fn: self.span(name, fn, observe)

        def count_failures(fn):
            def counted(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except EvaluationError:
                    self.counts["nlp.evaluate.failed"] += 1
                    raise
            return counted

        def observe_qp(args, sol):
            self.counts["qp.iterations"] += sol.iterations
            self.counts["qp.active_set"] += len(sol.active_set)

        def observe_rhs(args, result):
            b = args[1]
            self.counts["linalg.lu_solve_batch.rhs"] += \
                b.shape[0] * (b.shape[2] if b.ndim == 3 else 1)

        def count_line_search(fn):
            def counted(*args, **kwargs):
                before = self.calls["nlp.evaluate"]
                result = fn(*args, **kwargs)
                self.counts["sqp.line_search.evals"] += \
                    self.calls["nlp.evaluate"] - before
                self.counts["sqp.line_search.accepted"] += \
                    result[0] is not None
                return result
            return counted

        self.patch(workloads, "solve_ocp", spanned("sqp.solve_ocp"))
        self.patch(workloads, "integrate_interval",
                   spanned("integrator.integrate_interval"))
        self.patch(sqp, "evaluate",
                   lambda fn: self.span("nlp.evaluate", count_failures(fn)))
        self.patch(sqp, "solve_qp", spanned("qp.solve_qp", observe_qp))
        self.patch(sqp, "bfgs_update", spanned("sqp.bfgs_update"))
        self.patch(sqp, "kkt_violation", spanned("sqp.kkt_violation"))
        self.patch(sqp, "line_search", count_line_search)
        self.patch(qp, "condense", spanned("qp.condense"))
        self.patch(nlp, "integrate_intervals_batch",
                   spanned("integrator.integrate_intervals_batch"))
        self.patch(integrator, "esdirk_step",
                   spanned("integrator.esdirk_step"))
        self.patch(integrator, "iterated_propagate",
                   spanned("sensitivity.iterated_propagate"))
        self.patch(integrator, "direct_propagate",
                   spanned("sensitivity.direct_propagate"))
        for name in ("lu_factorize", "lu_solve", "lu_factorize_batch"):
            self.patch(linalg, name, spanned(f"linalg.{name}"))
        self.patch(linalg, "lu_solve_batch",
                   spanned("linalg.lu_solve_batch", observe_rhs))
        for model in {id(op.model): op.model for op in ops}.values():
            self.patch(model, "f_batch", spanned("model.f_batch"))
            self.patch(model, "jacobians_batch",
                       spanned("model.jacobians_batch"))

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer, n_rounds, records):
    """Per-layer metrics of one round: the traced totals over n_rounds.

    records holds the deterministic fields of every traced op.
    """
    per = 1.0 / n_rounds
    c = tracer.counts
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (tracer.calls[name] * per, "count")
    out["linalg.lu_solve_batch.rhs"] = (
        c["linalg.lu_solve_batch.rhs"] * per, "count")
    for name in SELF:
        out[f"{name}.self_s"] = (tracer.self_time[name] * per, "s")
    out["nlp.evaluate.busy_s"] = (tracer.busy["nlp.evaluate"] * per, "s")
    out["nlp.evaluate.failed"] = (c["nlp.evaluate.failed"] * per, "count")
    n_qp = tracer.calls["qp.solve_qp"]
    out["qp.iterations"] = (c["qp.iterations"] * per, "count")
    out["qp.active_set.mean"] = (c["qp.active_set"] / n_qp if n_qp else 0.0,
                                 "count")
    out["sqp.iterations"] = (
        sum(r.get("sqp_iterations", 0) for r in records) * per, "count")
    evals = c["sqp.line_search.evals"]
    accepted = c["sqp.line_search.accepted"]
    out["sqp.line_search.evals"] = (evals * per, "count")
    out["sqp.line_search.backtracks"] = ((evals - accepted) * per, "count")
    out["sqp.line_search.accept_ratio"] = (
        accepted / evals if evals else 0.0, "ratio")
    for name in COUNTERS:
        out[f"counters.{name}"] = (
            sum(r["counters"][name] for r in records if "counters" in r)
            * per, "count")
    return out
