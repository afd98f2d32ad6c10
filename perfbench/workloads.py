"""The benchmark's workloads: seeded inputs, the ops that run on them, and
the checks of each op's output.

An op is one ``solve_ocp`` call on a problem built by ``make_problem`` or
one ``integrate_interval`` call. A workload is a fixed list of ops, the
*round*, that the runner repeats back to back. The seed only perturbs the
inputs (x0 and the initial guess, or x0 and u, by up to +-5 %), so every
seed keeps the workload's character.
"""

from dataclasses import dataclass, replace

import numpy as np

from esdirkopt.bench import RunConfig, make_problem, sqp_settings
from esdirkopt.integrator import (NewtonSettings, NewtonStrategy,
                                  WorkCounters, integrate_interval)
from esdirkopt.model import QuadrupleTank
from esdirkopt.nlp import DecisionVector, evaluate
from esdirkopt.sensitivity import SensitivityMode, fd_sensitivity_oracle
from esdirkopt.sqp import solve_ocp
from esdirkopt.tableau import make_tableau

PERTURBATION = 0.05
INIT_VALUE = 300.0

#: relative sensitivity error allowed against the finite-difference oracle
#: for iterated and base ops. At the default Newton tolerances the measured
#: error is at most 4e-8 for a 10-step interval; the direct mode's bias is
#: 3e-3 to 1e-2, so the bound separates the two by four orders of magnitude.
FD_RTOL = 1e-6

IVP_MODES = {
    "iterated": (SensitivityMode.ITERATED, NewtonStrategy.REUSE_PER_STEP),
    "direct": (SensitivityMode.DIRECT, NewtonStrategy.REUSE_PER_STEP),
    "base": (SensitivityMode.BASE_DIRECT,
             NewtonStrategy.REFACTORIZE_EVERY_ITERATION),
}
IVP_D = np.array([0.0, 0.0, 100.0, 100.0])
IVP_SPAN = (0.0, 10.0)
IVP_STEPS = 10
IVP_DRAWS = 3

#: (method, sens, N, Nc) of the ops in one round of each OCP workload.
#: The N of each converge op is chosen so that all six cost about the same.
OCP_ROUNDS = {
    "converge": [("esdirk12", "iterated", 15, 40),
                 ("esdirk12", "base", 15, 40),
                 ("esdirk23", "iterated", 10, 40),
                 ("esdirk23", "base", 10, 40),
                 ("esdirk34", "iterated", 5, 40),
                 ("esdirk34", "base", 5, 40)],
    "long-horizon": [("esdirk12", "iterated", 2, 160),
                     ("esdirk23", "base", 2, 160),
                     ("esdirk34", "iterated", 2, 160)],
}


def _perturb(rng, value):
    value = np.asarray(value, float)
    return value * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION,
                                      value.shape))


@dataclass
class OcpOp:
    """One solve_ocp call on a problem built during set-up."""
    label: str
    config: RunConfig
    problem: object
    settings: object
    w0: DecisionVector

    @property
    def model(self):
        return self.problem.model

    def run(self):
        return solve_ocp(self.problem, self.settings, self.w0, WorkCounters())

    def record(self, res):
        """The deterministic fields of a result, for the work digest."""
        return {"op": self.label, "converged": bool(res.converged),
                "failure_reason": res.failure_reason,
                "sqp_iterations": res.sqp_iterations,
                "qp_iterations": res.qp_iterations_total,
                "counters": res.counters.as_dict()}

    def check(self, res):
        """The paper's invariant: iterated and base solves converge."""
        if not res.converged or not res.kkt <= self.config.tol_sqp:
            return (f"{self.label}: not converged (kkt {res.kkt:.3e}, "
                    f"{res.failure_reason})")
        return None

    def check_fd(self, res):
        return None


@dataclass
class IvpOp:
    """One integrate_interval call on the quadruple tank."""
    label: str
    model: object
    tableau: object
    mode: SensitivityMode
    strategy: NewtonStrategy
    x0: np.ndarray
    u: np.ndarray

    def run(self):
        counters = WorkCounters()
        res = integrate_interval(self.model, self.tableau, self.strategy,
                                 NewtonSettings(), self.mode, self.x0, self.u,
                                 IVP_D, *IVP_SPAN, IVP_STEPS, counters)
        return res, counters

    def record(self, out):
        return {"op": self.label, "counters": out[1].as_dict()}

    def check(self, out):
        res = out[0]
        if not (np.all(np.isfinite(res.x_final))
                and np.all(np.isfinite(res.sens.wrt_x0))
                and np.all(np.isfinite(res.sens.wrt_u))):
            return f"{self.label}: non-finite state or sensitivities"
        return None

    def check_fd(self, out):
        """Compare iterated and base sensitivities with central finite
        differences; direct ones are biased by design."""
        if self.mode is SensitivityMode.DIRECT:
            return None
        sens = out[0].sens
        oracle = fd_sensitivity_oracle(self.model, self.tableau, self.x0,
                                       self.u, IVP_D, *IVP_SPAN, IVP_STEPS)
        err = max(np.abs(sens.wrt_x0 - oracle.wrt_x0).max()
                  / np.abs(oracle.wrt_x0).max(),
                  np.abs(sens.wrt_u - oracle.wrt_u).max()
                  / np.abs(oracle.wrt_u).max())
        if not err <= FD_RTOL:
            return (f"{self.label}: sensitivity error {err:.3e} against the "
                    f"finite-difference oracle exceeds {FD_RTOL:.0e}")
        return None


def build_ops(workload, seed):
    """The round of ops of a workload, with inputs drawn from seed."""
    rng = np.random.default_rng(seed)
    if workload == "ivp":
        return _ivp_ops(rng)
    ops = []
    for method, sens, N, Nc in OCP_ROUNDS[workload]:
        config = replace(RunConfig(), method=method, sens=sens, N=N, Nc=Nc)
        config.x0 = _perturb(rng, config.x0)
        config.init_value = float(_perturb(rng, INIT_VALUE))
        problem = make_problem(config)
        w0 = DecisionVector.filled(config.init_value, problem.model.n_x,
                                   problem.model.n_u, Nc)
        ops.append(OcpOp(f"{method}/{sens}/N{N}/Nc{Nc}", config,
                         problem, sqp_settings(config), w0))
    return ops


def _ivp_ops(rng):
    model = QuadrupleTank()
    ops = []
    for draw in range(IVP_DRAWS):
        for method in ("ESDIRK12", "ESDIRK23", "ESDIRK34"):
            tableau = make_tableau(method)
            for sens, (mode, strategy) in IVP_MODES.items():
                x0 = _perturb(rng, RunConfig().x0)
                u = _perturb(rng, np.full(2, INIT_VALUE))
                ops.append(IvpOp(f"{method.lower()}/{sens}/draw{draw}", model,
                                 tableau, mode, strategy, x0, u))
    return ops


def warm_up(ops):
    """Do the program's lazy first-call work during set-up.

    An OCP op evaluates its NLP once at the initial guess; an IVP op
    integrates its interval once.
    """
    for op in ops:
        if isinstance(op, OcpOp):
            evaluate(op.problem, op.w0, WorkCounters())
        else:
            op.run()
