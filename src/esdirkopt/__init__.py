"""Fixed-step ESDIRK integrators with IND sensitivities and a
multiple-shooting SQP optimal control solver."""

from .bench import (RunConfig, RunStats, run_low_tol_experiment, run_single,
                    run_sweep)
from .integrator import (NewtonSettings, NewtonStrategy, WorkCounters,
                         esdirk_step, integrate_interval,
                         integrate_intervals_batch)
from .model import QuadrupleTank
from .nlp import DecisionVector, OcpProblem, evaluate
from .qp import QpProblem, solve_qp
from .sensitivity import SensitivityMode, SensitivityPair
from .sqp import SqpResult, SqpSettings, solve_ocp
from .tableau import ButcherTableau, make_tableau

__all__ = [
    "ButcherTableau", "DecisionVector", "NewtonSettings", "NewtonStrategy",
    "OcpProblem", "QpProblem", "QuadrupleTank", "RunConfig", "RunStats",
    "SensitivityMode", "SensitivityPair", "SqpResult", "SqpSettings",
    "WorkCounters", "esdirk_step", "evaluate", "integrate_interval",
    "integrate_intervals_batch", "make_tableau", "run_low_tol_experiment",
    "run_single", "run_sweep", "solve_ocp", "solve_qp",
]
