"""Fixed-step ESDIRK integration with inexact Newton stage solves.

Each step solves the implicit stage equations R_i(X_i) = X_i - h*gamma*
f(X_i, u) - psi_i = 0 with an inexact Newton method. The integrator runs
a batch of independent intervals in lockstep, one row per interval: every
Newton round evaluates the model once for all rows still iterating, and a
single interval is the batch of one row. The sensitivity mode fixes the
iteration matrix strategy (``strategy_of``): the base case takes a fresh
Jacobian and factorization at every Newton iterate, every other mode one
factorization of M_k = I - h*gamma*df/dx(x_k) per step. Each stage is
differentiated as it is solved (see ``sensitivity``), so a step keeps no
record of its Newton rounds. Work counters track every model evaluation
and factorization exactly, row by row.
"""

import enum
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import (ContractViolation, DomainError, NewtonDivergence,
                     SingularMatrix)
from .sensitivity import (SensitivityMode, SensitivityPair, direct_propagate,
                          iterated_propagate)
from .tableau import predict_stages, svp_coefficients


class NewtonStrategy(enum.Enum):
    REUSE_PER_STEP = "reuse"
    REFACTORIZE_EVERY_ITERATION = "refactorize"


@dataclass
class NewtonSettings:
    tau: float = 0.1
    abs: float = 1e-8
    rel: float = 1e-8
    max_iterations: int = 20

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.abs <= 0 or self.rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class WorkCounters:
    f_evals: int = 0
    jac_x_evals: int = 0
    jac_u_evals: int = 0
    lu_factorizations: int = 0
    newton_iterations: int = 0

    def as_dict(self):
        return asdict(self)


def strategy_of(mode):
    """The Newton strategy of a sensitivity mode: the base case
    refactorizes at every iterate, every other mode reuses per step."""
    if mode is SensitivityMode.BASE_DIRECT:
        return NewtonStrategy.REFACTORIZE_EVERY_ITERATION
    return NewtonStrategy.REUSE_PER_STEP


@dataclass
class IntervalResult:
    """The result of integrate_intervals_batch, one row per interval, or of
    integrate_interval with the batch axis dropped.

    ``step_sens`` holds the packed [d/dx0 | d/du] sensitivities after each
    step, one (B, n_x, n_x + n_u) array per step; ``sens`` views the last
    of them.
    """
    x_final: np.ndarray          # (B, n_x)
    trajectory: np.ndarray       # (B, n_steps + 1, n_x)
    step_sens: list

    @property
    def sens(self):
        """SensitivityPair of the final state."""
        return SensitivityPair(self.step_sens[-1], self.x_final.shape[-1])


def integrate_intervals_batch(model, tab, settings, mode, x_0, u, d, dt,
                              n_steps, counters):
    """Integrate a batch of intervals of equal length dt in lockstep.

    Row b advances from x_0[b] under the constant input u[b] with n_steps
    fixed ESDIRK steps. Sensitivities start at (I, 0) and are chained
    through the steps; stage value predictors warm-start every step after
    the first. The rows are independent: each makes the Newton iterations,
    and adds to the counters the work, that it would make alone. Requires an
    autonomous model (see ``model.OdeModel``); raises on the first row that
    diverges, leaves the model domain or meets a singular iteration matrix.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if dt <= 0:
        raise ValueError("interval length must be positive")
    x = np.asarray(x_0, float).copy()
    u = np.asarray(u, float)
    nb = x.shape[0]
    n_x, n_u = model.n_x, model.n_u
    h = dt / n_steps
    svp = svp_coefficients(tab, 1.0) if n_steps > 1 else None

    sens = np.tile(np.hstack((np.eye(n_x), np.zeros((n_x, n_u)))),
                   (nb, 1, 1))
    traj = np.empty((nb, n_steps + 1, n_x))
    traj[:, 0] = x
    step_sens = []
    prev = None
    for k in range(n_steps):
        prev = esdirk_step(model, tab, settings, mode, x, sens, u, d, h,
                           prev, counters, svp)
        x, sens = prev["x_next"], prev["sens_next"]
        step_sens.append(sens)
        traj[:, k + 1] = x
    return IntervalResult(x_final=x, trajectory=traj, step_sens=step_sens)


def integrate_interval(model, tab, strategy, settings, mode, x_0, u, d,
                       t_0, t_f, n_steps, counters):
    """Integrate one interval [t_0, t_f]: integrate_intervals_batch with a
    batch of one row. The models are autonomous, so only t_f - t_0 matters.
    ``strategy`` is checked, not used: it must be ``strategy_of(mode)``.
    """
    if strategy is not strategy_of(mode):
        raise ContractViolation(f"{mode.value} runs with the "
                                f"{strategy_of(mode).value} strategy")
    res = integrate_intervals_batch(
        model, tab, settings, mode, np.asarray(x_0, float)[None],
        np.asarray(u, float)[None], d, t_f - t_0, n_steps, counters)
    return IntervalResult(x_final=res.x_final[0],
                          trajectory=res.trajectory[0],
                          step_sens=[sens[0] for sens in res.step_sens])


def _remap_batch_row(exc, rows):
    """Translate a subset-local batch_row back to the full-batch row."""
    exc.batch_row = int(rows[exc.batch_row])
    return exc


def esdirk_step(model, tab, settings, mode, x_k, sens_k, u, d, h, prev,
                counters, svp):
    """One ESDIRK step of size h from the (B, n_x) states x_k.

    ``sens_k`` holds the packed sensitivities at x_k, one (n_x, n_x + n_u)
    matrix per row, and u the (B, n_u) inputs. ``prev`` is the previous
    step's record, whose stages the stage value predictors ``svp`` extend,
    or None for the trivial predictor X_i^0 = x_k. A row leaves the Newton
    loop of a stage as soon as its scaled residual is below tau, after at
    least one update however good its predictor. The stage sensitivities
    are propagated stage by stage next to the states (see ``sensitivity``).

    Returns the step record, a dict holding ``x_next``, the converged
    ``stages``, ``sens_next`` and the per-stage ``stage_sens``.
    Raises DomainError, NewtonDivergence or SingularMatrix with the failing
    row in ``batch_row``.
    """
    s = tab.s
    hg = h * tab.gamma
    nb = x_k.shape[0]
    n_x, n_u = model.n_x, model.n_u
    eye = np.eye(n_x)
    iterated = mode is SensitivityMode.ITERATED
    reuse = strategy_of(mode) is NewtonStrategy.REUSE_PER_STEP

    jx_k, ju_k = model.jacobians_batch(x_k)
    counters.jac_x_evals += nb
    if reuse:
        factors = linalg.lu_factorize_batch(eye - hg * jx_k)
        counters.lu_factorizations += nb

    # stage predictors (and their derivatives for the iterated mode)
    if prev is not None:
        predictions = predict_stages(svp, prev["x_start"], prev["stages"])
        if iterated:
            sens_predictions = predict_stages(svp, prev["sens_in"],
                                              prev["stage_sens"])
    else:
        predictions = [x_k.copy() for _ in range(s - 1)]
        if iterated:
            sens_predictions = [sens_k.copy() for _ in range(s - 1)]

    f_vals = [model.f_batch(x_k, u, d)]
    counters.f_evals += nb
    counters.jac_u_evals += nb
    jx_i, ju_i, sens_i = jx_k, ju_k, sens_k

    stages = []
    stage_sens = []
    d_vals = []                      # packed dF_j = df/dx S_j + [0 | df/du]
    for idx in range(s - 1):
        i = idx + 2                      # 1-based stage index
        psi_i = x_k.copy()
        for j in range(i - 1):
            psi_i += h * tab.a[i - 1, j] * f_vals[j]
        d_vals.append(jx_i @ sens_i)         # of the previous stage
        d_vals[-1][:, :, n_x:] += ju_i
        dpsi_i = sens_k.copy()
        for j in range(i - 1):
            dpsi_i += h * tab.a[i - 1, j] * d_vals[j]
        x_it = predictions[idx].copy()
        f_conv = np.empty_like(x_k)
        active = np.arange(nb)
        if iterated:
            sens_it = sens_predictions[idx].copy()
            jx_conv = np.empty((nb, n_x, n_x))
            ju_conv = np.empty((nb, n_x, n_u))
        l = 0
        while active.size:
            xa = x_it[active]
            try:
                fa = model.f_batch(xa, u[active], d)
            except DomainError as exc:
                raise _remap_batch_row(exc, active)
            counters.f_evals += active.size
            r = xa - hg * fa - psi_i[active]
            if l > 0:
                denom = np.maximum(settings.abs, settings.rel * np.abs(xa))
                done = np.max(np.abs(r) / denom, axis=1) < settings.tau
            else:
                done = np.zeros(active.size, dtype=bool)
            if np.any(done):
                f_conv[active[done]] = fa[done]
            cont = ~done
            if not np.any(cont):
                break
            if l >= settings.max_iterations:
                row = int(active[cont][0])
                exc = NewtonDivergence(
                    f"stage {i}, batch row {row}: no convergence in "
                    f"{settings.max_iterations} iterations")
                exc.batch_row = row
                raise exc
            upd = active[cont]
            if iterated or not reuse:
                try:
                    jx_it, ju_it = model.jacobians_batch(x_it[upd])
                    counters.jac_x_evals += upd.size
                    if not reuse:
                        fac = linalg.lu_factorize_batch(eye - hg * jx_it)
                        counters.lu_factorizations += upd.size
                except (DomainError, SingularMatrix) as exc:
                    raise _remap_batch_row(exc, upd)
            if reuse:
                fac = factors[upd]
            x_it[upd] = x_it[upd] - linalg.lu_solve_batch(fac, r[cont])
            if iterated:
                counters.jac_u_evals += upd.size
                sens_it[upd] = iterated_propagate(sens_it[upd], jx_it, ju_it,
                                                  dpsi_i[upd], fac, hg)
                jx_conv[upd] = jx_it
                ju_conv[upd] = ju_it
            counters.newton_iterations += upd.size
            active = upd
            l += 1

        stages.append(x_it)
        f_vals.append(f_conv)
        if iterated:
            # converged-stage Jacobians: each row's last Newton round
            jx_i, ju_i, sens_i = jx_conv, ju_conv, sens_it
        else:
            # one Jacobian evaluation at the converged stage serves the
            # direct and base solves; direct counts df/dx only where later
            # stages use it
            jx_i, ju_i = model.jacobians_batch(x_it)
            if not reuse or idx < s - 2:
                counters.jac_x_evals += nb
            counters.jac_u_evals += nb
            if reuse:
                fac = factors
            else:
                fac = linalg.lu_factorize_batch(eye - hg * jx_i)
                counters.lu_factorizations += nb
            sens_i = direct_propagate(dpsi_i, ju_i, fac, hg)
        stage_sens.append(sens_i)

    return {"x_start": x_k, "x_next": stages[-1], "stages": stages,
            "sens_in": sens_k, "stage_sens": stage_sens,
            "sens_next": stage_sens[-1]}
