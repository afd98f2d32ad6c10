"""Fixed-step ESDIRK integration with inexact Newton stage solves.

Each step solves the implicit stage equations R_i(X_i) = X_i - h*gamma*
f(X_i, u) - psi_i = 0 with an inexact Newton method. The integrator runs
a batch of independent intervals in lockstep, one row per interval: every
Newton round evaluates the model once for all rows still iterating, and a
single interval is the batch of one row. Two iteration matrix strategies
are supported: one factorization of M_k = I - h*gamma*df/dx(x_k) per
step, or a fresh Jacobian and factorization at every Newton iterate (the
benchmark base case). Work counters track every model evaluation and
factorization exactly, row by row.
"""

import enum
from dataclasses import dataclass

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
    min_iterations: int = 1

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.abs <= 0 or self.rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < self.min_iterations:
            raise ValueError("max_iterations below min_iterations")


@dataclass
class WorkCounters:
    f_evals: int = 0
    jac_x_evals: int = 0
    jac_u_evals: int = 0
    lu_factorizations: int = 0
    newton_iterations: int = 0

    def merge(self, other):
        self.f_evals += other.f_evals
        self.jac_x_evals += other.jac_x_evals
        self.jac_u_evals += other.jac_u_evals
        self.lu_factorizations += other.lu_factorizations
        self.newton_iterations += other.newton_iterations

    def as_dict(self):
        return {"f_evals": self.f_evals,
                "jac_x_evals": self.jac_x_evals,
                "jac_u_evals": self.jac_u_evals,
                "lu_factorizations": self.lu_factorizations,
                "newton_iterations": self.newton_iterations}


def _check_mode_strategy(mode, strategy):
    if mode is SensitivityMode.BASE_DIRECT:
        if strategy is not NewtonStrategy.REFACTORIZE_EVERY_ITERATION:
            raise ContractViolation("base-direct requires the refactorizing strategy")
    elif mode in (SensitivityMode.ITERATED, SensitivityMode.DIRECT):
        if strategy is not NewtonStrategy.REUSE_PER_STEP:
            raise ContractViolation(f"{mode.value} pairs with the reuse-per-step strategy")


@dataclass
class IntervalResult:
    """integrate_interval's result; ``sens`` is None without sensitivities."""
    x_final: np.ndarray
    sens: SensitivityPair
    trajectory: np.ndarray


@dataclass
class BatchIntervalResult:
    """integrate_intervals_batch's result.

    ``step_sens`` holds the packed [d/dx0 | d/du] sensitivity after each
    step, one (B, n_x, n_x + n_u) array per step.
    """
    x_final: np.ndarray          # (B, n_x)
    sens_wrt_x0: np.ndarray      # (B, n_x, n_x), None without sensitivities
    sens_wrt_u: np.ndarray       # (B, n_x, n_u)
    trajectory: np.ndarray       # (B, n_steps + 1, n_x)
    step_sens: list


def integrate_intervals_batch(model, tab, strategy, settings, mode, x_0, u,
                              d, dt, n_steps, counters):
    """Integrate a batch of intervals of equal length dt in lockstep.

    Row b advances from x_0[b] under the constant input u[b] with n_steps
    fixed ESDIRK steps. Sensitivities start at (I, 0) and are chained
    through the steps; stage value predictors warm-start every step after
    the first. The rows are independent: each makes the Newton iterations,
    and adds to the counters the work, that it would make alone. Requires an
    autonomous model (see ``model.OdeModel``) and min_iterations >= 1;
    raises on the first row that diverges, leaves the model domain or
    meets a singular iteration matrix.
    """
    _check_mode_strategy(mode, strategy)
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if dt <= 0:
        raise ValueError("interval length must be positive")
    if settings.min_iterations < 1:
        raise ContractViolation("the integrator requires min_iterations >= 1")
    x = np.asarray(x_0, float).copy()
    u = np.asarray(u, float)
    nb = x.shape[0]
    n_x, n_u = model.n_x, model.n_u
    h = dt / n_steps
    with_sens = mode is not SensitivityMode.NONE
    svp = svp_coefficients(tab, 1.0) if n_steps > 1 else None

    sens = np.tile(np.hstack((np.eye(n_x), np.zeros((n_x, n_u)))),
                   (nb, 1, 1))
    traj = np.empty((nb, n_steps + 1, n_x))
    traj[:, 0] = x
    step_sens = []
    prev = None
    for k in range(n_steps):
        prev = esdirk_step(model, tab, strategy, settings, mode,
                           x, sens, u, d, h, prev, counters, svp)
        x = prev["x_next"]
        if with_sens:
            sens = prev["sens_next"]
            step_sens.append(sens)
        traj[:, k + 1] = x
    return BatchIntervalResult(
        x_final=x,
        sens_wrt_x0=sens[:, :, :n_x].copy() if with_sens else None,
        sens_wrt_u=sens[:, :, n_x:].copy() if with_sens else None,
        trajectory=traj, step_sens=step_sens)


def integrate_interval(model, tab, strategy, settings, mode, x_0, u, d,
                       t_0, t_f, n_steps, counters):
    """Integrate one interval [t_0, t_f]: integrate_intervals_batch with a
    batch of one row. The models are autonomous, so only t_f - t_0 matters.
    """
    res = integrate_intervals_batch(
        model, tab, strategy, settings, mode, np.asarray(x_0, float)[None],
        np.asarray(u, float)[None], d, t_f - t_0, n_steps, counters)
    sens = None
    if res.sens_wrt_x0 is not None:
        sens = SensitivityPair(res.sens_wrt_x0[0], res.sens_wrt_u[0])
    return IntervalResult(x_final=res.x_final[0], sens=sens,
                          trajectory=res.trajectory[0])


def _remap_batch_row(exc, rows):
    """Translate a subset-local batch_row back to the full-batch row."""
    exc.batch_row = int(rows[exc.batch_row])
    return exc


def esdirk_step(model, tab, strategy, settings, mode, x_k, sens_k, u, d, h,
                prev, counters, svp):
    """One ESDIRK step of size h from the (B, n_x) states x_k.

    ``sens_k`` holds the packed sensitivities at x_k, one (n_x, n_x + n_u)
    matrix per row, and u the (B, n_u) inputs. ``prev`` is the previous
    step's record, whose stages the stage value predictors ``svp`` extend,
    or None for the trivial predictor X_i^0 = x_k. A row leaves the Newton
    loop of a stage as soon as its scaled residual is below tau.

    Returns the step record, a dict holding ``x_next``, the converged
    ``stages``, the (B, s-1) Newton iteration counts ``newton_counts`` and,
    with sensitivities, ``sens_next`` and the per-stage ``stage_sens``.
    Raises DomainError, NewtonDivergence or SingularMatrix with the failing
    row in ``batch_row``.
    """
    s = tab.s
    hg = h * tab.gamma
    nb = x_k.shape[0]
    n_x, n_u = model.n_x, model.n_u
    eye = np.eye(n_x)
    iterated = mode is SensitivityMode.ITERATED
    with_sens = mode is not SensitivityMode.NONE
    reuse = strategy is NewtonStrategy.REUSE_PER_STEP

    jx_k, ju_k = model.jacobians_batch(x_k)
    counters.jac_x_evals += nb
    stage_jx = [jx_k] + [None] * (s - 1)
    stage_ju = [None] * s
    if with_sens:
        stage_ju[0] = ju_k
        counters.jac_u_evals += nb

    factors = None
    if reuse:
        factors = linalg.lu_factorize_batch(eye - hg * jx_k)
        counters.lu_factorizations += nb

    # stage predictors (and their derivatives for the iterated replay)
    sens_init = None
    if prev is not None:
        predictions = predict_stages(svp, prev["x_start"], prev["stages"])
        if iterated:
            sens_init = predict_stages(svp, prev["sens_in"],
                                       prev["stage_sens"])
    else:
        predictions = [x_k.copy() for _ in range(s - 1)]
        if iterated:
            sens_init = [sens_k.copy() for _ in range(s - 1)]

    f_vals = [model.f_batch(x_k, u, d)]
    counters.f_evals += nb

    stages = []
    stage_counts = []
    newton_rounds = []
    for idx in range(s - 1):
        i = idx + 2                      # 1-based stage index
        psi_i = x_k.copy()
        for j in range(i - 1):
            psi_i += h * tab.a[i - 1, j] * f_vals[j]
        x_it = predictions[idx].copy()
        f_conv = np.empty_like(x_k)
        counts = np.zeros(nb, dtype=int)
        active = np.arange(nb)
        rounds = []                      # iterated: (rows, df/dx, df/du)
        if iterated:
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
            if l >= settings.min_iterations:
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
                if iterated:
                    counters.jac_u_evals += upd.size
                    rounds.append((upd, jx_it, ju_it))
                    jx_conv[upd] = jx_it
                    ju_conv[upd] = ju_it
            if reuse:
                fac = factors.rows(upd)
            x_it[upd] = x_it[upd] - linalg.lu_solve_batch(fac, r[cont])
            counters.newton_iterations += upd.size
            counts[upd] += 1
            active = upd
            l += 1

        stages.append(x_it)
        f_vals.append(f_conv)
        stage_counts.append(counts)
        if not reuse:
            # one per-stage Jacobian update at the converged value beyond
            # the per-iteration ones: the refactorizing strategy cannot
            # share the step-start Jacobian with its predictor-based
            # iteration matrices
            stage_jx[i - 1], _ = model.jacobians_batch(x_it)
            counters.jac_x_evals += nb
        if iterated:
            # converged-stage Jacobians: each row's last Newton round
            stage_jx[i - 1] = jx_conv
            stage_ju[i - 1] = ju_conv
            newton_rounds.append(rounds)

    rec = {"x_start": x_k, "x_next": stages[-1], "stages": stages,
           "newton_counts": np.stack(stage_counts, axis=1),
           "sens_in": sens_k, "stage_jx": stage_jx, "stage_ju": stage_ju,
           "factors": factors, "sens_init": sens_init,
           "newton_rounds": newton_rounds}
    if with_sens:
        if iterated:
            stage_sens = iterated_propagate(rec, tab, h)
        else:
            stage_sens = direct_propagate(rec, model, tab, h, mode, counters)
        rec["stage_sens"] = stage_sens
        rec["sens_next"] = stage_sens[-1]
    return rec
