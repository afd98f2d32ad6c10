"""Fixed-step ESDIRK integration with inexact Newton stage solves.

Each step solves the implicit stage equations R_i(X_i) = X_i - h*gamma*
f(X_i, u) - psi_i = 0 with an inexact Newton method. The integrator runs
a batch of independent intervals in lockstep, one row per interval: every
Newton round evaluates the model once for all rows still iterating, and a
single interval is the batch of one row. The sensitivity mode fixes the
iteration matrix strategy (``strategy_of``): the base case takes a fresh
Jacobian and factorization at every Newton iterate, every other mode one
factorization of M_k = I - h*gamma*df/dx(x_k) per step. Each stage is
differentiated as it is solved (see ``sensitivity``), so a step returns
just its converged stages and their sensitivities. Work counters count,
row by row, the model evaluations and factorizations each mode needs
(the README's "Counted work" table). Direct's Jacobian call at the last
stage also computes df/dx, which no later stage reads; only its df/du is
counted.
"""

import enum
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import (ContractViolation, DomainError, NewtonDivergence,
                     SingularMatrix)
from .sensitivity import (SensitivityMode, SensitivityPair, direct_propagate,
                          iterated_propagate)
from .tableau import predict_stages


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
    and adds to the counters the work, that it would make alone. Raises on
    the first row that diverges, leaves the model domain or meets a
    singular iteration matrix.

    The model is autonomous, with ``n_x`` states and ``n_u`` inputs, and
    provides ``f_batch(x, u, d)``, f over a (B, n_x) stack of states with
    (B, n_u) inputs; ``jacobians_batch(x)``, the (B, n_x, n_x) df/dx and
    the df/du, which may be one (n_x, n_u) matrix shared by the batch; and
    ``output_matrix()``, the constant C of the outputs z = C x.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if dt <= 0:
        raise ValueError("interval length must be positive")
    x = np.asarray(x_0, float)
    u = np.asarray(u, float)
    h = dt / n_steps

    sens = np.tile(np.eye(model.n_x, model.n_x + model.n_u), (len(x), 1, 1))
    traj = [x]
    step_sens = []
    prev = None
    for _ in range(n_steps):
        stages, stage_sens = esdirk_step(model, tab, settings, mode, x, sens,
                                         u, d, h, prev, counters)
        prev = (x, stages, sens, stage_sens)
        x, sens = stages[-1], stage_sens[-1]
        traj.append(x)
        step_sens.append(sens)
    return IntervalResult(x_final=x, trajectory=np.stack(traj, axis=1),
                          step_sens=step_sens)


def integrate_interval(model, tab, strategy, settings, mode, x_0, u, d,
                       t_0, t_f, n_steps, counters):
    """Integrate one interval [t_0, t_f]: integrate_intervals_batch with a
    batch of one row. The models are autonomous, so only t_f - t_0 matters.
    ``strategy`` is checked, not used: it must be ``strategy_of(mode)``.
    """
    # the benchmark's ivp workload passes ``strategy``, which is why it stays
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
                counters):
    """One ESDIRK step of size h from the (B, n_x) states x_k.

    ``sens_k`` holds the packed sensitivities at x_k, one (n_x, n_x + n_u)
    matrix per row, and u the (B, n_u) inputs. ``prev`` is the previous
    step's ``(x_k, stages, sens_k, stage_sens)``, which the tableau's stage
    value predictors extend, or None for the trivial predictor X_i^0 = x_k.
    A row leaves the Newton loop of a stage as soon as its scaled residual
    is below tau, after at least one update however good its predictor.
    The stage sensitivities are propagated next to the states.

    Returns ``(stages, stage_sens)``: the converged stages X_2..X_s and
    their packed sensitivities, two lists of s - 1 arrays whose last
    entries are the step result by stiff accuracy. Raises DomainError,
    NewtonDivergence or SingularMatrix with the failing row in
    ``batch_row``.
    """
    s = tab.s
    hg = h * tab.gamma
    nb = x_k.shape[0]
    n_x, n_u = model.n_x, model.n_u
    eye = np.eye(n_x)
    iterated = mode is SensitivityMode.ITERATED
    reuse = mode is not SensitivityMode.BASE_DIRECT

    jx_k, ju_k = model.jacobians_batch(x_k)
    counters.jac_x_evals += nb
    if reuse:
        factors = linalg.lu_factorize_batch(eye - hg * jx_k)
        counters.lu_factorizations += nb

    # stage predictors (and their derivatives for the iterated mode)
    if prev is None:
        predictions = [x_k] * (s - 1)
        sens_predictions = [sens_k] * (s - 1)
    else:
        x_prev, stages_prev, sens_prev, stage_sens_prev = prev
        predictions = predict_stages(tab.svp, x_prev, stages_prev)
        if iterated:
            sens_predictions = predict_stages(tab.svp, sens_prev,
                                              stage_sens_prev)

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
        for l in range(settings.max_iterations + 1):
            xa = x_it[active]
            try:
                fa = model.f_batch(xa, u[active], d)
            except DomainError as exc:
                raise _remap_batch_row(exc, active)
            counters.f_evals += active.size
            r = xa - hg * fa - psi_i[active]
            if l:
                denom = np.maximum(settings.abs, settings.rel * np.abs(xa))
                done = np.max(np.abs(r) / denom, axis=1) < settings.tau
                if done.any():
                    f_conv[active[done]] = fa[done]
                    keep = ~done
                    active = active[keep]
                    if not active.size:
                        break
                    r = r[keep]
                if l == settings.max_iterations:
                    row = int(active[0])
                    exc = NewtonDivergence(
                        f"stage {i}, batch row {row}: no convergence in "
                        f"{settings.max_iterations} iterations")
                    exc.batch_row = row
                    raise exc
            if iterated or not reuse:
                try:
                    jx_it, ju_it = model.jacobians_batch(x_it[active])
                    counters.jac_x_evals += active.size
                    if not reuse:
                        fac = linalg.lu_factorize_batch(eye - hg * jx_it)
                        counters.lu_factorizations += active.size
                except (DomainError, SingularMatrix) as exc:
                    raise _remap_batch_row(exc, active)
            if reuse:
                fac = factors[active]
            x_it[active] -= linalg.lu_solve_batch(fac, r)
            if iterated:
                counters.jac_u_evals += active.size
                sens_it[active] = iterated_propagate(
                    sens_it[active], jx_it, ju_it, dpsi_i[active], fac, hg)
                jx_conv[active] = jx_it
                ju_conv[active] = ju_it
            counters.newton_iterations += active.size

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
            if not reuse:
                factors = linalg.lu_factorize_batch(eye - hg * jx_i)
                counters.lu_factorizations += nb
            sens_i = direct_propagate(dpsi_i, ju_i, factors, hg)
        stage_sens.append(sens_i)

    return stages, stage_sens
