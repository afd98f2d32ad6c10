"""Fixed-step ESDIRK integration with inexact Newton stage solves.

Each step solves the implicit stage equations R_i(X_i) = X_i - h*gamma*
f(X_i, u) - psi_i = 0 with an inexact Newton method. The integrator runs
a batch of independent intervals in lockstep, one row per interval: every
Newton round evaluates the model once for all rows still iterating, and a
single interval is the batch of one row. The sensitivity mode fixes the
iteration matrix strategy (``strategy_of``): the base case takes a fresh
Jacobian and factorization at every Newton iterate, every other mode one
factorization of M_k = I - h*gamma*df/dx(x_k) per step.

An interval runs in two passes: the state pass (``esdirk_step``) records
each stage's IND rounds, and the sensitivity pass replays them, bit for
bit as if each stage were differentiated as it is solved. The modes are
one IND recursion that differs only in the points, the matrix and the
number of rounds (see ``sensitivity``). Work counters count, row by row,
the model evaluations and factorizations each mode needs (the README's
"Counted work" table) where that interleaved algorithm does them, so a
failed integration counts the sensitivity work it had scheduled.
Direct's Jacobian at the last stage also computes df/dx, which no later
stage reads; only its df/du counts.
"""

import enum
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import (ContractViolation, DomainError, NewtonDivergence,
                     SingularMatrix, check_integer, check_positive)
# ``direct_propagate`` is unused here; the benchmark's tracer patches it
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
        check_positive("tau", self.tau, most=1.0)
        check_positive("abs", self.abs)
        check_positive("rel", self.rel)
        check_integer("max_iterations", self.max_iterations, 1)


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
    singular iteration matrix; a bad n_steps or dt is a ConfigError.

    The model is autonomous, with ``n_x`` states and ``n_u`` inputs, and
    provides ``f_batch(x, u, d)``, f over a (B, n_x) stack of states with
    (B, n_u) inputs; ``jacobians_batch(x)``, the (B, n_x, n_x) df/dx and
    the df/du, which may be one (n_x, n_u) matrix shared by the batch; and
    ``output_matrix()``, the constant C of the outputs z = C x.
    """
    check_integer("n_steps", n_steps, 1)
    check_positive("dt", dt)
    x = np.asarray(x_0, float)
    u = np.asarray(u, float)
    h = dt / n_steps

    steps = []
    for _ in range(n_steps):
        steps.append(esdirk_step(model, tab, settings, mode, x, u, d, h,
                                 steps[-1] if steps else None, counters))
        x = steps[-1].stages[-1]
    traj = np.stack([steps[0].x_k] + [st.stages[-1] for st in steps], axis=1)
    return IntervalResult(x, traj,
                          _sensitivity_pass(model, tab, mode, steps, h))


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


#: a state pass step: x_k, the converged stages, (df/dx, df/du) at x_k (None
#: for base) and per stage its IND rounds (rows, points, factors): iterated's
#: Newton rounds, else one at the converged stage with M_k's factors or None
StepRecord = namedtuple("StepRecord", "x_k stages jacobians rounds")


def esdirk_step(model, tab, settings, mode, x_k, u, d, h, prev, counters):
    """The state pass of one ESDIRK step of size h from the (B, n_x)
    states x_k under the (B, n_u) inputs u.

    ``prev`` is the previous step's record, whose stages the tableau's
    stage value predictors extend, or None for the trivial predictor
    X_i^0 = x_k. A row leaves the Newton loop of a stage as soon as its
    scaled residual is below tau, after at least one update however good
    its predictor. A round in which every row still iterates indexes the
    arrays through views; only after the first row leaves does it gather
    the rest. The counters include the sensitivity work to come.

    Returns the StepRecord; its last stage is the step result by stiff
    accuracy. Raises a row error whose ``batch_row``, which its message
    names, is the failing row of the full batch.
    """
    s = tab.s
    hg = h * tab.gamma
    nb = x_k.shape[0]
    eye = np.eye(model.n_x)
    iterated = mode is SensitivityMode.ITERATED
    reuse = mode is not SensitivityMode.BASE_DIRECT

    jacobians = factors = None
    if reuse:
        jacobians = model.jacobians_batch(x_k)
        counters.jac_x_evals += nb
        factors = linalg.lu_factorize_batch(eye - hg * jacobians[0])
        counters.lu_factorizations += nb
    predictions = ([x_k] * (s - 1) if prev is None
                   else predict_stages(tab.svp, prev.x_k, prev.stages))
    f_vals = [model.f_batch(x_k, u, d)]
    if not reuse:                # x_k's Jacobian waits for the sensitivities
        counters.jac_x_evals += nb
    counters.f_evals += nb
    counters.jac_u_evals += nb

    stages, rounds = [], []
    ha = h * tab.a
    for idx in range(s - 1):
        i = idx + 2                      # 1-based stage index
        psi_i = x_k + ha[i - 1, 0] * f_vals[0]
        for j in range(1, i - 1):
            psi_i += ha[i - 1, j] * f_vals[j]
        x_it = predictions[idx].copy()
        f_conv = np.empty_like(x_k)
        # ``active`` numbers the still-iterating rows for the counters and
        # the errors; ``rows`` indexes the arrays by them
        active = np.arange(nb)
        rows = slice(None)
        rounds.append([])
        for l in range(settings.max_iterations + 1):
            xa = x_it[rows]
            try:
                fa = model.f_batch(xa, u[rows], d)
            except DomainError as exc:       # subset row -> full batch
                exc.batch_row = int(active[exc.batch_row])
                raise
            counters.f_evals += active.size
            r = xa - hg * fa - psi_i[rows]
            if l:
                denom = np.maximum(settings.abs, settings.rel * np.abs(xa))
                done = (np.abs(r) / denom).max(axis=1) < settings.tau
                if done.any():
                    f_conv[active[done]] = fa[done]
                    keep = ~done
                    active = rows = active[keep]
                    if not active.size:
                        break
                    r = r[keep]
                if l == settings.max_iterations:
                    raise NewtonDivergence(
                        f"stage {i}: no convergence after "
                        f"{settings.max_iterations} iterations",
                        int(active[0]))
            if reuse:
                fac = factors[rows]
                if iterated:
                    rounds[-1].append((rows, x_it[rows].copy(), fac))
                    counters.jac_x_evals += active.size
                    counters.jac_u_evals += active.size
            else:
                try:
                    jx_it, _ = model.jacobians_batch(x_it[rows])
                    counters.jac_x_evals += active.size
                    fac = linalg.lu_factorize_batch(eye - hg * jx_it)
                    counters.lu_factorizations += active.size
                except (DomainError, SingularMatrix) as exc:
                    exc.batch_row = int(active[exc.batch_row])
                    raise
            x_it[rows] -= linalg.lu_solve_batch(fac, r)
            counters.newton_iterations += active.size

        stages.append(x_it)
        f_vals.append(f_conv)
        if not iterated:
            rounds[-1].append((slice(None), x_it, factors))
            # the converged stage's Jacobians (and base's factors) that the
            # sensitivities take; direct counts df/dx where later stages
            # use it
            if not reuse or idx < s - 2:
                counters.jac_x_evals += nb
            counters.jac_u_evals += nb
            if not reuse:
                counters.lu_factorizations += nb

    return StepRecord(x_k, stages, jacobians, rounds)


def _sensitivity_pass(model, tab, mode, steps, h):
    """The packed sensitivities after each step, replayed from the state
    pass's records ``steps``.

    Every stage starts from its predicted sensitivities (iterated) or from
    zero (direct and base) and replays its recorded rounds. One model call
    takes the Jacobians at every round's points and, for base, at each x_k;
    one call factorizes base's stage matrices. A singular one raises
    SingularMatrix whose batch_row is the interval.
    """
    s, hg, ha = tab.s, h * tab.gamma, h * tab.a
    nb, n_x = steps[0].x_k.shape
    iterated = mode is SensitivityMode.ITERATED
    base = mode is SensitivityMode.BASE_DIRECT
    points = [x for st in steps for stage in st.rounds for _, x, _ in stage]
    n_round_rows = sum(map(len, points))
    if base:
        points += [st.x_k for st in steps]
    jx, ju = model.jacobians_batch(np.concatenate(points))
    ju = np.broadcast_to(ju, jx.shape[:1] + ju.shape[-2:])
    if base:
        try:
            stage_factors = linalg.lu_factorize_batch(
                np.eye(n_x) - hg * jx[:n_round_rows])
        except SingularMatrix as exc:   # stack row -> the interval's row
            exc.batch_row %= nb
            raise

    sens = np.tile(np.eye(n_x, n_x + model.n_u), (nb, 1, 1))
    step_sens, prev, at = [], None, 0    # at: the next unread row of jx
    for k, st in enumerate(steps):
        x_at = n_round_rows + k * nb        # base: x_k's rows of jx
        jx_i, ju_i = st.jacobians or (jx[x_at:x_at + nb], ju[x_at:x_at + nb])
        sens_k = sens_i = sens
        starts = [sens if iterated else np.zeros_like(sens)] * (s - 1)
        if iterated and prev is not None:
            starts = predict_stages(tab.svp, *prev)
        stage_sens = []
        d_vals = []              # packed dF_j = df/dx S_j + [0 | df/du]
        for idx in range(s - 1):
            d_vals.append(jx_i @ sens_i)         # of the previous stage
            d_vals[-1][:, :, n_x:] += ju_i
            dpsi_i = sens_k + ha[idx + 1, 0] * d_vals[0]
            for j in range(1, idx + 1):
                dpsi_i += ha[idx + 1, j] * d_vals[j]
            # each row's converged-stage Jacobians: its last round's
            sens_i = starts[idx].copy()
            jx_i = np.empty((nb,) + jx.shape[1:])
            ju_i = np.empty((nb,) + ju.shape[1:])
            for rows, x, fac in st.rounds[idx]:
                jx_r, ju_r = jx[at:at + len(x)], ju[at:at + len(x)]
                if fac is None:                  # base: the stage's own
                    fac = stage_factors[at:at + len(x)]
                at += len(x)
                sens_i[rows] = iterated_propagate(
                    sens_i[rows], jx_r, ju_r, dpsi_i[rows], fac, hg)
                jx_i[rows] = jx_r
                ju_i[rows] = ju_r
            stage_sens.append(sens_i)
        prev = (sens_k, stage_sens)
        sens = stage_sens[-1]
        step_sens.append(sens)
    return step_sens
