"""State and input sensitivity propagation for the ESDIRK steps.

Sensitivities are packed per batch row as one (n_x, n_x + n_u) matrix
[d/dx0 | d/du]. Two propagation passes run after the state pass of a
step (see ``integrator.esdirk_step``, whose step record they read):

* iterated: differentiates the scheme as executed, replaying exactly the
  recorded Newton updates of every stage with the same iteration matrix
  factorization and the Jacobians stored at each iterate.
* direct: treats the stage equations as solved exactly and reads the
  sensitivities off the (approximate) iteration matrix of the step; cheap
  but biased for large step sizes. With BASE_DIRECT (base-direct) it
  factorizes the exact stage matrix I - h*gamma*df/dx(X_i) fresh at every
  converged stage instead.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg


class SensitivityMode(enum.Enum):
    ITERATED = "iterated"
    DIRECT = "direct"
    BASE_DIRECT = "base"
    NONE = "none"


@dataclass
class SensitivityPair:
    """d(.)/dx0 and d(.)/du of a state-like quantity."""
    wrt_x0: np.ndarray
    wrt_u: np.ndarray


def _psi_derivative(step, stage_sens, i, h, a, n_x):
    """Packed [dpsi_i/dx0 | dpsi_i/du] from converged-stage data.

    Stage 1 is the explicit stage x_k; its Jacobians are the ones evaluated
    at the step start. Stages j >= 2 use the converged-stage Jacobians and
    the already propagated stage sensitivities.
    """
    p = step["sens_in"]
    out = p.copy()
    for j in range(i):
        sj = p if j == 0 else stage_sens[j - 1]
        contrib = step["stage_jx"][j] @ sj
        contrib[:, :, n_x:] += step["stage_ju"][j]
        out += h * a[i, j] * contrib
    return out


def iterated_propagate(step, tab, h):
    """Replay the recorded Newton updates of every stage on the sensitivities.

    Each row gets exactly the updates its state iteration made, with the
    step's single iteration matrix factorization and the Jacobians stored
    at each iterate; adds no factorizations and no model evaluations.
    Returns the packed sensitivities of the implicit stages.
    """
    n_x = step["sens_in"].shape[1]
    hg = h * tab.gamma
    factors = step["factors"]
    stage_sens = []
    for idx in range(tab.s - 1):
        dpsi = _psi_derivative(step, stage_sens, idx + 1, h, tab.a, n_x)
        s_cur = step["sens_init"][idx].copy()
        for rows, jx, ju in step["newton_rounds"][idx]:
            sm = s_cur[rows]
            dres = sm - hg * (jx @ sm) - dpsi[rows]
            dres[:, :, n_x:] -= hg * ju
            s_cur[rows] = sm - linalg.lu_solve_batch(factors.rows(rows), dres)
        stage_sens.append(s_cur)
    return stage_sens


def direct_propagate(step, model, tab, h, mode, counters):
    """Stage sensitivities from the converged stage equations.

    Evaluates what the formulas need beyond the state pass: df/du at every
    implicit stage, and for DIRECT df/dx at stages 2..s-1 (BASE_DIRECT
    reuses the state pass's converged-stage Jacobians). DIRECT solves with
    the step's iteration matrix factorization; BASE_DIRECT factorizes the
    exact stage matrix per stage. Returns the packed sensitivities of the
    implicit stages.
    """
    s, n_x = tab.s, model.n_x
    hg = h * tab.gamma
    nb = step["sens_in"].shape[0]
    stage_jx, stage_ju = step["stage_jx"], step["stage_ju"]
    for i in range(1, s):
        jx_i, stage_ju[i] = model.jacobians_batch(step["stages"][i - 1])
        counters.jac_u_evals += nb
        if stage_jx[i] is None and i < s - 1:
            counters.jac_x_evals += nb
            stage_jx[i] = jx_i
    stage_sens = []
    for i in range(1, s):
        rhs = _psi_derivative(step, stage_sens, i, h, tab.a, n_x)
        rhs[:, :, n_x:] += hg * stage_ju[i]
        if mode is SensitivityMode.BASE_DIRECT:
            factors = linalg.lu_factorize_batch(np.eye(n_x) - hg * stage_jx[i])
            counters.lu_factorizations += nb
        else:
            factors = step["factors"]
        stage_sens.append(linalg.lu_solve_batch(factors, rhs))
    return stage_sens


def fd_sensitivity_oracle(model, tab, x0, u, d, t0, tf, n_steps,
                          rel_step=1e-6, strategy=None, settings=None):
    """Central finite differences of the terminal state of one interval.

    Independent check for the analytic propagation paths: integrates the
    2*(n_x + n_u) perturbed intervals as one batch, with tight Newton
    tolerances and no sensitivity mode.
    """
    from . import integrator

    if settings is None:
        settings = integrator.NewtonSettings(abs=1e-12, rel=1e-12,
                                             max_iterations=50)
    if strategy is None:
        strategy = integrator.NewtonStrategy.REUSE_PER_STEP

    n_x, n = model.n_x, model.n_x + model.n_u
    base = np.concatenate((np.asarray(x0, float), np.asarray(u, float)))
    eps = rel_step * (1.0 + np.abs(base))
    rows = np.tile(base, (2 * n, 1))
    rows[:n] += np.diag(eps)
    rows[n:] -= np.diag(eps)
    res = integrator.integrate_intervals_batch(
        model, tab, strategy, settings, SensitivityMode.NONE,
        rows[:, :n_x], rows[:, n_x:], d, tf - t0, n_steps,
        integrator.WorkCounters())
    jac = (res.x_final[:n] - res.x_final[n:]).T / (2.0 * eps)
    return SensitivityPair(jac[:, :n_x], jac[:, n_x:])
