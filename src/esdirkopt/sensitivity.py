"""State and input sensitivity propagation for the ESDIRK steps.

Sensitivities are packed per batch row as one (n_x, n_x + n_u) matrix
[d/dx0 | d/du]; ``SensitivityPair`` views its two column ranges. The
integrator's sensitivity pass replays the record of its state pass step
by step and stage by stage, from dpsi_i = S_k + sum_j h*a_ij*dF_j with
dF_j = df/dx_j S_j + [0 | df/du_j] formed once per stage.

The three modes are one IND recursion: each recorded round makes the
update ``iterated_propagate`` on the stage sensitivities of its rows,
with its factors and the Jacobians at its points. The modes differ only
in the points, the matrix and the number of rounds:

* iterated: the state's Newton rounds at its iterates, with the step's
  iteration matrix, from the predicted stage sensitivities.
* direct: one round from zero at the converged stage with the step's
  (approximate) iteration matrix; cheap but biased for large step sizes.
* base (BASE_DIRECT): that round with the exact stage matrix
  I - h*gamma*df/dx(X_i), factorized fresh at every converged stage.
"""

import enum

import numpy as np

from . import linalg


class SensitivityMode(enum.Enum):
    ITERATED = "iterated"
    DIRECT = "direct"
    BASE_DIRECT = "base"


class SensitivityPair:
    """d(.)/dx0 and d(.)/du of a state-like quantity: ``wrt_x0`` and
    ``wrt_u`` are views of the packed [d/dx0 | d/du] array ``packed``."""

    def __init__(self, packed, n_x):
        self.packed = packed
        self.wrt_x0 = packed[..., :n_x]
        self.wrt_u = packed[..., n_x:]


def iterated_propagate(sens, jx, ju, dpsi, fac, hg):
    """One IND round on the stage sensitivities of the round's rows.

    ``sens`` and ``dpsi`` hold those rows' stage sensitivities and
    [dpsi_i/dx0 | dpsi_i/du], ``jx``/``ju`` the Jacobians at the round's
    points and ``fac`` its factors. Returns the updated stage
    sensitivities.
    """
    n_x = jx.shape[1]
    dres = sens - hg * (jx @ sens) - dpsi
    dres[:, :, n_x:] -= hg * ju
    return sens - linalg.lu_solve_batch(fac, dres)


def direct_propagate(dpsi, ju, fac, hg):
    """The closed form of one round from zero: iterated_propagate(0, jx,
    ju, dpsi, fac, hg) bit for bit, for any finite jx. It solves the
    differentiated stage equation once with the factors ``fac``."""
    rhs = dpsi.copy()
    rhs[:, :, dpsi.shape[1]:] += hg * ju
    return linalg.lu_solve_batch(fac, rhs)


def fd_sensitivity_oracle(model, tab, x0, u, d, t0, tf, n_steps,
                          rel_step=1e-6):
    """Central finite differences of the terminal state of one interval.

    Independent check for the analytic propagation paths: integrates the
    2*(n_x + n_u) perturbed intervals as one batch, reusing the iteration
    matrix per step, with tight Newton tolerances. The states of a mode
    that reuses the iteration matrix do not depend on its sensitivities, so
    the batch runs in the cheaper DIRECT mode and only its terminal states
    are read.
    """
    from . import integrator

    n_x, n = model.n_x, model.n_x + model.n_u
    base = np.concatenate((np.asarray(x0, float), np.asarray(u, float)))
    eps = rel_step * (1.0 + np.abs(base))
    rows = np.tile(base, (2 * n, 1))
    rows[:n] += np.diag(eps)
    rows[n:] -= np.diag(eps)
    res = integrator.integrate_intervals_batch(
        model, tab,
        integrator.NewtonSettings(abs=1e-12, rel=1e-12, max_iterations=50),
        SensitivityMode.DIRECT, rows[:, :n_x], rows[:, n_x:], d, tf - t0,
        n_steps, integrator.WorkCounters())
    jac = (res.x_final[:n] - res.x_final[n:]).T / (2.0 * eps)
    return SensitivityPair(jac, n_x)
