"""Multiple-shooting transcription of the tracking optimal control problem.

The decision vector interleaves inputs and shooting states as
w = [u_0, x_1, u_1, x_2, ..., u_{Nc-1}, x_Nc]; x_0 is fixed by the problem.
Reshaped to (Nc, n_u + n_x), row n is the block [u_n, x_{n+1}] of control
interval n. ``DecisionVector.U`` (Nc, n_u) and ``DecisionVector.X``
(Nc, n_x) are the two column ranges of that block view, writable views of
w: ``U[n]`` is u_n and ``X[n]`` is x_{n+1}. Every layer reads and writes the
layout through them.

Each control interval is integrated as an independent initial value
problem with sensitivities reset to (I, 0) at the interval start, which
yields the continuity residuals c_n = x_{n+1} - F_n(x_n, u_n) and their
Jacobian blocks A_n = dF_n/dx_n and B_n = dF_n/du_n, stacked over n.
The problem's sensitivity mode also fixes the integrator's Newton
strategy (see ``integrator.strategy_of``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DomainError, EvaluationError,
                     NewtonDivergence, SingularMatrix, check_integer,
                     check_positive)
from .integrator import NewtonSettings, integrate_intervals_batch
from .sensitivity import SensitivityMode


@dataclass
class OcpProblem:
    """Building one checks Ts, Nc, N, x0, the shape of every other array
    and the input bounds; a ConfigError names the first bad field."""
    model: object
    x0: np.ndarray
    Ts: float
    Nc: int
    N: int
    Qz: np.ndarray
    Qdu: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    setpoint: callable     # t -> z rows, one per time in t
    u_prev: np.ndarray
    d: np.ndarray
    tableau: object
    mode: SensitivityMode
    newton: NewtonSettings

    def __post_init__(self):
        check_positive("Ts", self.Ts)
        check_integer("Nc", self.Nc, 1)
        check_integer("N", self.N, 1)
        n_x, x0 = self.model.n_x, np.asarray(self.x0)
        if (x0.shape != (n_x,) or x0.dtype.kind not in "iuf"
                or not np.all(np.isfinite(x0))):
            raise ConfigError(f"x0: expected {n_x} finite values, "
                              f"got {self.x0!r}")
        n_u, n_z = self.model.n_u, len(self.model.output_matrix())
        for name, shape in [("u_min", (n_u,)), ("u_max", (n_u,)),
                            ("u_prev", (n_u,)), ("d", (n_x,)),
                            ("Qz", (n_z, n_z)), ("Qdu", (n_u, n_u))]:
            if np.shape(getattr(self, name)) != shape:
                raise ConfigError(f"{name}: expected shape {shape}, got "
                                  f"{np.shape(getattr(self, name))}")
        # written so that NaN fails the test
        if not np.all(self.u_min <= self.u_max):
            raise ConfigError("u_min: must not exceed u_max")

    @property
    def qdu_bar(self):
        return self.Qdu / self.Ts


class DecisionVector:
    """Flat decision vector w with its block views U = [u_n] and
    X = [x_{n+1}], both writable views of w."""

    def __init__(self, w, n_x, n_u, Nc):
        w = np.asarray(w, float)
        if w.shape != (Nc * (n_x + n_u),):
            raise ValueError(f"decision vector must have length {Nc * (n_x + n_u)}")
        self.w = w
        self.n_x = n_x
        self.n_u = n_u
        self.Nc = Nc
        blocks = w.reshape(Nc, n_u + n_x)
        self.U = blocks[:, :n_u]
        self.X = blocks[:, n_u:]

    @classmethod
    def filled(cls, value, n_x, n_u, Nc):
        return cls(np.full(Nc * (n_x + n_u), float(value)), n_x, n_u, Nc)

    def copy(self):
        return DecisionVector(self.w.copy(), self.n_x, self.n_u, self.Nc)


@dataclass
class Evaluation:
    """One full NLP evaluation at a decision vector."""
    phi: float
    grad: np.ndarray
    c: np.ndarray                  # continuity residuals, (Nc, n_x)
    A: np.ndarray                  # dF_n/dx_n, (Nc, n_x, n_x)
    B: np.ndarray                  # dF_n/du_n, (Nc, n_x, n_u)


def evaluate(problem, w, counters):
    """Objective, gradient, continuity residuals and Jacobian blocks at w.

    The tracking integral is discretized with the right-endpoint rule
    over every integration step, so each interval's contribution is a
    function of that interval's initial shooting state and input through
    the integrator, and its gradient flows through the step sensitivities.

    The shooting intervals are independent initial value problems, so
    they are integrated as one batch in lockstep, one model call per Newton
    round for all of them.
    """
    m = problem.model
    n_x, n_u, Nc = m.n_x, m.n_u, problem.Nc
    Ts = problem.Ts
    N = problem.N
    h = Ts / N
    C = m.output_matrix()
    Qz = problem.Qz
    x_starts = np.vstack([problem.x0, w.X[:-1]])
    try:
        res = integrate_intervals_batch(
            m, problem.tableau, problem.newton, problem.mode, x_starts,
            w.U, problem.d, Ts, N, counters)
    except (DomainError, NewtonDivergence, SingularMatrix) as exc:
        raise EvaluationError(exc.batch_row, exc) from exc

    c = w.X - res.x_final
    grad = DecisionVector.filled(0.0, n_x, n_u, Nc)
    n_idx = np.arange(Nc)
    phi_z = 0.0
    for k in range(1, N + 1):
        zbar = problem.setpoint(n_idx * Ts + k * h)
        err = res.trajectory[:, k] @ C.T - zbar
        phi_z += 0.5 * h * float(np.einsum("bi,ij,bj->", err, Qz, err))
        gz = h * (err @ Qz.T) @ C
        sens_k = res.step_sens[k - 1]
        # d/dx_n enters X[n - 1]; interval 0 starts at the fixed x0
        grad.X[:-1] += np.einsum("bij,bi->bj", sens_k[1:, :, :n_x], gz[1:])
        grad.U += np.einsum("bij,bi->bj", sens_k[:, :, n_x:], gz)

    qdu_bar = problem.qdu_bar
    du = np.diff(w.U, axis=0, prepend=problem.u_prev[None])
    phi_du = 0.5 * float(np.einsum("bi,ij,bj->", du, qdu_bar, du))
    grad.U += du @ qdu_bar.T
    grad.U[:-1] -= du[1:] @ qdu_bar.T
    # contiguous blocks: products with strided views differ in the last bits
    return Evaluation(phi=phi_z + phi_du, grad=grad.w, c=c,
                      A=res.sens.wrt_x0.copy(), B=res.sens.wrt_u.copy())


def constraint_jacobian_transpose_times(ev, w, lam):
    """J_c(w)^T lam for the block-bidiagonal continuity Jacobian.

    lam has shape (Nc, n_x); row n multiplies c_n = x_{n+1} - F_n(x_n, u_n),
    so u_n collects -B_n^T lam_n and x_{n+1} collects lam_n - A_{n+1}^T
    lam_{n+1}.
    """
    out = DecisionVector.filled(0.0, w.n_x, w.n_u, w.Nc)
    out.U[:] = -(lam[:, None] @ ev.B)[:, 0]
    out.X[:] = lam
    out.X[:-1] -= (lam[1:, None] @ ev.A[1:])[:, 0]
    return out.w

