"""Multiple-shooting transcription of the tracking optimal control problem.

The decision vector interleaves inputs and shooting states as
[u_0, x_1, u_1, x_2, ..., u_{Nc-1}, x_Nc]; x_0 is fixed by the problem.
Each control interval is integrated as an independent initial value
problem with sensitivities reset to (I, 0) at the interval start, which
yields the continuity residuals and their block Jacobians.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, EvaluationError, NewtonDivergence,
                     SingularMatrix)
from .integrator import (NewtonSettings, NewtonStrategy, integrate_interval,
                         integrate_intervals_batch)
from .sensitivity import SensitivityMode


@dataclass
class OcpProblem:
    model: object
    x0: np.ndarray
    Ts: float
    Nc: int
    N: int
    Qz: np.ndarray
    Qdu: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    setpoint: callable
    u_prev: np.ndarray
    d: np.ndarray
    tableau: object
    strategy: NewtonStrategy
    mode: SensitivityMode
    newton: NewtonSettings

    def __post_init__(self):
        if self.Ts <= 0 or self.Nc < 1 or self.N < 1:
            raise ValueError("Ts, Nc, N must be positive")
        if np.any(self.u_min > self.u_max):
            raise ValueError("u_min must not exceed u_max")

    @property
    def horizon(self):
        return self.Ts * self.Nc

    @property
    def qdu_bar(self):
        return self.Qdu / self.Ts


class DecisionVector:
    """Flat decision vector with [u_n, x_{n+1}] blocks."""

    def __init__(self, w, n_x, n_u, Nc):
        w = np.asarray(w, float)
        if w.shape != (Nc * (n_x + n_u),):
            raise ValueError(f"decision vector must have length {Nc * (n_x + n_u)}")
        self.w = w
        self.n_x = n_x
        self.n_u = n_u
        self.Nc = Nc

    @classmethod
    def filled(cls, value, n_x, n_u, Nc):
        return cls(np.full(Nc * (n_x + n_u), float(value)), n_x, n_u, Nc)

    def copy(self):
        return DecisionVector(self.w.copy(), self.n_x, self.n_u, self.Nc)

    def _block(self, n):
        return n * (self.n_x + self.n_u)

    def u(self, n):
        o = self._block(n)
        return self.w[o:o + self.n_u]

    def x(self, n):
        """Shooting state x_n for n = 1..Nc."""
        o = self._block(n - 1) + self.n_u
        return self.w[o:o + self.n_x]

    def u_slice(self, n):
        o = self._block(n)
        return slice(o, o + self.n_u)

    def x_slice(self, n):
        o = self._block(n - 1) + self.n_u
        return slice(o, o + self.n_x)


@dataclass
class Evaluation:
    """One full NLP evaluation at a decision vector."""
    phi: float
    phi_z: float
    phi_du: float
    grad: np.ndarray
    c: np.ndarray                  # continuity residuals, (Nc, n_x)
    A: list                        # dF_n/dx_n per interval
    B: list                        # dF_n/du_n per interval
    outputs: np.ndarray            # z at shooting nodes 1..Nc
    setpoints: np.ndarray


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
    horizon = problem.horizon
    W = w.w.reshape(Nc, n_u + n_x)
    x_starts = np.empty((Nc, n_x))
    x_starts[0] = problem.x0
    x_starts[1:] = W[:-1, n_u:]
    us = W[:, :n_u]
    try:
        res = integrate_intervals_batch(
            m, problem.tableau, problem.strategy, problem.newton,
            problem.mode, x_starts, us, problem.d, Ts, N, counters)
    except (DomainError, NewtonDivergence, SingularMatrix) as exc:
        raise EvaluationError(exc.batch_row, exc) from exc

    c = W[:, n_u:] - res.x_final
    grad = np.zeros_like(w.w)
    G = grad.reshape(Nc, n_u + n_x)
    n_idx = np.arange(Nc)
    phi_z = 0.0
    for k in range(1, N + 1):
        t_k = n_idx * Ts + k * h
        zbar = np.stack([problem.setpoint(t, horizon) for t in t_k])
        err = res.trajectory[:, k] @ C.T - zbar
        phi_z += 0.5 * h * float(np.einsum("bi,ij,bj->", err, Qz, err))
        gz = h * (err @ Qz.T) @ C
        sens_k = res.step_sens[k - 1]
        # d/dx_n enters block n-1's state part; interval 0 starts at x0
        G[:-1, n_u:] += np.einsum("bij,bi->bj", sens_k[1:, :, :n_x], gz[1:])
        G[:, :n_u] += np.einsum("bij,bi->bj", sens_k[:, :, n_x:], gz)
    outputs = res.x_final @ C.T
    setpoints = np.stack([problem.setpoint((n + 1) * Ts, horizon)
                          for n in range(Nc)])

    qdu_bar = problem.qdu_bar
    du = np.empty((Nc, n_u))
    du[0] = us[0] - problem.u_prev
    du[1:] = us[1:] - us[:-1]
    phi_du = 0.5 * float(np.einsum("bi,ij,bj->", du, qdu_bar, du))
    G[:, :n_u] += du @ qdu_bar.T
    G[:-1, :n_u] -= du[1:] @ qdu_bar.T
    return Evaluation(phi=phi_z + phi_du, phi_z=phi_z, phi_du=phi_du,
                      grad=grad, c=c, A=list(res.sens_wrt_x0),
                      B=list(res.sens_wrt_u), outputs=outputs,
                      setpoints=setpoints)


def constraint_jacobian_transpose_times(ev, w, lam):
    """J_c(w)^T lam for the block-bidiagonal continuity Jacobian.

    lam has shape (Nc, n_x); row n multiplies c_n = x_{n+1} - F_n(x_n, u_n).
    """
    out = np.zeros_like(w.w)
    Nc = w.Nc
    for n in range(Nc):
        out[w.u_slice(n)] -= ev.B[n].T @ lam[n]
        out[w.x_slice(n + 1)] += lam[n]
        if n + 1 <= Nc - 1:
            out[w.x_slice(n + 1)] -= ev.A[n + 1].T @ lam[n + 1]
    return out


def simulate_decision_vector(problem, u_value, counters=None):
    """Forward-simulated decision vector: x_{n+1} := F_n(x_n, u_n)."""
    from .integrator import WorkCounters

    if counters is None:
        counters = WorkCounters()
    m = problem.model
    w = DecisionVector.filled(0.0, m.n_x, m.n_u, problem.Nc)
    x = np.asarray(problem.x0, float)
    u = np.full(m.n_u, float(u_value))
    for n in range(problem.Nc):
        w.w[w.u_slice(n)] = u
        res = integrate_interval(
            m, problem.tableau, problem.strategy, problem.newton,
            SensitivityMode.NONE, x, u, problem.d,
            n * problem.Ts, (n + 1) * problem.Ts, problem.N, counters)
        x = res.x_final
        w.w[w.x_slice(n + 1)] = x
    return w
