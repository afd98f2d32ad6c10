"""Line-search SQP with damped BFGS updates and an l1 merit function."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import EvaluationError
from .integrator import WorkCounters
from .nlp import DecisionVector, constraint_jacobian_transpose_times, evaluate
from .qp import QpProblem, ShootingHessian, solve_qp

ARMIJO_C1 = 1e-4          # sufficient decrease factor of the line search
BACKTRACK_FACTOR = 0.5    # step length ratio between two line-search trials
HESSIAN_REG = 1e-6        # identity shift that makes the Hessian seed definite
HESSIAN_SEED_U = 0.04     # extra input curvature of the seed, per unit time
BFGS_DAMPING = 0.2        # Powell damping threshold on s'y / s'Hs
BFGS_SKIP_NORM = 1e-14    # shorter s or y leaves the BFGS matrix unchanged


@dataclass
class SqpSettings:
    tol_kkt: float = 1e-3
    tol_qp: float = 1e-8
    tol_step: float = 1e-8
    max_sqp_iter: int = 200

    def __post_init__(self):
        if min(self.tol_kkt, self.tol_qp, self.tol_step) <= 0:
            raise ValueError("tolerances must be positive")
        # the line search tries alpha = 1 first: a larger tol_step tries none
        if self.tol_step > 1:
            raise ValueError("tol_step must not exceed 1")


@dataclass
class SqpResult:
    w_star: DecisionVector
    converged: bool
    kkt: float
    sqp_iterations: int
    qp_iterations_total: int
    counters: WorkCounters
    failure_reason: str = None     # StepLengthBelowTolerance | IterationLimit
    #                              # | EvaluationFailure
    objective: float = float("nan")


def bfgs_update(H, s, y):
    """Powell-damped BFGS update keeping H symmetric positive definite.

    H is a `ShootingHessian`; the update H - Hs Hs'/s'Hs + y y'/s'y is
    returned as a new one with y/sqrt(s'y) appended to Vp and
    Hs/sqrt(s'Hs) to Vm. When s'y < BFGS_DAMPING*s'Hs, y is first moved
    toward Hs until s'y equals that bound. H itself is returned when s or
    y is shorter than BFGS_SKIP_NORM.
    """
    s = np.asarray(s, float)
    y = np.asarray(y, float)
    if np.linalg.norm(s) < BFGS_SKIP_NORM \
            or np.linalg.norm(y) < BFGS_SKIP_NORM:
        return H
    Hs = H @ s
    sHs = s @ Hs
    sy = s @ y
    if sy < BFGS_DAMPING * sHs:
        theta = (1.0 - BFGS_DAMPING) * sHs / (sHs - sy)
        y = theta * y + (1.0 - theta) * Hs
        sy = s @ y
    return replace(H, Vp=np.column_stack([H.Vp, y / np.sqrt(sy)]),
                   Vm=np.column_stack([H.Vm, Hs / np.sqrt(sHs)]))


def kkt_violation(grad_l, c, w, problem, mu, side):
    """Composite optimality residual in the infinity norm.

    grad_l is the Lagrangian gradient grad phi + J_c' lam at w, which the
    caller has already formed, and c the continuity residual at w. mu and
    side are the signed bound multipliers and the working set of
    `QpSolution`. side, not the sign of mu, names the bound a multiplier
    belongs to: the QP stops with a held bound's multiplier anywhere up to
    its tolerance on the wrong side of 0. Maximum of Lagrangian
    stationarity, continuity violation, bound violation, and
    complementarity of the bound multipliers.
    """
    mu = mu.reshape(w.U.shape)
    side = side.reshape(w.U.shape)
    grad_l = DecisionVector(grad_l.copy(), w.n_x, w.n_u, w.Nc)
    grad_l.U += mu
    u, lb, ub = w.U, problem.u_min, problem.u_max
    stationarity = np.abs(grad_l.w).max()
    feasibility = np.abs(c).max()
    bound_viol = max(np.maximum(lb - u, 0.0).max(),
                     np.maximum(u - ub, 0.0).max())
    # only where a multiplier is nonzero: 0 * inf at an infinite bound
    lo, hi = (side < 0) & (mu != 0), (side > 0) & (mu != 0)
    comp = max(np.abs(mu[lo] * (u - lb)[lo]).max(initial=0.0),
               np.abs(mu[hi] * (ub - u)[hi]).max(initial=0.0))
    return max(stationarity, feasibility, bound_viol, comp)


def objective_hessian(problem):
    """Gauss-Newton style seed for the BFGS Lagrangian Hessian.

    Approximates the tracking term's curvature by Ts*C'QzC on the state
    blocks (the state sensitivities over one interval are close to the
    identity) and adds the exact rate-penalty coupling on neighbouring
    input blocks. The small multiple HESSIAN_REG of the identity makes it
    positive definite (the state blocks are rank deficient). Seeding BFGS
    with it instead of the identity matches the problem's scales and cuts
    the iteration count by more than an order of magnitude.

    HESSIAN_SEED_U (a per-unit-time rate, applied as HESSIAN_SEED_U*Ts like
    the tracking curvature) adds extra curvature on the input diagonal.
    It keeps the reduced steps of the final iterations short, so the line
    search on the exact merit function acts as a guard: inconsistent
    (biased) derivative information cannot ride a long step into a
    self-consistent but wrong stationary point, it fails the Armijo test
    instead.

    The seed has no input-state coupling, so it is returned as a
    `ShootingHessian` with no low-rank columns: the block-tridiagonal
    input part Huu and the one state block Hx = HESSIAN_REG*I + Ts*C'QzC.
    With positive semidefinite Qz and rate weights, both are positive
    definite.
    """
    m = problem.model
    n_x, n_u, Nc = m.n_x, m.n_u, problem.Nc
    C = m.output_matrix()
    Hx = HESSIAN_REG * np.eye(n_x) + problem.Ts * C.T @ problem.Qz @ C
    Huu = HESSIAN_REG * np.eye(Nc * n_u)
    # Hb[n, :, k, :] is the block of Huu coupling input n with input k
    Hb = Huu.reshape(Nc, n_u, Nc, n_u)
    n = np.arange(Nc)
    qb = problem.qdu_bar
    Hb[n[1:], :, n[1:]] += qb
    Hb[n, :, n] += qb + HESSIAN_SEED_U * problem.Ts * np.eye(n_u)
    Hb[n[:-1], :, n[1:]] -= qb
    Hb[n[1:], :, n[:-1]] -= qb
    empty = np.zeros((Nc * (n_u + n_x), 0))
    return ShootingHessian(Huu=Huu, Hx=Hx, Vp=empty, Vm=empty)


def line_search(problem, w, ev, p, mu_merit, settings, counters):
    """Backtracking Armijo search on the l1 merit M = phi + mu*||c||_1.

    Trial points where the evaluation fails count as infinite merit and
    are backtracked past. Returns (alpha, w_new, ev_new, all_failed), or
    (None, None, None, all_failed) when no step of at least tol_step
    achieves sufficient decrease; all_failed tells whether every trial
    evaluation failed.
    """
    merit0 = ev.phi + mu_merit * np.abs(ev.c).sum()
    deriv = ev.grad @ p - mu_merit * np.abs(ev.c).sum()
    alpha = 1.0
    all_failed = True
    while alpha >= settings.tol_step:
        w_try = DecisionVector(w.w + alpha * p, w.n_x, w.n_u, w.Nc)
        try:
            ev_try = evaluate(problem, w_try, counters)
            all_failed = False
            merit = ev_try.phi + mu_merit * np.abs(ev_try.c).sum()
            if merit <= merit0 + ARMIJO_C1 * alpha * deriv:
                return alpha, w_try, ev_try, all_failed
        except EvaluationError:
            pass
        alpha *= BACKTRACK_FACTOR
    return None, None, None, all_failed


def solve_ocp(problem, settings, w0, counters=None):
    """Solve the multiple-shooting NLP from the initial guess w0."""
    if counters is None:
        counters = WorkCounters()
    w = w0.copy()
    try:
        ev = evaluate(problem, w, counters)
    except EvaluationError:
        return SqpResult(w_star=w, converged=False, kkt=float("inf"),
                         sqp_iterations=0, qp_iterations_total=0,
                         counters=counters, failure_reason="EvaluationFailure")

    H = objective_hessian(problem)
    side = None                    # the QP working set, for warm starts
    mu_merit = 0.0
    qp_total = 0
    # no multipliers and an empty working set: the Lagrangian gradient is
    # the gradient
    none = np.zeros(w.U.size)
    kkt = kkt_violation(ev.grad, ev.c, w, problem, none, none)
    it, reason = 0, None
    while not kkt <= settings.tol_kkt:        # a NaN residual is not converged
        if it == settings.max_sqp_iter:
            reason = "IterationLimit"
            break
        it += 1
        qp = QpProblem(H=H, g=ev.grad, A=ev.A, B=ev.B, e=-ev.c,
                       lb=problem.u_min - w.U, ub=problem.u_max - w.U)
        sol = solve_qp(qp, settings.tol_qp, warm_side=side)
        qp_total += sol.iterations
        if sol.status != "Optimal":
            reason = "IterationLimit"
            break
        mult_norm = max(np.abs(sol.lambda_eq).max(initial=0.0),
                        np.abs(sol.mu).max(initial=0.0))
        mu_merit = max(mu_merit, 1.1 * mult_norm + 1e-3)
        alpha, w_new, ev_new, all_failed = line_search(
            problem, w, ev, sol.p, mu_merit, settings, counters)
        if alpha is None:
            reason = "EvaluationFailure" if all_failed \
                else "StepLengthBelowTolerance"
            break
        # BFGS on the Lagrangian gradient change at fixed new multipliers
        grad_l_old = (ev.grad + constraint_jacobian_transpose_times(
            ev, w, sol.lambda_eq))
        grad_l_new = (ev_new.grad + constraint_jacobian_transpose_times(
            ev_new, w_new, sol.lambda_eq))
        H = bfgs_update(H, w_new.w - w.w, grad_l_new - grad_l_old)
        w, ev = w_new, ev_new
        side = sol.side
        kkt = kkt_violation(grad_l_new, ev.c, w, problem, sol.mu, sol.side)
    return SqpResult(w_star=w, converged=reason is None, kkt=kkt,
                     sqp_iterations=it, qp_iterations_total=qp_total,
                     counters=counters, failure_reason=reason,
                     objective=ev.phi)
