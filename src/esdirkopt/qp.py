"""Dense convex QP subproblems for the SQP iteration.

The subproblem minimizes 0.5 p'Hp + g'p subject to the linearized
continuity constraints and simple bounds on the input components of p.
The shooting structure lets the state components be eliminated exactly
(condensing), leaving a bound-constrained QP in the input steps that a
primal active-set method solves with warm starts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


@dataclass
class QpProblem:
    """min 0.5 p'Hp + g'p  s.t.  p_x(n+1) = A_n p_x(n) + B_n p_u(n) + e_n,
    lb <= p_u <= ub (p_x(0) = 0)."""
    H: np.ndarray
    g: np.ndarray
    A: np.ndarray          # (Nc, n_x, n_x)
    B: np.ndarray          # (Nc, n_x, n_u)
    e: np.ndarray          # (Nc, n_x)
    lb: np.ndarray         # (Nc, n_u) bounds on the input steps
    ub: np.ndarray
    n_x: int
    n_u: int
    Nc: int


@dataclass
class QpSolution:
    p: np.ndarray
    lambda_eq: np.ndarray      # (Nc, n_x)
    mu_lower: np.ndarray       # (Nc*n_u,) nonnegative at optimum
    mu_upper: np.ndarray
    iterations: int
    status: str                # "Optimal" | "IterationLimit"
    active_set: tuple          # working set at exit, for warm starts


def condense(q):
    """Eliminate the state steps: p = Z q_u + y0 with q_u the input steps.

    Returns (Z, y0, H_red, g_red) with H_red = Z'HZ positive definite
    whenever H is.
    """
    n_x, n_u, Nc = q.n_x, q.n_u, q.Nc
    nw = Nc * (n_x + n_u)
    nu = Nc * n_u
    if q.H.shape != (nw, nw) or q.e.shape != (Nc, n_x):
        raise ContractViolation("QP blocks do not match the shooting structure")
    # row blocks [p_u(n), p_x(n+1)] of p, as in the decision vector
    Z = np.zeros((Nc, n_u + n_x, nu))
    Z[:, :n_u] = np.eye(nu).reshape(Nc, n_u, nu)
    y0 = np.zeros((Nc, n_u + n_x))
    # state step as affine function of the input steps
    G = np.zeros((n_x, nu))
    y = np.zeros(n_x)
    for n in range(Nc):
        G = q.A[n] @ G
        G.reshape(n_x, Nc, n_u)[:, n] += q.B[n]
        y = q.A[n] @ y + q.e[n] if n > 0 else q.e[n].copy()
        Z[n, n_u:] = G
        y0[n, n_u:] = y
    Z = Z.reshape(nw, nu)
    y0 = y0.ravel()
    H_red = Z.T @ q.H @ Z
    g_red = Z.T @ (q.g + q.H @ y0)
    return Z, y0, H_red, g_red


def _solve_bound_qp(H, g, lb, ub, qp_tol, max_iter, warm_active):
    """Primal active-set method for min 0.5 q'Hq + g'q, lb <= q <= ub.

    The iteration count is the number of working-set changes plus the
    final optimality check. Ties in the blocking-constraint choice break
    toward the lowest variable index.
    """
    n = len(g)
    working = {}                    # index -> 'lb' | 'ub'
    q = np.zeros(n)
    if warm_active:
        for i, side in warm_active:
            if i < n:
                working[i] = side
                q[i] = lb[i] if side == "lb" else ub[i]
    # bounds active at the start point must be in the working set
    for i in range(n):
        if i not in working:
            if q[i] <= lb[i] + 1e-14:
                q[i] = lb[i]
                if lb[i] == ub[i]:
                    working[i] = "lb"
            elif q[i] >= ub[i] - 1e-14:
                q[i] = ub[i]
    iters = 0
    for _ in range(max_iter):
        grad = H @ q + g
        free = np.array([i for i in range(n) if i not in working], dtype=int)
        d = np.zeros(n)
        if free.size:
            d[free] = np.linalg.solve(H[np.ix_(free, free)], -grad[free])
        if np.abs(d).max(initial=0.0) <= qp_tol:
            # multiplier check at the candidate optimum
            iters += 1
            worst, worst_val = None, -qp_tol
            for i in sorted(working):
                mult = grad[i] if working[i] == "lb" else -grad[i]
                if mult < worst_val:
                    worst, worst_val = i, mult
            if worst is None:
                return q, grad, working, iters, "Optimal"
            del working[worst]
            continue
        # longest feasible step along d
        alpha, blocking, side = 1.0, None, None
        for i in free:
            if d[i] > 0 and ub[i] < np.inf:
                a = (ub[i] - q[i]) / d[i]
                if a < alpha - 1e-16:
                    alpha, blocking, side = a, i, "ub"
            elif d[i] < 0 and lb[i] > -np.inf:
                a = (lb[i] - q[i]) / d[i]
                if a < alpha - 1e-16:
                    alpha, blocking, side = a, i, "lb"
        q = q + alpha * d
        if blocking is not None:
            q[blocking] = lb[blocking] if side == "lb" else ub[blocking]
            working[blocking] = side
            iters += 1
    return q, H @ q + g, working, iters, "IterationLimit"


def solve_qp(q, qp_tol=1e-8, max_iter=500, warm_active=None):
    """Solve the shooting QP by condensing plus a primal active set.

    Returns the full-space step, the continuity multipliers from a backward
    recursion, and the bound multipliers read off the reduced gradient.
    """
    Z, y0, H_red, g_red = condense(q)
    lb = q.lb.ravel()
    ub = q.ub.ravel()
    qu, rgrad, working, iters, status = _solve_bound_qp(
        H_red, g_red, lb, ub, qp_tol, max_iter, warm_active)
    p = Z @ qu + y0
    n_x, n_u, Nc = q.n_x, q.n_u, q.Nc
    gfull = (q.H @ p + q.g).reshape(Nc, n_u + n_x)
    lam = -gfull[:, n_u:]
    for n in range(Nc - 2, -1, -1):
        lam[n] += q.A[n + 1].T @ lam[n + 1]
    mu_lower = np.zeros(Nc * n_u)
    mu_upper = np.zeros(Nc * n_u)
    for i, side in working.items():
        if side == "lb":
            mu_lower[i] = rgrad[i]
        else:
            mu_upper[i] = -rgrad[i]
    return QpSolution(p=p, lambda_eq=lam, mu_lower=mu_lower,
                      mu_upper=mu_upper, iterations=max(iters, 1),
                      status=status,
                      active_set=tuple(sorted(working.items())))
