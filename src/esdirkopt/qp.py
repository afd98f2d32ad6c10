"""Convex QP subproblems for the SQP iteration.

The subproblem minimizes 0.5 p'Hp + g'p subject to the linearized
continuity constraints and simple bounds on the input components of p.
The shooting structure lets the state components be eliminated exactly
(condensing), leaving a bound-constrained QP in the input steps that a
primal active-set method solves with warm starts. Its working set is one
signed integer vector with an entry per input step (-1 on the lower
bound, +1 on the upper, 0 free), so each iteration is array operations
on it. The same vector is the warm start of the next solve, and the bound
multipliers come back as one signed vector with the same convention.

H is a `ShootingHessian`: a seed without input-state coupling plus a
low-rank quasi-Newton correction. It is applied to vectors and condensed
through that structure, so no dense nw x nw matrix is formed.

Both steps skip only work whose result is known: condensing does not
multiply the zero blocks of the block lower triangular state rows of Z,
and the active-set method does not refactorize after a full step, whose
next step is 0. Every output keeps the bits of the method that does that
work (the references in the tests).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


@dataclass
class ShootingHessian:
    """H = H0 + Vp Vp' - Vm Vm' over w = [u_0, x_1, u_1, ..., x_Nc].

    H0 has no input-state coupling: Huu acts on all input components
    together, and the same Hx on every state block. The compact form of
    the BFGS matrix (Byrd, Nocedal & Schnabel 1994) keeps each update as
    one column of Vp and one of Vm, so after k updates H @ v costs
    O(nu**2 + nw*k), nu = Nc*n_u.
    """
    Huu: np.ndarray        # (Nc*n_u, Nc*n_u), symmetric
    Hx: np.ndarray         # (n_x, n_x), symmetric positive definite
    Vp: np.ndarray         # (nw, kp)
    Vm: np.ndarray         # (nw, km)

    def __matmul__(self, v):
        n_x = len(self.Hx)
        Nc = (len(v) - len(self.Huu)) // n_x
        vb = v.reshape(Nc, -1)
        n_u = vb.shape[1] - n_x
        out = np.empty_like(vb)
        out[:, :n_u] = (self.Huu @ vb[:, :n_u].ravel()).reshape(Nc, n_u)
        out[:, n_u:] = vb[:, n_u:] @ self.Hx           # Hx is symmetric
        return (out.ravel() + self.Vp @ (self.Vp.T @ v)
                - self.Vm @ (self.Vm.T @ v))


@dataclass
class QpProblem:
    """min 0.5 p'Hp + g'p  s.t.  p_x(n+1) = A_n p_x(n) + B_n p_u(n) + e_n,
    lb <= p_u <= ub (p_x(0) = 0).

    The sizes Nc, n_x and n_u are read from the shape of B."""
    H: ShootingHessian     # seed blocks plus low-rank BFGS columns
    g: np.ndarray
    A: np.ndarray          # (Nc, n_x, n_x)
    B: np.ndarray          # (Nc, n_x, n_u)
    e: np.ndarray          # (Nc, n_x)
    lb: np.ndarray         # (Nc, n_u) bounds on the input steps
    ub: np.ndarray


@dataclass
class QpSolution:
    """Step, multipliers and exit working set of one shooting QP. mu is
    the upper minus the lower bound multiplier: <= 0 on a lower bound,
    >= 0 on an upper one (to within the QP tolerance), 0 where side is 0."""
    p: np.ndarray
    lambda_eq: np.ndarray      # (Nc, n_x)
    mu: np.ndarray             # (Nc*n_u,)
    side: np.ndarray           # (Nc*n_u,) exit working set, -1/0/+1
    iterations: int
    status: str                # "Optimal" | "IterationLimit"

    @property
    def active_set(self):
        # the indices held on a bound; the benchmark's tracer reads its
        # length, which is why this property exists
        return np.flatnonzero(self.side)


def condense(q):
    """Eliminate the state steps: p = Z q_u + y0 with q_u the input steps.

    Returns (Z, y0, H_red, g_red) with H_red = Z'HZ positive definite
    whenever H is. With Zx the state rows of Z, L L' = Hx and P = Z'V,
    H_red = Huu + (L'Zx)'(L'Zx) + Pp Pp' - Pm Pm'. Every term is a product
    X'X, so H_red is exactly symmetric.

    Zx is block lower triangular: the state after interval n depends on
    the input steps of intervals 0..n only. The recursion
    Zx_n = A_n Zx_(n-1) + [0 .. B_n .. 0] therefore runs, in place, over
    the first n + 1 input blocks alone. The skipped blocks are exact zeros
    either way, and each entry of a matrix product of two or more columns
    is the same dot product whatever their number, so Z keeps the bits of
    the recursion over all columns. The products R'R and Z'V still run
    over the zero blocks, because splitting them would change their
    summation order.
    """
    Nc, n_x, n_u = q.B.shape
    nw = Nc * (n_x + n_u)
    nu = Nc * n_u
    H = q.H
    if (H.Huu.shape != (nu, nu) or H.Hx.shape != (n_x, n_x)
            or len(H.Vp) != nw or len(H.Vm) != nw
            or q.e.shape != (Nc, n_x)):
        raise ContractViolation("QP blocks do not match the shooting structure")
    # row blocks [p_u(n), p_x(n+1)] of p, as in the decision vector
    Z = np.zeros((Nc, n_u + n_x, nu))
    i = np.arange(nu)
    Z[i // n_u, i % n_u, i] = 1.0
    Zx = Z[:, n_u:]
    y0 = np.zeros((Nc, n_u + n_x))
    # state step as affine function of the input steps
    y = np.zeros(n_x)
    for n in range(Nc):
        k = (n + 1) * n_u
        if n > 0:
            np.matmul(q.A[n], Zx[n - 1, :, :k], out=Zx[n, :, :k])
        Zx[n, :, k - n_u:k] += q.B[n]
        y = q.A[n] @ y + q.e[n] if n > 0 else q.e[n].copy()
        y0[n, n_u:] = y
    R = (np.linalg.cholesky(H.Hx).T @ Zx).reshape(Nc * n_x, nu)
    Z = Z.reshape(nw, nu)
    y0 = y0.ravel()
    Pp = Z.T @ H.Vp
    Pm = Z.T @ H.Vm
    # Huu + R'R + Pp Pp' - Pm Pm', left to right, summed in place
    H_red = R.T @ R
    H_red += H.Huu
    H_red += Pp @ Pp.T
    H_red -= Pm @ Pm.T
    g_red = Z.T @ (q.g + H @ y0)
    return Z, y0, H_red, g_red


def _solve_bound_qp(H, g, lb, ub, qp_tol, max_iter, side):
    """Primal active-set method for min 0.5 q'Hq + g'q, lb <= q <= ub.

    The working set is the integer vector `side`, one entry per variable:
    -1 holds q_i at lb_i, +1 at ub_i, 0 leaves it free. The start point
    puts each held variable on its bound and the free ones at 0, snapped
    to a bound within 1e-14 (a fixed variable, lb_i == ub_i, joins the
    working set). The iteration count is the number of working-set
    changes plus the final optimality check. Ties in the choice of the
    dropped or the blocking bound break toward the lowest variable index.
    A full step leaves the working set unchanged, so it reaches the
    minimizer over the free variables and the next step is 0 in exact
    arithmetic; the iteration after it goes straight to the multiplier
    check, with no factorization of the free block. Returns (q, grad,
    side, iterations, status); side is updated in place.
    """
    q = np.where(side < 0, lb, np.where(side > 0, ub, 0.0))
    # bounds active at the start point must be in the working set
    at_lb = (side == 0) & (q <= lb + 1e-14)
    at_ub = (side == 0) & ~at_lb & (q >= ub - 1e-14)
    q[at_lb] = lb[at_lb]
    q[at_ub] = ub[at_ub]
    side[at_lb & (lb == ub)] = -1
    iters = 0
    full_step = False
    for _ in range(max_iter):
        grad = H @ q + g
        free = side == 0
        d = np.zeros(len(g))
        # after a full step the working set is the same, so the free-block
        # step is 0: the iteration goes straight to the multiplier check
        if free.any() and not full_step:
            d[free] = np.linalg.solve(H[free][:, free], -grad[free])
        full_step = False
        if np.abs(d).max(initial=0.0) <= qp_tol:
            # multiplier check at the candidate optimum
            iters += 1
            mult = np.where(free, np.inf, -side * grad)
            worst = np.argmin(mult)
            if not mult[worst] < -qp_tol:
                return q, grad, side, iters, "Optimal"
            side[worst] = 0
            continue
        # longest feasible step along d; infinite bounds never block
        ratio = np.full(len(g), np.inf)
        up, down = free & (d > 0), free & (d < 0)
        ratio[up] = (ub[up] - q[up]) / d[up]
        ratio[down] = (lb[down] - q[down]) / d[down]
        blocking = np.argmin(ratio)
        if ratio[blocking] < 1.0 - 1e-16:
            q = q + ratio[blocking] * d
            side[blocking] = 1 if d[blocking] > 0 else -1
            q[blocking] = ub[blocking] if d[blocking] > 0 else lb[blocking]
            iters += 1
        else:
            q = q + d
            full_step = True
    return q, H @ q + g, side, iters, "IterationLimit"


def solve_qp(q, qp_tol=1e-8, max_iter=500, warm_side=None):
    """Solve the shooting QP by condensing plus a primal active set.

    Returns the full-space step, the continuity multipliers from a backward
    recursion, the signed bound multipliers read off the reduced gradient
    and the exit working set. warm_side, a working set such as the side of
    an earlier solution, is copied and starts the active-set method.
    """
    Z, y0, H_red, g_red = condense(q)
    Nc, n_x, n_u = q.B.shape
    side = (np.zeros(Nc * n_u, dtype=int) if warm_side is None
            else np.array(warm_side, dtype=int))
    qu, rgrad, side, iters, status = _solve_bound_qp(
        H_red, g_red, q.lb.ravel(), q.ub.ravel(), qp_tol, max_iter, side)
    p = Z @ qu + y0
    gfull = (q.H @ p + q.g).reshape(Nc, n_u + n_x)
    lam = -gfull[:, n_u:]
    At = q.A.transpose(0, 2, 1)
    for n in range(Nc - 2, -1, -1):
        lam[n] += At[n + 1] @ lam[n + 1]
    return QpSolution(p=p, lambda_eq=lam,
                      mu=np.where(side != 0, -rgrad, 0.0), side=side,
                      iterations=max(iters, 1), status=status)
