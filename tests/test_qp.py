import numpy as np
import pytest

from esdirkopt.nlp import DecisionVector
from esdirkopt.qp import (QpProblem, ShootingHessian, _solve_bound_qp, condense,
                          solve_qp)


def assemble(H, nw):
    """The dense matrix of a ShootingHessian, one column H @ e_j at a time."""
    return np.column_stack([H @ e for e in np.eye(nw)])


def random_problem(rng, Nc=4, n_x=3, n_u=2, bound_scale=10.0):
    nw = Nc * (n_x + n_u)
    M = rng.standard_normal((nw, nw))
    # M M' + nw * I
    H = ShootingHessian(Huu=nw * np.eye(Nc * n_u), Hx=nw * np.eye(n_x), Vp=M,
                        Vm=np.zeros((nw, 0)))
    g = rng.standard_normal(nw)
    A = np.stack([rng.standard_normal((n_x, n_x)) * 0.5 for _ in range(Nc)])
    B = np.stack([rng.standard_normal((n_x, n_u)) for _ in range(Nc)])
    e = rng.standard_normal((Nc, n_x))
    lb = np.full((Nc, n_u), -bound_scale)
    ub = np.full((Nc, n_u), bound_scale)
    return QpProblem(H=H, g=g, A=A, B=B, e=e, lb=lb, ub=ub)


def dense_equality_matrix(q):
    Nc, n_x, n_u = q.B.shape
    nw = Nc * (n_x + n_u)
    E = np.zeros((Nc * n_x, nw))
    for n in range(Nc):
        rows = slice(n * n_x, (n + 1) * n_x)
        ou = n * (n_x + n_u)
        E[rows, ou:ou + n_u] = q.B[n]
        E[rows, ou + n_u:ou + n_u + n_x] = -np.eye(n_x)
        if n > 0:
            op = (n - 1) * (n_x + n_u) + n_u
            E[rows, op:op + n_x] = q.A[n]
    return E


def test_condensing_parameterizes_feasible_set():
    rng = np.random.default_rng(0)
    q = random_problem(rng)
    Z, y0, H_red, g_red = condense(q)
    E = dense_equality_matrix(q)
    rhs = -q.e.ravel()
    # every q_u maps to a feasible p, and H_red stays positive definite
    for _ in range(3):
        qu = rng.standard_normal(q.lb.size)
        p = Z @ qu + y0
        assert np.allclose(E @ p, rhs, rtol=0, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(H_red) > 0.0)


def test_condensed_hessian_matches_dense_product():
    rng = np.random.default_rng(6)
    q = random_problem(rng)
    nw = len(q.g)
    # an indefinite low-rank part: the reduced matrix is still Z'HZ
    q.H.Vm = 0.5 * rng.standard_normal((nw, 3))
    Hdense = assemble(q.H, nw)
    Z, y0, H_red, g_red = condense(q)
    assert np.array_equal(H_red, H_red.T)
    np.testing.assert_allclose(H_red, Z.T @ Hdense @ Z, rtol=1e-12, atol=0)
    np.testing.assert_allclose(g_red, Z.T @ (q.g + Hdense @ y0), rtol=1e-12,
                               atol=0)


def test_unconstrained_matches_dense_kkt():
    rng = np.random.default_rng(1)
    q = random_problem(rng, bound_scale=1e6)
    sol = solve_qp(q)
    assert sol.status == "Optimal"
    E = dense_equality_matrix(q)
    nw = len(q.g)
    m = E.shape[0]
    KKT = np.block([[assemble(q.H, nw), E.T], [E, np.zeros((m, m))]])
    rhs = np.concatenate([-q.g, -q.e.ravel()])
    ref = np.linalg.solve(KKT, rhs)
    assert np.allclose(sol.p, ref[:nw], rtol=0, atol=1e-8)
    # multipliers satisfy stationarity: H p + g + E' lam_dense = 0, with
    # lam_dense the negative of the reported continuity multipliers (the
    # residual convention is c_n = x_{n+1} - F_n, i.e. -E rows)
    grad = q.H @ sol.p + q.g
    lam_dense = np.linalg.lstsq(E.T, -grad, rcond=None)[0]
    assert np.allclose(lam_dense.reshape(q.e.shape), -sol.lambda_eq,
                       rtol=0, atol=1e-7)


def test_active_bounds_and_multipliers():
    rng = np.random.default_rng(2)
    q = random_problem(rng, bound_scale=0.05)
    sol = solve_qp(q)
    assert sol.status == "Optimal"
    Nc, n_x, n_u = q.B.shape
    u_steps = DecisionVector(sol.p, n_x, n_u, Nc).U.ravel()
    assert np.all(u_steps >= q.lb.ravel() - 1e-10)
    assert np.all(u_steps <= q.ub.ravel() + 1e-10)
    assert np.any(np.isclose(np.abs(u_steps), 0.05, atol=1e-10))
    # signed multipliers: nonpositive on a lower bound, nonnegative on an
    # upper one, zero off the working set
    assert np.all(sol.mu[sol.side < 0] <= 1e-8)
    assert np.all(sol.mu[sol.side > 0] >= -1e-8)
    assert np.all(sol.mu[sol.side == 0] == 0.0)
    assert np.array_equal(sol.active_set, np.flatnonzero(sol.side))
    # complementarity: multipliers only on active bounds
    inactive = (u_steps > q.lb.ravel() + 1e-8) \
        & (u_steps < q.ub.ravel() - 1e-8)
    assert np.all(sol.mu[inactive] == 0.0)


def test_bounded_solution_optimal_over_feasible_samples():
    rng = np.random.default_rng(3)
    q = random_problem(rng, Nc=3, bound_scale=0.1)
    sol = solve_qp(q)
    Z, y0, H_red, g_red = condense(q)

    def reduced_obj(qu):
        return 0.5 * qu @ H_red @ qu + g_red @ qu

    Nc, n_x, n_u = q.B.shape
    qu_star = DecisionVector(sol.p, n_x, n_u, Nc).U.ravel()
    f_star = reduced_obj(qu_star)
    for _ in range(200):
        trial = rng.uniform(-0.1, 0.1, size=q.lb.size)
        assert reduced_obj(trial) >= f_star - 1e-9


def test_warm_start_and_iteration_floor():
    rng = np.random.default_rng(4)
    q = random_problem(rng, bound_scale=0.05)
    cold = solve_qp(q)
    cold_side = cold.side.copy()
    warm = solve_qp(q, warm_side=cold.side)
    assert np.array_equal(cold.side, cold_side)      # copied, not updated
    assert warm.status == "Optimal"
    assert np.allclose(warm.p, cold.p, rtol=0, atol=1e-9)
    assert warm.iterations <= cold.iterations
    assert warm.iterations >= 1


def test_iteration_limit_status():
    rng = np.random.default_rng(5)
    q = random_problem(rng, bound_scale=0.01)
    sol = solve_qp(q, max_iter=1)
    assert sol.status in ("Optimal", "IterationLimit")
    sol2 = solve_qp(q, max_iter=0)
    assert sol2.status == "IterationLimit"


def reference_bound_qp(H, g, lb, ub, qp_tol, max_iter, warm_side):
    """The active-set method with the working set as an index -> 'lb' | 'ub'
    dict and the multiplier and ratio tests as scans in index order: the
    reference that `qp._solve_bound_qp` must reproduce bit for bit. The
    signed warm start is read into that dict one entry at a time."""
    n = len(g)
    working = {}
    q = np.zeros(n)
    if warm_side is not None:
        for i in np.flatnonzero(warm_side).tolist():
            working[i] = "lb" if warm_side[i] < 0 else "ub"
            q[i] = lb[i] if working[i] == "lb" else ub[i]
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


def to_side(working, n):
    """The signed working set (-1 lb, +1 ub, 0 free) of an index ->
    'lb' | 'ub' dict."""
    side = np.zeros(n, dtype=int)
    for i, bound in working.items():
        side[i] = -1 if bound == "lb" else 1
    return side


def reference_solve(q, max_iter, warm_side):
    """solve_qp's step, bound multipliers, working set, iteration count and
    status, with the reference method and the multipliers read off the
    working set one entry at a time. The reference's lower and upper
    multipliers (mu_lower = grad, mu_upper = -grad on the bound held) and
    its index -> 'lb' | 'ub' working set are returned as the signed mu =
    mu_upper - mu_lower and side of `QpSolution`."""
    Z, y0, H_red, g_red = condense(q)
    qu, rgrad, working, iters, status = reference_bound_qp(
        H_red, g_red, q.lb.ravel(), q.ub.ravel(), 1e-8, max_iter,
        warm_side)
    mu_lower = np.zeros(len(qu))
    mu_upper = np.zeros(len(qu))
    for i, side in working.items():
        if side == "lb":
            mu_lower[i] = rgrad[i]
        else:
            mu_upper[i] = -rgrad[i]
    return (Z @ qu + y0, mu_upper - mu_lower, to_side(working, len(qu)),
            max(iters, 1), status)


def bounded_problem(rng, kind):
    """A random shooting QP with 12 input steps whose tight bounds activate
    several constraints; `kind` adds fixed inputs (lb == ub), infinite
    bounds, or bounds on or within 1e-14 of the start point 0."""
    q = random_problem(rng, Nc=6)
    q.lb = -rng.uniform(0.0, 0.5, q.lb.shape)
    q.ub = rng.uniform(0.0, 0.5, q.ub.shape)
    pick = rng.random(q.lb.shape)
    if kind == "fixed":
        q.lb[pick < 0.1] = q.ub[pick < 0.1] = 0.0
        q.lb[pick > 0.8] = q.ub[pick > 0.8]
        q.ub[pick < 0.2] = q.lb[pick < 0.2]
    elif kind == "infinite":
        q.lb[pick < 0.4] = -np.inf
        q.ub[pick > 0.6] = np.inf
    elif kind == "at_start":
        q.lb[pick < 0.3] = np.where(pick[pick < 0.3] < 0.15, 0.0, -5e-15)
        q.ub[pick > 0.7] = np.where(pick[pick > 0.7] > 0.85, 0.0, 5e-15)
    return q


@pytest.mark.parametrize("start", ["cold", "warm", "random"])
@pytest.mark.parametrize("kind", ["tight", "fixed", "infinite", "at_start"])
def test_solver_matches_reference(kind, start):
    rng = np.random.default_rng(["tight", "fixed", "infinite",
                                 "at_start"].index(kind))
    most_active = 0
    for _ in range(6):
        q = bounded_problem(rng, kind)
        warm = None
        if start == "warm":
            # the working set of a nearby QP, as in the SQP iteration
            e = q.e.copy()
            q.e = e + 0.3 * rng.standard_normal(e.shape)
            warm = reference_solve(q, 500, None)[2]
            q.e = e
        elif start == "random":
            finite = np.flatnonzero(np.isfinite(q.lb.ravel())
                                    & np.isfinite(q.ub.ravel()))
            held = np.sort(rng.choice(finite, size=len(finite) // 2,
                                      replace=False))
            warm = np.zeros(q.lb.size, dtype=int)
            warm[held] = [rng.choice([-1, 1]) for _ in held]
        for max_iter in (0, 1, 3, 500):
            p, mu, side, iters, status = reference_solve(q, max_iter, warm)
            sol = solve_qp(q, max_iter=max_iter, warm_side=warm)
            assert np.array_equal(sol.p, p)
            assert np.array_equal(sol.mu, mu)
            assert np.array_equal(sol.side, side)
            assert (sol.iterations, sol.status) == (iters, status)
            most_active = max(most_active, len(sol.active_set))
    assert most_active >= 3


@pytest.mark.parametrize("g, side, ub0", [
    (np.zeros(3), [1, 1, 1], 1.0),                   # equal multipliers
    (np.full(3, -2.0), [0, 0, 0], 1.0),              # equal step ratios
    (np.full(3, -1.0), [0, 0, 0], 1.0 - 2.0 ** -53),  # a ratio 1 ulp below 1
])
def test_ties_and_full_steps_match_reference(g, side, ub0):
    # the lowest index wins a tie, and a step within 1e-16 of the full
    # step is taken whole
    H, lb, ub = np.eye(3), -np.ones(3), np.full(3, ub0)
    for max_iter in (1, 2, 500):
        ref_q, ref_grad, working, ref_iters, ref_status = reference_bound_qp(
            H, g, lb, ub, 1e-8, max_iter, np.array(side))
        q, grad, new_side, iters, status = _solve_bound_qp(
            H, g, lb, ub, 1e-8, max_iter, np.array(side))
        assert np.array_equal(q, ref_q) and np.array_equal(grad, ref_grad)
        assert np.array_equal(new_side, to_side(working, 3))
        assert (iters, status) == (ref_iters, ref_status)
