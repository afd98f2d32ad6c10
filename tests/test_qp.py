import numpy as np
import pytest

from esdirkopt.nlp import DecisionVector
from esdirkopt.qp import QpProblem, ShootingHessian, condense, solve_qp


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
    return QpProblem(H=H, g=g, A=A, B=B, e=e, lb=lb, ub=ub,
                     n_x=n_x, n_u=n_u, Nc=Nc)


def dense_equality_matrix(q):
    n_x, n_u, Nc = q.n_x, q.n_u, q.Nc
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
        qu = rng.standard_normal(q.Nc * q.n_u)
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
    assert np.allclose(lam_dense.reshape(q.Nc, q.n_x), -sol.lambda_eq,
                       rtol=0, atol=1e-7)


def test_active_bounds_and_multipliers():
    rng = np.random.default_rng(2)
    q = random_problem(rng, bound_scale=0.05)
    sol = solve_qp(q)
    assert sol.status == "Optimal"
    u_steps = DecisionVector(sol.p, q.n_x, q.n_u, q.Nc).U.ravel()
    assert np.all(u_steps >= q.lb.ravel() - 1e-10)
    assert np.all(u_steps <= q.ub.ravel() + 1e-10)
    assert np.any(np.isclose(np.abs(u_steps), 0.05, atol=1e-10))
    assert np.all(sol.mu_lower >= -1e-8)
    assert np.all(sol.mu_upper >= -1e-8)
    # complementarity: multipliers only on active bounds
    inactive = (u_steps > q.lb.ravel() + 1e-8) \
        & (u_steps < q.ub.ravel() - 1e-8)
    assert np.all(sol.mu_lower[inactive] == 0.0)
    assert np.all(sol.mu_upper[inactive] == 0.0)


def test_bounded_solution_optimal_over_feasible_samples():
    rng = np.random.default_rng(3)
    q = random_problem(rng, Nc=3, bound_scale=0.1)
    sol = solve_qp(q)
    Z, y0, H_red, g_red = condense(q)

    def reduced_obj(qu):
        return 0.5 * qu @ H_red @ qu + g_red @ qu

    qu_star = DecisionVector(sol.p, q.n_x, q.n_u, q.Nc).U.ravel()
    f_star = reduced_obj(qu_star)
    for _ in range(200):
        trial = rng.uniform(-0.1, 0.1, size=q.Nc * q.n_u)
        assert reduced_obj(trial) >= f_star - 1e-9


def test_warm_start_and_iteration_floor():
    rng = np.random.default_rng(4)
    q = random_problem(rng, bound_scale=0.05)
    cold = solve_qp(q)
    warm = solve_qp(q, warm_active=cold.active_set)
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
