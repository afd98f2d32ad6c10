from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from test_nlp import dense_constraint_jacobian
from test_qp import assemble

from esdirkopt import sqp
from esdirkopt.bench import RunConfig, make_problem, sqp_settings
from esdirkopt.integrator import WorkCounters
from esdirkopt.nlp import (DecisionVector,
                           constraint_jacobian_transpose_times, evaluate)
from esdirkopt.qp import QpProblem, ShootingHessian, condense, solve_qp
from esdirkopt.sqp import (BFGS_DAMPING, BFGS_SKIP_NORM, HESSIAN_REG,
                           HESSIAN_SEED_U, SqpSettings, bfgs_update,
                           kkt_violation, objective_hessian, solve_ocp)


def small_config(**kwargs):
    kwargs.setdefault("Nc", 8)
    kwargs.setdefault("N", 3)
    kwargs.setdefault("method", "esdirk23")
    return RunConfig(**kwargs)


def test_settings_validation():
    with pytest.raises(ValueError):
        SqpSettings(tol_kkt=0.0)
    with pytest.raises(ValueError):
        SqpSettings(tol_step=0.0)
    # the line search starts at alpha = 1: a larger tol_step tries no step
    with pytest.raises(ValueError):
        SqpSettings(tol_step=2.0)
    SqpSettings(tol_step=1.0)


def seed_hessian(Huu, Hx, Nc=1):
    """A ShootingHessian with no low-rank columns."""
    nw = len(Huu) + Nc * len(Hx)
    return ShootingHessian(Huu=np.array(Huu, float), Hx=np.array(Hx, float),
                           Vp=np.zeros((nw, 0)), Vm=np.zeros((nw, 0)))


def dense_bfgs_update(H, s, y):
    """The damped BFGS update on a dense matrix, and which branch it took."""
    if np.linalg.norm(s) < BFGS_SKIP_NORM \
            or np.linalg.norm(y) < BFGS_SKIP_NORM:
        return H, "skipped"
    Hs = H @ s
    sHs = s @ Hs
    sy = s @ y
    kind = "plain"
    if sy < BFGS_DAMPING * sHs:
        theta = (1.0 - BFGS_DAMPING) * sHs / (sHs - sy)
        y = theta * y + (1.0 - theta) * Hs
        sy = s @ y
        kind = "damped"
    return H - np.outer(Hs, Hs) / sHs + np.outer(y, y) / sy, kind


def test_compact_update_matches_dense_sequence():
    rng = np.random.default_rng(11)
    Nc, n_u, n_x = 3, 2, 3
    nw = Nc * (n_u + n_x)
    Muu = rng.standard_normal((Nc * n_u, Nc * n_u))
    Mx = rng.standard_normal((n_x, n_x))
    H = seed_hessian(Muu @ Muu.T + np.eye(Nc * n_u), Mx @ Mx.T + np.eye(n_x),
                     Nc)
    Hd = assemble(H, nw)
    T = rng.standard_normal((nw, nw))
    curvature = T @ T.T + np.eye(nw)          # a convex model to sample y
    kinds = []
    for k in range(20):
        s = rng.standard_normal(nw)
        y = curvature @ s
        if k == 7:
            y = -s                             # s'y < 0: damped
        if k == 13:
            s = np.zeros(nw)                   # skipped
        H = bfgs_update(H, s, y)
        Hd, kind = dense_bfgs_update(Hd, s, y)
        kinds.append(kind)
        for v in rng.standard_normal((3, nw)):
            # normwise: single entries of H v may be small by cancellation
            ref = Hd @ v
            assert np.linalg.norm(H @ v - ref) <= 1e-12 * np.linalg.norm(ref)
    assert kinds.count("damped") == 1 and kinds.count("skipped") == 1
    assert H.Vp.shape == H.Vm.shape == (nw, 19)


def test_bfgs_keeps_positive_definite():
    rng = np.random.default_rng(0)
    H = seed_hessian(np.eye(2), np.eye(3))      # the identity, n_u 2, n_x 3
    qp = QpProblem(H=H, g=np.ones(5), A=np.zeros((1, 3, 3)),
                   B=np.arange(6.0).reshape(1, 3, 2), e=np.ones((1, 3)),
                   lb=-np.ones((1, 2)), ub=np.ones((1, 2)))
    for _ in range(50):
        s = rng.standard_normal(5)
        y = rng.standard_normal(5)       # arbitrary, often s'y < 0
        H = bfgs_update(H, s, y)
        assert np.array_equal(H.Huu, H.Huu.T)
        assert np.array_equal(H.Hx, H.Hx.T)
        qp.H = H
        H_red = condense(qp)[2]
        assert np.array_equal(H_red, H_red.T)
        Hd = assemble(H, 5)
        eig = np.linalg.eigvalsh(Hd)
        # nonnegative up to roundoff relative to the largest eigenvalue
        assert eig.min() > -1e-12 * eig.max()
        assert s @ Hd @ s > 0.0


def test_bfgs_damping_and_skip():
    H = seed_hessian([[2.0]], [[1.0]])   # diag(2, 1)
    s = np.array([1.0, 0.0])
    y = -s                               # s'y < 0: undamped update would fail
    Hn = assemble(bfgs_update(H, s, y), 2)
    assert np.all(np.linalg.eigvalsh(Hn) > 0.0)
    # curvature along s is damped to BFGS_DAMPING * s'Hs
    assert s @ Hn @ s == pytest.approx(BFGS_DAMPING * (s @ (H @ s)),
                                       rel=1e-12)
    assert bfgs_update(H, np.zeros(2), y) is H


def test_bfgs_secant_equation_when_undamped():
    H = seed_hessian(np.eye(1), np.eye(2))
    s = np.array([0.5, -0.2, 0.1])
    y = 2.0 * s                          # strong curvature: no damping
    Hn = assemble(bfgs_update(H, s, y), 3)
    assert np.allclose(Hn @ s, y, rtol=0, atol=1e-12)


def reference_objective_hessian(problem):
    """objective_hessian assembled one interval at a time, adding the
    blocks in the same order."""
    n_x, n_u, Nc = 4, 2, problem.Nc
    C = problem.model.output_matrix()
    H = HESSIAN_REG * np.eye(Nc * (n_x + n_u))
    Hx = problem.Ts * C.T @ problem.Qz @ C
    qb = problem.qdu_bar
    for n in range(Nc):
        ox = n * (n_x + n_u) + n_u
        H[ox:ox + n_x, ox:ox + n_x] += Hx
        ou = n * (n_x + n_u)
        H[ou:ou + n_u, ou:ou + n_u] += \
            qb + HESSIAN_SEED_U * problem.Ts * np.eye(n_u)
        if n + 1 < Nc:
            ou2 = (n + 1) * (n_x + n_u)
            H[ou2:ou2 + n_u, ou2:ou2 + n_u] += qb
            H[ou:ou + n_u, ou2:ou2 + n_u] -= qb
            H[ou2:ou2 + n_u, ou:ou + n_u] -= qb
    return H


def test_objective_hessian_structure():
    problem = make_problem(small_config())
    nw = problem.Nc * 6
    seed = objective_hessian(problem)
    assert seed.Vp.shape == seed.Vm.shape == (nw, 0)
    H = assemble(seed, nw)
    assert np.array_equal(H, H.T)
    assert np.all(np.linalg.eigvalsh(H) > 0.0)
    n_u, n_x = 2, 4
    qb = problem.qdu_bar
    # neighbouring input blocks carry the rate-penalty coupling
    ou, ou2 = 0, n_u + n_x
    assert np.allclose(H[ou:ou + n_u, ou2:ou2 + n_u], -qb, rtol=0, atol=0)
    assert np.array_equal(H, reference_objective_hessian(problem))


def test_kkt_violation_components():
    config = small_config()
    problem = make_problem(config)
    w = DecisionVector.filled(300.0, 4, 2, config.Nc)
    ev = evaluate(problem, w, WorkCounters())
    grad = ev.grad.copy()
    lam = np.zeros((config.Nc, 4))
    mu = np.zeros(config.Nc * 2)
    side = np.zeros(config.Nc * 2, dtype=int)
    base = kkt_violation(ev.grad, ev.c, w, problem, mu, side)
    assert base == pytest.approx(
        max(reference_kkt(ev, w, problem, lam, mu, side).values()),
        rel=1e-13, abs=0)
    # at least the continuity residual and the gradient must show up
    assert base >= np.abs(ev.c).max()
    assert base >= np.abs(ev.grad).max()
    # an infeasible input raises the bound-violation component
    w2 = w.copy()
    w2.U[3] = problem.u_min - 7.0
    ev2 = evaluate(problem, w2, WorkCounters())
    assert kkt_violation(ev2.grad, ev2.c, w2, problem, mu, side) >= 7.0
    # a multiplier on an inactive bound raises complementarity
    mu2, side2 = mu.copy(), side.copy()
    mu2[0], side2[0] = -1.0, -1       # u_0 = 300, far from its lower bound
    assert kkt_violation(ev.grad, ev.c, w, problem, mu2, side2) >= 300.0
    # the caller's Lagrangian gradient is read, not updated
    assert np.array_equal(ev.grad, grad)


def test_kkt_violation_infinite_bound():
    # an infinite bound with a zero multiplier adds no complementarity
    # term, and the other bound's term still counts
    values = []
    for lb0 in (-np.inf, -1e300):
        problem = make_problem(small_config(Nc=6,
                                            u_min=np.array([lb0, 0.0])))
        w = DecisionVector.filled(300.0, 4, 2, 6)
        ev = evaluate(problem, w, WorkCounters())
        mu, side = np.zeros(12), np.zeros(12, dtype=int)
        mu[1], side[1] = 1e4, 1           # upper bound: u_max - u = 200
        values.append(kkt_violation(ev.grad, ev.c, w, problem, mu, side))
    assert values[0] == values[1] >= 2e6


@pytest.mark.parametrize("held, wrong_sign", [(-1, 1e-9), (1, -1e-9)])
def test_kkt_violation_reads_the_bound_from_the_working_set(held, wrong_sign):
    # the QP stops with a held bound's multiplier up to its tolerance on
    # the wrong side of 0; complementarity still scores it against the
    # bound it holds, not against the opposite, infinite one
    bound = {-1: "u_min", 1: "u_max"}[held]
    other = {-1: "u_max", 1: "u_min"}[held]
    config = small_config(Nc=6, **{other: np.array([-held * np.inf] * 2)})
    problem = make_problem(config)
    w = DecisionVector.filled(300.0, 4, 2, 6)
    w.U[0, 0] = getattr(problem, bound)[0] - held * 1e-3
    ev = evaluate(problem, w, WorkCounters())
    mu, side = np.zeros(12), np.zeros(12, dtype=int)
    mu[0], side[0] = wrong_sign, held
    value = kkt_violation(ev.grad, ev.c, w, problem, mu, side)
    ref = reference_kkt(ev, w, problem, np.zeros((6, 4)), mu, side)
    assert ref["complementarity"] == pytest.approx(1e-12, rel=1e-6)
    assert value == pytest.approx(max(ref.values()), rel=1e-13, abs=0)


def reference_kkt(ev, w, problem, lam, mu, side):
    """The components of kkt_violation, from the dense continuity Jacobian
    and one loop over the inputs, with the signed multipliers split by the
    working set into a lower part -mu (side -1) and an upper part mu
    (side +1)."""
    n_x, n_u, Nc = w.n_x, w.n_u, w.Nc
    mu_lower = np.where(side < 0, -mu, 0.0)
    mu_upper = np.where(side > 0, mu, 0.0)
    J = dense_constraint_jacobian(ev, n_x, n_u, Nc)
    grad_l = ev.grad + J.T @ lam.ravel()
    u_all = np.zeros(Nc * n_u)
    for n in range(Nc):
        o = n * (n_u + n_x)
        block = slice(n * n_u, (n + 1) * n_u)
        grad_l[o:o + n_u] += mu_upper[block] - mu_lower[block]
        u_all[block] = w.w[o:o + n_u]
    lb = np.tile(problem.u_min, Nc)
    ub = np.tile(problem.u_max, Nc)
    comp = 0.0
    for i in range(Nc * n_u):       # a zero multiplier scores no bound
        if mu_lower[i] != 0:
            comp = max(comp, abs(mu_lower[i] * (u_all[i] - lb[i])))
        if mu_upper[i] != 0:
            comp = max(comp, abs(mu_upper[i] * (ub[i] - u_all[i])))
    return {"stationarity": np.abs(grad_l).max(),
            "feasibility": np.abs(ev.c).max(),
            "bounds": max(np.maximum(lb - u_all, 0.0).max(),
                          np.maximum(u_all - ub, 0.0).max()),
            "complementarity": comp}


@pytest.mark.parametrize("dominant, lam_scale, mu_lower_scale, mu_upper_scale",
                         [("feasibility", 1.0, 1.0, 1.0),
                          ("stationarity", 1e6, 1.0, 1.0),
                          ("complementarity", 1.0, 1e5, 1.0),
                          ("complementarity", 1.0, 1.0, 1e5)])
def test_kkt_violation_matches_dense_reference(dominant, lam_scale,
                                               mu_lower_scale, mu_upper_scale):
    config = small_config()
    problem = make_problem(config)
    rng = np.random.default_rng(7)
    w = DecisionVector.filled(300.0, 4, 2, config.Nc)
    w.U[:] += 30.0 * rng.standard_normal(w.U.shape)
    w.U[3] = problem.u_max + 1.0                 # one bound violated
    ev = evaluate(problem, w, WorkCounters())
    lam = lam_scale * rng.standard_normal(w.X.shape)
    # one signed multiplier per input: a lower one (< 0) or an upper one
    lower = rng.random(w.U.size) < 0.5
    side = np.where(lower, -1, 1)
    mu = np.where(lower, -mu_lower_scale, mu_upper_scale) \
        * rng.random(w.U.size)
    ref = reference_kkt(ev, w, problem, lam, mu, side)
    assert max(ref, key=ref.get) == dominant
    assert ref["bounds"] == 1.0
    grad_l = ev.grad + constraint_jacobian_transpose_times(ev, w, lam)
    value = kkt_violation(grad_l, ev.c, w, problem, mu, side)
    assert value == pytest.approx(max(ref.values()), rel=1e-13, abs=0)


def test_solver_converges_and_respects_bounds():
    config = small_config()
    problem = make_problem(config)
    result = solve_ocp(problem, sqp_settings(config),
                       DecisionVector.filled(300.0, 4, 2, config.Nc))
    assert result.converged
    assert result.kkt <= config.tol_sqp
    assert result.failure_reason is None
    assert np.isfinite(result.objective)
    ev = evaluate(problem, result.w_star, WorkCounters())
    assert np.abs(ev.c).max() <= config.tol_sqp
    assert np.all(result.w_star.U >= problem.u_min - 1e-9)
    assert np.all(result.w_star.U <= problem.u_max + 1e-9)


def test_two_lagrangian_gradients_per_iteration(monkeypatch):
    # each step forms grad phi + J_c' lam at the old and the new iterate;
    # the KKT check reads the new one instead of forming a third
    calls = []

    def counted(*args):
        calls.append(1)
        return constraint_jacobian_transpose_times(*args)

    monkeypatch.setattr(sqp, "constraint_jacobian_transpose_times", counted)
    config = small_config()
    result = solve_ocp(make_problem(config), sqp_settings(config),
                       DecisionVector.filled(300.0, 4, 2, config.Nc))
    assert result.converged and result.sqp_iterations > 0
    assert len(calls) == 2 * result.sqp_iterations


def test_counters_accumulate_across_evaluations():
    config = small_config()
    problem = make_problem(config)
    result = solve_ocp(problem, sqp_settings(config),
                       DecisionVector.filled(300.0, 4, 2, config.Nc))
    assert result.counters.f_evals > 0
    assert result.counters.lu_factorizations > 0
    assert result.qp_iterations_total >= result.sqp_iterations


@pytest.mark.parametrize("settings, patches, init, iterations, reason", [
    ({}, {}, 300.0, 26, None),
    ({"max_sqp_iter": 26}, {}, 300.0, 26, None),
    ({"max_sqp_iter": 2}, {}, 300.0, 2, "IterationLimit"),
    ({"max_sqp_iter": 0}, {}, 300.0, 0, "IterationLimit"),
    ({}, {"solve_qp": partial(solve_qp, max_iter=0)}, 300.0, 1,
     "IterationLimit"),
    ({"tol_step": 0.99}, {"ARMIJO_C1": 0.49}, 300.0, 4,
     "StepLengthBelowTolerance"),
    ({}, {}, -1e5, 0, "EvaluationFailure"),
], ids=["converged", "converged-at-limit", "sqp-limit", "no-iterations",
        "qp-limit", "short-step", "first-evaluation"])
def test_solver_exits(monkeypatch, settings, patches, init, iterations,
                      reason):
    # convergence at the top of iteration k counts k iterations, a QP or
    # line-search failure in iteration k counts k + 1
    for name, value in patches.items():
        monkeypatch.setattr(sqp, name, value)
    config = small_config()
    result = solve_ocp(make_problem(config),
                       replace(sqp_settings(config), **settings),
                       DecisionVector.filled(init, 4, 2, config.Nc))
    assert result.sqp_iterations == iterations
    assert result.failure_reason == reason
    assert result.converged == (reason is None)
