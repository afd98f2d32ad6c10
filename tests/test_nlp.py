from dataclasses import replace

import numpy as np
import pytest

from esdirkopt.bench import SetpointSwitch
from esdirkopt.errors import (EvaluationError, NewtonDivergence,
                              SingularMatrix)
from esdirkopt.integrator import (NewtonSettings, WorkCounters,
                                  integrate_interval,
                                  integrate_intervals_batch, strategy_of)
from esdirkopt.model import QuadrupleTank
from esdirkopt.nlp import (DecisionVector, OcpProblem,
                           constraint_jacobian_transpose_times, evaluate)
from esdirkopt.sensitivity import SensitivityMode
from esdirkopt.tableau import make_tableau
from references import LinearTestModel


# switching at half of a 400 s horizon
SETPOINTS = SetpointSwitch(np.array([20.0, 30.0]), np.array([30.0, 20.0]),
                           200.0)


def small_problem(mode=SensitivityMode.ITERATED, Nc=4, N=3, newton=None,
                  model=None):
    return OcpProblem(
        model=model if model is not None else QuadrupleTank(),
        x0=np.array([7602.7, 11404.0, 1000.0, 1000.0]),
        Ts=10.0, Nc=Nc, N=N,
        Qz=np.diag([10.0, 10.0]),
        Qdu=np.diag([0.1, 0.1]),
        u_min=np.zeros(2), u_max=np.full(2, 500.0),
        setpoint=replace(SETPOINTS, t_switch=10.0 * Nc / 2.0),
        u_prev=np.full(2, 300.0),
        d=np.array([0.0, 0.0, 100.0, 100.0]),
        tableau=make_tableau("ESDIRK23"),
        mode=mode,
        newton=newton if newton is not None else NewtonSettings())


def perturbed_w(problem, seed=0):
    rng = np.random.default_rng(seed)
    w = DecisionVector.filled(0.0, 4, 2, problem.Nc)
    for n in range(problem.Nc):
        w.U[n] = 300.0 + 30.0 * rng.standard_normal(2)
        w.X[n] = problem.x0 * (1.0 + 0.1 * rng.random(4))
    return w


def dense_constraint_jacobian(ev, n_x, n_u, Nc):
    """J_c for c_n = x_{n+1} - A_n x_n - B_n u_n, assembled block by block
    in the layout [u_0, x_1, u_1, x_2, ...]."""
    J = np.zeros((Nc * n_x, Nc * (n_u + n_x)))
    for n in range(Nc):
        rows = slice(n * n_x, (n + 1) * n_x)
        o = n * (n_u + n_x)                 # u_n starts here, x_n ends here
        J[rows, o:o + n_u] = -ev.B[n]
        J[rows, o + n_u:o + n_u + n_x] = np.eye(n_x)
        if n > 0:
            J[rows, o - n_x:o] = -ev.A[n]
    return J


def test_decision_vector_layout():
    w = DecisionVector(np.arange(12, dtype=float), 2, 2, 3)
    # w = [u_0, x_1, u_1, x_2, u_2, x_3]
    assert np.array_equal(w.U, [[0.0, 1.0], [4.0, 5.0], [8.0, 9.0]])
    assert np.array_equal(w.X, [[2.0, 3.0], [6.0, 7.0], [10.0, 11.0]])
    w.U[1] = [-1.0, -2.0]
    w.X[2, 0] = -3.0
    w.U[:, 1] += 100.0
    assert np.array_equal(w.w, [0.0, 101.0, 2.0, 3.0, -1.0, 98.0, 6.0, 7.0,
                                8.0, 109.0, -3.0, 11.0])
    c = w.copy()
    c.X[0] = 0.0
    assert w.X[0, 0] == 2.0 and c.w[2] == 0.0
    with pytest.raises(ValueError):
        DecisionVector(np.zeros(11), 2, 2, 3)


def test_setpoint_switch():
    assert np.array_equal(SETPOINTS(0.0), [20.0, 30.0])
    assert np.array_equal(SETPOINTS(199.9), [20.0, 30.0])
    assert np.array_equal(SETPOINTS(200.0), [30.0, 20.0])
    assert np.array_equal(SETPOINTS(400.0), [30.0, 20.0])
    # an array of times gives one row per time, switching at t_switch
    rows = SETPOINTS(np.array([0.0, 199.9, 200.0, 400.0]))
    assert np.array_equal(rows, [[20.0, 30.0], [20.0, 30.0],
                                 [30.0, 20.0], [30.0, 20.0]])


def test_simulated_vector_is_feasible():
    # forward simulation from x0 under u_n = u_prev: x_{n+1} := F_n(x_n, u_n)
    problem = small_problem()
    w = DecisionVector.filled(0.0, 4, 2, problem.Nc)
    x = problem.x0
    for n in range(problem.Nc):
        w.U[n] = 300.0
        mode = SensitivityMode.DIRECT
        x = integrate_interval(
            problem.model, problem.tableau, strategy_of(mode),
            problem.newton, mode, x, w.U[n], problem.d,
            n * problem.Ts, (n + 1) * problem.Ts, problem.N,
            WorkCounters()).x_final
        w.X[n] = x
    ev = evaluate(problem, w, WorkCounters())
    assert np.abs(ev.c).max() < 1e-10
    assert ev.phi > 0.0
    # all-constant inputs equal to u_prev: no rate penalty
    no_rate = replace(problem, Qdu=np.zeros((2, 2)))
    assert ev.phi == evaluate(no_rate, w, WorkCounters()).phi


def test_gradient_matches_central_differences():
    newton = NewtonSettings(abs=1e-12, rel=1e-12, max_iterations=50)
    problem = small_problem(newton=newton)
    w = perturbed_w(problem)
    ev = evaluate(problem, w, WorkCounters())

    def phi(vec):
        wv = DecisionVector(vec, 4, 2, problem.Nc)
        return evaluate(problem, wv, WorkCounters()).phi

    fd = np.zeros_like(w.w)
    for j in range(len(w.w)):
        eps = 1e-6 * (1.0 + abs(w.w[j]))
        vp, vm = w.w.copy(), w.w.copy()
        vp[j] += eps
        vm[j] -= eps
        fd[j] = (phi(vp) - phi(vm)) / (2.0 * eps)
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(ev.grad - fd).max() / scale < 1e-5


def test_constraint_blocks_match_finite_differences():
    newton = NewtonSettings(abs=1e-12, rel=1e-12, max_iterations=50)
    problem = small_problem(newton=newton)
    w = perturbed_w(problem, seed=1)
    ev = evaluate(problem, w, WorkCounters())

    def residuals(vec):
        wv = DecisionVector(vec, 4, 2, problem.Nc)
        return evaluate(problem, wv, WorkCounters()).c.copy()

    # c_n = x_{n+1} - F_n(x_n, u_n): A_n = dF/dx_n, B_n = dF/du_n
    n = 1
    for j in range(4):
        # x_n is X[n - 1]
        eps = 1e-5 * (1.0 + abs(w.X[n - 1, j]))
        vp, vm = w.copy(), w.copy()
        vp.X[n - 1, j] += eps
        vm.X[n - 1, j] -= eps
        fd = (residuals(vp.w)[n] - residuals(vm.w)[n]) / (2.0 * eps)
        assert np.allclose(-ev.A[n][:, j], fd, rtol=1e-5, atol=1e-7)
    for j in range(2):
        eps = 1e-5 * (1.0 + abs(w.U[n, j]))
        vp, vm = w.copy(), w.copy()
        vp.U[n, j] += eps
        vm.U[n, j] -= eps
        fd = (residuals(vp.w)[n] - residuals(vm.w)[n]) / (2.0 * eps)
        assert np.allclose(-ev.B[n][:, j], fd, rtol=1e-5, atol=1e-7)


def test_jacobian_transpose_product():
    problem = small_problem()
    w = perturbed_w(problem, seed=2)
    ev = evaluate(problem, w, WorkCounters())
    Nc, n_x, n_u = problem.Nc, 4, 2
    lam = np.arange(Nc * n_x, dtype=float).reshape(Nc, n_x) / 10.0
    out = constraint_jacobian_transpose_times(ev, w, lam)
    J = dense_constraint_jacobian(ev, n_x, n_u, Nc)
    assert np.allclose(out, J.T @ lam.ravel(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", [SensitivityMode.ITERATED,
                                  SensitivityMode.DIRECT,
                                  SensitivityMode.BASE_DIRECT])
def test_evaluation_matches_single_intervals(mode):
    # the batched evaluation agrees with one integrate_interval per interval
    problem = small_problem(mode=mode, Nc=6, N=4)
    w = perturbed_w(problem, seed=3)
    cb, cs = WorkCounters(), WorkCounters()
    ev = evaluate(problem, w, cb)
    for n in range(problem.Nc):
        x_n = problem.x0 if n == 0 else w.X[n - 1]
        res = integrate_interval(
            problem.model, problem.tableau, strategy_of(mode), problem.newton,
            mode, x_n, w.U[n], problem.d, n * problem.Ts,
            (n + 1) * problem.Ts, problem.N, cs)
        assert np.allclose(ev.c[n], w.X[n] - res.x_final,
                           rtol=0, atol=1e-9)
        assert np.allclose(ev.A[n], res.sens.wrt_x0, rtol=0, atol=1e-13)
        assert np.allclose(ev.B[n], res.sens.wrt_u, rtol=0, atol=1e-11)
    assert cb.as_dict() == cs.as_dict()


def test_evaluation_error_carries_interval():
    problem = small_problem()
    w = perturbed_w(problem, seed=4)
    w.U[2] = -1e5                  # drains the tanks below zero mass
    with pytest.raises(EvaluationError) as err:
        evaluate(problem, w, WorkCounters())
    assert err.value.interval == 2


class NonlinearAboveLimit(LinearTestModel):
    """LinearTestModel plus (x - limit)^2 above ``limit``, a term its df/dx
    leaves out: one Newton update solves a stage only below the limit."""

    def __init__(self, limit):
        super().__init__(-0.5)
        self.limit = limit

    def f_batch(self, x, u, d):
        return super().f_batch(x, u, d) + np.maximum(x - self.limit, 0.0)**2


@pytest.mark.parametrize("mode", list(SensitivityMode), ids=lambda m: m.value)
def test_newton_divergence_carries_row_and_interval(mode):
    # only row (interval) 2 starts above the limit, so only it misses the
    # bound of one Newton iteration
    model, tab = NonlinearAboveLimit(10.0), make_tableau("ESDIRK23")
    newton = NewtonSettings(max_iterations=1)
    x_starts = np.array([[1.0], [2.0], [20.0], [3.0]])
    with pytest.raises(NewtonDivergence) as err:
        integrate_intervals_batch(model, tab, newton, mode, x_starts,
                                  np.zeros((4, 1)), None, 1.0, 2,
                                  WorkCounters())
    assert err.value.batch_row == 2
    problem = OcpProblem(
        model=model, x0=x_starts[0], Ts=1.0, Nc=4, N=2, Qz=np.eye(1),
        Qdu=np.eye(1), u_min=np.zeros(1), u_max=np.ones(1),
        setpoint=SetpointSwitch(np.zeros(1), np.zeros(1), 2.0),
        u_prev=np.zeros(1), d=None, tableau=tab, mode=mode, newton=newton)
    w = DecisionVector.filled(0.0, 1, 1, problem.Nc)
    w.X[:-1] = x_starts[1:]
    with pytest.raises(EvaluationError) as err:
        evaluate(problem, w, WorkCounters())
    assert isinstance(err.value.cause, NewtonDivergence)
    assert err.value.interval == 2


class SingularAboveLimit(QuadrupleTank):
    """Quadruple tank whose df/dx makes the iteration matrix singular
    wherever tank 1 holds more than ``limit``."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def jacobians_batch(self, x):
        jx, ju = super().jacobians_batch(x)
        jx[x[:, 0] > self.limit] = 1e20
        return jx, ju


@pytest.mark.parametrize("mode", [SensitivityMode.ITERATED,
                                  SensitivityMode.BASE_DIRECT])
def test_singular_iteration_matrix_carries_interval(mode):
    # the step-start factorization (iterated) and the per-iterate ones of
    # the still-iterating rows (base) both name the interval
    problem = small_problem(mode=mode, model=SingularAboveLimit(15000.0))
    w = perturbed_w(problem, seed=5)
    w.X[1, 0] = 20000.0        # interval 2 starts at x_2 above the limit
    with pytest.raises(EvaluationError) as err:
        evaluate(problem, w, WorkCounters())
    assert isinstance(err.value.cause, SingularMatrix)
    assert err.value.interval == 2


def test_problem_validation():
    with pytest.raises(ValueError):
        small_problem(Nc=0)
