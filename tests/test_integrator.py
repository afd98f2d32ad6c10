import numpy as np
import pytest

from esdirkopt.errors import ContractViolation, NewtonDivergence
from esdirkopt.integrator import (NewtonSettings, NewtonStrategy,
                                  WorkCounters, esdirk_step,
                                  integrate_interval,
                                  integrate_intervals_batch, strategy_of)
from esdirkopt.model import QuadrupleTank
from esdirkopt.sensitivity import SensitivityMode
from esdirkopt.tableau import make_tableau
from references import LinearTestModel

X0 = np.array([7602.7, 11404.0, 1000.0, 1000.0])
U0 = np.array([300.0, 300.0])
D0 = np.array([0.0, 0.0, 100.0, 100.0])

TIGHT = NewtonSettings(abs=1e-12, rel=1e-12, max_iterations=50)


def run_qts(method, mode, n_steps=10, settings=None, x0=X0, u=U0):
    counters = WorkCounters()
    res = integrate_interval(
        QuadrupleTank(), make_tableau(method), strategy_of(mode),
        settings if settings is not None else NewtonSettings(), mode,
        x0, u, D0, 0.0, 10.0, n_steps, counters)
    return res, counters


def step_qts(method, mode, n_steps=10):
    """run_qts stepped by hand with esdirk_step on a batch of one row.

    Checks the final state, its sensitivities and the counters against
    run_qts, and returns the counters and the Newton iteration count of
    every step.
    """
    model, tab = QuadrupleTank(), make_tableau(method)
    counters = WorkCounters()
    x = X0[None]
    sens = np.hstack((np.eye(4), np.zeros((4, 2))))[None]
    prev, counts = None, []
    for _ in range(n_steps):
        before = counters.newton_iterations
        stages, stage_sens = esdirk_step(model, tab, NewtonSettings(), mode,
                                         x, sens, U0[None], D0,
                                         10.0 / n_steps, prev, counters)
        prev = (x, stages, sens, stage_sens)
        x, sens = stages[-1], stage_sens[-1]
        counts.append(counters.newton_iterations - before)
    reference, work = run_qts(method, mode, n_steps)
    assert np.array_equal(x[0], reference.x_final)
    assert np.array_equal(sens[0], reference.sens.packed)
    assert counters.as_dict() == work.as_dict()
    return counters, np.array(counts)


def test_esdirk12_step_is_implicit_euler():
    lam, forcing = -0.5, 0.2
    m = LinearTestModel(lam, forcing)
    h = 0.3
    x0 = np.array([[1.7], [-0.4], [3.0]])
    u = np.array([[0.4], [0.0], [-1.1]])
    sens0 = np.tile(np.eye(1, 2), (3, 1, 1))
    stages, stage_sens = esdirk_step(
        m, make_tableau("ESDIRK12"), TIGHT, SensitivityMode.DIRECT, x0,
        sens0, u, None, h, None, WorkCounters())
    exact = (x0 + h * (u + forcing)) / (1.0 - h * lam)
    assert np.allclose(stages[-1], exact, rtol=1e-12, atol=0)
    # d x_1 / d(x0, u) of implicit Euler, for every row
    assert np.allclose(stage_sens[-1],
                       np.array([[[1.0, h]]]) / (1.0 - h * lam),
                       rtol=1e-14, atol=0)


@pytest.mark.parametrize("method,order", [("ESDIRK12", 1), ("ESDIRK23", 2),
                                          ("ESDIRK34", 3)])
def test_linear_model_convergence_order(method, order):
    m = LinearTestModel(-1.3, forcing=0.5)
    u = np.array([0.7])
    x0 = np.array([2.0])
    exact = m.exact_state(1.0, x0[0], u[0])
    errors = []
    for n in (8, 16, 32, 64):
        counters = WorkCounters()
        res = integrate_interval(m, make_tableau(method),
                                 NewtonStrategy.REUSE_PER_STEP, TIGHT,
                                 SensitivityMode.DIRECT, x0, u, None,
                                 0.0, 1.0, n, counters)
        errors.append(abs(res.x_final[0] - exact))
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(rates > order - 0.25)


#: ESDIRK23, 10 steps: d x_final / d(x0, u) and the counters of each mode
FROZEN = {
    SensitivityMode.ITERATED: (
        [[0.8538073231454028, 0.0, 0.2840613287751059, 0.0],
         [0.0, 0.8780092422789403, 0.0, 0.27900440672441157],
         [0.0, 0.0, 0.6902966829580363, 0.0],
         [0.0, 0.0, 0.0, 0.700171835290983]],
        [[5.5518337476769615, 0.4442689795437395],
         [0.5715002522177987, 6.5645128746892665],
         [0.0, 2.530338047823963],
         [3.4013825294616753, 0.0]],
        {"f_evals": 72, "jac_x_evals": 52, "jac_u_evals": 52,
         "lu_factorizations": 10, "newton_iterations": 42}),
    SensitivityMode.DIRECT: (
        [[0.8537075082766371, 0.0, 0.2861039610052028, 0.0],
         [0.0, 0.8779781991141282, 0.0, 0.28149974100588415],
         [0.0, 0.0, 0.6879976450113955, 0.0],
         [0.0, 0.0, 0.0, 0.697431657118589]],
        [[5.551455662395413, 0.4475088642807631],
         [0.5765428387646612, 6.564356006375318],
         [0.0, 2.526834416950628],
         [3.39601550225153, 0.0]],
        {"f_evals": 72, "jac_x_evals": 20, "jac_u_evals": 30,
         "lu_factorizations": 10, "newton_iterations": 42}),
    SensitivityMode.BASE_DIRECT: (
        [[0.8538073230488373, 0.0, 0.28406132710010706, 0.0],
         [0.0, 0.8780092421928966, 0.0, 0.2790044041078345],
         [0.0, 0.0, 0.6902966848068361, 0.0],
         [0.0, 0.0, 0.0, 0.7001718381790414]],
        [[5.551833747425097, 0.44426897712251384],
         [0.5715002476393705, 6.564512874445462],
         [0.0, 2.530338050413266],
         [3.4013825343974644, 0.0]],
        {"f_evals": 52, "jac_x_evals": 52, "jac_u_evals": 30,
         "lu_factorizations": 42, "newton_iterations": 22}),
}


@pytest.mark.parametrize("mode", list(FROZEN), ids=lambda m: m.value)
def test_frozen_terminal_state_esdirk23(mode):
    wrt_x0, wrt_u, work = FROZEN[mode]
    res, counters = run_qts("ESDIRK23", mode)
    if mode is SensitivityMode.ITERATED:
        expected = np.array([8000.271319323485, 11619.27306711874,
                             1843.1845763673257, 2097.278340600137])
        assert np.allclose(res.x_final, expected, rtol=1e-13, atol=0)
        assert counters.lu_factorizations == 10
        assert counters.f_evals == 72
        assert counters.jac_x_evals == 52
        assert counters.jac_u_evals == 52
        assert counters.newton_iterations == 42
    assert np.allclose(res.sens.wrt_x0, wrt_x0, rtol=1e-13, atol=0)
    assert np.allclose(res.sens.wrt_u, wrt_u, rtol=1e-13, atol=0)
    assert counters.as_dict() == work


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
def test_counter_identities_reuse(method):
    n_steps = 10
    counters, counts = step_qts(method, SensitivityMode.ITERATED, n_steps)
    s = make_tableau(method).s
    assert counters.lu_factorizations == n_steps
    newton = counts.sum()
    assert counters.newton_iterations == newton
    # f at the step start, and once per Newton round: one round per
    # iterate plus the round that finds each implicit stage converged
    assert counters.f_evals == n_steps * s + newton
    # one Jacobian pair at the step start plus one pair per Newton iterate
    assert counters.jac_x_evals == n_steps + newton
    assert counters.jac_u_evals == n_steps + newton


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
def test_counter_identities_refactorize(method):
    n_steps = 10
    counters, counts = step_qts(method, SensitivityMode.BASE_DIRECT,
                                n_steps)
    s = make_tableau(method).s
    newton = counts.sum()
    assert counters.newton_iterations == newton
    # state pass factorizes once per Newton iteration; the sensitivity pass
    # adds one fresh stage-matrix factorization per implicit stage
    assert counters.lu_factorizations == newton + n_steps * (s - 1)
    # step-start Jacobian, one per iteration, one per stage at convergence
    assert counters.jac_x_evals == n_steps + newton + n_steps * (s - 1)
    # df/du at the step start and at each converged stage, not per iterate
    assert counters.jac_u_evals == n_steps * s
    assert counters.f_evals == n_steps * s + newton


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
def test_counter_identities_direct(method):
    n_steps = 10
    counters, counts = step_qts(method, SensitivityMode.DIRECT, n_steps)
    s = make_tableau(method).s
    assert counters.newton_iterations == counts.sum()
    assert counters.f_evals == n_steps * s + counts.sum()
    # direct mode adds no factorizations beyond the one per step
    assert counters.lu_factorizations == n_steps
    # Jacobians: step start plus fresh ones at converged stages 2..s-1
    assert counters.jac_x_evals == n_steps * (1 + max(s - 2, 0))
    # df/du at every stage, none per iterate
    assert counters.jac_u_evals == n_steps * s


def test_strategy_equivalence_tight_tolerances():
    # iterated reuses the step's factorization, base refactorizes
    for method in ("ESDIRK12", "ESDIRK23", "ESDIRK34"):
        r1, _ = run_qts(method, SensitivityMode.ITERATED, settings=TIGHT)
        r2, _ = run_qts(method, SensitivityMode.BASE_DIRECT, settings=TIGHT)
        assert np.allclose(r1.x_final, r2.x_final, rtol=1e-8, atol=0)


def test_min_one_newton_iteration():
    # even a perfect predictor performs at least one update per stage
    m = LinearTestModel(0.0)       # f = 0: the predictor x_k is exact
    counters = WorkCounters()
    esdirk_step(m, make_tableau("ESDIRK23"), NewtonSettings(),
                SensitivityMode.DIRECT, np.array([[1.0], [2.0]]),
                np.tile(np.eye(1, 2), (2, 1, 1)), np.zeros((2, 1)), None,
                0.1, None, counters)
    # exactly one update for each of the 2 rows and 2 implicit stages
    assert counters.newton_iterations == 4


def test_newton_divergence():
    settings = NewtonSettings(max_iterations=1)
    with pytest.raises(NewtonDivergence):
        run_qts("ESDIRK23", SensitivityMode.DIRECT, n_steps=1,
                settings=settings, u=np.array([500.0, 500.0]),
                x0=np.array([10.0, 10.0, 10.0, 10.0]))


@pytest.mark.parametrize("kwargs", [{"tau": 0.0}, {"tau": 1.5}, {"abs": 0.0},
                                    {"max_iterations": 0}])
def test_newton_settings_validation(kwargs):
    with pytest.raises(ValueError):
        NewtonSettings(**kwargs)


def test_mode_strategy_contract():
    reuse = NewtonStrategy.REUSE_PER_STEP
    refactorize = NewtonStrategy.REFACTORIZE_EVERY_ITERATION
    assert {mode: strategy_of(mode) for mode in SensitivityMode} == {
        SensitivityMode.ITERATED: reuse, SensitivityMode.DIRECT: reuse,
        SensitivityMode.BASE_DIRECT: refactorize}
    for mode, strategy in ((SensitivityMode.BASE_DIRECT, reuse),
                           (SensitivityMode.ITERATED, refactorize),
                           (SensitivityMode.DIRECT, refactorize)):
        with pytest.raises(ContractViolation):
            integrate_interval(QuadrupleTank(), make_tableau("ESDIRK23"),
                               strategy, NewtonSettings(), mode, X0, U0, D0,
                               0.0, 10.0, 10, WorkCounters())


def test_interval_argument_validation():
    with pytest.raises(ValueError):
        run_qts("ESDIRK23", SensitivityMode.DIRECT, n_steps=0)
    counters = WorkCounters()
    with pytest.raises(ValueError):
        integrate_interval(QuadrupleTank(), make_tableau("ESDIRK23"),
                           NewtonStrategy.REUSE_PER_STEP, NewtonSettings(),
                           SensitivityMode.DIRECT, X0, U0, D0, 5.0, 5.0, 10,
                           counters)


def test_warm_start_reduces_newton_work():
    _, per_step = step_qts("ESDIRK34", SensitivityMode.DIRECT, n_steps=20)
    assert per_step[5:].max() <= per_step[0]


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
@pytest.mark.parametrize("mode", [SensitivityMode.ITERATED,
                                  SensitivityMode.DIRECT,
                                  SensitivityMode.BASE_DIRECT])
def test_batch_matches_single_rows(method, mode):
    # rows converge after different numbers of Newton iterations, so this
    # also covers the subsetting of the still-iterating rows
    rng = np.random.default_rng(11)
    nb = 5
    x0s = X0 * (1.0 + 0.2 * rng.random((nb, 4)))
    us = U0 + 40.0 * rng.standard_normal((nb, 2))
    model = QuadrupleTank()
    tab = make_tableau(method)
    settings = NewtonSettings()
    cb = WorkCounters()
    batch = integrate_intervals_batch(model, tab, settings, mode, x0s, us,
                                      D0, 10.0, 6, cb)
    cs = WorkCounters()
    for k in range(nb):
        res = integrate_interval(model, tab, strategy_of(mode), settings,
                                 mode, x0s[k], us[k], D0, 0.0, 10.0, 6, cs)
        assert np.allclose(batch.x_final[k], res.x_final, rtol=1e-14, atol=0)
        assert np.allclose(batch.trajectory[k], res.trajectory,
                           rtol=1e-14, atol=0)
        assert np.allclose(batch.sens.wrt_x0[k], res.sens.wrt_x0,
                           rtol=0, atol=1e-12)
        assert np.allclose(batch.sens.wrt_u[k], res.sens.wrt_u,
                           rtol=0, atol=1e-12)
    assert cb.as_dict() == cs.as_dict()


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
@pytest.mark.parametrize("settings", [NewtonSettings(), TIGHT],
                         ids=["default", "tight"])
def test_state_pass_independent_of_sensitivity_mode(method, settings):
    # the finite-difference oracle reads DIRECT states in place of ITERATED
    # ones: with the same iteration matrix both make the same Newton
    # iterations and the same model evaluations, bit for bit
    rng = np.random.default_rng(5)
    nb = 7
    x0s = X0 * (1.0 + 0.2 * rng.random((nb, 4)))
    us = U0 + 40.0 * rng.standard_normal((nb, 2))
    out = {}
    for mode in (SensitivityMode.ITERATED, SensitivityMode.DIRECT):
        counters = WorkCounters()
        res = integrate_intervals_batch(QuadrupleTank(), make_tableau(method),
                                        settings, mode, x0s, us, D0, 10.0, 6,
                                        counters)
        out[mode] = (res.trajectory, counters.newton_iterations,
                     counters.f_evals)
    it, di = out[SensitivityMode.ITERATED], out[SensitivityMode.DIRECT]
    assert np.array_equal(it[0], di[0])
    assert it[1:] == di[1:]


class CountingTank(QuadrupleTank):
    """QuadrupleTank that counts the rows it evaluates f at and its
    Jacobian calls."""

    def __init__(self):
        super().__init__()
        self.f_rows = 0
        self.jacobian_calls = 0

    def f_batch(self, x, u, d):
        self.f_rows += x.shape[0]
        return super().f_batch(x, u, d)

    def jacobians_batch(self, x):
        self.jacobian_calls += 1
        return super().jacobians_batch(x)


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
@pytest.mark.parametrize("mode", list(SensitivityMode))
def test_model_calls_match_counters(method, mode):
    # one row: every model call evaluates exactly the work it is counted as
    model = CountingTank()
    counters = WorkCounters()
    integrate_interval(model, make_tableau(method), strategy_of(mode),
                       NewtonSettings(), mode, X0, U0, D0, 0.0, 10.0, 10,
                       counters)
    assert model.f_rows == counters.f_evals
    assert model.jacobian_calls == max(counters.jac_x_evals,
                                       counters.jac_u_evals)
