import contextlib

import numpy as np
import pytest

from esdirkopt import linalg
from esdirkopt.errors import (ConfigError, ContractViolation, DomainError,
                              NewtonDivergence, SingularMatrix)
from esdirkopt.integrator import (NewtonSettings, NewtonStrategy,
                                  WorkCounters, esdirk_step,
                                  integrate_interval,
                                  integrate_intervals_batch, strategy_of)
from esdirkopt.model import QuadrupleTank, _check_domain
from esdirkopt.sensitivity import SensitivityMode
from esdirkopt.tableau import make_tableau
from references import LinearTestModel, interleaved_integrate

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
    """The state pass of run_qts stepped by hand with esdirk_step on a
    batch of one row.

    Checks the final state, f_evals and the Newton iterations against
    run_qts, and returns run_qts's counters and the Newton iteration
    count of every step.
    """
    model, tab = QuadrupleTank(), make_tableau(method)
    counters = WorkCounters()
    x = X0[None]
    step, counts = None, []
    for _ in range(n_steps):
        before = counters.newton_iterations
        step = esdirk_step(model, tab, NewtonSettings(), mode, x, U0[None],
                           D0, 10.0 / n_steps, step, counters)
        x = step.stages[-1]
        counts.append(counters.newton_iterations - before)
    reference, work = run_qts(method, mode, n_steps)
    assert np.array_equal(x[0], reference.x_final)
    assert counters.f_evals == work.f_evals
    assert counters.newton_iterations == work.newton_iterations
    return work, np.array(counts)


def test_esdirk12_step_is_implicit_euler():
    lam, forcing = -0.5, 0.2
    m = LinearTestModel(lam, forcing)
    h = 0.3
    x0 = np.array([[1.7], [-0.4], [3.0]])
    u = np.array([[0.4], [0.0], [-1.1]])
    res = integrate_intervals_batch(
        m, make_tableau("ESDIRK12"), TIGHT, SensitivityMode.DIRECT, x0, u,
        None, h, 1, WorkCounters())
    exact = (x0 + h * (u + forcing)) / (1.0 - h * lam)
    assert np.allclose(res.x_final, exact, rtol=1e-12, atol=0)
    # d x_1 / d(x0, u) of implicit Euler, for every row
    assert np.allclose(res.sens.packed,
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
                np.zeros((2, 1)), None, 0.1, None, counters)
    # exactly one update for each of the 2 rows and 2 implicit stages
    assert counters.newton_iterations == 4


def test_newton_divergence():
    settings = NewtonSettings(max_iterations=1)
    with pytest.raises(NewtonDivergence):
        run_qts("ESDIRK23", SensitivityMode.DIRECT, n_steps=1,
                settings=settings, u=np.array([500.0, 500.0]),
                x0=np.array([10.0, 10.0, 10.0, 10.0]))


@pytest.mark.parametrize("kwargs", [
    {"tau": 0.0}, {"tau": 1.5}, {"abs": 0.0}, {"max_iterations": 0},
    {"abs": float("nan")}, {"rel": float("nan")}, {"max_iterations": 2.5},
    {"max_iterations": True}, {"abs": float("inf")}, {"rel": float("inf")},
    {"tau": True}, {"abs": True}, {"tau": "0.5"}])
def test_newton_settings_validation(kwargs):
    # the error names the field
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
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
    for n_steps in (0, 2.5, True):
        with pytest.raises(ConfigError, match="n_steps"):
            run_qts("ESDIRK23", SensitivityMode.DIRECT, n_steps=n_steps)
    counters = WorkCounters()
    with pytest.raises(ConfigError, match="dt"):
        integrate_interval(QuadrupleTank(), make_tableau("ESDIRK23"),
                           NewtonStrategy.REUSE_PER_STEP, NewtonSettings(),
                           SensitivityMode.DIRECT, X0, U0, D0, 5.0, 5.0, 10,
                           counters)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="dt"):
            integrate_intervals_batch(
                QuadrupleTank(), make_tableau("ESDIRK23"), NewtonSettings(),
                SensitivityMode.DIRECT, X0[None], U0[None], D0, dt, 10,
                counters)
    assert counters == WorkCounters()          # no work was done


def test_warm_start_reduces_newton_work():
    _, per_step = step_qts("ESDIRK34", SensitivityMode.DIRECT, n_steps=20)
    assert per_step[5:].max() <= per_step[0]


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
@pytest.mark.parametrize("mode", [SensitivityMode.ITERATED,
                                  SensitivityMode.DIRECT,
                                  SensitivityMode.BASE_DIRECT])
def test_batch_matches_single_rows(method, mode):
    # rows converge after different numbers of Newton iterations, so this
    # also covers the subsetting of the still-iterating rows: a lone row
    # runs every round through views, the batch gathers the rows that still
    # iterate once the first has converged, and both give the same bits
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
        assert np.array_equal(batch.trajectory[k], res.trajectory)
        for batch_sens, row_sens in zip(batch.step_sens, res.step_sens,
                                        strict=True):
            assert np.array_equal(batch_sens[k], row_sens)
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
    """QuadrupleTank that counts the rows it evaluates f and the Jacobians
    at, and its Jacobian calls, of the calls that return."""

    def __init__(self):
        super().__init__()
        self.f_rows = 0
        self.jacobian_rows = 0
        self.jacobian_calls = 0

    def f_batch(self, x, u, d):
        f = super().f_batch(x, u, d)
        self.f_rows += x.shape[0]
        return f

    def jacobians_batch(self, x):
        jacobians = super().jacobians_batch(x)
        self.jacobian_rows += x.shape[0]
        self.jacobian_calls += 1
        return jacobians


def batch_inputs(nb, seed=7):
    rng = np.random.default_rng(seed)
    return (X0 * (1.0 + 0.2 * rng.random((nb, 4))),
            U0 + 40.0 * rng.standard_normal((nb, 2)))


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
# a case without a failure keeps the id of the mode alone
@pytest.mark.parametrize("mode,failure", [
    pytest.param(mode, failure, id="-".join(filter(None, (str(mode), failure))))
    for mode in SensitivityMode
    for failure in (None, "negative_mass", "divergence")])
def test_model_calls_match_counters(method, mode, failure, monkeypatch):
    # every row a model call evaluates or a factorization factorizes is
    # counted work, and the counted work is done, also when the
    # integration fails; the sensitivity pass batches its Jacobians, so
    # iterated and direct call the model once per step for the iteration
    # matrix and once for the sensitivities
    factorized = []
    lu_factorize_batch = linalg.lu_factorize_batch

    def counting_factorize(a):
        factors = lu_factorize_batch(a)
        factorized.append(len(a))
        return factors

    monkeypatch.setattr(linalg, "lu_factorize_batch", counting_factorize)
    x0s, us = batch_inputs(7)
    settings = NewtonSettings()
    raises = contextlib.nullcontext()
    if failure == "negative_mass":
        x0s[4, 2] = -1.0
        raises = pytest.raises(DomainError)
    elif failure == "divergence":
        settings = NewtonSettings(max_iterations=1)
        raises = pytest.raises(NewtonDivergence)
    model = CountingTank()
    counters = WorkCounters()
    n_steps = 10
    with raises:
        integrate_intervals_batch(model, make_tableau(method), settings, mode,
                                  x0s, us, D0, 10.0, n_steps, counters)
    assert model.f_rows == counters.f_evals
    assert model.jacobian_rows == max(counters.jac_x_evals,
                                      counters.jac_u_evals)
    assert sum(factorized) == counters.lu_factorizations
    if failure is None and mode is not SensitivityMode.BASE_DIRECT:
        assert model.jacobian_calls == n_steps + 1


LOOSE = NewtonSettings(tau=0.5, abs=1e-4, rel=1e-4)


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
@pytest.mark.parametrize("mode", list(SensitivityMode), ids=lambda m: m.value)
@pytest.mark.parametrize("nb", [1, 7])
@pytest.mark.parametrize("n_steps", [1, 10])
@pytest.mark.parametrize("settings", [NewtonSettings(), LOOSE],
                         ids=["default", "loose"])
def test_two_passes_match_interleaved_step(method, mode, nb, n_steps,
                                           settings):
    # the state pass and the replayed sensitivity pass give the bits and
    # the counts of the step that differentiates each stage as it solves it
    x0s, us = batch_inputs(nb)
    out = []
    for integrate in (integrate_intervals_batch, interleaved_integrate):
        counters = WorkCounters()
        res = integrate(QuadrupleTank(), make_tableau(method), settings,
                        mode, x0s, us, D0, 10.0, n_steps, counters)
        out.append((res, counters))
    (res, counters), (ref, ref_counters) = out
    assert np.array_equal(res.x_final, ref.x_final)
    assert np.array_equal(res.trajectory, ref.trajectory)
    assert len(res.step_sens) == len(ref.step_sens) == n_steps
    for sens, ref_sens in zip(res.step_sens, ref.step_sens):
        assert np.array_equal(sens, ref_sens)
    assert counters == ref_counters


@pytest.mark.parametrize("mode", list(SensitivityMode), ids=lambda m: m.value)
@pytest.mark.parametrize("failure", ["negative_mass", "divergence"])
def test_two_passes_fail_like_interleaved_step(mode, failure):
    # same exception, same row, and the same f evaluations and Newton
    # iterations at the raise; the interleaved algorithm also counts the
    # sensitivity work of the stages it solved, which the two passes
    # never reach (test_model_calls_match_counters pins the rest)
    x0s, us = batch_inputs(7)
    settings = NewtonSettings()
    if failure == "negative_mass":
        x0s[4, 2] = -1.0
        x0s[5, 0] = -2.0
        expected = DomainError
    else:
        settings = NewtonSettings(max_iterations=1)
        expected = NewtonDivergence
    raised = []
    for integrate in (integrate_intervals_batch, interleaved_integrate):
        counters = WorkCounters()
        with pytest.raises(expected) as err:
            integrate(QuadrupleTank(), make_tableau("ESDIRK34"), settings,
                      mode, x0s, us, D0, 10.0, 3, counters)
        raised.append((type(err.value), err.value.batch_row, str(err.value),
                       counters.f_evals, counters.newton_iterations))
    assert raised[0] == raised[1]
    assert raised[0][2].endswith(f"in batch row {raised[0][1]}")
    if failure == "negative_mass":
        assert raised[0][1] == 4


class SingularAtStage(LinearTestModel):
    """Two states, x' = (1, 0): every Newton update is exact, and df/dx is
    zero but on states whose first entry is near ``at``, where it makes
    I - h*gamma*df/dx singular by the condition threshold."""

    n_x = 2

    def __init__(self, at):
        super().__init__(0.0)
        self.at = at

    def f_batch(self, x, u, d):
        return np.tile([1.0, 0.0], (len(x), 1))

    def jacobians_batch(self, x):
        jx = np.zeros((len(x), 2, 2))
        jx[np.abs(x[:, 0] - self.at) < 0.05, 0, 1] = -1e16
        return jx, np.zeros((2, 1))


def test_deferred_singular_stage_names_interval_row():
    # base factorizes the converged-stage matrices of all steps and stages
    # in one stack after the state pass; row 1's last stage (x = 11) is the
    # stack's fifth matrix, the oracle's matrix, and the error names
    # interval row 1
    x0s = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    messages = []
    for integrate in (integrate_intervals_batch, interleaved_integrate):
        with pytest.raises(SingularMatrix) as err:
            integrate(SingularAtStage(11.0), make_tableau("ESDIRK23"),
                      NewtonSettings(), SensitivityMode.BASE_DIRECT, x0s,
                      np.zeros((3, 1)), None, 1.0, 1, WorkCounters())
        assert err.value.batch_row == 1
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("in batch row 1")


class OvershootAfterOneRowLeaves(LinearTestModel):
    """x' = u (4 - 2x) with df/dx reported as 0 below x = 2 and 1 above.
    An implicit Euler step of size 1 from x = 1 is then solved at once for
    u = 0, while for u = 1 its Newton updates x <- 1 + 4 - 2x overshoot to
    3 and on to -1, out of the domain; base's matrix I - df/dx at 3 has a
    zero pivot."""

    def __init__(self):
        super().__init__(0.0)

    def f_batch(self, x, u, d):
        _check_domain(x)
        return u * (4.0 - 2.0 * x)

    def jacobians_batch(self, x):
        return np.where(x > 2.0, 1.0, 0.0)[:, :, None], np.ones((1, 1))


@pytest.mark.parametrize("mode", list(SensitivityMode), ids=lambda m: m.value)
def test_row_error_after_a_row_leaves_names_full_batch_row(mode):
    # row 0 has left the Newton loop when row 1 fails, so the model and
    # linalg see row 1 as the first row of the rest; the error's row and
    # its message both name row 1 of the full batch
    base = mode is SensitivityMode.BASE_DIRECT
    messages = []
    for integrate in (integrate_intervals_batch, interleaved_integrate):
        with pytest.raises(SingularMatrix if base else DomainError) as err:
            integrate(OvershootAfterOneRowLeaves(), make_tableau("ESDIRK12"),
                      NewtonSettings(), mode, np.ones((2, 1)),
                      np.array([[0.0], [1.0]]), None, 1.0, 1,
                      WorkCounters())
        assert err.value.batch_row == 1
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0] == ("zero pivot in batch row 1" if base else
                           "negative tank mass: [-1.] in batch row 1")
