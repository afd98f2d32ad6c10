"""End-to-end acceptance checks for the integrator and benchmark stack.

These exercise the full pipeline at the tolerances the package promises:
tableau order conditions, observed convergence orders, sensitivity
accuracy for all three computation modes, predictor closed forms, the
complete benchmark sweep, the low-tolerance experiment, the work-counter
identities, and determinism of the harness.
"""

import time

import numpy as np
import pytest

from esdirkopt.bench import (METHODS, SENS_MODES, SWEEP_N, RunConfig,
                             run_low_tol_experiment, run_single, run_sweep)
from esdirkopt.integrator import (NewtonSettings, WorkCounters,
                                  integrate_interval, strategy_of)
from esdirkopt.model import QuadrupleTank
from esdirkopt.sensitivity import SensitivityMode, fd_sensitivity_oracle
from esdirkopt.tableau import make_tableau, svp_coefficients
from references import order_condition_residuals

X0 = np.array([7602.7, 11404.0, 1000.0, 1000.0])
U0 = np.array([300.0, 300.0])
D0 = np.array([0.0, 0.0, 100.0, 100.0])

TIGHT = NewtonSettings(abs=1e-12, rel=1e-12, max_iterations=60)


def integrate(method, mode, n_steps, settings=None):
    counters = WorkCounters()
    res = integrate_interval(
        QuadrupleTank(), make_tableau(method), strategy_of(mode),
        settings if settings is not None else NewtonSettings(), mode,
        X0, U0, D0, 0.0, 10.0, n_steps, counters)
    return res, counters


def rel_sens_error(sens, oracle):
    ex = np.abs(sens.wrt_x0 - oracle.wrt_x0).max() / np.abs(oracle.wrt_x0).max()
    eu = np.abs(sens.wrt_u - oracle.wrt_u).max() / np.abs(oracle.wrt_u).max()
    return max(ex, eu)


# -- 1. tableau correctness ------------------------------------------------

def test_tableau_order_conditions_and_structure():
    t0 = time.perf_counter()
    for method, order in (("ESDIRK12", 1), ("ESDIRK23", 2), ("ESDIRK34", 3)):
        tab = make_tableau(method)
        assert np.all(tab.a[0] == 0.0)
        diag = np.diagonal(tab.a)[1:]
        assert np.all(diag == tab.gamma)
        assert np.allclose(tab.a[-1], tab.b, rtol=0, atol=0)
        assert np.abs(order_condition_residuals(
            tab.a, tab.b, tab.c, order)).max() < 1e-12
    assert time.perf_counter() - t0 < 1.0


# -- 2. observed convergence order ----------------------------------------

def test_observed_convergence_orders():
    t0 = time.perf_counter()
    ref, _ = integrate("ESDIRK34", SensitivityMode.DIRECT, 1280, TIGHT)
    ns = np.array([5, 10, 20, 40, 80])
    for method, order in (("ESDIRK12", 1), ("ESDIRK23", 2), ("ESDIRK34", 3)):
        errors = []
        for n in ns:
            res, _ = integrate(method, SensitivityMode.DIRECT, int(n), TIGHT)
            errors.append(np.abs(res.x_final - ref.x_final).max())
        fitted = -np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert abs(fitted - order) < 0.25, (method, fitted)
    assert time.perf_counter() - t0 < 10.0


# -- 3. sensitivity oracle agreement ---------------------------------------

def test_sensitivities_match_fd_oracle():
    t0 = time.perf_counter()
    model = QuadrupleTank()
    for method in ("ESDIRK12", "ESDIRK23", "ESDIRK34"):
        oracle = fd_sensitivity_oracle(model, make_tableau(method),
                                       X0, U0, D0, 0.0, 10.0, 10)
        for mode in (SensitivityMode.ITERATED, SensitivityMode.BASE_DIRECT):
            res, _ = integrate(method, mode, 10, TIGHT)
            assert rel_sens_error(res.sens, oracle) < 1e-4, (method, mode)
        # at the default tolerances the fixed-matrix shortcut is visibly
        # biased while the replayed recursion is not
        oracle5 = fd_sensitivity_oracle(model, make_tableau(method),
                                        X0, U0, D0, 0.0, 10.0, 5)
        it, _ = integrate(method, SensitivityMode.ITERATED, 5)
        di, _ = integrate(method, SensitivityMode.DIRECT, 5)
        assert rel_sens_error(di.sens, oracle5) \
            > rel_sens_error(it.sens, oracle5), method
    assert time.perf_counter() - t0 < 10.0


# -- 4. direct-mode deviation shrinks under h-refinement --------------------

def test_direct_mode_bias_vanishes_with_step_size():
    t0 = time.perf_counter()
    for method in ("ESDIRK12", "ESDIRK23", "ESDIRK34"):
        devs = []
        for n in (5, 10, 20, 40, 80):
            di, _ = integrate(method, SensitivityMode.DIRECT, n)
            ba, _ = integrate(method, SensitivityMode.BASE_DIRECT, n)
            devs.append(max(np.abs(di.sens.wrt_x0 - ba.sens.wrt_x0).max(),
                            np.abs(di.sens.wrt_u - ba.sens.wrt_u).max()))
        for a, b in zip(devs, devs[1:]):
            assert b < 1.5 * a, (method, devs)
    assert time.perf_counter() - t0 < 10.0


# -- 5. stage value predictor closed forms ----------------------------------

def test_predictor_closed_forms_and_exactness():
    # the published closed forms at the fixed step size, ratio r = 1
    r = 1.0
    c12 = svp_coefficients(make_tableau("ESDIRK12"))
    assert c12.alpha[0] == pytest.approx(-r, abs=1e-12)
    assert c12.beta[0, 0] == pytest.approx(1.0 + r, abs=1e-12)

    c23 = svp_coefficients(make_tableau("ESDIRK23"))
    g = make_tableau("ESDIRK23").gamma
    a_ref = [r - 2.0 * g * r + 2.0 * g * r ** 2,
             (r - 2.0 * g * r + r ** 2) / (2.0 * g)]
    b_ref = [[(2.0 * g * r ** 2 + r) / (2.0 * g - 1.0),
              -(4.0 * g ** 2 * r ** 2 - 4.0 * g ** 2 * r
                + 4.0 * g * r - 2.0 * g + 1.0) / (2.0 * g - 1.0)],
             [(r ** 2 + r) / (2.0 * g * (2.0 * g - 1.0)),
              -(2.0 * r - 2.0 * g - 2.0 * g * r + r ** 2 + 1.0)
              / (2.0 * g - 1.0)]]
    assert np.allclose(c23.alpha, a_ref, rtol=0, atol=1e-12)
    assert np.allclose(c23.beta, b_ref, rtol=0, atol=1e-12)

    # a constant state is predicted exactly by every method
    for method in ("ESDIRK12", "ESDIRK23", "ESDIRK34"):
        coeffs = svp_coefficients(make_tableau(method))
        combined = coeffs.alpha + coeffs.beta.sum(axis=1)
        assert np.allclose(combined, 1.0, rtol=0, atol=1e-12)


# -- 6. full benchmark sweep, qualitative ------------------------------------

@pytest.fixture(scope="module")
def sweep_rows():
    start = time.perf_counter()
    rows = run_sweep(RunConfig())
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.mark.slow
def test_sweep_runtime_and_completeness(sweep_rows):
    rows, elapsed = sweep_rows
    assert elapsed < 300.0
    assert len(rows) == len(METHODS) * len(SENS_MODES) * len(SWEEP_N)


@pytest.mark.slow
def test_sweep_iterated_and_base_converge(sweep_rows):
    rows, _ = sweep_rows
    for s in rows:
        if s.sens in ("iterated", "base"):
            assert s.converged and s.kkt <= 1e-3, (s.method, s.sens, s.N)


@pytest.mark.slow
def test_sweep_direct_mostly_fails(sweep_rows):
    rows, _ = sweep_rows
    direct = [s for s in rows if s.sens == "direct"]
    failed = [s for s in direct if not s.converged]
    assert len(failed) > len(direct) / 2
    assert all(not s.converged for s in direct if s.method == "esdirk12")


@pytest.mark.slow
def test_sweep_base_costs_more_factorizations(sweep_rows):
    rows, _ = sweep_rows
    by_key = {(s.method, s.sens, s.N): s for s in rows}
    for method in METHODS:
        for n in SWEEP_N:
            base = by_key[(method, "base", n)]
            it = by_key[(method, "iterated", n)]
            if base.converged and it.converged:
                assert base.lu_factorizations >= 2 * it.lu_factorizations
                assert base.jac_x_evals > it.jac_x_evals


# -- 7. low-tolerance experiment, qualitative --------------------------------

@pytest.mark.slow
def test_low_tolerance_experiment():
    start = time.perf_counter()
    rows = run_low_tol_experiment(RunConfig())
    assert time.perf_counter() - start < 120.0
    by_key = {(s.method, s.sens): s for s in rows}
    for method in METHODS:
        for sens in ("iterated", "base"):
            s = by_key[(method, sens)]
            assert s.converged and s.kkt <= 1e-6, (method, sens)
    for method in ("esdirk23", "esdirk34"):
        assert not by_key[(method, "direct")].converged, method


# -- 8. work-counter identities ----------------------------------------------

@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
def test_counter_identities(method):
    s = make_tableau(method).s
    n_steps = 10

    _, direct = integrate(method, SensitivityMode.DIRECT, n_steps)
    assert direct.lu_factorizations == n_steps

    _, refac = integrate(method, SensitivityMode.BASE_DIRECT, n_steps)
    # the base case factorizes once per Newton iteration, then s-1 fresh
    # stage matrices per step for the sensitivity pass
    assert refac.lu_factorizations \
        == refac.newton_iterations + n_steps * (s - 1)

    _, iterated = integrate(method, SensitivityMode.ITERATED, n_steps)
    # the replayed recursion reuses the state solve's factorization
    assert iterated.lu_factorizations == n_steps
    assert iterated.newton_iterations == direct.newton_iterations


# -- 9. determinism -----------------------------------------------------------

def test_benchmark_runs_are_deterministic():
    config = RunConfig(method="esdirk23", sens="iterated", N=5)
    a = run_single(config)
    b = run_single(config)
    assert a.as_dict(include_walltime=False) \
        == b.as_dict(include_walltime=False)
