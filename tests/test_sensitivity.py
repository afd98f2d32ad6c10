import numpy as np
import pytest

from esdirkopt.integrator import (NewtonSettings, WorkCounters,
                                  integrate_interval, strategy_of)
from esdirkopt.model import LinearTestModel, QuadrupleTank
from esdirkopt.sensitivity import SensitivityMode, fd_sensitivity_oracle
from esdirkopt.tableau import make_tableau

X0 = np.array([7602.7, 11404.0, 1000.0, 1000.0])
U0 = np.array([300.0, 300.0])
D0 = np.array([0.0, 0.0, 100.0, 100.0])

def qts_sens(method, mode, n_steps, settings=None):
    counters = WorkCounters()
    res = integrate_interval(
        QuadrupleTank(), make_tableau(method), strategy_of(mode),
        settings if settings is not None else NewtonSettings(), mode,
        X0, U0, D0, 0.0, 10.0, n_steps, counters)
    return res.sens


def sens_error(sens, oracle):
    ex = np.abs(sens.wrt_x0 - oracle.wrt_x0).max() / np.abs(oracle.wrt_x0).max()
    eu = np.abs(sens.wrt_u - oracle.wrt_u).max() / np.abs(oracle.wrt_u).max()
    return max(ex, eu)


def test_linear_model_all_modes_exact():
    # with a constant Jacobian the iteration matrix is exact, so every
    # mode reproduces the derivative of the computed map to roundoff
    m = LinearTestModel(-0.9, forcing=0.2)
    tab = make_tableau("ESDIRK23")
    tight = NewtonSettings(abs=1e-13, rel=1e-13, max_iterations=60)
    got = {}
    for mode in (SensitivityMode.ITERATED, SensitivityMode.DIRECT,
                 SensitivityMode.BASE_DIRECT):
        counters = WorkCounters()
        res = integrate_interval(m, tab, strategy_of(mode), tight, mode,
                                 np.array([1.5]), np.array([0.8]), None,
                                 0.0, 2.0, 16, counters)
        got[mode] = (res.sens.wrt_x0[0, 0], res.sens.wrt_u[0, 0])
    vals = list(got.values())
    for other in vals[1:]:
        assert other[0] == pytest.approx(vals[0][0], rel=1e-12)
        assert other[1] == pytest.approx(vals[0][1], rel=1e-12)
    # and all are within the scheme's own discretization error of the flow
    dxdx0, dxdu = m.exact_sensitivities(2.0)
    assert vals[0][0] == pytest.approx(dxdx0, rel=5e-3)
    assert vals[0][1] == pytest.approx(dxdu, rel=5e-3)


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
def test_iterated_and_base_match_fd_oracle(method):
    tab = make_tableau(method)
    oracle = fd_sensitivity_oracle(QuadrupleTank(), tab, X0, U0, D0,
                                   0.0, 10.0, 10)
    tight = NewtonSettings(abs=1e-12, rel=1e-12, max_iterations=50)
    for mode in (SensitivityMode.ITERATED, SensitivityMode.BASE_DIRECT):
        err = sens_error(qts_sens(method, mode, 10, tight), oracle)
        assert err < 1e-4


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
def test_direct_error_exceeds_iterated(method):
    tab = make_tableau(method)
    oracle = fd_sensitivity_oracle(QuadrupleTank(), tab, X0, U0, D0,
                                   0.0, 10.0, 5)
    it_err = sens_error(qts_sens(method, SensitivityMode.ITERATED, 5), oracle)
    di_err = sens_error(qts_sens(method, SensitivityMode.DIRECT, 5), oracle)
    assert di_err > it_err
    assert it_err < 1e-4


def test_base_direct_between_iterated_and_direct():
    oracle = fd_sensitivity_oracle(QuadrupleTank(), make_tableau("ESDIRK23"),
                                   X0, U0, D0, 0.0, 10.0, 5)
    di = sens_error(qts_sens("ESDIRK23", SensitivityMode.DIRECT, 5), oracle)
    ba = sens_error(qts_sens("ESDIRK23", SensitivityMode.BASE_DIRECT, 5),
                    oracle)
    # the fresh stage matrices remove the iteration-matrix lag; what is
    # left is the Newton truncation, far below the direct-mode bias
    assert ba < di


@pytest.mark.parametrize("method", ["ESDIRK12", "ESDIRK23", "ESDIRK34"])
def test_direct_bias_shrinks_with_step_size(method):
    devs = []
    for n in (5, 10, 20, 40, 80):
        d = qts_sens(method, SensitivityMode.DIRECT, n)
        b = qts_sens(method, SensitivityMode.BASE_DIRECT, n)
        devs.append(max(np.abs(d.wrt_x0 - b.wrt_x0).max(),
                        np.abs(d.wrt_u - b.wrt_u).max()))
    for a, b in zip(devs, devs[1:]):
        assert b < 1.5 * a


def test_fd_oracle_self_consistency():
    # the oracle itself is accurate: compare two different FD step sizes
    tab = make_tableau("ESDIRK23")
    m = QuadrupleTank()
    o1 = fd_sensitivity_oracle(m, tab, X0, U0, D0, 0.0, 10.0, 10,
                               rel_step=1e-6)
    o2 = fd_sensitivity_oracle(m, tab, X0, U0, D0, 0.0, 10.0, 10,
                               rel_step=3e-6)
    assert np.allclose(o1.wrt_x0, o2.wrt_x0, rtol=1e-5, atol=1e-10)
    assert np.allclose(o1.wrt_u, o2.wrt_u, rtol=1e-5, atol=1e-8)
