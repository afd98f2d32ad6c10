import numpy as np
import pytest

from esdirkopt.tableau import make_tableau, predict_stages, svp_coefficients
from references import order_condition_residuals

METHODS = ("ESDIRK12", "ESDIRK23", "ESDIRK34")
ORDERS = {"ESDIRK12": 1, "ESDIRK23": 2, "ESDIRK34": 3}
GAMMAS = {"ESDIRK12": 1.0,
          "ESDIRK23": 1.0 - np.sqrt(2.0) / 2.0,
          "ESDIRK34": 0.43586652150845899}


@pytest.mark.parametrize("name", METHODS)
def test_structure(name):
    t = make_tableau(name)
    # explicit first stage
    assert np.all(t.a[0] == 0.0)
    # singly diagonal: every implicit stage shares gamma
    assert np.allclose(np.diag(t.a)[1:], t.gamma, rtol=0, atol=1e-15)
    # stiffly accurate: last row equals the advancing weights
    assert np.allclose(t.a[-1], t.b, rtol=0, atol=1e-15)
    # consistent abscissae
    assert np.allclose(t.c, t.a.sum(axis=1), rtol=0, atol=1e-14)
    assert t.gamma == pytest.approx(GAMMAS[name], abs=1e-15)


@pytest.mark.parametrize("name", METHODS)
def test_order_conditions(name):
    t = make_tableau(name)
    res = order_condition_residuals(t.a, t.b, t.c, ORDERS[name])
    assert np.abs(res).max() <= 1e-12


def test_esdirk34_not_order_four():
    t = make_tableau("ESDIRK34")
    res = order_condition_residuals(t.a, t.b, t.c, 4)
    assert np.abs(res).max() > 1e-6


def test_unknown_method():
    with pytest.raises(ValueError):
        make_tableau("ESDIRK99")


def test_svp_esdirk12_closed_form():
    # the published closed forms at step-size ratio r = 1
    c = svp_coefficients(make_tableau("ESDIRK12"))
    assert c.alpha[0] == pytest.approx(-1.0, abs=1e-12)
    assert c.beta[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_svp_esdirk23_closed_form():
    t = make_tableau("ESDIRK23")
    g, r = t.gamma, 1.0
    c = svp_coefficients(t)
    alpha = np.array([r - 2 * g * r + 2 * g * r**2,
                      (r - 2 * g * r + r**2) / (2 * g)])
    beta = np.array([
        [(2 * g * r**2 + r) / (2 * g - 1),
         -(4 * g**2 * r**2 - 4 * g**2 * r + 4 * g * r - 2 * g + 1)
         / (2 * g - 1)],
        [(r**2 + r) / (2 * g * (2 * g - 1)),
         -(2 * r - 2 * g - 2 * g * r + r**2 + 1) / (2 * g - 1)],
    ])
    assert np.allclose(c.alpha, alpha, rtol=0, atol=1e-12)
    assert np.allclose(c.beta, beta, rtol=0, atol=1e-11)


@pytest.mark.parametrize("name", METHODS)
def test_svp_computed_once_per_tableau(name):
    t = make_tableau(name)
    assert t.svp is t.svp
    ref = svp_coefficients(t)
    assert np.array_equal(t.svp.alpha, ref.alpha)
    assert np.array_equal(t.svp.beta, ref.beta)


@pytest.mark.parametrize("name", METHODS)
def test_svp_constant_state_exactness(name):
    t = make_tableau(name)
    c = svp_coefficients(t)
    x = np.array([3.5, -1.25])
    stages = [x.copy() for _ in range(t.s - 1)]
    for pred in predict_stages(c, x, stages):
        assert np.allclose(pred, x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", METHODS)
def test_svp_linear_extrapolation_exactness(name):
    # a polynomial of degree s-1 through the previous nodes is reproduced
    t = make_tableau(name)
    c = svp_coefficients(t)
    nodes = np.concatenate(([0.0], t.c[1:]))

    def poly(x):
        return 2.0 + 3.0 * x + (0.5 * x**2 if t.s > 2 else 0.0) \
            + (-0.25 * x**3 if t.s > 3 else 0.0)

    x_prev = np.array([poly(0.0)])
    stages = [np.array([poly(v)]) for v in nodes[1:]]
    preds = predict_stages(c, x_prev, stages)
    for i, pred in enumerate(preds):
        assert pred[0] == pytest.approx(poly(1.0 + t.c[i + 1]), abs=1e-10)
