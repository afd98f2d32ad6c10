import numpy as np
import pytest

from esdirkopt.errors import DomainError
from esdirkopt.model import (MASS_CLAMP, LinearTestModel, QtsParameters,
                             QuadrupleTank, qts_f_batch, qts_jacobians_batch)

X0 = np.array([7602.7, 11404.0, 1000.0, 1000.0])
U0 = np.array([300.0, 300.0])
D0 = np.array([0.0, 0.0, 100.0, 100.0])


def mass_balances(x, u, d, p):
    """The four tank mass balances written out, one state at a time."""
    q = p.a * np.sqrt(2.0 * p.g * np.where(x < MASS_CLAMP, 0.0, x)
                      / (p.rho * p.A))
    gv = p.gamma_valves
    return p.rho * np.array([
        gv[0] * u[0] + q[2] + d[0] - q[0],
        gv[1] * u[1] + q[3] + d[1] - q[1],
        (1.0 - gv[1]) * u[1] + d[2] - q[2],
        (1.0 - gv[0]) * u[0] + d[3] - q[3],
    ])


def test_mass_balance_values():
    f = qts_f_batch(X0[None], U0[None], D0, QtsParameters())[0]
    expected = np.array([25.067333824732316, 0.4329862085390346,
                         101.83479270786412, 131.83479270786412])
    assert np.allclose(f, expected, rtol=1e-14, atol=0)


def test_jacobians_match_finite_differences():
    p = QtsParameters()

    def f(x, u):
        return qts_f_batch(x[None], u[None], D0, p)[0]

    jx, ju = qts_jacobians_batch(X0[None], p)
    eps = 1e-6
    for j in range(4):
        dx = np.zeros(4)
        dx[j] = eps * (1.0 + X0[j])
        fd = (f(X0 + dx, U0) - f(X0 - dx, U0)) / (2.0 * dx[j])
        assert np.allclose(jx[0, :, j], fd, rtol=1e-6, atol=1e-12)
    for j in range(2):
        du = np.zeros(2)
        du[j] = eps
        fd = (f(X0, U0 + du) - f(X0, U0 - du)) / (2.0 * eps)
        assert np.allclose(ju[:, j], fd, rtol=1e-7, atol=1e-10)


def test_jacobian_sparsity():
    jx, ju = qts_jacobians_batch(X0[None], QtsParameters())
    jx = jx[0]
    zero = np.array([[0, 1, 0, 1], [1, 0, 1, 0],
                     [1, 1, 0, 1], [1, 1, 1, 0]], dtype=bool)
    assert np.all(jx[zero] == 0.0)
    assert np.all(np.diag(jx) < 0.0)
    assert np.all(ju >= 0.0)


def test_empty_tank_clamped():
    p = QtsParameters()
    x = np.array([[0.0, MASS_CLAMP / 2.0, 1000.0, 1000.0]])
    f = qts_f_batch(x, U0[None], D0, p)
    assert np.all(np.isfinite(f))
    jx, _ = qts_jacobians_batch(x, p)
    assert jx[0, 0, 0] == 0.0
    assert jx[0, 1, 1] == 0.0


@pytest.mark.parametrize("evaluate", [
    lambda xs, p: qts_f_batch(xs, np.tile(U0, (len(xs), 1)), D0, p),
    lambda xs, p: qts_jacobians_batch(xs, p)])
def test_negative_mass_names_row(evaluate):
    p = QtsParameters()
    xs = np.tile(X0, (3, 1))
    xs[2, 1] = -5.0
    with pytest.raises(DomainError) as err:
        evaluate(xs, p)
    assert err.value.batch_row == 2


def test_output_levels():
    m = QuadrupleTank()
    z = m.output(0.0, X0, U0, D0)
    p = m.params
    assert np.allclose(z, X0[:2] / (p.rho * p.A[:2]), rtol=0, atol=0)
    assert np.allclose(m.output_matrix() @ X0, z, rtol=0, atol=1e-15)


def test_parameter_validation():
    with pytest.raises(ValueError):
        QtsParameters(gamma_valves=np.array([0.6, 1.0]))
    with pytest.raises(ValueError):
        QtsParameters(rho=0.0)


def test_batch_rows_match_mass_balances():
    p = QtsParameters()
    rng = np.random.default_rng(5)
    xs = X0 * (1.0 + 0.3 * rng.random((7, 4)))
    xs[3, 2] = MASS_CLAMP / 2.0            # one empty tank
    us = U0 + 50.0 * rng.standard_normal((7, 2))
    fb = qts_f_batch(xs, us, D0, p)
    jxb, jub = qts_jacobians_batch(xs, p)
    for k in range(7):
        assert np.array_equal(fb[k], mass_balances(xs[k], us[k], D0, p))
        jx, _ = qts_jacobians_batch(xs[k:k + 1], p)
        assert np.array_equal(jxb[k], jx[0])
    assert jub.shape == (4, 2)


def test_linear_model_exact_flow():
    m = LinearTestModel(-0.8, forcing=0.3)
    x0, u, t = 2.0, 1.5, 0.7
    # d/dt of the exact flow equals f along the flow
    x_t = m.exact_state(t, x0, u)
    eps = 1e-6
    deriv = (m.exact_state(t + eps, x0, u)
             - m.exact_state(t - eps, x0, u)) / (2.0 * eps)
    assert deriv == pytest.approx(
        float(m.f_batch(np.array([[x_t]]), np.array([[u]]), None)[0, 0]),
        rel=1e-8)
    jx, ju = m.jacobians_batch(np.array([[x_t], [x0]]))
    assert np.array_equal(jx, np.full((2, 1, 1), -0.8))
    assert np.array_equal(ju, [[1.0]])
    dxdx0, dxdu = m.exact_sensitivities(t)
    assert dxdx0 == pytest.approx(np.exp(-0.8 * t), rel=1e-14)
    assert dxdu == pytest.approx((np.exp(-0.8 * t) - 1.0) / -0.8, rel=1e-14)
