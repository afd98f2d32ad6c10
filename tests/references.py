"""References the tests check the package against: the rooted-tree order
conditions of a Butcher tableau and a scalar linear model with a
closed-form flow. No run of the package reads them."""

import numpy as np


def order_condition_residuals(a, b, c, p):
    """Residuals of the rooted-tree order conditions through order p."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    res = [b.sum() - 1.0]
    if p >= 2:
        res.append(b @ c - 0.5)
    if p >= 3:
        res.append(b @ c**2 - 1.0 / 3.0)
        res.append(b @ (a @ c) - 1.0 / 6.0)
    if p >= 4:
        ac = a @ c
        res.append(b @ c**3 - 0.25)
        res.append(b @ (c * ac) - 0.125)
        res.append(b @ (a @ c**2) - 1.0 / 12.0)
        res.append(b @ (a @ ac) - 1.0 / 24.0)
    return np.array(res)


class LinearTestModel:
    """Scalar dx/dt = lam*x + u + forcing with closed-form flow and sensitivities."""

    n_x = 1
    n_u = 1

    def __init__(self, lam, forcing=0.0):
        self.lam = lam
        self.forcing = forcing

    def f_batch(self, x, u, d):
        return self.lam * x + u + self.forcing

    def jacobians_batch(self, x):
        return np.full((x.shape[0], 1, 1), float(self.lam)), np.ones((1, 1))

    def output_matrix(self):
        return np.array([[1.0]])

    def exact_state(self, t, x0, u):
        lam = self.lam
        drive = u + self.forcing
        if lam == 0.0:
            return x0 + t * drive
        e = np.exp(lam * t)
        return e * x0 + (e - 1.0) * drive / lam

    def exact_sensitivities(self, t):
        """(dx(t)/dx0, dx(t)/du) of the exact flow."""
        lam = self.lam
        e = np.exp(lam * t)
        dxdu = t if lam == 0.0 else (e - 1.0) / lam
        return e, dxdu
