"""References the tests check the package against: the rooted-tree order
conditions of a Butcher tableau, a scalar linear model with a
closed-form flow, and the dense condensing of a shooting QP that
`qp.condense` must reproduce bit for bit. No run of the package reads
them."""

import numpy as np

from esdirkopt.errors import ContractViolation


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


def reference_condense(q):
    """Eliminate the state steps: p = Z q_u + y0 with q_u the input steps.

    Returns (Z, y0, H_red, g_red) with H_red = Z'HZ positive definite
    whenever H is. With Zx the state rows of Z, L L' = Hx and P = Z'V,
    H_red = Huu + (L'Zx)'(L'Zx) + Pp Pp' - Pm Pm'. Every term is a product
    X'X, so H_red is exactly symmetric.
    """
    Nc, n_x, n_u = q.B.shape
    nw = Nc * (n_x + n_u)
    nu = Nc * n_u
    H = q.H
    if (H.Huu.shape != (nu, nu) or H.Hx.shape != (n_x, n_x)
            or len(H.Vp) != nw or len(H.Vm) != nw
            or q.e.shape != (Nc, n_x)):
        raise ContractViolation("QP blocks do not match the shooting structure")
    # row blocks [p_u(n), p_x(n+1)] of p, as in the decision vector
    Z = np.zeros((Nc, n_u + n_x, nu))
    Z[:, :n_u] = np.eye(nu).reshape(Nc, n_u, nu)
    y0 = np.zeros((Nc, n_u + n_x))
    # state step as affine function of the input steps
    G = np.zeros((n_x, nu))
    y = np.zeros(n_x)
    for n in range(Nc):
        G = q.A[n] @ G
        G.reshape(n_x, Nc, n_u)[:, n] += q.B[n]
        y = q.A[n] @ y + q.e[n] if n > 0 else q.e[n].copy()
        Z[n, n_u:] = G
        y0[n, n_u:] = y
    R = (np.linalg.cholesky(H.Hx).T @ Z[:, n_u:]).reshape(Nc * n_x, nu)
    Z = Z.reshape(nw, nu)
    y0 = y0.ravel()
    Pp = Z.T @ H.Vp
    Pm = Z.T @ H.Vm
    H_red = H.Huu + R.T @ R + Pp @ Pp.T - Pm @ Pm.T
    g_red = Z.T @ (q.g + H @ y0)
    return Z, y0, H_red, g_red
