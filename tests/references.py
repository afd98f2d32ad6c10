"""References the tests check the package against: the rooted-tree order
conditions of a Butcher tableau, a scalar linear model with a
closed-form flow, the dense condensing of a shooting QP that
`qp.condense` must reproduce bit for bit, and the ESDIRK step that solves
and differentiates each stage in one pass, which the integrator's state
and sensitivity passes must reproduce bit for bit. No run of the package
reads them."""

import numpy as np

from esdirkopt import linalg
from esdirkopt.errors import (ContractViolation, DomainError,
                              NewtonDivergence, SingularMatrix,
                              check_integer, check_positive)
from esdirkopt.integrator import IntervalResult, _remap_batch_row
from esdirkopt.sensitivity import (SensitivityMode, direct_propagate,
                                   iterated_propagate)
from esdirkopt.tableau import predict_stages


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


def interleaved_integrate(model, tab, settings, mode, x_0, u, d, dt, n_steps,
                          counters):
    """integrate_intervals_batch as one pass that solves and differentiates
    each stage in turn."""
    check_integer("n_steps", n_steps, 1)
    check_positive("dt", dt)
    x = np.asarray(x_0, float)
    u = np.asarray(u, float)
    h = dt / n_steps

    sens = np.tile(np.eye(model.n_x, model.n_x + model.n_u), (len(x), 1, 1))
    traj = [x]
    step_sens = []
    prev = None
    for _ in range(n_steps):
        stages, stage_sens = interleaved_esdirk_step(
            model, tab, settings, mode, x, sens, u, d, h, prev, counters)
        prev = (x, stages, sens, stage_sens)
        x, sens = stages[-1], stage_sens[-1]
        traj.append(x)
        step_sens.append(sens)
    return IntervalResult(x_final=x, trajectory=np.stack(traj, axis=1),
                          step_sens=step_sens)


def interleaved_esdirk_step(model, tab, settings, mode, x_k, sens_k, u, d, h,
                            prev, counters):
    """One ESDIRK step of size h from the (B, n_x) states x_k.

    ``sens_k`` holds the packed sensitivities at x_k, one (n_x, n_x + n_u)
    matrix per row, and u the (B, n_u) inputs. ``prev`` is the previous
    step's ``(x_k, stages, sens_k, stage_sens)``, which the tableau's stage
    value predictors extend, or None for the trivial predictor X_i^0 = x_k.
    A row leaves the Newton loop of a stage as soon as its scaled residual
    is below tau, after at least one update however good its predictor.
    The stage sensitivities are propagated next to the states. A round in
    which every row still iterates indexes the arrays through views; only
    after the first row leaves does it gather the rest.

    Returns ``(stages, stage_sens)``: the converged stages X_2..X_s and
    their packed sensitivities, two lists of s - 1 arrays whose last
    entries are the step result by stiff accuracy. Raises DomainError,
    NewtonDivergence or SingularMatrix with the failing row in
    ``batch_row``.
    """
    s = tab.s
    hg = h * tab.gamma
    nb = x_k.shape[0]
    n_x, n_u = model.n_x, model.n_u
    eye = np.eye(n_x)
    iterated = mode is SensitivityMode.ITERATED
    reuse = mode is not SensitivityMode.BASE_DIRECT

    jx_k, ju_k = model.jacobians_batch(x_k)
    counters.jac_x_evals += nb
    if reuse:
        factors = linalg.lu_factorize_batch(eye - hg * jx_k)
        counters.lu_factorizations += nb

    # stage predictors (and their derivatives for the iterated mode)
    if prev is None:
        predictions = [x_k] * (s - 1)
        sens_predictions = [sens_k] * (s - 1)
    else:
        x_prev, stages_prev, sens_prev, stage_sens_prev = prev
        predictions = predict_stages(tab.svp, x_prev, stages_prev)
        if iterated:
            sens_predictions = predict_stages(tab.svp, sens_prev,
                                              stage_sens_prev)

    f_vals = [model.f_batch(x_k, u, d)]
    counters.f_evals += nb
    counters.jac_u_evals += nb
    jx_i, ju_i, sens_i = jx_k, ju_k, sens_k

    stages = []
    stage_sens = []
    d_vals = []                      # packed dF_j = df/dx S_j + [0 | df/du]
    ha = h * tab.a
    for idx in range(s - 1):
        i = idx + 2                      # 1-based stage index
        psi_i = x_k + ha[i - 1, 0] * f_vals[0]
        for j in range(1, i - 1):
            psi_i += ha[i - 1, j] * f_vals[j]
        d_vals.append(jx_i @ sens_i)         # of the previous stage
        d_vals[-1][:, :, n_x:] += ju_i
        dpsi_i = sens_k + ha[i - 1, 0] * d_vals[0]
        for j in range(1, i - 1):
            dpsi_i += ha[i - 1, j] * d_vals[j]
        x_it = predictions[idx].copy()
        f_conv = np.empty_like(x_k)
        # ``active`` numbers the still-iterating rows for the counters and
        # the errors; ``rows`` indexes the arrays by them
        active = np.arange(nb)
        rows = slice(None)
        if iterated:
            sens_it = sens_predictions[idx].copy()
            jx_conv = np.empty((nb, n_x, n_x))
            ju_conv = np.empty((nb, n_x, n_u))
        for l in range(settings.max_iterations + 1):
            xa = x_it[rows]
            try:
                fa = model.f_batch(xa, u[rows], d)
            except DomainError as exc:
                raise _remap_batch_row(exc, active)
            counters.f_evals += active.size
            r = xa - hg * fa - psi_i[rows]
            if l:
                denom = np.maximum(settings.abs, settings.rel * np.abs(xa))
                done = (np.abs(r) / denom).max(axis=1) < settings.tau
                if done.any():
                    f_conv[active[done]] = fa[done]
                    keep = ~done
                    active = rows = active[keep]
                    if not active.size:
                        break
                    r = r[keep]
                if l == settings.max_iterations:
                    row = int(active[0])
                    exc = NewtonDivergence(
                        f"stage {i}, batch row {row}: no convergence in "
                        f"{settings.max_iterations} iterations")
                    exc.batch_row = row
                    raise exc
            if iterated or not reuse:
                try:
                    jx_it, ju_it = model.jacobians_batch(x_it[rows])
                    counters.jac_x_evals += active.size
                    if not reuse:
                        fac = linalg.lu_factorize_batch(eye - hg * jx_it)
                        counters.lu_factorizations += active.size
                except (DomainError, SingularMatrix) as exc:
                    raise _remap_batch_row(exc, active)
            if reuse:
                fac = factors[rows]
            x_it[rows] -= linalg.lu_solve_batch(fac, r)
            if iterated:
                counters.jac_u_evals += active.size
                sens_it[rows] = iterated_propagate(
                    sens_it[rows], jx_it, ju_it, dpsi_i[rows], fac, hg)
                jx_conv[rows] = jx_it
                ju_conv[rows] = ju_it
            counters.newton_iterations += active.size

        stages.append(x_it)
        f_vals.append(f_conv)
        if iterated:
            # converged-stage Jacobians: each row's last Newton round
            jx_i, ju_i, sens_i = jx_conv, ju_conv, sens_it
        else:
            # one Jacobian evaluation at the converged stage serves the
            # direct and base solves; direct counts df/dx only where later
            # stages use it
            jx_i, ju_i = model.jacobians_batch(x_it)
            if not reuse or idx < s - 2:
                counters.jac_x_evals += nb
            counters.jac_u_evals += nb
            if not reuse:
                factors = linalg.lu_factorize_batch(eye - hg * jx_i)
                counters.lu_factorizations += nb
            sens_i = direct_propagate(dpsi_i, ju_i, factors, hg)
        stage_sens.append(sens_i)

    return stages, stage_sens
