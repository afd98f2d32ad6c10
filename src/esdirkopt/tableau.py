"""Butcher tableaus for the ESDIRK12/23/34 methods and stage value predictors.

All three methods share the ESDIRK structure: explicit first stage, the same
coefficient gamma on the remaining diagonal, and stiff accuracy (the last
stage row equals the advancing weights, so the step result is the last
stage). Coefficients not determined by that structure are fixed by the
order conditions; the ESDIRK34 entries below are the double-precision
solution of the full order-3/order-4 condition system with gamma the root
of x^3 - 3x^2 + 3x/2 - 1/6 near 0.43587.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# gamma for ESDIRK34: root of the order-3 diagonal cubic
_GAMMA34 = 0.43586652150845899
# remaining ESDIRK34 coefficients, frozen from the order-condition solve
_A31 = 0.14073777472470617
_A32 = -0.10836555138132080
_C3 = 0.46823874485184437
_B34 = (0.10239940061991098, -0.37687845225555608, 0.83861253012718610)
_BH34 = (0.15702489786032493, 0.11733044137043892,
         0.61667803039212143, 0.10896663037711471)

METHODS = ("ESDIRK12", "ESDIRK23", "ESDIRK34")


@dataclass(frozen=True)
class ButcherTableau:
    name: str
    s: int
    a: np.ndarray
    b: np.ndarray
    b_hat: np.ndarray
    c: np.ndarray
    gamma: float
    advancing_order: int
    embedded_order: int

    @cached_property
    def svp(self):
        """The stage value predictor weights, computed once per tableau."""
        return svp_coefficients(self)


@dataclass(frozen=True)
class SvpCoefficients:
    """Stage value predictor weights X_i^0 = alpha_i*x_prev + sum_j beta_ij*Xhat_j."""
    alpha: np.ndarray              # length s-1
    beta: np.ndarray               # (s-1, s-1)


def make_tableau(method):
    """Build the tableau for one of ESDIRK12, ESDIRK23, ESDIRK34."""
    name = method.upper()
    if name == "ESDIRK12":
        gamma = 1.0
        a = np.array([[0.0, 0.0],
                      [0.0, gamma]])
        b = np.array([0.0, gamma])
        b_hat = np.array([0.5, 0.5])
        orders = (1, 2)
    elif name == "ESDIRK23":
        gamma = 1.0 - np.sqrt(2.0) / 2.0
        b1 = (1.0 - gamma) / 2.0
        bh2 = 1.0 / (12.0 * gamma * (1.0 - 2.0 * gamma))
        bh3 = 0.5 - 2.0 * gamma * bh2
        a = np.array([[0.0, 0.0, 0.0],
                      [gamma, gamma, 0.0],
                      [b1, b1, gamma]])
        b = np.array([b1, b1, gamma])
        b_hat = np.array([1.0 - bh2 - bh3, bh2, bh3])
        orders = (2, 3)
    elif name == "ESDIRK34":
        gamma = _GAMMA34
        a = np.array([[0.0, 0.0, 0.0, 0.0],
                      [gamma, gamma, 0.0, 0.0],
                      [_A31, _A32, gamma, 0.0],
                      [*_B34, gamma]])
        b = np.array([*_B34, gamma])
        b_hat = np.array(_BH34)
        orders = (3, 4)
    else:
        raise ValueError(f"unknown ESDIRK method: {method!r}")
    c = a.sum(axis=1)
    return ButcherTableau(name=name, s=len(b), a=a, b=b, b_hat=b_hat, c=c,
                          gamma=gamma, advancing_order=orders[0],
                          embedded_order=orders[1])


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


def verify_order_conditions(t, p, weights=None, tol=1e-12):
    """True iff the order conditions through order p hold for (a, weights, c).

    ``weights`` defaults to the advancing weights b; pass t.b_hat to check
    the embedded method.
    """
    if not 1 <= p <= 4:
        raise ValueError(f"order p must be in 1..4, got {p}")
    w = t.b if weights is None else weights
    return bool(np.abs(order_condition_residuals(t.a, w, t.c, p)).max() <= tol)


def svp_coefficients(t):
    """Predictor weights by Lagrange extrapolation through the previous step.

    The previous step's values x_{k-1}, Xhat_2, .., Xhat_s live at the local
    abscissae 0, c_2, .., c_s; the degree-(s-1) interpolant through them is
    evaluated at 1 + c_i for each implicit stage of the new step, which has
    the same size. For ESDIRK12 and ESDIRK23 this reproduces the published
    closed forms at step-size ratio 1.
    """
    nodes = np.concatenate(([0.0], t.c[1:]))
    m = t.s - 1
    alpha = np.empty(m)
    beta = np.empty((m, m))
    for i in range(m):
        w = _lagrange_weights(nodes, 1.0 + t.c[i + 1])
        alpha[i] = w[0]
        beta[i] = w[1:]
    return SvpCoefficients(alpha=alpha, beta=beta)


def _lagrange_weights(nodes, x):
    n = len(nodes)
    w = np.ones(n)
    for m in range(n):
        for q in range(n):
            if q != m:
                w[m] *= (x - nodes[q]) / (nodes[m] - nodes[q])
    return w


def predict_stages(coeffs, x_prev, stage_values_prev):
    """Warm-start guesses X_i^0 for the implicit stages of the next step.

    ``stage_values_prev`` holds the previous step's converged implicit
    stages Xhat_2..Xhat_s; the last entry is x_k by stiff accuracy. The
    combination is elementwise, so a state may be an array of any shape:
    a batch of states, or of their sensitivity matrices.
    """
    m = len(coeffs.alpha)
    if len(stage_values_prev) != m:
        raise ValueError(f"expected {m} previous stage values, "
                         f"got {len(stage_values_prev)}")
    preds = []
    for i in range(m):
        acc = coeffs.beta[i, 0] * stage_values_prev[0]
        for j in range(1, m):
            acc = acc + coeffs.beta[i, j] * stage_values_prev[j]
        preds.append(coeffs.alpha[i] * x_prev + acc)
    return preds
