"""Butcher tableaus for the ESDIRK12/23/34 methods and stage value predictors.

All three methods share the ESDIRK structure: explicit first stage, the same
coefficient gamma on the remaining diagonal, and stiff accuracy (the last
stage row equals the advancing weights, so the step result is the last
stage). Coefficients not determined by that structure are fixed by the
order conditions; the ESDIRK34 entries below are the double-precision
solution of its order-3 conditions and the order-4 conditions of the
embedded method it was designed with (whose weights no run reads), with
gamma the root of x^3 - 3x^2 + 3x/2 - 1/6 near 0.43587.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# gamma for ESDIRK34: root of the order-3 diagonal cubic
_GAMMA34 = 0.43586652150845899
# remaining ESDIRK34 coefficients, frozen from the order-condition solve
_A31 = 0.14073777472470617
_A32 = -0.10836555138132080
_B34 = (0.10239940061991098, -0.37687845225555608, 0.83861253012718610)

METHODS = ("ESDIRK12", "ESDIRK23", "ESDIRK34")


@dataclass(frozen=True)
class ButcherTableau:
    name: str
    s: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    gamma: float

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
    elif name == "ESDIRK23":
        gamma = 1.0 - np.sqrt(2.0) / 2.0
        b1 = (1.0 - gamma) / 2.0
        a = np.array([[0.0, 0.0, 0.0],
                      [gamma, gamma, 0.0],
                      [b1, b1, gamma]])
        b = np.array([b1, b1, gamma])
    elif name == "ESDIRK34":
        gamma = _GAMMA34
        a = np.array([[0.0, 0.0, 0.0, 0.0],
                      [gamma, gamma, 0.0, 0.0],
                      [_A31, _A32, gamma, 0.0],
                      [*_B34, gamma]])
        b = np.array([*_B34, gamma])
    else:
        raise ValueError(f"unknown ESDIRK method: {method!r}")
    c = a.sum(axis=1)
    return ButcherTableau(name=name, s=len(b), a=a, b=b, c=c, gamma=gamma)


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
