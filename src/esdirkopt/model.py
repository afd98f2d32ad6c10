"""ODE models: the quadruple tank system and analytic linear test models."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError

#: masses below this are treated as empty tanks (zero outflow)
MASS_CLAMP = 1e-9


class OdeModel:
    """Interface for autonomous models dx/dt = f(x, u, d), evaluated over a
    batch of B states at once, with linear output z = C x."""

    n_x = 0
    n_u = 0
    n_d = 0
    n_z = 0

    def f_batch(self, x, u, d):
        """f over a (B, n_x) stack of states with per-row inputs (B, n_u)."""
        raise NotImplementedError

    def jacobians_batch(self, x):
        """(df/dx, df/du) over a (B, n_x) stack of states.

        df/du may be a single (n_x, n_u) matrix when it does not depend
        on the state.
        """
        raise NotImplementedError

    def output_matrix(self):
        """The constant matrix C with z = C x."""
        raise NotImplementedError


@dataclass(frozen=True)
class QtsParameters:
    """Quadruple tank parameters (cgs units)."""
    a: np.ndarray = field(default_factory=lambda: np.full(4, 1.2272))
    A: np.ndarray = field(default_factory=lambda: np.full(4, 380.1327))
    gamma_valves: np.ndarray = field(default_factory=lambda: np.array([0.6, 0.7]))
    rho: float = 1.0
    g: float = 981.0

    def __post_init__(self):
        if np.any(self.a <= 0) or np.any(self.A <= 0) or self.rho <= 0 or self.g <= 0:
            raise ValueError("tank parameters must be positive")
        if np.any(self.gamma_valves <= 0) or np.any(self.gamma_valves >= 1):
            raise ValueError("valve splits must lie strictly in (0, 1)")

    @cached_property
    def pump_split(self):
        """(2, 4) matrix G: pump j feeds tank i at the rate G[j, i]*u_j."""
        gv = self.gamma_valves
        return np.array([[gv[0], 0.0, 0.0, 1.0 - gv[0]],
                         [0.0, gv[1], 1.0 - gv[1], 0.0]])


#: (df_i/dq_j) / rho: every tank loses its own outflow q_i, and tanks 3 and 4
#: drain into tanks 1 and 2
DF_DQ = np.array([[-1.0, 0.0, 1.0, 0.0],
                  [0.0, -1.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0]])


def _check_domain(x):
    """Raise DomainError naming the first batch row with a negative mass."""
    if np.any(x < 0):
        row = int(np.argmax(np.any(x < 0, axis=1)))
        exc = DomainError(f"negative tank mass: {x[row]}")
        exc.batch_row = row
        raise exc


def qts_f_batch(x, u, d, p):
    """Mass balances of the four tanks [g/s] over a (B, 4) stack of states
    and a (B, 2) stack of inputs.

    Tank outflows are q_i = a_i*sqrt(2*g*x_i/(rho*A_i)), zero for tanks
    below MASS_CLAMP (empty).
    """
    _check_domain(x)
    xc = np.where(x < MASS_CLAMP, 0.0, x)
    q = p.a * np.sqrt(2.0 * p.g * xc / (p.rho * p.A))
    f = u @ p.pump_split
    f[:, :2] += q[:, 2:]             # tanks 3 and 4 drain into 1 and 2
    f += d
    f -= q
    f *= p.rho
    return f


def qts_jacobians_batch(x, p):
    """Analytic (df/dx, df/du) for a (B, 4) stack of states.

    df/du does not depend on the state, so a single (4, 2) matrix is
    returned for the whole batch.
    """
    _check_domain(x)
    live = x >= MASS_CLAMP
    # dq_i/dx_i; zero for clamped (empty) tanks
    dq = np.where(live, p.a * p.g / (p.rho * p.A) / np.sqrt(
        2.0 * p.g * np.where(live, x, 1.0) / (p.rho * p.A)), 0.0)
    jx = dq[:, None, :] * (p.rho * DF_DQ)
    return jx, p.rho * p.pump_split.T


class QuadrupleTank(OdeModel):
    """Four interconnected tanks, two pump inputs, two level outputs."""

    n_x = 4
    n_u = 2
    n_d = 4
    n_z = 2

    def __init__(self, params=None):
        self.params = params if params is not None else QtsParameters()

    def f_batch(self, x, u, d):
        """f over a (B, 4) stack of states with per-row inputs (B, 2)."""
        return qts_f_batch(x, u, d, self.params)

    def jacobians_batch(self, x):
        """(df/dx, df/du) over a (B, 4) stack; df/du is state independent."""
        return qts_jacobians_batch(x, self.params)

    def output_matrix(self):
        """The constant matrix C with z = C x."""
        p = self.params
        c = np.zeros((2, 4))
        c[0, 0] = 1.0 / (p.rho * p.A[0])
        c[1, 1] = 1.0 / (p.rho * p.A[1])
        return c


class LinearTestModel(OdeModel):
    """Scalar dx/dt = lam*x + u + forcing with closed-form flow and sensitivities."""

    n_x = 1
    n_u = 1
    n_d = 0
    n_z = 1

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

