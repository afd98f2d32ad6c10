"""The paper's quadruple tank system, evaluated over a batch of states."""

import numpy as np

from .errors import DomainError

#: masses below this are treated as empty tanks (zero outflow)
MASS_CLAMP = 1e-9

#: the paper's quadruple tank (cgs units): outlet areas a_i [cm^2], tank
#: cross sections A_i [cm^2], valve splits gamma_1, gamma_2, density rho
#: [g/cm^3] and gravity g [cm/s^2]
OUTLET_AREA = np.full(4, 1.2272)
TANK_AREA = np.full(4, 380.1327)
VALVE_SPLIT = np.array([0.6, 0.7])
RHO = 1.0
G = 981.0

#: (2, 4) matrix: pump j feeds tank i at the rate PUMP_SPLIT[j, i]*u_j
PUMP_SPLIT = np.array([[VALVE_SPLIT[0], 0.0, 0.0, 1.0 - VALVE_SPLIT[0]],
                       [0.0, VALVE_SPLIT[1], 1.0 - VALVE_SPLIT[1], 0.0]])

#: (df_i/dq_j) / rho: every tank loses its own outflow q_i, and tanks 3 and 4
#: drain into tanks 1 and 2
DF_DQ = np.array([[-1.0, 0.0, 1.0, 0.0],
                  [0.0, -1.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0]])

# factors of f and its Jacobians, each formed by the same expression as in
# the formulas so that every product rounds as it would written out
_RHO_A = RHO * TANK_AREA
_TWO_G = 2.0 * G
_DQ_SCALE = OUTLET_AREA * G / _RHO_A
_RHO_DF_DQ = RHO * DF_DQ
#: df/du, one read-only (4, 2) matrix shared by every caller
_DF_DU = RHO * PUMP_SPLIT.T
_DF_DU.flags.writeable = False


def _check_domain(x):
    """Raise DomainError naming the first batch row with a negative mass."""
    if x.min() < 0:
        row = int(np.argmax(np.any(x < 0, axis=1)))
        exc = DomainError(f"negative tank mass: {x[row]}")
        exc.batch_row = row
        raise exc


class QuadrupleTank:
    """Four interconnected tanks, two pump inputs, two level outputs."""

    n_x = 4
    n_u = 2

    def f_batch(self, x, u, d):
        """Mass balances of the four tanks [g/s] over a (B, 4) stack of
        states and a (B, 2) stack of inputs.

        Tank outflows are q_i = a_i*sqrt(2*g*x_i/(rho*A_i)), zero for tanks
        below MASS_CLAMP (empty).
        """
        low = x < MASS_CLAMP
        if low.any():            # else no mass is negative or clamped
            _check_domain(x)
            x = np.where(low, 0.0, x)
        q = OUTLET_AREA * np.sqrt(_TWO_G * x / _RHO_A)
        f = u @ PUMP_SPLIT
        f[:, :2] += q[:, 2:]             # tanks 3 and 4 drain into 1 and 2
        f += d
        f -= q
        f *= RHO
        return f

    def jacobians_batch(self, x):
        """Analytic (df/dx, df/du) for a (B, 4) stack of states.

        df/du does not depend on the state, so a single read-only (4, 2)
        matrix is returned for the whole batch.
        """
        live = x >= MASS_CLAMP           # false for NaN too
        # dq_i/dx_i; zero for clamped (empty) tanks
        if live.all():
            dq = _DQ_SCALE / np.sqrt(_TWO_G * x / _RHO_A)
        else:
            _check_domain(x)
            dq = np.where(live, _DQ_SCALE / np.sqrt(
                _TWO_G * np.where(live, x, 1.0) / _RHO_A), 0.0)
        jx = dq[:, None, :] * _RHO_DF_DQ
        return jx, _DF_DU

    def output_matrix(self):
        """The constant matrix C with z = C x."""
        c = np.zeros((2, 4))
        c[0, 0] = 1.0 / (RHO * TANK_AREA[0])
        c[1, 1] = 1.0 / (RHO * TANK_AREA[1])
        return c
