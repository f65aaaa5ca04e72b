"""Finite-horizon backward ODE oracle for the decoupling coefficients.

The adjoint admits the linear ansatz Y_t = p_t * X_t + q_t * mbar_t.
Coefficient matching gives the backward system

    dp/dt = (r - 2 b1) p + (b3^2 / 2C) p^2 - 2 A
    dq/dt = (r - 2 b1 - b2) q - b4 - b2 p + (b3^2 / 2C) (2 p q + q^2)

with zero terminal condition.  Its rest points correspond exactly to the
algebraic system's (a1, a2) under (p, q) = (2 a1, a2); that equivalence is
asserted on every solve, since the ODE system itself has no independent
written source.  Integration is fixed-step RK4 (deterministic, order 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, RestPointMismatchError
from .master import solve_root_system
from .model import LQModel
from .simulate import time_grid

_BLOWUP_LIMIT = 1e8
_STATIONARITY_TOL = 1e-8


@dataclass(frozen=True)
class RiccatiPath:
    times: np.ndarray
    p: np.ndarray
    q: np.ndarray


def _rhs(model: LQModel, p: float, q: float) -> tuple[float, float]:
    gain = model.control_gain
    dp = (model.r - 2.0 * model.b1) * p + gain * p * p - 2.0 * model.A
    dq = (
        (model.r - 2.0 * model.b1 - model.b2) * q
        - model.b4
        - model.b2 * p
        + gain * (2.0 * p * q + q * q)
    )
    return dp, dq


def stationarity_selfcheck(model: LQModel) -> None:
    """Check that the rest points of the ODE field match the algebraic roots.

    Raises RestPointMismatchError unless every (a1, a2) root annihilates the
    field under (p, q) = (2 a1, a2) to within ``_STATIONARITY_TOL`` times the
    summed size of each component's terms (at least 1), and that size is
    finite.
    """
    for U in solve_root_system(model):
        p, q = 2.0 * U.a1, U.a2
        dp, dq = _rhs(model, p, q)
        size_p = abs((model.r - 2.0 * model.b1) * p) + model.control_gain * p * p + 2.0 * model.A
        size_q = (abs((model.r - 2.0 * model.b1 - model.b2) * q) + abs(model.b4)
                  + abs(model.b2 * p) + model.control_gain * abs(2.0 * p * q + q * q))
        if not (abs(dp) <= _STATIONARITY_TOL * max(1.0, size_p) < math.inf
                and abs(dq) <= _STATIONARITY_TOL * max(1.0, size_q) < math.inf):
            raise RestPointMismatchError(f"ODE rest point mismatch at (a1, a2) = ({U.a1:g}, "
                                         f"{U.a2:g}): field = ({dp:.3e}, {dq:.3e})")


def riccati_backward(model: LQModel, T: float, dt: float) -> RiccatiPath:
    """Integrate backward from (p, q)(T) = (0, 0) with RK4."""
    if not (T > 0 and dt > 0 and dt <= T / 10.0):
        raise ValueError("need T > 0 and dt <= T/10")
    stationarity_selfcheck(model)
    times = time_grid(T, dt)
    n_steps = times.size - 1
    p = np.empty(n_steps + 1)
    q = np.empty(n_steps + 1)
    p[n_steps] = 0.0
    q[n_steps] = 0.0
    h = -dt  # integrating in decreasing time
    for k in range(n_steps, 0, -1):
        pk, qk = p[k], q[k]
        k1p, k1q = _rhs(model, pk, qk)
        k2p, k2q = _rhs(model, pk + 0.5 * h * k1p, qk + 0.5 * h * k1q)
        k3p, k3q = _rhs(model, pk + 0.5 * h * k2p, qk + 0.5 * h * k2q)
        k4p, k4q = _rhs(model, pk + h * k3p, qk + h * k3q)
        p[k - 1] = pk + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        q[k - 1] = qk + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        if abs(p[k - 1]) > _BLOWUP_LIMIT or abs(q[k - 1]) > _BLOWUP_LIMIT:
            raise BlowUpError(times[k - 1])
    return RiccatiPath(times=times, p=p, q=q)

