"""Linear-quadratic model: coefficients, Hamiltonians and the explicit minimizer.

The model is the coefficient tuple of the separable drift
``b(x, m, a) = b1*x + b2*m + b3*a`` and running cost
``f(x, m, a) = b4*x*m + A*x**2 + C*a**2``, discounted at rate ``r``, with
unit diffusion.  Everything here is a pure function of doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ModelError


@dataclass(frozen=True)
class LQModel:
    """Coefficients of the linear-quadratic game."""

    r: float
    b1: float
    b2: float
    b3: float
    b4: float
    A: float
    C: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ModelError(f"coefficient {f.name} must be finite, got {value!r}")
        if not self.r > 0:
            raise ModelError(f"discount rate must be positive, got r = {self.r!r}")
        if not self.A > 0:
            raise ModelError(f"state cost weight must be positive, got A = {self.A!r}")
        if not self.C > 0:
            raise ModelError(f"control cost weight must be positive, got C = {self.C!r}")
        if not 0 < self.control_gain < math.inf:
            raise ModelError(f"control gain b3**2/(2C) = {self.control_gain!r} is not in (0, inf)")

    @property
    def control_gain(self) -> float:
        """The feedback gain b3**2 / (2*C) mapping the adjoint into the drift."""
        return self.b3 * self.b3 / (2.0 * self.C)


def alpha_hat(model: LQModel, x: float, y: float) -> float:
    """Pointwise minimizer of the generalized Hamiltonian over the control.

    Independent of ``x`` for this model family.
    """
    return -model.b3 * y / (2.0 * model.C)


def drift(model: LQModel, x: float, m: float, a: float) -> float:
    return model.b1 * x + model.b2 * m + model.b3 * a


def cost_rate(model: LQModel, x: float, m: float, a: float) -> float:
    return model.b4 * x * m + model.A * x * x + model.C * a * a


def generalized_hamiltonian(model: LQModel, x: float, m: float, a: float, y: float) -> float:
    """b*y + f - r*x*y, the quantity minimized over the control."""
    return drift(model, x, m, a) * y + cost_rate(model, x, m, a) - model.r * x * y


def hamiltonian_H(model: LQModel, x: float, m: float, y: float) -> float:
    """Minimized Hamiltonian (without the -r*x*y discount term).

    Closed form: (b1*x + b2*m)*y + b4*x*m + A*x**2 - b3**2/(4C) * y**2.
    """
    return (
        (model.b1 * x + model.b2 * m) * y
        + model.b4 * x * m
        + model.A * x * x
        - model.b3 * model.b3 / (4.0 * model.C) * y * y
    )


def hamiltonian_H_dx(model: LQModel, x: float, m: float, y: float) -> float:
    """d/dx of the minimized Hamiltonian."""
    return model.b1 * y + model.b4 * m + 2.0 * model.A * x


def hamiltonian_H_dy(model: LQModel, x: float, m: float, y: float) -> float:
    """d/dy of the minimized Hamiltonian; equals the closed-loop drift."""
    return model.b1 * x + model.b2 * m - model.control_gain * y


def closed_loop_coeffs(model: LQModel, U) -> tuple[float, float]:
    """Linear feedback coefficients (cx, cm) of the equilibrium drift.

    With the candidate value U, the drift under a = alpha_hat(x, dU/dx)
    becomes cx*x + cm*m; the population mean then follows
    dm/dt = (cx + cm) * m.
    """
    cx = model.b1 - model.b3 * model.b3 * U.a1 / model.C
    cm = model.b2 - model.b3 * model.b3 * U.a2 / (2.0 * model.C)
    return cx, cm
