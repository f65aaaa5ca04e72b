"""Exact solution of the quadratic-ansatz stationary master equation.

The value candidate is U(x, mu) = a1*x^2 + a2*x*m + a3*m^2 + a4 where m is
the mean of mu.  Plugging the ansatz into the stationary master equation
reduces it to a small algebraic system that can be solved sequentially:
a quadratic for a1, a quadratic for a2 given a1, a linear equation for a3,
and a4 = a1/r.  Among the (at most four) real solutions, at most one yields
closed-loop dynamics whose discounted second moment is integrable; that one
is selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRootError,
    DegenerateA3Error,
    NoAdmissibleRootError,
    NoRealRootError,
)
from .model import LQModel, closed_loop_coeffs

# Discriminants in [-DISC_CLAMP, 0] are treated as a double root.
DISC_CLAMP = 1e-12
# Stability margins within BOUNDARY_TOL of r/2 are rejected, not accepted.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticValue:
    """One solution candidate with its full derivative jet."""

    a1: float
    a2: float
    a3: float
    a4: float

    def value(self, x: float, m: float) -> float:
        return self.a1 * x * x + self.a2 * x * m + self.a3 * m * m + self.a4

    def dx(self, x: float, m: float) -> float:
        return 2.0 * self.a1 * x + self.a2 * m

    def dxx(self, x: float, m: float) -> float:
        return 2.0 * self.a1

    def dmu(self, x: float, m: float):
        """Measure derivative as a function of the extra argument; constant here."""
        val = self.a2 * x + 2.0 * self.a3 * m
        return lambda x_tilde: val

    def dxtilde_dmu(self, x: float, m: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    argmax: tuple[float, float]
    grid_spec: str


def _stable_quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*z^2 + b*z + c = 0, a != 0, in descending order.

    Uses the cancellation-free form: q = -(b + sign(b)*sqrt(disc))/2,
    roots q/a and c/q.  When the discriminant overflows, only its square
    root is taken through the largest coefficient, and when q overflows too
    it is formed from the coefficients divided by the largest;
    NoRealRootError when a coefficient or such a root is not finite.
    """
    disc = b * b - 4.0 * a * c
    scale = 1.0
    if disc == math.inf or math.isnan(disc):
        # b*b or 4*a*c overflowed (-inf is a negative discriminant): divided
        # by the largest coefficient it lies in [-4, 5], and its root is
        # scaled back; q, q/a and c/q keep the coefficients as given, which
        # a division by the largest could make subnormal
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise NoRealRootError(
                "quadratic coefficients beyond the double range: "
                f"(a, b, c) = ({a:g}, {b:g}, {c:g})"
            )
        scale = max(abs(a), abs(b), abs(c))
        disc = (b / scale) ** 2 - 4.0 * (a / scale) * (c / scale)
    if disc < -DISC_CLAMP:
        return []
    if disc < 0.0:
        disc = 0.0
    if disc == 0.0:
        return [-b / (2.0 * a)]
    s = scale * math.sqrt(disc)
    q = -(b + math.copysign(s, b)) / 2.0 if b != 0.0 else s / 2.0
    if math.isfinite(q):
        roots = (q / a, c / q if q != 0.0 else -b / a)
    else:
        # only with a scaled discriminant: q near the double maximum, while
        # the roots are ratios that the scaled coefficients keep
        qs = -(b / scale + math.copysign(math.sqrt(disc), b)) / 2.0
        a_scaled = a / scale  # underflows to 0.0 when the root qs/a overflows
        roots = (qs / a_scaled if a_scaled != 0.0 else math.inf, (c / scale) / qs)
        if not all(map(math.isfinite, roots)):
            raise NoRealRootError(
                "quadratic roots beyond the double range: "
                f"(a, b, c) = ({a:g}, {b:g}, {c:g})"
            )
    # + 0.0 normalizes -0.0 so reports never print a negative zero
    return sorted({z + 0.0 for z in roots}, reverse=True)


def root_system_residuals(model: LQModel, U: QuadraticValue) -> tuple[float, float, float, float]:
    """Residuals of the four algebraic equations at the candidate."""
    g = model.b3 * model.b3 / model.C  # b3^2 / C
    r1 = model.r * U.a1 - (2.0 * model.b1 * U.a1 + model.A - g * U.a1 * U.a1)
    r2 = model.r * U.a2 - (
        2.0 * model.b2 * U.a1
        + model.b1 * U.a2
        + model.b4
        - g * U.a1 * U.a2
        + U.a2 * (model.b1 + model.b2 - g * U.a1 - 0.5 * g * U.a2)
    )
    r3 = model.r * U.a3 - (
        model.b2 * U.a2
        - 0.25 * g * U.a2 * U.a2
        + 2.0 * U.a3 * (model.b1 + model.b2 - g * U.a1 - 0.5 * g * U.a2)
    )
    r4 = model.r * U.a4 - U.a1
    return r1, r2, r3, r4


def solve_root_system(model: LQModel) -> list[QuadraticValue]:
    """All real solutions of the algebraic system, (a1 desc, a2 desc)."""
    g = model.b3 * model.b3 / model.C

    # a1: g*a1^2 + (r - 2 b1)*a1 - A = 0
    a1_roots = _stable_quadratic_roots(g, model.r - 2.0 * model.b1, -model.A)
    if not a1_roots:
        raise NoRealRootError("leading-coefficient quadratic has no real root")

    out: list[QuadraticValue] = []
    for a1 in a1_roots:
        # a2: (g/2)*a2^2 + (r - 2 b1 - b2 + 2 g a1)*a2 - (2 b2 a1 + b4) = 0
        a2_roots = _stable_quadratic_roots(
            0.5 * g,
            model.r - 2.0 * model.b1 - model.b2 + 2.0 * g * a1,
            -(2.0 * model.b2 * a1 + model.b4),
        )
        for a2 in a2_roots:
            # a3 * [r - 2*(b1 + b2 - g a1 - (g/2) a2)] = b2 a2 - (g/4) a2^2
            denom = model.r - 2.0 * (model.b1 + model.b2 - g * a1 - 0.5 * g * a2)
            if denom == 0.0:
                raise DegenerateA3Error(a1, a2)
            # a2/denom first: a2*a2 overflows at roots of size 1e299
            a3 = (model.b2 - 0.25 * g * a2) * (a2 / denom) + 0.0
            a4 = a1 / model.r
            out.append(QuadraticValue(a1, a2, a3, a4))
    out.sort(key=lambda U: (-U.a1, -U.a2))
    return out


def is_admissible(model: LQModel, U: QuadraticValue) -> bool:
    """Stability of the closed-loop dynamics in the discounted L2 sense.

    Second moments grow at rate at most 2*max(cx, cx + cm); discounted
    square-integrability requires that to be < r, i.e. both rates < r/2.
    Margins within BOUNDARY_TOL of the boundary are rejected.
    """
    cx, cm = closed_loop_coeffs(model, U)
    half_r = model.r / 2.0
    return cx < half_r - BOUNDARY_TOL and cx + cm < half_r - BOUNDARY_TOL


def select_admissible(model: LQModel, candidates: list[QuadraticValue]) -> QuadraticValue:
    if not candidates:
        raise NoAdmissibleRootError("empty candidate list")
    admissible = [U for U in candidates if is_admissible(model, U)]
    if not admissible:
        raise NoAdmissibleRootError(
            "no candidate yields square-integrable discounted dynamics"
        )
    if len(admissible) > 1:
        raise AmbiguousRootError(
            f"{len(admissible)} candidates pass the stability selection: "
            + ", ".join(f"(a1={U.a1:g}, a2={U.a2:g})" for U in admissible)
        )
    return admissible[0]


def solve_selected(model: LQModel) -> QuadraticValue:
    """Convenience: solve the system and select the stable candidate."""
    return select_admissible(model, solve_root_system(model))


def eval_jet(U: QuadraticValue, x: float, m: float):
    """(value, d/dx, d2/dx2, measure derivative as fn of x_tilde, mixed)."""
    return (U.value(x, m), U.dx(x, m), U.dxx(x, m), U.dmu(x, m), U.dxtilde_dmu(x, m))


def _grid_report(grid, residual_fn) -> ResidualReport:
    pts = [(float(x), float(m)) for (x, m) in grid]
    if not pts:
        raise ValueError("grid must be nonempty")
    vals = [abs(residual_fn(x, m)) for (x, m) in pts]
    k = int(np.argmax(vals))
    return ResidualReport(
        max_abs_residual=vals[k], argmax=pts[k], grid_spec=f"{len(pts)}-point grid"
    )


def master_residual(model: LQModel, U: QuadraticValue, grid) -> ResidualReport:
    """Pointwise residual of the stationary master equation at the candidate.

    The measure enters only through its mean, so the expectation terms
    evaluate in closed form with the mean set to m.
    """
    gain = model.control_gain  # b3^2 / (2C)

    def res(x: float, m: float) -> float:
        ux = U.dx(x, m)
        # E over x_tilde of the transported-drift term, mean m:
        # dmu * ((b1 + b2) m - gain * (2 a1 + a2) m)
        drift_term = (U.a2 * x + 2.0 * U.a3 * m) * (
            (model.b1 + model.b2) * m - gain * (2.0 * U.a1 + U.a2) * m
        )
        rhs = (
            (model.b1 * x + model.b2 * m) * ux
            + model.b4 * x * m
            + model.A * x * x
            - 0.5 * gain * ux * ux
            + 0.5 * U.dxx(x, m)
            + drift_term
        )
        return model.r * U.value(x, m) - rhs

    return _grid_report(grid, res)


def pa_master_residual(model: LQModel, U: QuadraticValue, grid) -> ResidualReport:
    """Residual of the x-derivative master PDE for the gradient field.

    The unknown is V(x, mu) = dU/dx = 2 a1 x + a2 m, with dV/dx = 2 a1,
    d2V/dx2 = 0, measure derivative a2, mixed derivative 0.
    """
    from .model import hamiltonian_H_dx, hamiltonian_H_dy

    def res(x: float, m: float) -> float:
        v = U.dx(x, m)
        # E over x_tilde (mean m) of dV/dmu * dH/dy(x_tilde, m, V(x_tilde, m))
        e_dy = (
            (model.b1 + model.b2) * m
            - model.control_gain * (2.0 * U.a1 + U.a2) * m
        )
        rhs = (
            hamiltonian_H_dx(model, x, m, v)
            + hamiltonian_H_dy(model, x, m, v) * (2.0 * U.a1)
            + 0.0  # 0.5 * d2V/dx2
            + U.a2 * e_dy
        )
        return model.r * v - rhs

    return _grid_report(grid, res)


def square_grid(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    """n x n tensor grid on [lo, hi]^2, row-major."""
    xs = np.linspace(lo, hi, n)
    return [(float(x), float(m)) for x in xs for m in xs]
