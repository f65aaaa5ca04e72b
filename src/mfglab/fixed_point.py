"""Mean field game as a fixed point of the consistency map.

One sweep of the map: freeze the population mean flow, solve the backward
quasilinear PDE for the decoupling field u(t, x) (the adjoint given the
state), then push particles forward under the induced drift and read off
the new mean flow.  The outer loop damps the update until the flow is
self-consistent.  ``solve_mfg`` takes the whole run from one
``config.RunConfig``, whose own rules cover the damping, tolerance,
iteration budget and space grid.

The backward PDE is

    du/dt + g(x, m_t, u) du/dx + 1/2 d2u/dx2 + s(x, m_t, u) - r u = 0

with g = b1 x + b2 m - (b3^2/2C) u (the closed-loop drift) and
s = b1 u + b4 m + 2 A x, terminal condition at the truncation horizon.
Discretization: upwind advection and source explicit, diffusion implicit
(a constant tridiagonal operator, LU-factored once per solve and applied
per step), zero-curvature extrapolation at the space boundaries.

The two loops of a sweep live in ``_kernels``: the backward steps in
``backward_sweep`` (after LAPACK's ``dgttrf`` factors the operator here)
and the particle push in ``forward_field_kernel``.  Both run compiled
where the library loaded, bitwise equal to their numpy references, so a
solve's outputs are the same bytes on either backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf

from . import _kernels, rng
from .config import RunConfig
from .errors import ConfigError, DivergedError, MFGLabError, StepTooLargeError
from .master import select_admissible, solve_root_system
from .model import LQModel
from .simulate import InitialLaw, draw_block, time_grid, whole_steps


@dataclass(frozen=True)
class MeanFlow:
    times: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.m.shape or not np.all(np.isfinite(self.m)):
            raise ValueError("mean flow must be finite on the time grid")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @classmethod
    def constant(cls, T: float, dt: float, value: float) -> "MeanFlow":
        times = time_grid(T, dt)
        return cls(times=times, m=np.full(times.shape, float(value)))


@dataclass(frozen=True)
class DecouplingField:
    times: np.ndarray
    x: np.ndarray
    u: np.ndarray  # (nt, nx)


@dataclass(frozen=True)
class FixedPointReport:
    iterations: int
    flow_delta: float
    converged: bool
    final_flow: MeanFlow
    final_field: DecouplingField
    deltas: tuple[float, ...]


def space_grid(x_lo: float, x_hi: float, dx: float) -> np.ndarray:
    """The points x_lo, x_lo + dx, ..., x_hi; ``RunConfig`` holds a run's
    grid to at least 4 steps."""
    n = whole_steps(x_hi - x_lo, dx)
    return x_lo + dx * np.arange(n + 1)


def backward_field_solve(
    model: LQModel,
    flow: MeanFlow,
    grid: np.ndarray,
    terminal,
) -> DecouplingField:
    """Backward finite-difference solve of the decoupling-field PDE.

    ``terminal`` is a callable of x giving u at the truncation horizon.
    The grid needs at least 5 nodes (scipy's ``dgttrf`` takes at least 3
    interior ones): ValueError otherwise.
    """
    x = np.asarray(grid, dtype=float)
    nx = x.size
    if nx < 5:
        raise ValueError(f"the space grid needs at least 5 nodes, got {nx}")
    dx = float(x[1] - x[0])
    dt = flow.dt
    nt = flow.times.size

    u = np.empty((nt, nx))
    u[-1] = np.asarray(terminal(x), dtype=float) * np.ones(nx)

    # constant implicit-diffusion operator (interior rows), factored once;
    # LAPACK's partial pivoting does not swap rows of this diagonally
    # dominant matrix, so each step's solve is the arithmetic of ?gtsv,
    # the case the compiled sweep takes
    lam = dt / (2.0 * dx * dx)
    off = np.full(nx - 3, -lam)
    *lu, info = dgttrf(off, np.full(nx - 2, 1.0 + 2.0 * lam), off)
    if info != 0:
        raise DivergedError(nt - 2)

    step, cfl = _kernels.backward_sweep(u, flow.m, x, dt, dx, lam, model.b1, model.b2,
                                        model.b4, model.A, model.r, model.control_gain, lu)
    if step >= 0:
        if cfl > 1.0:
            raise StepTooLargeError(
                f"advection CFL violated at step {step}: max|g|*dt/dx = "
                f"{cfl:.3g} > 1"
            )
        raise DivergedError(step)
    return DecouplingField(times=flow.times, x=x, u=u)


def forward_flow_update(
    model: LQModel,
    field: DecouplingField,
    law0: InitialLaw,
    N: int,
    seed: int,
) -> MeanFlow:
    """Particle update of the mean flow under the field-induced drift."""
    times = field.times
    noise = draw_block(seed, rng.STREAM_POPULATION, 0, float(times[1] - times[0]),
                       (0, N, 0, times.size - 1))
    return _forward_flow(model, field, law0.sample(N, seed), noise)


def _forward_flow(model: LQModel, field: DecouplingField, x0, noise) -> MeanFlow:
    """The particles ``x0`` driven by ``field`` over the sqrt(dt)-scaled
    increments ``noise``."""
    times = field.times
    dt = float(times[1] - times[0])
    means, _terminal, dstep = _kernels.forward_field_kernel(
        x0, field.u, field.x, noise, dt,
        model.b1, model.b2, model.control_gain,
    )
    if dstep >= 0:
        raise DivergedError(dstep)
    return MeanFlow(times=times, m=means)


def stationary_terminal(model: LQModel, flow: MeanFlow):
    """Terminal condition: the stationary field when the model admits one,
    zero otherwise.  Removes the backward boundary layer."""
    try:
        U = select_admissible(model, solve_root_system(model))
    except MFGLabError:
        return lambda x: np.zeros_like(x)
    m_T = float(flow.m[-1])
    return lambda x: 2.0 * U.a1 * x + U.a2 * m_T


def solve_mfg(cfg: RunConfig) -> FixedPointReport:
    """Damped iteration of the consistency map from a constant initial flow.

    Reads the model, the initial law, the horizon and step, the particle
    count, the seed, the damping, tolerance and iteration budget and the
    space grid from ``cfg``.  The particle seed is held fixed across
    iterations, so the iterated map is deterministic and its fixed point
    does not depend on the damping; the particles are those of
    ``simulate_population`` (see ``simulate``'s noise rules), their noise
    drawn in one whole block once per solve.
    """
    if cfg.n_particles < 2:
        raise ConfigError("fixed-point needs sim.nParticles >= 2")
    model = cfg.model
    grid = space_grid(cfg.x_lo, cfg.x_hi, cfg.dx)
    flow = MeanFlow.constant(cfg.T, cfg.dt, cfg.law0.mean)
    x0 = cfg.law0.sample(cfg.n_particles, cfg.seed)
    noise = draw_block(cfg.seed, rng.STREAM_POPULATION, 0, flow.dt,
                       (0, cfg.n_particles, 0, flow.times.size - 1))
    deltas = []
    converged = False
    theta = cfg.damping
    for _ in range(cfg.max_iter):
        field = backward_field_solve(model, flow, grid, stationary_terminal(model, flow))
        update = _forward_flow(model, field, x0, noise)
        # convergence is judged on the undamped residual of the consistency
        # map, so runs with different damping stop within tol of the same
        # fixed point
        delta = float(np.max(np.abs(update.m - flow.m)))
        new_m = (1.0 - theta) * flow.m + theta * update.m
        deltas.append(delta)
        flow = MeanFlow(times=flow.times, m=new_m)
        if delta <= cfg.tol:
            converged = True
            break
    del x0, noise  # N×steps floats, not needed past the loop
    # field consistent with the final flow
    field = backward_field_solve(model, flow, grid, stationary_terminal(model, flow))
    return FixedPointReport(
        iterations=len(deltas),
        flow_delta=deltas[-1],
        converged=converged,
        final_flow=flow,
        final_field=field,
        deltas=tuple(deltas),
    )
