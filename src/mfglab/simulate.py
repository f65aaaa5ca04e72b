"""Seeded Euler-Maruyama simulation of the population and representative
player, discounted cost estimation with a reported tail bound, and the 1-D
empirical quadratic Wasserstein distance.

Feedback control laws are affine with a constant offset,
a(x, m) = fx*x + fm*m + offset: every equilibrium and every in-scope
perturbation has this shape.  A feedback is a value of three numbers, so
equal feedbacks compare equal; the kernels in ``_kernels`` take its offset
as one array entry per step.  All noise is drawn from counter-based
streams keyed by (seed, stream, path index) so that any single path can be
replayed bit-exactly in isolation.  Common-random-number legs (several
feedbacks against the same streams) share one noise draw per block of
paths: ``simulate_legs`` steps every leg against that block.

Each simulation rule is stated once: ``whole_steps`` counts the steps of
every grid, ``time_grid`` builds every time grid, and ``population_draws``
draws the population's initial particles and noise for both the particle
system and the fixed-point solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import _kernels, rng
from .errors import DivergedError
from .master import QuadraticValue
from .model import LQModel

# Paths simulated per noise block; bounds peak memory of the noise buffer.
PATH_CHUNK = 4096
# Relative distance from a whole number within which span/step counts as
# whole steps: the floating-point noise of the division.
STEP_RTOL = 1e-9


@dataclass(frozen=True)
class InitialLaw:
    """Initial state distribution: dirac, gaussian or empirical."""

    kind: str
    x0: float = 0.0
    mean_: float = 0.0
    sd: float = 0.0
    samples: np.ndarray | None = None

    @classmethod
    def dirac(cls, x0: float = 0.0) -> "InitialLaw":
        return cls(kind="dirac", x0=float(x0))

    @classmethod
    def gaussian(cls, mean: float = 0.0, sd: float = 1.0) -> "InitialLaw":
        if not sd >= 0:
            raise ValueError(f"standard deviation sd must be nonnegative, got {sd!r}")
        return cls(kind="gaussian", mean_=float(mean), sd=float(sd))

    @classmethod
    def empirical(cls, samples) -> "InitialLaw":
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("empirical law needs a nonempty finite 1-D sample array")
        return cls(kind="empirical", samples=arr)

    @property
    def mean(self) -> float:
        if self.kind == "dirac":
            return self.x0
        if self.kind == "gaussian":
            return self.mean_
        return float(self.samples.mean())

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF; the empirical kind uses the order statistics."""
        u = np.asarray(u, dtype=float)
        if self.kind == "dirac":
            return np.full_like(u, self.x0)
        if self.kind == "gaussian":
            return self.mean_ + self.sd * ndtri(np.clip(u, 2.5e-17, 1 - 1e-16))
        return np.quantile(self.samples, u)

    def sample(self, n: int, seed: int) -> np.ndarray:
        if self.kind == "dirac":
            return np.full(n, self.x0)
        if self.kind == "empirical" and n == self.samples.size:
            # the ensemble itself, in order: exact pass-through
            return self.samples.copy()
        gen = rng.make_generator(seed, rng.STREAM_INITIAL)
        if self.kind == "gaussian":
            return self.mean_ + self.sd * gen.standard_normal(n)
        return gen.choice(self.samples, size=n, replace=True)


@dataclass(frozen=True)
class AffineFeedback:
    """Control a(x, m) = fx*x + fm*m + offset."""

    fx: float
    fm: float
    offset: float = 0.0

    @classmethod
    def equilibrium(cls, model: LQModel, U: QuadraticValue) -> "AffineFeedback":
        """alpha_hat(x, dU/dx) = -b3 (2 a1 x + a2 m) / (2C)."""
        return cls(
            fx=-model.b3 * U.a1 / model.C,
            fm=-model.b3 * U.a2 / (2.0 * model.C),
        )

    def with_offset(self, value: float) -> "AffineFeedback":
        return AffineFeedback(self.fx, self.fm, float(value))


@dataclass(frozen=True)
class PopulationPath:
    """Full ensemble history of the coupled particle system."""

    times: np.ndarray
    states: np.ndarray  # (n_steps+1, N)
    means: np.ndarray  # (n_steps+1,)

    def variances(self) -> np.ndarray:
        return self.states.var(axis=1)


@dataclass(frozen=True)
class TrajectoryBatch:
    """Independent representative paths against a frozen mean flow."""

    times: np.ndarray
    costs: np.ndarray  # per-path discounted running cost
    terminal: np.ndarray
    feedback: AffineFeedback
    mean_flow: np.ndarray
    states: np.ndarray | None = None  # (n_paths, n_steps+1) when kept

    @property
    def n_paths(self) -> int:
        return self.costs.size

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    ci95: tuple[float, float]
    tail_bound: float
    n_paths: int


def whole_steps(span: float, step: float) -> int:
    """The number of steps ``step`` in ``span``, for every time and space grid.

    Raises ValueError unless ``step`` > 0 and span/step is within a relative
    ``STEP_RTOL`` of a whole number of magnitude below 2**53.  From 2**53 on
    every double is a whole number, so the ratio can no longer tell whole
    steps from partial ones.
    """
    ratio = span / step if step > 0 else math.nan
    if not abs(ratio) < 2.0**53 or abs(ratio - round(ratio)) > STEP_RTOL * abs(ratio):
        raise ValueError(f"span {span!r} is not a whole number of steps {step!r} "
                         f"(fewer than 2**53)")
    return round(ratio)


def time_grid(T: float, dt: float) -> np.ndarray:
    """The times 0, dt, ..., T of every simulation, PDE and ODE grid."""
    n_steps = whole_steps(T, dt)
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    return dt * np.arange(n_steps + 1)


def population_draws(law0: InitialLaw, N: int, seed: int, n_steps: int):
    """Initial particles and their (N, n_steps) noise, both fixed by the seed.

    Particle i starts at ``law0.sample(N, seed)[i]`` and consumes the noise
    stream (seed, STREAM_POPULATION, i).
    """
    x0 = law0.sample(N, seed)
    noise = rng.gaussian_block(seed, rng.STREAM_POPULATION, 0, N, n_steps)
    return x0, noise


def simulate_population(
    model: LQModel,
    feedback: AffineFeedback,
    law0: InitialLaw,
    N: int,
    T: float,
    dt: float,
    seed: int,
) -> PopulationPath:
    """Synchronous particle approximation of the self-interacting dynamics.

    The mean-field coupling is the same-ensemble empirical mean, recomputed
    once per step.  The particles and their noise are ``population_draws``.
    """
    if N < 1:
        raise ValueError("population needs at least one particle")
    times = time_grid(T, dt)
    n_steps = times.size - 1
    states = np.empty((n_steps + 1, N))
    states[0], noise = population_draws(law0, N, seed, n_steps)
    off = np.full(n_steps, feedback.offset)
    means, dstep = _kernels.population_kernel(
        states, noise, dt, math.sqrt(dt),
        model.b1, model.b2, model.b3, feedback.fx, feedback.fm, off,
    )
    if dstep >= 0:
        raise DivergedError(dstep)
    return PopulationPath(times=times, states=states, means=means)


def simulate_legs(
    model: LQModel,
    feedbacks: list[AffineFeedback],
    x0,
    mean_flow,
    T: float,
    dt: float,
    seed: int,
    n_paths: int = 1,
    keep_states: bool = False,
    stream: int = rng.STREAM_PATHS,
    path_offset: int = 0,
) -> list[TrajectoryBatch]:
    """Paths that react to, but do not influence, the supplied mean flow:
    one batch per feedback, all driven by the same noise.

    ``mean_flow`` is a callable of t, a scalar, or an array on the time grid.
    Path j of every leg consumes the noise stream (seed, stream,
    path_offset + j).  Each block of ``PATH_CHUNK`` paths is drawn once and
    every leg is stepped against it; a leg's result is bitwise the same as
    simulating it alone, since the kernel does not write to the noise.
    """
    times = time_grid(T, dt)
    n_steps = times.size - 1
    if callable(mean_flow):
        mflow = np.asarray([mean_flow(t) for t in times], dtype=float)
    else:
        mflow = np.broadcast_to(np.asarray(mean_flow, dtype=float), times.shape).copy()
    if mflow.size != times.size:
        raise ValueError("mean flow does not cover the time grid")

    x0s = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths,)).copy()
    offs = [np.full(n_steps, fb.offset) for fb in feedbacks]
    disc = np.exp(-model.r * times[:-1])
    sdt = math.sqrt(dt)

    costs = [np.empty(n_paths) for _ in feedbacks]
    terminal = [np.empty(n_paths) for _ in feedbacks]
    states = [np.empty((n_paths, n_steps + 1)) if keep_states else None for _ in feedbacks]
    dummy = np.empty((0, 0))

    for lo in range(0, n_paths, PATH_CHUNK):
        hi = min(lo + PATH_CHUNK, n_paths)
        noise = rng.gaussian_block(seed, stream, path_offset + lo, hi - lo, n_steps)
        for j, fb in enumerate(feedbacks):
            chunk_states = states[j][lo:hi] if keep_states else dummy
            c, term, dstep = _kernels.representative_kernel(
                x0s[lo:hi], mflow, offs[j], noise, dt, sdt, disc,
                model.b1, model.b2, model.b3, model.b4, model.A, model.C,
                fb.fx, fb.fm, chunk_states, keep_states,
            )
            if dstep >= 0:
                raise DivergedError(dstep)
            costs[j][lo:hi] = c
            terminal[j][lo:hi] = term

    return [
        TrajectoryBatch(
            times=times, costs=costs[j], terminal=terminal[j], feedback=fb,
            mean_flow=mflow, states=states[j],
        )
        for j, fb in enumerate(feedbacks)
    ]


def simulate_representative(
    model: LQModel,
    feedback: AffineFeedback,
    x0,
    mean_flow,
    T: float,
    dt: float,
    seed: int,
    n_paths: int = 1,
    keep_states: bool = False,
    stream: int = rng.STREAM_PATHS,
    path_offset: int = 0,
) -> TrajectoryBatch:
    """Paths that react to, but do not influence, the supplied mean flow.

    The one-leg case of ``simulate_legs``: path j consumes the noise stream
    (seed, stream, path_offset + j), so two calls with the same seed are
    driven by common random numbers.
    """
    return simulate_legs(
        model, [feedback], x0, mean_flow, T, dt, seed, n_paths, keep_states,
        stream, path_offset,
    )[0]


def estimate_cost(model: LQModel, batch: TrajectoryBatch) -> CostEstimate:
    """Mean discounted cost with a reported (not added) truncation tail bound.

    The tail bound integrates a coefficient-wise quadratic envelope of the
    cost rate from the horizon onward, assuming the terminal second moment
    and mean do not grow (valid for stable feedback):
    |f| <= c1*x^2 + cm*m^2 + c0 with the control eliminated through the
    affine feedback.
    """
    if batch.n_paths < 2:
        raise ValueError("need at least two paths for a standard error")
    mean = float(batch.costs.mean())
    se = float(batch.costs.std(ddof=1) / math.sqrt(batch.n_paths))
    fb = batch.feedback
    c1 = model.A + abs(model.b4) / 2.0 + 3.0 * model.C * fb.fx**2
    cm = abs(model.b4) / 2.0 + 3.0 * model.C * fb.fm**2
    c0 = 3.0 * model.C * fb.offset**2
    m2_T = float(np.mean(batch.terminal**2))
    mbar_T2 = float(batch.mean_flow[-1] ** 2)
    tail = math.exp(-model.r * batch.horizon) * (c0 + c1 * m2_T + cm * mbar_T2) / model.r
    return CostEstimate(
        mean=mean,
        std_error=se,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
        tail_bound=tail,
        n_paths=batch.n_paths,
    )


def w2_empirical(samples_a, samples_b) -> float:
    """Quadratic Wasserstein distance between two equal-size samples.

    In one dimension the optimal coupling pairs order statistics.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("need two 1-D sample arrays of identical nonzero length")
    qa = np.sort(a)
    qb = np.sort(b)
    return float(np.sqrt(np.mean((qa - qb) ** 2)))


def export_flow_csv(path: PopulationPath) -> list[tuple]:
    """Rows (t, mean, var, q05, q95) for CSV export."""
    var = path.variances()
    q05 = np.quantile(path.states, 0.05, axis=1)
    q95 = np.quantile(path.states, 0.95, axis=1)
    return [
        (float(t), float(m), float(v), float(a), float(b))
        for t, m, v, a, b in zip(path.times, path.means, var, q05, q95)
    ]
