"""Seeded Euler-Maruyama simulation of the population and representative
player, discounted cost estimation with a reported tail bound, and the 1-D
empirical quadratic Wasserstein distance.

Feedback control laws are affine with a constant offset,
a(x, m) = fx*x + fm*m + offset: every equilibrium and every in-scope
perturbation has this shape.  A feedback is a value of three numbers, so
equal feedbacks compare equal; the kernels in ``_kernels`` take its offset
as one array entry per step.

Noise.  All noise is drawn from counter-based streams keyed by (seed,
stream, path index), so that any single path can be replayed bit-exactly
in isolation.  Representative path j of ``simulate_legs`` reads the stream
(seed, stream, path_offset + j); population particle i, in
``simulate_population`` and in the fixed-point solver alike, starts at
``law0.sample(N, seed)[i]``, sampled once per run, and reads the stream
(seed, STREAM_POPULATION, i).  Every consumer goes through two rules:

* ``_plan`` cuts rows x steps into blocks (lo, hi, k0, k1): chunks of
  rows, in order, each over the fewest even time bands whose blocks hold
  at most a budget of doubles (one step per band at the least).  The legs
  run in chunks of ``PATH_CHUNK`` paths with half of ``BLOCK_DOUBLES`` per
  block, a population in one chunk of every particle with all of it; the
  fixed-point solver draws one whole block.
* ``draw_block`` draws a block and scales it by sqrt(dt) once, in place;
  it is the only caller of ``rng.gaussian_block``, and every kernel reads
  the increments it returns.

A legs plan of more than one block is drawn one block ahead by a forked
worker process into two shared slots while every leg steps the other, so
at most ``BLOCK_DOUBLES`` doubles of noise are live and no worker outlives
the call.  Where forking is unsafe, and for populations and the
fixed-point solver, each block is drawn inline and released before the
next.  Results are bitwise those of one whole block, whichever plan and
whoever draws: a block is bitwise its rows and columns of the streams, the
kernels do not write to the noise, and they carry each path's state and
cost from band to band.

Each simulation rule is stated once: ``whole_steps`` counts the steps of
every grid and ``time_grid`` builds every time grid.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernels, rng
from .errors import DivergedError, MFGLabError
from .master import QuadraticValue
from .model import LQModel

# Paths per representative noise block: the width of each kernel call.
PATH_CHUNK = 4096
# Doubles of live noise (8 MiB): the block budget of a population, and
# twice that of the legs, whose noise worker fills one block while the legs
# step the other.  The population history's statistics are taken over row
# chunks of at most ``BLOCK_DOUBLES`` doubles.
BLOCK_DOUBLES = 2**20
# Exit status of a noise worker that ran out of memory.
_WORKER_NO_MEMORY = 3
# Relative distance from a whole number within which span/step counts as
# whole steps: the floating-point noise of the division.
STEP_RTOL = 1e-9


@dataclass(frozen=True)
class InitialLaw:
    """Initial state distribution: dirac, gaussian or empirical (a fixed
    ensemble)."""

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
        """Inverse CDF of a dirac or gaussian law."""
        if self.kind == "empirical":
            raise ValueError("an empirical law has no inverse CDF")
        u = np.asarray(u, dtype=float)
        if self.kind == "dirac":
            return np.full_like(u, self.x0)
        return self.mean_ + self.sd * rng.normal_quantile(u)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """``n`` initial states; an empirical law is its own ensemble, in
        order, so ``n`` must be its sample count."""
        if self.kind == "dirac":
            return np.full(n, self.x0)
        if self.kind == "empirical":
            if n != self.samples.size:
                raise ValueError(f"an empirical law of {self.samples.size} samples "
                                 f"cannot start {n} particles")
            return self.samples.copy()
        gen = rng.make_generator(seed, rng.STREAM_INITIAL)
        return self.mean_ + self.sd * gen.standard_normal(n)


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
        return _by_rows(lambda s: s.var(axis=1), self.states)


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


def _plan(n_rows: int, chunk: int, n_steps: int, budget: int) -> list[tuple]:
    """The noise blocks (lo, hi, k0, k1), rows lo..hi-1 over steps k0..k1-1,
    of ``n_rows`` rows in chunks of ``chunk`` rows, each chunk over the
    fewest even time bands whose blocks hold at most ``budget`` doubles (one
    step per band at the least), chunk by chunk."""
    plan = []
    for lo in range(0, n_rows, chunk):
        hi = min(lo + chunk, n_rows)
        n_bands = -(-n_steps // max(1, budget // (hi - lo)))
        band = -(-n_steps // n_bands)
        plan += [(lo, hi, k0, min(k0 + band, n_steps)) for k0 in range(0, n_steps, band)]
    return plan


def draw_block(seed: int, stream: int, first_index: int, dt: float, block,
               out: np.ndarray | None = None) -> np.ndarray:
    """The sqrt(dt)-scaled increments of the block (lo, hi, k0, k1): row i
    holds sqrt(dt) times draws k0, ..., k1 - 1 of the stream (seed, stream,
    first_index + lo + i), in Fortran order, drawn into ``out`` when
    given."""
    lo, hi, k0, k1 = block
    noise = rng.gaussian_block(seed, stream, first_index + lo, hi - lo, k1 - k0, k0, out=out)
    noise *= math.sqrt(dt)
    return noise


def _by_rows(f, a: np.ndarray) -> np.ndarray:
    """``f`` (a row-wise reduction) of ``a``, taken over chunks of rows of
    at most ``BLOCK_DOUBLES`` doubles: the values of ``f(a)``, without its
    whole-size temporaries."""
    rows = max(1, BLOCK_DOUBLES // a.shape[1])
    return np.concatenate([f(a[i:i + rows]) for i in range(0, a.shape[0], rows)])


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
    once per step.  The particles and their noise follow the module's noise
    rules; the kernel steps each band into the kept history from the band's
    first row.
    """
    if N < 1:
        raise ValueError("population needs at least one particle")
    times = time_grid(T, dt)
    n_steps = times.size - 1
    states = np.empty((n_steps + 1, N))
    means = np.empty(n_steps + 1)
    states[0] = law0.sample(N, seed)
    off = np.full(n_steps, feedback.offset)
    for block in _plan(N, N, n_steps, BLOCK_DOUBLES):
        _, _, k0, k1 = block
        noise = draw_block(seed, rng.STREAM_POPULATION, 0, dt, block)
        means[k0:k1 + 1], dstep = _kernels.population_kernel(
            states[k0:k1 + 1], noise, dt, model.b1, model.b2, model.b3,
            feedback.fx, feedback.fm, off[k0:k1],
        )
        if dstep >= 0:
            raise DivergedError(k0 + dstep)
        # release this band before the next one is drawn
        del noise
    return PopulationPath(times=times, states=states, means=means)


def _can_fork() -> bool:
    """Whether this process may fork the noise worker: it must have no
    thread but the main one, which could hold a lock the worker needs.  The
    worker calls no BLAS or LAPACK (its Philox draws, ``ndtri`` and scaling
    are elementwise), so a BLAS library's own threads do not matter."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _noise_blocks(plan, draw):
    """``simulate_legs``'s blocks, each as (block, noise) in ``plan`` order,
    drawn by ``draw`` (a ``draw_block`` with its stream bound) as the module
    docstring says: ahead by a forked worker (``_worker_blocks``) when the
    plan has more than one block and ``_can_fork()``, otherwise here when
    each is asked for.  The caller must be done with a block before it asks
    for the next one.
    """
    if len(plan) > 1 and _can_fork():
        yield from _worker_blocks(plan, draw)
        return
    for block in plan:
        noise = draw(block)
        yield block, noise
        # release this block before the next one is drawn
        del noise


def _slot(slots: np.ndarray, i: int, block) -> np.ndarray:
    """Block ``i`` of a plan, in its slot i % 2 of ``slots``."""
    lo, hi, k0, k1 = block
    return slots[i % 2, :(hi - lo) * (k1 - k0)].reshape((hi - lo, k1 - k0), order="F")


def _worker_blocks(plan, draw):
    """``_noise_blocks`` drawn one block ahead by a forked worker process.

    The worker (``_worker``) draws block i straight into slot i % 2 of an
    anonymous shared mmap of two slots, each as large as the plan's largest
    block, and reports it on the ``ready`` pipe.  The parent yields the slot
    and, once the caller is done with it, frees it on the ``free`` pipe for
    block i + 2.  The worker is always reaped before this returns or raises,
    and killed first unless every block was yielded.  Failures to start it
    or of the worker itself raise ``MemoryError`` (out of memory) or
    ``MFGLabError``, never ``OSError``.
    """
    size = max((hi - lo) * (k1 - k0) for lo, hi, k0, k1 in plan)
    fds, pid, done = [], 0, False
    try:
        try:
            shared = mmap.mmap(-1, 2 * size * 8)
            for _ in range(2):
                fds += os.pipe()
            pid = os.fork()
        except OSError as exc:
            if exc.errno == errno.ENOMEM:
                raise MemoryError(f"cannot start the noise worker: {exc.strerror}") from None
            raise MFGLabError(f"cannot start the noise worker: {exc.strerror or exc}") from None
        free_r, free_w, ready_r, ready_w = fds
        slots = np.frombuffer(shared, dtype=float).reshape(2, size)
        if pid == 0:
            _worker(plan, slots, draw, free_r, ready_w, (free_w, ready_r))
        os.close(free_r)
        os.close(ready_w)
        fds = [free_w, ready_r]
        for i, block in enumerate(plan):
            try:
                ready = os.read(ready_r, 1)
            except OSError:
                ready = b""
            if not ready:  # the worker ended early: its exit status says why
                status = os.waitpid(pid, 0)[1]
                pid = 0
                code = os.waitstatus_to_exitcode(status)
                if code == _WORKER_NO_MEMORY:
                    raise MemoryError("the noise worker ran out of memory")
                raise MFGLabError(f"the noise worker failed with exit status {code}")
            yield block, _slot(slots, i, block)
            if i + 2 < len(plan):
                # a worker that has died is reported at the next read
                with contextlib.suppress(OSError):
                    os.write(free_w, b"\0")
        done = True
    finally:
        for fd in fds:
            os.close(fd)
        if pid:
            if not done:
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _worker(plan, slots, draw, free_r, ready_w, parent_fds):
    """The noise worker's life in the forked process; it ends in
    ``os._exit`` and never returns.  Block i waits for the parent to free
    slot i % 2 (from block 2 on), is drawn into it by ``draw`` and reported
    with one byte.  It exits 0 when done or when the parent stops early,
    ``_WORKER_NO_MEMORY`` on ``MemoryError`` and 1 on any other failure."""
    status = 1
    try:
        for fd in parent_fds:
            os.close(fd)
        for i, block in enumerate(plan):
            if i >= 2 and not os.read(free_r, 1):
                break  # the parent stopped early
            draw(block, out=_slot(slots, i, block))
            os.write(ready_w, b"\0")
        status = 0
    except MemoryError:
        status = _WORKER_NO_MEMORY
    finally:
        os._exit(status)


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
    ``x0`` broadcasts to (len(feedbacks), n_paths): a scalar starts every
    path of every leg there, an (n_paths,) array gives each path its start
    in every leg, and a (len(feedbacks), 1) or (len(feedbacks), n_paths)
    array gives leg j the start points ``x0[j]``.
    Path j of every leg consumes the noise stream (seed, stream,
    path_offset + j), drawn once per block by the module's noise rules, and
    every leg is stepped across a block from the state and cost it reached
    at the end of the previous band.  A leg's result is bitwise that of
    simulating it alone in one block.  A divergence raises
    ``DivergedError`` at the first block in which a leg diverged, naming the
    first such leg's step on the whole grid.
    """
    times = time_grid(T, dt)
    n_steps = times.size - 1
    if callable(mean_flow):
        mflow = np.asarray([mean_flow(t) for t in times], dtype=float)
    else:
        mflow = np.broadcast_to(np.asarray(mean_flow, dtype=float), times.shape).copy()
    if mflow.size != times.size:
        raise ValueError("mean flow does not cover the time grid")

    x0s = np.broadcast_to(np.asarray(x0, dtype=float), (len(feedbacks), n_paths))
    offs = [np.full(n_steps, fb.offset) for fb in feedbacks]
    disc = np.exp(-model.r * times[:-1])

    costs = [np.zeros(n_paths) for _ in feedbacks]
    # each leg's states: its start points, carried from band to band
    terminal = [start.copy() for start in x0s]
    states = [np.empty((n_paths, n_steps + 1)) if keep_states else None for _ in feedbacks]
    dummy = np.empty((0, 0))

    blocks = _noise_blocks(_plan(n_paths, PATH_CHUNK, n_steps, BLOCK_DOUBLES // 2),
                           functools.partial(draw_block, seed, stream, path_offset, dt))
    with contextlib.closing(blocks):
        for (lo, hi, k0, k1), noise in blocks:
            for j, fb in enumerate(feedbacks):
                band_states = states[j][lo:hi, k0:k1 + 1] if keep_states else dummy
                x = terminal[j][lo:hi]
                x[:], dstep = _kernels.representative_kernel(
                    x, mflow[k0:k1], offs[j][k0:k1], noise, dt, disc[k0:k1],
                    model.b1, model.b2, model.b3, model.b4, model.A, model.C,
                    fb.fx, fb.fm, band_states, keep_states, costs[j][lo:hi],
                )
                if dstep >= 0:
                    raise DivergedError(k0 + dstep)
            # done with this block: it is released before the next is drawn
            del noise

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
    """Rows (t, mean, var, q05, q95) for CSV export; the row-wise statistics
    are taken over row chunks, like ``PopulationPath.variances``."""
    var = path.variances()
    q05 = _by_rows(lambda s: np.quantile(s, 0.05, axis=1), path.states)
    q95 = _by_rows(lambda s: np.quantile(s, 0.95, axis=1), path.states)
    return [
        (float(t), float(m), float(v), float(a), float(b))
        for t, m, v, a, b in zip(path.times, path.means, var, q05, q95)
    ]
