"""Hot inner loops: particle and path time-stepping, the uniform draw
under every noise block (``uniforms``) and the backward PDE sweep of the
fixed-point solve (``backward_sweep``).

Each kernel steps a whole ensemble, one time step per loop iteration.
``noise`` has shape (paths, steps) and holds sqrt(dt)-scaled increments
sqrt(dt)*g_k, as ``simulate.draw_block`` returns them: every noise block
is scaled once, in place, and every kernel call over it reads those
increments.  The block is in Fortran order, so step k's column
``noise[:, k]`` is contiguous (any order gives the same results, only
slower).  The numpy references of the three compiled stepping loops are
the per-step expressions themselves, one fresh array per operation.  Only
the population kernel evaluates its update into work buffers allocated
once per call (``np.multiply(..., out=)``, ``+=``), in exactly the
operation order of the expressions below, so every IEEE result is the
same as evaluating them directly and runs are bitwise-reproducible.
Loop-invariant scalars are made 0-d float64 arrays once per call: the
same IEEE operand, without numpy's per-call promotion of a Python float.
In the representative kernel every operation is elementwise across
paths, so a path's trajectory and cost do not depend on which other paths
share the call; single-path replay and batched replay both rely on this.
Nor do they depend on how the horizon is cut into time bands: the
representative kernel steps one band per call, and its terminal states
and its ``costs`` accumulator carry into the next band's call, so the
same operations run in the same order.  The population kernel steps a
band's slice of the history, whose first row the previous band wrote.

Update rule (explicit Euler-Maruyama, unit diffusion), evaluated into
buffers by ``_euler_step`` in the population kernel and written out as this
expression in the other two:

    x  <- x + (b1*x + b2*m_k + ctrl)*dt + dw_k,   dw_k = sqrt(dt)*g_k

with m_k the (frozen or synchronously computed) population mean.  The
population and representative kernels play ctrl = b3*a_k with the affine
feedback a_k = fx*x + fm*m_k + off_k; the forward-field kernel plays
ctrl = (-gain)*u(t_k, x), which equals subtracting gain*u because negation
is exact.  Costs use the left-endpoint rule with precomputed discount
weights:

    cost += disc_k*(b4*x*m_k + A*x*x + C*a_k*a_k)*dt

A step diverges when some |x| is not below ``_DIVERGE_LIMIT`` (NaN included).
Each numpy kernel runs with numpy's floating-point warnings off
(``np.errstate(all="ignore")``): a diverging step may overflow on its way to
the divergence check, and that check, not a warning, reports it.

Backends.  Four of these loops also have compiled twins (``_native``):
the representative kernel (the hot loop of ``verify``'s
common-random-number legs), ``uniforms`` (the Philox draw under every noise
block), the forward-field kernel and ``backward_sweep`` (the two loops of
each fixed-point iteration).  Each makes the same operations in the same
order in C, built with FMA contraction off, so its results are bitwise
those of its numpy reference (``_representative_numpy``,
``_uniforms_numpy``, ``_forward_field_numpy``, ``_backward_sweep_numpy``).
The library is built on the first import into a per-user cache, and used
only once self-checks of all four against their references pass; if
anything fails, all four run in numpy.  ``BACKEND`` says which loaded: "c"
(all compiled) or "numpy".  The population kernel, and the clip and
inverse CDF that turn uniforms into Gaussians (``rng.normal_quantile``),
are numpy and scipy on every backend, so the flow-consistency identity
(deviation exactly 0) checks the compiled representative kernel against
the numpy population kernel.
"""

from __future__ import annotations

import numpy as np

from . import _native

_DIVERGE_LIMIT = 1e12
# Rows drawn per C-order tile before the copy into a Fortran-order block.
_TILE_ROWS = 64


def _diverged(x, scratch) -> bool:
    """not all(|x| < limit), through a preallocated buffer: max propagates
    NaN, and NaN < limit is false."""
    np.abs(x, out=scratch)
    return not np.maximum.reduce(scratch) < _DIVERGE_LIMIT


def _f64(*values):
    """Each value as a 0-d float64 array."""
    return [np.array(v, dtype=np.float64) for v in values]


def _mean(x) -> float:
    """x.mean() without its per-call overhead: the same pairwise sum and the
    same division."""
    return float(np.add.reduce(x)) / x.shape[0]


def _euler_step(x, m, ctrl, dw, dt, b1, b2, out, tmp):
    """out = x + (b1*x + b2*m + ctrl)*dt + dw, evaluated into ``out`` (which
    may be ``x``) through the scratch buffer ``tmp``; arrays broadcast
    elementwise."""
    np.multiply(x, b1, out=tmp)
    tmp += b2 * m
    tmp += ctrl
    tmp *= dt
    np.add(x, tmp, out=out)
    out += dw


@np.errstate(all="ignore")
def population_kernel(states, noise, dt, b1, b2, b3, fx, fm, off):
    """Advance the coupled ensemble in place; returns (means, diverged_step).

    Step k reads ``states[k]``, ``noise[:, k]`` and ``off[k]`` and writes
    ``states[k + 1]``, so a caller passes a band's slices of the history
    (one row more than the band's steps) and of the offsets.
    """
    n_steps = noise.shape[1]
    n = states.shape[1]
    dt, b1, b3, fx = _f64(dt, b1, b3, fx)
    means = np.empty(n_steps + 1)
    a = np.empty(n)
    t = np.empty(n)
    for k in range(n_steps):
        x = states[k]
        nxt = states[k + 1]
        m = _mean(x)
        means[k] = m
        # a = fx*x + fm*m + off[k]
        np.multiply(x, fx, out=a)
        a += fm * m
        a += off[k]
        a *= b3  # ctrl
        _euler_step(x, m, a, noise[:, k], dt, b1, b2, nxt, t)
        if _diverged(nxt, t):
            return means, k
    means[n_steps] = _mean(states[n_steps])
    return means, -1


def representative_kernel(x0s, mflow, off, noise, dt, disc,
                          b1, b2, b3, b4, A, C, fx, fm, states, keep, costs):
    """Independent paths against a frozen mean flow, over one band of steps.

    Step k of the band reads ``mflow[k]``, ``off[k]``, ``disc[k]`` and
    ``noise[:, k]``, so a caller passes the band's slices of the whole
    horizon's arrays.  Each path's discounted cost over the band is added
    to ``costs`` in place, step by step, so bands stepped in order
    accumulate the same sums as one call over the whole horizon.  Returns
    (terminal states, diverged_step), the step counted within the band.
    When ``keep`` is true, ``states`` (n_paths, n_steps+1) is filled,
    column 0 with ``x0s``; otherwise it is not read and may be None.  The
    compiled kernel runs when it loaded (``BACKEND`` is "c"),
    ``_representative_numpy`` otherwise; their results are bitwise equal.
    """
    kernel = _representative_numpy if _compiled is None else _compiled.representative
    return kernel(x0s, mflow, off, noise, dt, disc, b1, b2, b3, b4, A, C, fx, fm,
                  states, keep, costs)


@np.errstate(all="ignore")
def _representative_numpy(x0s, mflow, off, noise, dt, disc,
                          b1, b2, b3, b4, A, C, fx, fm, states, keep, costs):
    """``representative_kernel`` in numpy: the fallback, and the reference
    the compiled kernel is checked against."""
    n_steps = noise.shape[1]
    dt, b1, b3, b4, A, C, fx = _f64(dt, b1, b3, b4, A, C, fx)
    x = x0s.copy()
    if keep:
        states[:, 0] = x
    for k in range(n_steps):
        m = mflow[k]
        a = fx * x + fm * m + off[k]
        costs += disc[k] * (b4 * x * m + A * x * x + C * a * a) * dt
        x = x + (b1 * x + b2 * m + b3 * a) * dt + noise[:, k]
        if keep:
            states[:, k + 1] = x
        if not np.abs(x).max() < _DIVERGE_LIMIT:
            return x, k
    return x, -1


def forward_field_kernel(x0, u, xgrid, noise, dt, b1, b2, gain):
    """Ensemble driven by a tabulated decoupling field; returns
    (means, terminal ensemble, diverged_step).

    u(t_k, x) is interpolated linearly on ``xgrid`` with edge-slope
    extrapolation: with pos = (x - x_0)/dx and idx = clip(floor(pos), 0,
    nx - 2), w = pos - idx and u = u_k[idx]*(1 - w) + u_k[idx + 1]*w.
    The compiled kernel runs when it loaded (``BACKEND`` is "c"),
    ``_forward_field_numpy`` otherwise; their results are bitwise equal.
    """
    kernel = _forward_field_numpy if _compiled is None else _compiled.forward_field
    return kernel(x0, u, xgrid, noise, dt, b1, b2, gain)


@np.errstate(all="ignore")
def _forward_field_numpy(x0, u, xgrid, noise, dt, b1, b2, gain):
    """``forward_field_kernel`` in numpy: the fallback, and the reference
    the compiled kernel is checked against.  The floor is clamped as a
    float, which w subtracts (equal to idx), and cast; a NaN casts to an
    index out of range, which ``take`` clips."""
    n_steps = noise.shape[1]
    dt, b1, b2, neg_gain, x_lo, dx, top = _f64(
        dt, b1, b2, -gain, xgrid[0], xgrid[1] - xgrid[0], xgrid.shape[0] - 2)
    means = np.empty(n_steps + 1)
    x = x0.copy()
    for k in range(n_steps):
        m = float(x.mean())
        means[k] = m
        pos = (x - x_lo) / dx
        # maximum(-0.0, 0.0) is +0.0, so w keeps the sign of pos - idx
        cell = np.minimum(np.maximum(np.floor(pos), 0.0), top)
        idx = cell.astype(np.int64)
        w = pos - cell
        uk = u[k]
        uval = uk.take(idx, mode="clip") * (1.0 - w) + uk[1:].take(idx, mode="clip") * w
        x = x + (b1 * x + b2 * m + uval * neg_gain) * dt + noise[:, k]
        if not np.abs(x).max() < _DIVERGE_LIMIT:
            return means, x, k
    means[n_steps] = float(x.mean())
    return means, x, -1


def backward_sweep(u, mflow, x, dt, dx, b1, b2, b4, A, r, gain):
    """Fill rows nt - 2, ..., 0 of the decoupling field ``u`` (nt, nx) from
    its last row, one backward step of the PDE (``fixed_point``) each;
    returns (stopped_step, cfl).

    Step k reads row k + 1 and ``mflow[k + 1]``:

        g    = b1*x + b2*m - gain*u_{k+1}        (closed-loop drift)
        cfl  = max|g|*dt/dx
        u_k  = u_{k+1} + dt*(g*dudx + src - r*u_{k+1}),
               src = b1*u_{k+1} + b4*m + 2*A*x

    with ``dudx`` the upwind difference (node i takes (u[i] - u[i-1])/dx
    where g > 0 and (u[i+1] - u[i])/dx elsewhere, the edge nodes their one
    inward difference), and then solves the implicit diffusion on the
    interior nodes: the constant operator with 1 + 2*lam on the diagonal
    and -lam beside it, lam = dt/(2*dx*dx), factored once per call, whose
    right-hand side takes lam times each boundary value; the boundary nodes
    keep the explicit value.  The sweep stops at the first step whose
    ``cfl`` exceeds 1, before writing its row, or whose row is not finite;
    ``stopped_step`` is that step, or -1, and ``cfl`` is the CFL number of
    the last step begun (NaN when its drift is not finite).  The compiled
    sweep runs when it loaded (``BACKEND`` is "c"),
    ``_backward_sweep_numpy`` otherwise; their results are bitwise equal.
    """
    sweep = _backward_sweep_numpy if _compiled is None else _compiled.backward_sweep
    return sweep(u, mflow, x, dt, dx, b1, b2, b4, A, r, gain)


@np.errstate(all="ignore")
def _backward_sweep_numpy(u, mflow, x, dt, dx, b1, b2, b4, A, r, gain):
    """``backward_sweep`` in numpy and LAPACK, the operator factored by
    ``dgttrf`` and each step solved by ``dgttrs``: the fallback, and the
    reference the compiled sweep is checked against."""
    from scipy.linalg.lapack import dgttrf, dgttrs

    nt, nx = u.shape
    lam = dt / (2.0 * dx * dx)
    off = np.full(nx - 3, -lam)
    *lu, _info = dgttrf(off, np.full(nx - 2, 1.0 + 2.0 * lam), off)
    cfl = np.nan
    for k in range(nt - 2, -1, -1):
        uk1 = u[k + 1]
        m = mflow[k + 1]
        g = b1 * x + b2 * m - gain * uk1
        cfl = np.abs(g).max() * dt / dx
        if cfl > 1.0:
            return k, cfl
        # node i takes diff[i - 1] where g > 0 and diff[i] elsewhere; the
        # edge nodes take their one inward difference either way
        diff = (uk1[1:] - uk1[:-1]) / dx
        dudx = np.where(g > 0.0, np.concatenate((diff[:1], diff)),
                        np.concatenate((diff, diff[-1:])))
        src = b1 * uk1 + b4 * m + 2.0 * A * x
        row = uk1 + dt * (g * dudx + src - r * uk1)
        rhs = row[1:-1]
        rhs[0] += lam * row[0]
        rhs[-1] += lam * row[-1]
        row[1:-1], info = dgttrs(*lu, rhs)
        u[k] = row
        if info != 0 or not np.isfinite(row).all():
            return k, cfl
    return -1, cfl


def uniforms(k0, first_index, first_col, out):
    """Fill ``out`` (rows, cols) with Philox uniforms and return it:
    ``out[i, j]`` is draw first_col + j of
    ``Generator(Philox(key=(k0, (first_index + i) mod 2**64))).random()``.
    The compiled draw runs when it loaded (``BACKEND`` is "c"),
    ``_uniforms_numpy`` otherwise; their results are bitwise equal."""
    draw = _uniforms_numpy if _compiled is None else _compiled.uniforms
    return draw(k0, first_index, first_col, out)


def _uniforms_numpy(k0, first_index, first_col, out):
    """``uniforms`` through numpy's Philox: the fallback, and the reference
    the compiled draw is checked against.

    The counter starts at first_col // 4 with an empty buffer and the first
    first_col % 4 draws are dropped.  One generator is re-keyed per row:
    the state (key, counter, empty buffer) yields the same stream as a new
    Philox of that key, without building one per row; plain ints make the
    re-key about 4x cheaper than numpy arrays.  Rows are drawn into a
    C-order tile of at most ``_TILE_ROWS`` rows and copied in, so no
    full-size transposed copy of a Fortran-order ``out`` is ever made.
    """
    n_rows, n_cols = out.shape
    skip = first_col % _native._PER_COUNTER
    tile = np.empty((min(_TILE_ROWS, n_rows), skip + n_cols))
    tile_rows = list(tile)
    bitgen = np.random.Philox()
    draw = np.random.Generator(bitgen).random
    row = {"counter": (first_col // _native._PER_COUNTER, 0, 0, 0), "key": (0, 0)}
    state = {"bit_generator": "Philox", "state": row, "buffer": (0, 0, 0, 0),
             "buffer_pos": _native._PER_COUNTER, "has_uint32": 0, "uinteger": 0}
    for lo in range(0, n_rows, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n_rows)
        for i, tile_row in zip(range(lo, hi), tile_rows):
            row["key"] = (k0, (first_index + i) % 2**64)
            bitgen.state = state
            draw(out=tile_row)
        out[lo:hi] = tile[: hi - lo, skip:]
    return out


# The numpy references of the compiled functions, and the compiled
# functions, or None when the library could not be built, loaded or
# checked (see ``_native``).
_REFERENCES = _native.Library(_representative_numpy, _uniforms_numpy, _forward_field_numpy,
                              _backward_sweep_numpy)
_compiled = _native.load(_REFERENCES, _DIVERGE_LIMIT)
BACKEND = "numpy" if _compiled is None else "c"
