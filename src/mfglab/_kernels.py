"""Hot inner loops: particle and path time-stepping.

Each kernel steps a whole ensemble, one time step per loop iteration.
``noise`` has shape (paths, steps); ``rng.gaussian_block`` returns it in
Fortran order, so step k's column ``noise[:, k]`` is contiguous (any order
gives the same results, only slower).  Each step evaluates its update into
work buffers allocated once per call (``np.multiply(..., out=)``, ``+=``,
``np.take(..., out=)``), in exactly the operation order of the expressions
below, so every IEEE result is the same as evaluating them directly and
runs are bitwise-reproducible.  In the representative kernel every
operation is elementwise across paths, so a path's trajectory and cost do
not depend on which other paths share the call; single-path replay and
batched replay both rely on this.

Update rule (explicit Euler-Maruyama, unit diffusion), stated once in
``_euler_step`` and called by all three kernels:

    x  <- x + (b1*x + b2*m_k + ctrl)*dt + sqrt(dt)*g_k

with m_k the (frozen or synchronously computed) population mean.  The
population and representative kernels play ctrl = b3*a_k with the affine
feedback a_k = fx*x + fm*m_k + off_k; the forward-field kernel plays
ctrl = (-gain)*u(t_k, x), which equals subtracting gain*u because negation
is exact.  Costs use the left-endpoint rule with precomputed discount
weights:

    cost += disc_k*(b4*x*m_k + A*x*x + C*a_k*a_k)*dt

A step diverges when some |x| is not below ``_DIVERGE_LIMIT`` (NaN included).
"""

from __future__ import annotations

import numpy as np

_DIVERGE_LIMIT = 1e12


def _diverged(x, scratch) -> bool:
    """not all(|x| < limit), through a preallocated buffer: max propagates
    NaN, and NaN < limit is false."""
    np.abs(x, out=scratch)
    return not scratch.max() < _DIVERGE_LIMIT


def _mean(x) -> float:
    """x.mean() without its per-call overhead: the same pairwise sum and the
    same division."""
    return float(np.add.reduce(x)) / x.shape[0]


def _euler_step(x, m, ctrl, g, dt, sdt, b1, b2, out, tmp):
    """out = x + (b1*x + b2*m + ctrl)*dt + sdt*g, evaluated into ``out``
    (which may be ``x``) through the scratch buffer ``tmp``; arrays
    broadcast elementwise."""
    np.multiply(x, b1, out=tmp)
    tmp += b2 * m
    tmp += ctrl
    tmp *= dt
    np.add(x, tmp, out=out)
    np.multiply(g, sdt, out=tmp)
    out += tmp


def population_kernel(states, noise, dt, sdt, b1, b2, b3, fx, fm, off):
    """Advance the coupled ensemble in place; returns (means, diverged_step)."""
    n_steps = noise.shape[1]
    n = states.shape[1]
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
        _euler_step(x, m, a, noise[:, k], dt, sdt, b1, b2, nxt, t)
        if _diverged(nxt, t):
            return means, k
    means[n_steps] = _mean(states[n_steps])
    return means, -1


def representative_kernel(x0s, mflow, off, noise, dt, sdt, disc,
                          b1, b2, b3, b4, A, C, fx, fm, states, keep):
    """Independent paths against a frozen mean flow.

    Returns (discounted costs, terminal states, diverged_step).  When
    ``keep`` is true, ``states`` (n_paths, n_steps+1) is filled.
    """
    n_paths, n_steps = noise.shape
    x = x0s.copy()
    costs = np.zeros(n_paths)
    a = np.empty(n_paths)
    t1 = np.empty(n_paths)
    t2 = np.empty(n_paths)
    if keep:
        states[:, 0] = x
    for k in range(n_steps):
        m = mflow[k]
        # a = fx*x + fm*m + off[k]
        np.multiply(x, fx, out=a)
        a += fm * m
        a += off[k]
        # costs += disc[k]*(b4*x*m + A*x*x + C*a*a)*dt
        np.multiply(x, b4, out=t1)
        t1 *= m
        np.multiply(x, A, out=t2)
        t2 *= x
        t1 += t2
        np.multiply(a, C, out=t2)
        t2 *= a
        t1 += t2
        t1 *= disc[k]
        t1 *= dt
        costs += t1
        a *= b3  # ctrl
        _euler_step(x, m, a, noise[:, k], dt, sdt, b1, b2, x, t1)
        if keep:
            states[:, k + 1] = x
        if _diverged(x, t1):
            return costs, x, k
    return costs, x, -1


def forward_field_kernel(x0, u, xgrid, noise, dt, sdt, b1, b2, gain):
    """Ensemble driven by a tabulated decoupling field; returns
    (means, terminal ensemble, diverged_step).

    u(t_k, x) is interpolated linearly on ``xgrid`` with edge-slope
    extrapolation: with pos = (x - x_0)/dx and idx = clip(floor(pos), 0,
    nx - 2), w = pos - idx and u = u_k[idx]*(1 - w) + u_k[idx + 1]*w.
    The floor is clamped as a float and cast once; w subtracts that float,
    which equals idx exactly, and u_k[idx + 1] is read as u_k[1:][idx].
    """
    n_particles, n_steps = noise.shape
    nx = xgrid.shape[0]
    dx = xgrid[1] - xgrid[0]
    means = np.empty(n_steps + 1)
    x = x0.copy()
    pos = np.empty(n_particles)
    idx = np.empty(n_particles, dtype=np.int64)
    uval = np.empty(n_particles)
    t = np.empty(n_particles)
    for k in range(n_steps):
        m = _mean(x)
        means[k] = m
        np.subtract(x, xgrid[0], out=pos)
        pos /= dx
        np.floor(pos, out=t)
        # maximum(-0.0, 0.0) is +0.0, so w = pos - t keeps the sign of
        # pos - idx
        np.maximum(t, 0.0, out=t)
        np.minimum(t, nx - 2, out=t)
        np.copyto(idx, t, casting="unsafe")
        pos -= t  # the weight w
        uk = u[k]
        # uk[idx]*(1 - w) + uk[idx + 1]*w; idx is in range, so "clip"
        # only spares np.take a buffered copy
        np.take(uk, idx, out=uval, mode="clip")
        np.subtract(1.0, pos, out=t)
        uval *= t
        np.take(uk[1:], idx, out=t, mode="clip")
        t *= pos
        uval += t
        uval *= -gain  # ctrl
        _euler_step(x, m, uval, noise[:, k], dt, sdt, b1, b2, x, t)
        if _diverged(x, t):
            return means, x, k
    means[n_steps] = _mean(x)
    return means, x, -1
