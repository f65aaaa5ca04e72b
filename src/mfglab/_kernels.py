"""Hot inner loops: particle and path time-stepping.

Each kernel steps a whole ensemble with numpy array expressions, one time
step per loop iteration.  The update expressions are evaluated in a fixed
order, so results are bitwise-reproducible.  In the representative kernel
every operation is elementwise across paths, so a path's trajectory and
cost do not depend on which other paths share the call; single-path replay
and batched replay both rely on this.

Update rule (explicit Euler-Maruyama, unit diffusion):

    a_k = fx*x + fm*m_k + off_k
    x  <- x + (b1*x + b2*m_k + b3*a_k)*dt + sqrt(dt)*g_k

with m_k the (frozen or synchronously computed) population mean.  Costs use
the left-endpoint rule with precomputed discount weights.
"""

from __future__ import annotations

import numpy as np

_DIVERGE_LIMIT = 1e12


def population_kernel(states, noise, dt, sdt, b1, b2, b3, fx, fm, off):
    """Advance the coupled ensemble in place; returns (means, diverged_step)."""
    n_steps = noise.shape[1]
    means = np.empty(n_steps + 1)
    for k in range(n_steps):
        x = states[k]
        m = float(x.mean())
        means[k] = m
        a = fx * x + fm * m + off[k]
        states[k + 1] = x + (b1 * x + b2 * m + b3 * a) * dt + sdt * noise[:, k]
        if not np.all(np.abs(states[k + 1]) < _DIVERGE_LIMIT):
            return means, k
    means[n_steps] = float(states[n_steps].mean())
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
    if keep:
        states[:, 0] = x
    for k in range(n_steps):
        m = mflow[k]
        a = fx * x + fm * m + off[k]
        f = b4 * x * m + A * x * x + C * a * a
        costs += disc[k] * f * dt
        x = x + (b1 * x + b2 * m + b3 * a) * dt + sdt * noise[:, k]
        if keep:
            states[:, k + 1] = x
        if not np.all(np.abs(x) < _DIVERGE_LIMIT):
            return costs, x, k
    return costs, x, -1


def forward_field_kernel(x0, u, xgrid, noise, dt, sdt, b1, b2, gain):
    """Ensemble driven by a tabulated decoupling field; returns
    (means, terminal ensemble, diverged_step)."""
    n_particles, n_steps = noise.shape
    nx = xgrid.shape[0]
    dx = xgrid[1] - xgrid[0]
    means = np.empty(n_steps + 1)
    x = x0.copy()
    for k in range(n_steps):
        m = float(x.mean())
        means[k] = m
        # linear interpolation with edge-slope extrapolation
        pos = (x - xgrid[0]) / dx
        idx = np.clip(np.floor(pos).astype(np.int64), 0, nx - 2)
        w = pos - idx
        uk = u[k]
        uval = uk[idx] * (1.0 - w) + uk[idx + 1] * w
        x = x + (b1 * x + b2 * m - gain * uval) * dt + sdt * noise[:, k]
        if not np.all(np.abs(x) < _DIVERGE_LIMIT):
            return means, x, k
    means[n_steps] = float(x.mean())
    return means, x, -1
