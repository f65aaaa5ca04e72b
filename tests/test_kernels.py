import numpy as np
import pytest

from mfglab import _kernels, rng


def _population_inputs(n=64, steps=50):
    states = np.zeros((steps + 1, n))
    states[0] = np.linspace(-1.0, 1.0, n)
    noise = rng.gaussian_block(0, rng.STREAM_POPULATION, 0, n, steps)
    offsets = np.zeros(steps)
    return states, noise, offsets


def test_backends_agree_population():
    # numpy is the only backend left
    states, noise, offsets = _population_inputs()
    means, div = _kernels.population_kernel(
        states, noise, 0.01, 0.1, 0.0, 0.0, 2.0, -1.0, 0.0, offsets
    )
    assert div == -1
    assert means.shape == (51,)
    # the kernel fills the state history in place; each mean is its row's
    assert np.all(np.isfinite(states))
    assert np.array_equal(means, states.mean(axis=1))


def test_divergence_reported():
    states, noise, offsets = _population_inputs()
    states[0] += 1.0
    # explosive closed loop: dt far too large for the drift scale
    _, div = _kernels.population_kernel(
        states, noise, 1.0, 1.0, 50.0, 0.0, 2.0, 0.0, 0.0, offsets
    )
    assert div >= 0


# ---------------------------------------------------------------------------
# Expression-form references: the kernels as plain numpy expressions, one
# fresh array per operation.  The in-place kernels must match them bitwise.
# ---------------------------------------------------------------------------


def _ref_population(states, noise, dt, sdt, b1, b2, b3, fx, fm, off):
    n_steps = noise.shape[1]
    means = np.empty(n_steps + 1)
    for k in range(n_steps):
        x = states[k]
        m = float(x.mean())
        means[k] = m
        a = fx * x + fm * m + off[k]
        states[k + 1] = x + (b1 * x + b2 * m + b3 * a) * dt + sdt * noise[:, k]
        if not np.all(np.abs(states[k + 1]) < _kernels._DIVERGE_LIMIT):
            return means, k
    means[n_steps] = float(states[n_steps].mean())
    return means, -1


def _ref_representative(x0s, mflow, off, noise, dt, sdt, disc,
                        b1, b2, b3, b4, A, C, fx, fm, states, keep):
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
        if not np.all(np.abs(x) < _kernels._DIVERGE_LIMIT):
            return costs, x, k
    return costs, x, -1


def _ref_forward_field(x0, u, xgrid, noise, dt, sdt, b1, b2, gain):
    n_particles, n_steps = noise.shape
    nx = xgrid.shape[0]
    dx = xgrid[1] - xgrid[0]
    means = np.empty(n_steps + 1)
    x = x0.copy()
    for k in range(n_steps):
        m = float(x.mean())
        means[k] = m
        pos = (x - xgrid[0]) / dx
        idx = np.clip(np.floor(pos).astype(np.int64), 0, nx - 2)
        w = pos - idx
        uk = u[k]
        uval = uk[idx] * (1.0 - w) + uk[idx + 1] * w
        x = x + (b1 * x + b2 * m - gain * uval) * dt + sdt * noise[:, k]
        if not np.all(np.abs(x) < _kernels._DIVERGE_LIMIT):
            return means, x, k
    means[n_steps] = float(x.mean())
    return means, x, -1


def _noise(n, steps, order, seed=11):
    block = rng.gaussian_block(seed, rng.STREAM_CHECKS, 0, n, steps)
    return np.asarray(block, order=order)


def _same(a, b):
    """Bitwise equality of two kernel results (arrays, floats and ints)."""
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert np.array_equal(p, q, equal_nan=True)


ORDERS = pytest.mark.parametrize("order", ["C", "F"])


def _population_case(n, steps, order):
    states = np.zeros((steps + 1, n))
    states[0] = np.linspace(-2.0, 1.5, n)
    off = 0.3 * np.sin(np.arange(steps))
    noise = _noise(n, steps, order)
    return states, noise, (0.01, 0.1, -0.3, 0.7, 1.5, -0.8, 0.4, off)


@ORDERS
def test_population_kernel_matches_reference(order):
    states, noise, args = _population_case(37, 60, order)
    ref_states = states.copy()
    got = _kernels.population_kernel(states, noise, *args)
    ref = _ref_population(ref_states, noise.copy(), *args)
    _same(got, ref)
    assert np.array_equal(states, ref_states)


def _representative_case(n, steps, order, keep):
    x0s = np.linspace(-1.0, 2.0, n)
    mflow = 0.5 + 0.2 * np.cos(np.arange(steps + 1) / 7.0)
    off = 0.25 * np.sin(np.arange(steps) / 3.0)
    dt = 0.01
    disc = np.exp(-1.3 * dt * np.arange(steps))
    noise = _noise(n, steps, order)
    states = np.empty((n, steps + 1)) if keep else np.empty((0, 0))
    return [x0s, mflow, off, noise, dt, np.sqrt(dt), disc,
            -0.1, 0.5, 2.0, 0.5, 2.0, 1.0, -0.9, 0.3, states, keep]


@ORDERS
@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("n", [1, 37])
def test_representative_kernel_matches_reference(order, keep, n):
    args = _representative_case(n, 80, order, keep)
    ref_args = list(args)
    ref_args[15] = args[15].copy()
    got = _kernels.representative_kernel(*args)
    ref = _ref_representative(*ref_args)
    _same(got, ref)
    assert np.array_equal(args[15], ref_args[15])
    # the kernel reads its inputs and never writes them
    assert np.array_equal(args[0], np.linspace(-1.0, 2.0, n))


def _field_case(n, steps, order):
    xgrid = np.linspace(-1.0, 1.0, 21)
    u = np.cos(np.arange(steps + 1)[:, None] / 9.0) * np.sin(3.0 * xgrid)[None, :]
    # particles start both left and right of the grid, so the interpolation
    # index is clipped at 0 and at nx - 2 as well as inside
    x0 = np.linspace(-1.6, 1.7, n)
    noise = _noise(n, steps, order)
    return [x0, u, xgrid, noise, 0.01, 0.1, -0.2, 0.5, 1.7]


@ORDERS
def test_forward_field_kernel_matches_reference(order):
    args = _field_case(41, 70, order)
    x0, u, xgrid = args[0], args[1], args[2]
    pos = (x0 - xgrid[0]) / (xgrid[1] - xgrid[0])
    idx = np.floor(pos)
    assert idx.min() < 0 and idx.max() > xgrid.size - 2
    got = _kernels.forward_field_kernel(*args)
    ref = _ref_forward_field(*args)
    _same(got, ref)


def test_forward_field_interpolation_at_the_grid_edges():
    # particles on every node (the last one included), at -0.0 and 0.0, and
    # beyond both ends, near and far, interpolate and extrapolate bit for
    # bit as the expression form does
    xgrid = np.linspace(0.0, 2.0, 21)
    u = np.cos(np.arange(31)[:, None] / 5.0) * (xgrid[None, :] - 0.7) ** 3
    x0 = np.concatenate([xgrid, [-0.0, -1e-12, 2.0 + 1e-12, -0.35, 2.35, -40.0, 55.0]])
    for noise in (np.zeros((x0.size, 30)), _noise(x0.size, 30, "F")):
        args = [x0, u, xgrid, noise, 0.01, 0.1, -0.2, 0.5, 1.7]
        got = _kernels.forward_field_kernel(*args)
        ref = _ref_forward_field(*args)
        assert got[2] == ref[2] == -1
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()


def test_kernels_report_nan_noise_at_its_step():
    # a NaN in one noise entry makes that step's state non-finite; each
    # kernel must stop and report exactly that step
    step = 23
    states, noise, args = _population_case(37, 60, "F")
    noise[5, step] = np.nan
    _, div = _kernels.population_kernel(states, noise, *args)
    assert div == step

    args = _representative_case(37, 80, "F", True)
    args[3][5, step] = np.nan
    _, _, div = _kernels.representative_kernel(*args)
    assert div == step

    args = _field_case(41, 70, "F")
    args[3][5, step] = np.nan
    _, _, div = _kernels.forward_field_kernel(*args)
    assert div == step


def test_euler_step_broadcasts_over_stacked_legs():
    # a (legs, paths) state with per-leg means against one noise column:
    # each leg's row is the one-leg step
    x = np.linspace(-1.0, 2.0, 10).reshape(2, 5)
    m = np.array([[0.3], [-0.7]])
    ctrl = np.cos(x)
    g = _noise(5, 1, "F")[:, 0]
    dt, sdt, b1, b2 = 0.01, 0.1, -0.3, 0.7
    out, tmp = np.empty_like(x), np.empty_like(x)
    _kernels._euler_step(x, m, ctrl, g, dt, sdt, b1, b2, out, tmp)
    for j in range(2):
        row, row_tmp = np.empty(5), np.empty(5)
        _kernels._euler_step(x[j], float(m[j, 0]), ctrl[j], g, dt, sdt, b1, b2, row, row_tmp)
        assert np.array_equal(out[j], row)
        expected = x[j] + (b1 * x[j] + b2 * m[j, 0] + ctrl[j]) * dt + sdt * g
        assert np.array_equal(out[j], expected)
