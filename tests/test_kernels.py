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
    # the population kernel has one backend, numpy; only the representative
    # kernel is also compiled (tests/test_backends.py)
    states, noise, offsets = _population_inputs()
    means, div = _kernels.population_kernel(
        states, 0.1 * noise, 0.01, 0.0, 0.0, 2.0, -1.0, 0.0, offsets
    )
    assert div == -1
    assert means.shape == (51,)
    # the kernel fills the state history in place; each mean is its row's
    assert np.all(np.isfinite(states))
    assert np.array_equal(means, states.mean(axis=1))


def test_divergence_reported():
    states, noise, offsets = _population_inputs()
    states[0] += 1.0
    # explosive closed loop: dt far too large for the drift scale; at dt = 1
    # the unscaled block is its own sqrt(dt)-scaled increments
    _, div = _kernels.population_kernel(
        states, noise, 1.0, 50.0, 0.0, 2.0, 0.0, 0.0, offsets
    )
    assert div >= 0


# ---------------------------------------------------------------------------
# The population kernel against its expression form, one fresh array per
# operation, forming sdt*noise[:, k] at each step: given the block
# pre-scaled as sdt*noise, the buffered kernel must match it bitwise.  The
# other kernels' numpy references are their expression forms; the compiled
# kernels must match them bitwise (``each_backend`` runs the loaded one and
# then numpy).
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


def _population(states, noise, dt, sdt, *rest):
    """population_kernel on the block pre-scaled to sdt*noise, called with
    the reference's arguments."""
    return _kernels.population_kernel(states, sdt * noise, dt, *rest)


def _representative(x0s, mflow, off, noise, dt, *rest):
    """representative_kernel, adding to zero costs; returns (costs,
    terminal, diverged_step)."""
    costs = np.zeros(x0s.shape[0])
    return (costs, *_kernels.representative_kernel(x0s, mflow, off, noise, dt, *rest, costs))


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
    got = _population(states, noise, *args)
    ref = _ref_population(ref_states, noise.copy(), *args)
    _same(got, ref)
    assert np.array_equal(states, ref_states)


def _representative_case(n, steps, order, keep):
    x0s = np.linspace(-1.0, 2.0, n)
    mflow = 0.5 + 0.2 * np.cos(np.arange(steps + 1) / 7.0)
    off = 0.25 * np.sin(np.arange(steps) / 3.0)
    dt = 0.01
    disc = np.exp(-1.3 * dt * np.arange(steps))
    noise = np.sqrt(dt) * _noise(n, steps, order)
    states = np.empty((n, steps + 1)) if keep else np.empty((0, 0))
    return [x0s, mflow, off, noise, dt, disc,
            -0.1, 0.5, 2.0, 0.5, 2.0, 1.0, -0.9, 0.3, states, keep]


@ORDERS
@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("n", [1, 37])
def test_representative_kernel_matches_reference(order, keep, n, each_backend):
    results = []
    for _ in each_backend():
        args = _representative_case(n, 80, order, keep)
        results.append((*_representative(*args), args[14]))
        # the kernel reads its inputs and never writes them
        assert np.array_equal(args[0], np.linspace(-1.0, 2.0, n))
    _same(*results)


def _field_case(n, steps, order):
    xgrid = np.linspace(-1.0, 1.0, 21)
    u = np.cos(np.arange(steps + 1)[:, None] / 9.0) * np.sin(3.0 * xgrid)[None, :]
    # particles start both left and right of the grid, so the interpolation
    # index is clipped at 0 and at nx - 2 as well as inside
    x0 = np.linspace(-1.6, 1.7, n)
    noise = 0.1 * _noise(n, steps, order)
    return [x0, u, xgrid, noise, 0.01, -0.2, 0.5, 1.7]


@ORDERS
def test_forward_field_kernel_matches_reference(order, each_backend):
    args = _field_case(41, 70, order)
    x0, u, xgrid = args[0], args[1], args[2]
    pos = (x0 - xgrid[0]) / (xgrid[1] - xgrid[0])
    idx = np.floor(pos)
    assert idx.min() < 0 and idx.max() > xgrid.size - 2
    _same(*[_kernels.forward_field_kernel(*args) for _ in each_backend()])


def test_forward_field_interpolation_at_the_grid_edges(each_backend):
    # particles on every node (the last one included), at -0.0 and 0.0, and
    # beyond both ends, near and far, interpolate and extrapolate bit for
    # bit as the expression form does
    xgrid = np.linspace(0.0, 2.0, 21)
    u = np.cos(np.arange(31)[:, None] / 5.0) * (xgrid[None, :] - 0.7) ** 3
    x0 = np.concatenate([xgrid, [-0.0, -1e-12, 2.0 + 1e-12, -0.35, 2.35, -40.0, 55.0]])
    for noise in (np.zeros((x0.size, 30)), 0.1 * _noise(x0.size, 30, "F")):
        args = [x0, u, xgrid, noise, 0.01, -0.2, 0.5, 1.7]
        got, ref = [_kernels.forward_field_kernel(*args) for _ in each_backend()]
        assert got[2] == ref[2] == -1
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()


def test_kernels_report_nan_noise_at_its_step(each_backend):
    # a NaN in one noise entry makes that step's state non-finite; each
    # kernel must stop and report exactly that step
    step = 23
    states, noise, args = _population_case(37, 60, "F")
    noise[5, step] = np.nan
    _, div = _population(states, noise, *args)
    assert div == step

    for _ in each_backend():
        args = _representative_case(37, 80, "F", True)
        args[3][5, step] = np.nan
        _, _, div = _representative(*args)
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
    _kernels._euler_step(x, m, ctrl, sdt * g, dt, b1, b2, out, tmp)
    for j in range(2):
        row, row_tmp = np.empty(5), np.empty(5)
        _kernels._euler_step(x[j], float(m[j, 0]), ctrl[j], sdt * g, dt, b1, b2, row, row_tmp)
        assert np.array_equal(out[j], row)
        expected = x[j] + (b1 * x[j] + b2 * m[j, 0] + ctrl[j]) * dt + sdt * g
        assert np.array_equal(out[j], expected)
