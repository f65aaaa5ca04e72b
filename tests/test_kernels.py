import inspect

import numpy as np

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


def test_dispatcher_selects_backend():
    # the benchmark's tracing wraps these names and binds these parameters
    params = {
        "population_kernel": ("states", "noise", "off"),
        "representative_kernel": ("x0s", "mflow", "off", "noise", "disc",
                                  "states", "keep"),
        "forward_field_kernel": ("x0", "u", "xgrid", "noise"),
    }
    for name, names in params.items():
        kernel = getattr(_kernels, name)
        assert callable(kernel)
        assert set(names) <= set(inspect.signature(kernel).parameters)
