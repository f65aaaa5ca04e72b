import pytest

from mfglab import EXAMPLE_MODEL, INSTANCE_B, _kernels, solve_root_system, solve_selected


@pytest.fixture(scope="session")
def example_model():
    return EXAMPLE_MODEL


@pytest.fixture(scope="session")
def instance_b():
    return INSTANCE_B


@pytest.fixture(scope="session")
def example_roots(example_model):
    return solve_root_system(example_model)


@pytest.fixture(scope="session")
def example_selected(example_model):
    return solve_selected(example_model)


@pytest.fixture(scope="session")
def instance_b_selected(instance_b):
    return solve_selected(instance_b)


@pytest.fixture
def draw_log(tmp_path, monkeypatch):
    """A spy on ``rng.gaussian_block`` that sees the draws of a forked noise
    worker too: each call appends a line to a file, which the worker
    inherits.  Returns a function giving the calls so far, as tuples
    (stream, first_index, n_rows, first_col, n_cols, into_out), in order."""
    from mfglab import rng

    log = tmp_path / "draws.log"
    log.touch()
    real = rng.gaussian_block

    def spy(seed, stream, first_index, n_rows, n_cols, first_col=0, out=None):
        with open(log, "a") as fh:
            fh.write(f"{stream} {first_index} {n_rows} {first_col} {n_cols} "
                     f"{int(out is not None)}\n")
        return real(seed, stream, first_index, n_rows, n_cols, first_col, out=out)

    monkeypatch.setattr(rng, "gaussian_block", spy)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


@pytest.fixture
def live_noise_peak(monkeypatch):
    """``live_noise_peak(fn, *args, **kwargs)`` calls ``fn`` and returns the
    peak bytes it held across its own process and a noise worker's, and the
    byte size of each shared mmap ``simulate`` mapped for a worker's two
    slots.  tracemalloc sees neither the slots nor the worker, so the traced
    peak restarts whenever slots are mapped, and each part of the run from
    there on is charged the traced peak plus its slots' bytes."""
    import tracemalloc

    from mfglab import simulate

    def measure(fn, *args, **kwargs):
        peaks, slots = [], []
        real = simulate.mmap.mmap

        def spy(fileno, length, *a, **kw):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            slots.append(length)
            return real(fileno, length, *a, **kw)

        with monkeypatch.context() as m:
            m.setattr(simulate.mmap, "mmap", spy)
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return max(p + s for p, s in zip(peaks, [0] + slots)), slots

    return measure


@pytest.fixture
def each_backend(monkeypatch):
    """A loop over the backends: ``for backend in each_backend():`` runs
    the body on the loaded one (``_kernels.BACKEND``), then on numpy, with
    ``_kernels._compiled`` set to None until the test ends."""
    def backends():
        yield _kernels.BACKEND
        monkeypatch.setattr(_kernels, "_compiled", None)
        yield "numpy"
    return backends
