"""Both backends: the compiled library (``_native``) and the numpy code it
falls back to give bitwise-equal results, for the representative kernel,
the Philox draw, the forward-field kernel and the backward PDE sweep; the
golden outputs hold on numpy too, and every way the library can fail to
load leaves numpy in use without a word on stderr."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import test_golden
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgttrf

import mfglab
from mfglab import (EXAMPLE_MODEL, INSTANCE_B, MeanFlow, _kernels, _native,
                    backward_field_solve, rng, solve_selected)
from mfglab.cli import EXIT_OK, main
from mfglab.errors import DivergedError, StepTooLargeError
from mfglab.fixed_point import space_grid
from mfglab.model import LQModel
from mfglab.simulate import InitialLaw
from mfglab.verify import flow_consistency

SRC = os.path.dirname(os.path.dirname(mfglab.__file__))

compiled = pytest.mark.skipif(_kernels._compiled is None,
                              reason="the compiled library did not load")

coefficient = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False))


def _band_calls(kernel, x0s, mflow, off, noise, dt, disc, coefs, keep, cuts):
    """``kernel`` over the bands [cuts[i], cuts[i+1]) in order, as
    ``simulate_legs`` calls it: paths 1..n of a wider state history (a
    strided slice per band when ``keep``), the terminal states and the
    costs carried into the next band.  Returns the bytes of each call's
    terminal states and step, of the costs and of the history."""
    n, steps = noise.shape
    states = np.zeros((n + 1, steps + 1)) if keep else np.empty((0, 0))
    costs = np.zeros(n + 1)
    x, out = x0s, []
    for k0, k1 in zip(cuts, cuts[1:]):
        band_states = states[1:, k0:k1 + 1] if keep else states
        x, step = kernel(x, mflow[k0:k1], off[k0:k1], noise[:, k0:k1], dt, disc[k0:k1],
                         *coefs, band_states, keep, costs[1:])
        out += [x.tobytes(), step]
        if step >= 0:
            break
    return out + [costs.tobytes(), states.tobytes()]


@compiled
@given(
    n=st.sampled_from([1, 3, 4097]),
    steps=st.integers(1, 12),
    cut=st.integers(0, 12),
    keep=st.booleans(),
    coefs=st.tuples(*[coefficient] * 8),
    seed=st.integers(0, 2**32 - 1),
    fault=st.sampled_from([None, "huge increment", "nan start"]),
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_compiled_kernel_matches_numpy_bitwise(n, steps, cut, keep, coefs, seed, fault):
    gen = np.random.default_rng(seed)
    dt = 0.01
    x0s = gen.normal(size=n)
    mflow = gen.normal(size=steps)
    off = gen.normal(size=steps)
    disc = np.exp(-0.9 * dt * np.arange(steps))
    noise = np.asfortranarray(0.1 * gen.normal(size=(n, steps)))
    if fault == "huge increment":
        noise[gen.integers(n), gen.integers(steps)] = 1e300
    elif fault == "nan start":
        x0s[gen.integers(n)] = np.nan
    cuts = sorted({0, min(cut, steps), steps})
    args = (x0s, mflow, off, noise, dt, disc, coefs, keep, cuts)
    got = _band_calls(_kernels._compiled.representative, *args)
    ref = _band_calls(_kernels._representative_numpy, *args)
    assert got == ref
    if fault is not None:
        assert got[-3] >= 0  # the run diverged, at the same step


@compiled
def test_arguments_the_compiled_kernel_does_not_take_run_on_numpy():
    # strided costs, a float32 history and a short costs array: the
    # compiled kernel hands them to the numpy kernel, which gives the same
    # results or raises the same error
    n, steps = 6, 4
    x0s, flow = np.linspace(-1.0, 1.0, n), np.linspace(0.5, 0.2, steps)
    noise = np.asfortranarray(0.1 * np.cos(np.arange(n * steps).reshape(n, steps)))
    coefs = (0.01, np.ones(steps), -0.1, 0.5, 2.0, 0.3, 2.0, 1.0, -0.9, 0.35)
    for make in (lambda: (np.empty((0, 0)), np.zeros(2 * n)[::2]),
                 lambda: (np.zeros((n, steps + 1), dtype=np.float32), np.zeros(n))):
        results = []
        for kernel in (_kernels._compiled.representative, _kernels._representative_numpy):
            states, costs = make()
            x, step = kernel(x0s, flow, flow, noise, *coefs, states, states.size > 0, costs)
            results.append([x.tobytes(), step, states.tobytes(), costs.tobytes()])
        assert results[0] == results[1]
    with pytest.raises(ValueError):
        _kernels._compiled.representative(x0s, flow, flow, noise, *coefs, np.empty((0, 0)),
                                          False, np.zeros(n - 1))


@compiled
@given(
    seed=st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    stream=st.sampled_from([rng.STREAM_PATHS, rng.STREAM_INITIAL, rng.STREAM_POPULATION,
                            rng.STREAM_CHECKS]),
    first_index=st.one_of(st.integers(0, 2**40), st.integers(2**64 - 5000, 2**64 - 1)),
    n_rows=st.sampled_from([1, 63, 64, 65, 4097]),
    n_cols=st.one_of(st.integers(1, 12), st.just(125)),
    counter=st.integers(0, 250),
    skip=st.integers(0, 3),
    into_out=st.booleans(),
)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_compiled_draw_matches_numpy_bitwise(seed, stream, first_index, n_rows, n_cols,
                                             counter, skip, into_out):
    # rows past 2^64 - 1 wrap to index 0, as the numpy draw's keys do
    args = (seed, stream, first_index, n_rows, n_cols, 4 * counter + skip)
    out = np.empty((n_rows, n_cols), order="F") if into_out else None
    got = rng.gaussian_block(*args, out=out)
    assert got is out or not into_out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_compiled", None)
        ref = rng.gaussian_block(*args)
    assert got.flags.f_contiguous
    assert got.tobytes() == ref.tobytes()


def _field_results(kernel, x0, u, xgrid, noise):
    """The bytes of ``kernel``'s means up to the step it stopped at, of its
    terminal ensemble, and that step."""
    means, x, step = kernel(x0, u, xgrid, noise, 0.01, -0.2, 0.5, 1.7)
    last = step if step >= 0 else noise.shape[1]
    return means[:last + 1].tobytes(), x.tobytes(), step


@compiled
@given(
    n=st.sampled_from([1, 7, 8, 9, 128, 129, 5000, 10001]),
    steps=st.integers(0, 8),
    spread=st.sampled_from([0.5, 3.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    fault=st.sampled_from([None, "huge increment", "nan start"]),
)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_compiled_forward_field_matches_numpy_bitwise(n, steps, spread, seed, fault):
    # the widths run every branch of numpy's pairwise sum, 10001 past its
    # 8192-element buffer; the particles start left of the grid, right of
    # it, on its nodes and at -0.0
    gen = np.random.default_rng(seed)
    xgrid = np.linspace(-1.0, 1.5, 11)
    u = gen.normal(size=(steps + 1, xgrid.size))
    x0 = spread * gen.normal(size=n)
    x0[gen.integers(n, size=min(n, 4))] = xgrid[gen.integers(xgrid.size, size=min(n, 4))]
    x0[gen.integers(n)] = -0.0
    noise = np.asfortranarray(0.1 * gen.normal(size=(n, steps)))
    if fault == "huge increment" and steps:
        noise[gen.integers(n), gen.integers(steps)] = 1e300
    elif fault == "nan start":
        x0[gen.integers(n)] = np.nan
    got = _field_results(_kernels._compiled.forward_field, x0, u, xgrid, noise)
    ref = _field_results(_kernels._forward_field_numpy, x0, u, xgrid, noise)
    assert got == ref
    if fault is not None and steps:
        assert got[2] >= 0  # the run diverged, at the same step


def _sweep_case(gen, nt, nx, dt):
    """A sweep's arguments on a random grid: coefficients, a flow and a
    terminal row with signs that vary, and the factorisation
    ``backward_field_solve`` makes."""
    x = gen.uniform(-3.0, 0.0) + gen.uniform(0.05, 0.5) * np.arange(nx)
    dx = float(x[1] - x[0])
    lam = dt / (2.0 * dx * dx)
    off = np.full(nx - 3, -lam)
    *lu, info = dgttrf(off, np.full(nx - 2, 1.0 + 2.0 * lam), off)
    assert info == 0
    b1, b2, b4, A, r, gain = gen.uniform(-2.0, 2.0, size=6)
    mflow = gen.normal(size=nt)
    terminal = gen.normal(size=nx)
    return terminal, (mflow, x, dt, dx, lam, b1, b2, b4, A, r, gain, lu)


def _sweep_results(sweep, terminal, args):
    u = np.zeros((args[0].size, terminal.size))
    u[-1] = terminal
    step, cfl = sweep(u, *args)
    return u.tobytes(), step, repr(float(cfl))


@compiled
@given(
    nt=st.integers(1, 12),
    nx=st.sampled_from([5, 6, 17, 161]),
    dt=st.sampled_from([1e-4, 1e-3, 0.02, 0.5]),
    seed=st.integers(0, 2**32 - 1),
    fault=st.sampled_from([None, "huge source", "nan flow"]),
)
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_compiled_sweep_matches_numpy_bitwise(nt, nx, dt, seed, fault):
    # dt = 0.5 stops most sweeps on the CFL bound; a huge b4 overflows the
    # source to inf and a NaN in the flow makes the drift NaN
    gen = np.random.default_rng(seed)
    terminal, args = _sweep_case(gen, nt, nx, dt)
    args = list(args)
    if fault == "huge source":
        args[7] = 1e305
        args[0] = args[0] * 1e4
    elif fault == "nan flow":
        args[0][gen.integers(nt)] = np.nan
    got = _sweep_results(_kernels._compiled.backward_sweep, terminal, args)
    ref = _sweep_results(_kernels._backward_sweep_numpy, terminal, args)
    assert got == ref


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_sweep_stops_report_the_same_step_and_ratio(backend, monkeypatch):
    # a sweep stopped part-way reports the numpy code's step and CFL
    # message on both backends: a flow that grows backwards in time, and
    # an overflowing source from step 9 down
    if backend == "numpy":
        monkeypatch.setattr(_kernels, "_compiled", None)
    elif _kernels._compiled is None:
        pytest.skip("the compiled library did not load")
    grid = space_grid(-4.0, 4.0, 0.05)
    times = 0.01 * np.arange(41)
    with pytest.raises(StepTooLargeError) as info:
        backward_field_solve(INSTANCE_B, MeanFlow(times, np.linspace(12.0, 0.0, 41)), grid,
                             lambda x: 0.1 * x)
    assert str(info.value) == "advection CFL violated at step 29: max|g|*dt/dx = 1.07 > 1"
    model = LQModel(r=1, b1=0, b2=0, b3=1, b4=1e305, A=1, C=1)
    with pytest.raises(DivergedError) as info:
        backward_field_solve(model, MeanFlow(times, np.r_[np.full(11, 1e4), np.zeros(30)]),
                             grid, lambda x: 0.1 * x)
    assert info.value.step == 9


@compiled
def test_arguments_the_compiled_loops_do_not_take_run_on_numpy():
    # float32 particles, a non-contiguous field, a grid too large for
    # 32-bit node indices and a pivoting factorisation: each goes to the
    # numpy code, whose result the call returns
    gen = np.random.default_rng(4)
    xgrid = np.linspace(-1.0, 1.0, 9)
    u = gen.normal(size=(6, 9))
    x0 = np.linspace(-1.2, 1.3, 40)
    noise = np.asfortranarray(0.1 * gen.normal(size=(40, 5)))
    # a 2^31 + 2 node grid over two doubles: with one step from the first
    # cell, numpy reads u[0, :2], xgrid[:2] and the length only
    cell = np.array([0.0, 1.0])
    huge = 2**31 + 2
    big_grid = np.lib.stride_tricks.as_strided(cell, shape=(huge,), strides=(8,),
                                               writeable=False)
    big_u = np.lib.stride_tricks.as_strided(cell, shape=(1, huge), strides=(8 * huge, 8),
                                            writeable=False)
    for args in ((x0.astype(np.float32), u, xgrid, noise),
                 (x0, np.asfortranarray(u), xgrid, noise),
                 (np.linspace(0.1, 0.9, 7), big_u, big_grid, np.zeros((7, 1), order="F"))):
        assert not _native._field_fits(*args)
        got = _field_results(_kernels._compiled.forward_field, *args)
        assert got == _field_results(_kernels._forward_field_numpy, *args)

    terminal, args = _sweep_case(gen, 9, 12, 1e-3)
    off = np.full(9, 5.0)
    *lu, info = dgttrf(off, np.full(10, 1.0), off)
    assert info == 0 and not np.array_equal(lu[4], np.arange(1, 11))
    args = (*args[:-1], lu)
    assert not _native._sweep_fits(np.zeros((9, 12)), args[0], args[1], lu)
    got = _sweep_results(_kernels._compiled.backward_sweep, terminal, args)
    assert got == _sweep_results(_kernels._backward_sweep_numpy, terminal, args)


@pytest.mark.parametrize("name", sorted(test_golden.CASES))
def test_golden_outputs_on_numpy(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_kernels, "_compiled", None)
    test_golden.test_cli_outputs_match_golden_digests(name, tmp_path, capsys)


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_flow_consistency_is_exact_on_both_backends(backend, monkeypatch):
    # the population kernel is numpy's on both: on "compiled" the identity
    # checks the compiled representative kernel against it
    if backend == "numpy":
        monkeypatch.setattr(_kernels, "_compiled", None)
    elif _kernels._compiled is None:
        pytest.skip("the compiled kernel did not load")
    for model in (EXAMPLE_MODEL, INSTANCE_B):
        dev = flow_consistency(model, solve_selected(model), InitialLaw.gaussian(0.5, 1.0),
                               N=300, seed=5, T=1.0, dt=0.002)
        assert dev == 0.0


# run in a fresh interpreter: report the backend, then run each command
# line of the JSON list in the first argument
_FRESH = """
import json, sys
from mfglab import _kernels
from mfglab.cli import main
print(_kernels.BACKEND)
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""

# kernels and a sweep that compute nothing, and a draw of nothing but one
# half; each replaces its symbol in a library that is otherwise the real one
_WRONG = {
    "mfglab_representative": "int64_t mfglab_representative(void) { return -1; }",
    "mfglab_uniforms": """
void mfglab_uniforms(int64_t n_rows, int64_t n_cols, uint64_t k0, uint64_t first_index,
                     uint64_t counter, int64_t skip, double *out)
{
    for (int64_t i = 0; i < n_rows * n_cols; i++)
        out[i] = 0.5;
}""",
    "mfglab_forward_field": "int64_t mfglab_forward_field(void) { return -1; }",
    "mfglab_backward_sweep": "int64_t mfglab_backward_sweep(void) { return -1; }",
}

# the function each mismatch case replaces
_MISMATCHES = {
    "self-check mismatch": "mfglab_representative",
    "draw self-check mismatch": "mfglab_uniforms",
    "forward-field self-check mismatch": "mfglab_forward_field",
    "sweep self-check mismatch": "mfglab_backward_sweep",
}

# a small fixed-point run: the golden workload on fewer particles and a
# shorter horizon
_FIXED_POINT = (test_golden.FIXED_POINT.replace("sim.nParticles = 5000", "sim.nParticles = 300")
                .replace("sim.T = 1.0", "sim.T = 0.4"))


def _break(case, cache, monkeypatch):
    """Set up ``case`` with ``cache`` as the cache directory; returns the
    environment for a fresh interpreter."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    if case == "no compiler":
        monkeypatch.setenv("PATH", str(cache))
    elif case == "unwritable cache":
        cache.write_text("a file, not a directory\n")
    else:
        path = _native.library_path()
        os.makedirs(os.path.dirname(path))
        if case == "garbage library":
            with open(path, "wb") as fh:
                fh.write(b"\x7fELF and then nothing a loader wants")
        else:  # a library that loads, with one function wrong
            if shutil.which("cc") is None:
                pytest.skip("no C compiler to build the library with")
            symbol = _MISMATCHES[case]
            source = (f"#define {symbol} {symbol}_unused\n{_native._SOURCE}\n"
                      f"#undef {symbol}\n{_WRONG[symbol]}\n")
            subprocess.run(["cc", "-shared", "-fPIC", "-x", "c", "-", "-o", path],
                           input=source.encode(), check=True, timeout=120)
    return {**os.environ, "PYTHONPATH": SRC}


@pytest.mark.parametrize("case", ["no compiler", "unwritable cache", "garbage library",
                                  *_MISMATCHES])
def test_failed_loads_fall_back_to_numpy_silently(case, tmp_path, capsys, monkeypatch):
    (tmp_path / "run.cfg").write_text(test_golden.CLI_BASE)
    (tmp_path / "fixed.cfg").write_text(_FIXED_POINT)
    commands = {"verify": ["verify", "--config", str(tmp_path / "run.cfg"),
                           "--checks", "nash,gateaux,consistency"],
                "fixed-point": ["fixed-point", "--config", str(tmp_path / "fixed.cfg")]}
    for name, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / "ref" / name)]) == EXIT_OK
    capsys.readouterr()

    env = _break(case, tmp_path / "cache", monkeypatch)
    argvs = [[*argv, "--out", str(tmp_path / "out" / name)] for name, argv in commands.items()]
    proc = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.splitlines()[0] == "numpy"
    for name in commands:
        ref = sorted((tmp_path / "ref" / name).iterdir())
        out = tmp_path / "out" / name
        assert [p.name for p in ref] == sorted(p.name for p in out.iterdir())
        for p in ref:
            assert (out / p.name).read_bytes() == p.read_bytes(), (name, p.name)


def test_load_builds_once_and_reuses_the_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    references = (_native.Library(_kernels._representative_numpy, _kernels._uniforms_numpy,
                                  _kernels._forward_field_numpy,
                                  _kernels._backward_sweep_numpy),
                  _kernels._DIVERGE_LIMIT)
    if _native.load(*references) is None:
        pytest.skip("the compiled kernel did not build here")
    path = _native.library_path()
    assert os.path.dirname(path) == str(tmp_path / "mfglab")
    assert os.listdir(tmp_path / "mfglab") == [os.path.basename(path)]
    stamp = os.stat(path).st_mtime_ns
    assert _native.load(*references) is not None
    assert os.stat(path).st_mtime_ns == stamp
