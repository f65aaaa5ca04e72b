"""Both backends: the compiled library (``_native``) and the numpy code it
falls back to give bitwise-equal results, for the representative kernel,
the Philox draw, the forward-field kernel and the backward PDE sweep; the
golden outputs hold on numpy too, and every way the library can fail to
load leaves numpy in use without a word on stderr."""

import itertools
import json
import math
import os
import re
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


def _field_results(kernel, x0, u, xgrid, noise, b2=0.5):
    """The bytes of ``kernel``'s means up to the step it stopped at, of its
    terminal ensemble, and that step."""
    means, x, step = kernel(x0, u, xgrid, noise, 0.01, -0.2, b2, 1.7)
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
    """A sweep's arguments on a random grid whose lam = dt/(2*dx*dx) is
    log-uniform on [1e-8, 1e8]: coefficients, a flow and a terminal row
    with signs that vary, the drift scaled so that the first step's CFL
    number is uniform on [0.1, 1.2] (else a large lam would stop nearly
    every sweep before its first solve)."""
    lam = 10.0 ** gen.uniform(-8.0, 8.0)
    dx = math.sqrt(dt / (2.0 * lam))
    x = dx * (np.arange(nx) - gen.uniform(0.0, nx - 1))
    b1, b2, b4, A, r, gain = gen.uniform(-2.0, 2.0, size=6)
    mflow = gen.normal(size=nt)
    terminal = gen.normal(size=nx)
    drift = np.abs(b1 * x + b2 * mflow[-1] - gain * terminal).max()
    scale = gen.uniform(0.1, 1.2) * dx / (dt * drift)
    b1, b2, gain = scale * b1, scale * b2, scale * gain
    return terminal, (mflow, x, dt, dx, b1, b2, b4, A, r, gain)


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
    # a CFL number above 1 stops a sweep; a huge b4 overflows the source to
    # inf and a NaN in the flow makes the drift NaN
    gen = np.random.default_rng(seed)
    terminal, args = _sweep_case(gen, nt, nx, dt)
    args = list(args)
    if fault == "huge source":
        args[6] = 1e305
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
    # 32-bit node indices and a sweep whose operator pivots: each goes to
    # the numpy code, whose result the call returns
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
        assert not _native._field_fits(*args, 0.01, -0.2, 0.5, 1.7)
        got = _field_results(_kernels._compiled.forward_field, *args)
        assert got == _field_results(_kernels._forward_field_numpy, *args)

    # dt < 0 makes lam < 0, whose operator LAPACK factors with row swaps
    x = np.linspace(-1.0, 1.0, 12)
    dt, dx = -0.05, float(x[1] - x[0])
    lam = dt / (2.0 * dx * dx)
    off = np.full(9, -lam)
    assert not np.array_equal(dgttrf(off, np.full(10, 1.0 + 2.0 * lam), off)[4],
                              np.arange(1, 11))
    args = (np.linspace(0.5, 0.2, 9), x, dt, dx, 0.3, -0.4, 0.2, 0.5, 0.9, 1.3)
    assert not _native._sweep_fits(np.zeros((9, 12)), *args)
    got = _sweep_results(_kernels._compiled.backward_sweep, np.cos(x), args)
    assert got == _sweep_results(_kernels._backward_sweep_numpy, np.cos(x), args)


def _caught(run):
    """``run()``, or the type of the exception it raised."""
    try:
        return run()
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e)


def _on_each_backend(each_backend, run):
    """``_caught(run)`` on the loaded backend and then on numpy."""
    return [_caught(run) for _ in each_backend()]


def test_kernel_takes_no_states_without_keep(each_backend):
    # with keep false the kernel never reads ``states``, so None is taken
    # on both backends, as the numpy kernel takes it
    n, steps = 6, 4
    x0s, flow = np.linspace(-1.0, 1.0, n), np.linspace(0.5, 0.2, steps)
    noise = np.asfortranarray(0.1 * np.cos(np.arange(n * steps).reshape(n, steps)))
    coefs = (0.01, np.ones(steps), -0.1, 0.5, 2.0, 0.3, 2.0, 1.0, -0.9, 0.35)

    def run():
        costs = np.zeros(n)
        x, step = _kernels.representative_kernel(x0s, flow, flow, noise, *coefs, None, False,
                                                 costs)
        return x.tobytes(), step, costs.tobytes()

    got, ref = _on_each_backend(each_backend, run)
    assert got == ref and ref[1] == -1


@pytest.mark.parametrize("k0", [-1, 2**64, 7.0, np.uint64(7)],
                         ids=["negative", "2^64", "float", "numpy uint64"])
def test_draw_takes_the_keys_numpy_takes(k0, each_backend):
    # a key word outside 64 bits raises numpy's OverflowError on both
    # backends, and a float or numpy integer key draws numpy's uniforms
    got, ref = _on_each_backend(
        each_backend, lambda: _kernels.uniforms(k0, 3, 1, np.empty((5, 6), order="F")).tobytes())
    assert got == ref
    assert (ref is OverflowError) == (not 0 <= k0 < 2**64)


def test_forward_field_multiplies_a_float32_b2_in_double(each_backend):
    # b2 times the mean is a double product on both backends, whatever
    # the type of b2
    gen = np.random.default_rng(2)
    xgrid = np.linspace(-1.0, 1.0, 7)
    u, x0 = gen.normal(size=(4, 7)), gen.normal(size=9)
    noise = np.asfortranarray(0.1 * gen.normal(size=(9, 4)))
    got, ref = _on_each_backend(each_backend, lambda: _field_results(
        _kernels.forward_field_kernel, x0, u, xgrid, noise, b2=np.float32(0.3)))
    assert got == ref


def test_forward_field_negates_an_integer_gain_as_numpy_does(each_backend):
    # -0 is the integer 0, so the control u*(-gain) of an integer gain of 0
    # is +0.0 on both backends, and the signed zeros below keep their signs
    xgrid = np.linspace(-1.0, 1.0, 5)
    got, ref = _on_each_backend(each_backend, lambda: _kernels.forward_field_kernel(
        np.array([-0.0]), np.zeros((2, 5)), xgrid, np.array([[-0.0]]), 0.01, 0.5, -0.0,
        0)[1].tobytes())
    assert got == ref == np.array([0.0]).tobytes()


@pytest.mark.parametrize("case", ["four nodes", "three nodes"])
def test_sweep_takes_the_factorisations_lapack_takes(case, each_backend):
    # LAPACK's factorisation refuses fewer than three unknowns: the sweep
    # raises its ValueError on both backends
    nx = {"four nodes": 4, "three nodes": 3}[case]
    x = np.linspace(-1.0, 1.0, nx)
    args = (np.zeros(3), x, 1e-3, float(x[1] - x[0]), 0.3, -0.4, 0.2, 0.5, 0.9, 1.3)
    got, ref = _on_each_backend(each_backend, lambda: _sweep_results(
        _kernels.backward_sweep, x, args))
    assert got == ref == ValueError


def test_sweep_with_an_overflowing_lam_gives_numpys_bytes(each_backend):
    # dt/(2*dx*dx) overflows to inf, and LAPACK's factors of that operator
    # are NaN; with no drift the CFL bound passes, so the first solve runs
    # and stops the sweep: numpy's bytes and step on both backends
    x = 1e-160 * np.arange(9)
    args = (np.linspace(0.6, -0.6, 7), x, 1.0, 1e-160, 0.0, 0.0, 0.2, 0.5, 0.9, 0.0)
    got, ref = _on_each_backend(each_backend, lambda: _sweep_results(
        _kernels.backward_sweep, np.cos(x), args))
    assert got == ref and ref[1] == 5


def _resized(a, axis, n):
    """``a`` cut or grown (its last entry repeated) to ``n`` entries along
    ``axis``, in ``a``'s layout."""
    picked = np.take(a, np.minimum(np.arange(n), a.shape[axis] - 1), axis=axis)
    return np.asfortranarray(picked) if not a.flags.c_contiguous else picked


@np.errstate(all="ignore")
def _variants(a, axis, spot):
    """(name, value) for each variant of one argument that a numpy
    reference may be given, ``axis`` and ``spot`` choosing where an array
    is resized and which entry is made NaN or infinite."""
    if isinstance(a, (bool, np.bool_)):
        return [("flipped", not a), ("None", None)]
    if isinstance(a, int):
        return [("negative", -1 - a), ("past 2^64", a + 2**64), ("float", float(a)),
                ("numpy uint64", np.uint64(a % 2**64))]
    if not isinstance(a, np.ndarray):
        return [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                ("float32", np.float32(a)), ("int", int(a))]
    axis %= a.ndim
    strided = np.zeros((*a.shape, 2), dtype=a.dtype)[..., 0]
    strided[...] = a
    read_only = a.copy(order="K")
    read_only.flags.writeable = False
    out = [("zero-size", _resized(a, axis, 0)), ("read-only", read_only),
           ("strided", strided), ("C order", np.ascontiguousarray(a)),
           ("Fortran order", np.asfortranarray(a)), ("float32", a.astype(np.float32)),
           ("int64", a.astype(np.int64)), ("float64", a.astype(np.float64)),
           ("one short", _resized(a, axis, a.shape[axis] - 1)),
           ("one long", _resized(a, axis, a.shape[axis] + 1)), ("None", None)]
    for name, v in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        b = a.copy(order="K")
        b.flat[spot % b.size] = v
        out.append((name, b))
    return out


@compiled
@pytest.mark.parametrize("name", _native.Library._fields)
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_compiled_functions_keep_the_numpy_contract(name, data):
    # every variant of every argument of a self-check case, the case's
    # flags flipped or not: the compiled function gives the numpy
    # reference's bytes and step, or raises the same exception type
    row = getattr(_native._FUNCTIONS, name)
    fn, reference = getattr(_kernels._compiled, name), getattr(_kernels._REFERENCES, name)
    case = data.draw(st.integers(0, len(list(row.cases())) - 1))
    flip = data.draw(st.booleans())
    axis, spot = data.draw(st.sampled_from([0, -1])), data.draw(st.integers(0, 10**6))

    def variant(k, v):
        """Fresh arguments of the case, argument ``k`` set to its variant ``v``."""
        args = [not a if isinstance(a, bool) and flip else a
                for a in next(itertools.islice(row.cases(), case, None))]
        label, args[k] = _variants(args[k], axis, spot)[v]
        return label, tuple(args)

    for k, value in enumerate(next(itertools.islice(row.cases(), case, None))):
        for v in range(len(_variants(value, axis, spot))):
            label, mine = variant(k, v)
            theirs = variant(k, v)[1]
            got = _caught(lambda: _native._outcome(fn, mine, row.outputs))
            ref = _caught(lambda: _native._outcome(reference, theirs, row.outputs))
            assert got == ref, (row.symbol, k, label)


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

# the function each mismatch case replaces, one case per compiled function
_MISMATCHES = {f"{name.replace('_', '-')} self-check mismatch": row.symbol
               for name, row in _native._FUNCTIONS._asdict().items()}


def test_each_c_function_has_one_table_row():
    # every function the C source exports is bound by exactly one row,
    # every row binds one, and each has a wrong twin for its mismatch case
    defined = re.findall(r"^\w+ (mfglab_\w+)\(", _native._SOURCE, flags=re.MULTILINE)
    symbols = [row.symbol for row in _native._FUNCTIONS]
    assert sorted(defined) == sorted(set(defined)) == sorted(symbols) == sorted(_WRONG)


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
    references = (_kernels._REFERENCES, _kernels._DIVERGE_LIMIT)
    if _native.load(*references) is None:
        pytest.skip("the compiled kernel did not build here")
    path = _native.library_path()
    assert os.path.dirname(path) == str(tmp_path / "mfglab")
    assert os.listdir(tmp_path / "mfglab") == [os.path.basename(path)]
    stamp = os.stat(path).st_mtime_ns
    assert _native.load(*references) is not None
    assert os.stat(path).st_mtime_ns == stamp


def test_a_relative_cache_home_is_ignored(tmp_path, monkeypatch):
    # the XDG Base Directory spec makes a relative XDG_CACHE_HOME invalid,
    # so the library is cached in ~/.cache rather than not at all
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert os.path.dirname(_native.library_path()) == str(tmp_path / ".cache" / "mfglab")
