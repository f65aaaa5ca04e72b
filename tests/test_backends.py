"""Both backends: the compiled library (``_native``) and the numpy code it
falls back to give bitwise-equal results, for the representative kernel
and for the Philox draw; the golden outputs hold on numpy too, and every
way the library can fail to load leaves numpy in use without a word on
stderr."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import test_golden
from hypothesis import given, settings
from hypothesis import strategies as st

import mfglab
from mfglab import EXAMPLE_MODEL, INSTANCE_B, _kernels, _native, rng, solve_selected
from mfglab.cli import EXIT_OK, main
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


# run in a fresh interpreter: report the backend, then verify
_FRESH = """
import sys
from mfglab import _kernels
from mfglab.cli import main
print(_kernels.BACKEND)
sys.exit(main(sys.argv[1:]))
"""

# a kernel that computes nothing, and a draw of nothing but one half; each
# replaces its symbol in a library that is otherwise the real one
_WRONG = {
    "mfglab_representative": "int64_t mfglab_representative(void) { return -1; }",
    "mfglab_uniforms": """
void mfglab_uniforms(int64_t n_rows, int64_t n_cols, uint64_t k0, uint64_t first_index,
                     uint64_t counter, int64_t skip, double *out)
{
    for (int64_t i = 0; i < n_rows * n_cols; i++)
        out[i] = 0.5;
}""",
}


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
            symbol = "mfglab_uniforms" if case == "draw self-check mismatch" \
                else "mfglab_representative"
            source = (f"#define {symbol} {symbol}_unused\n{_native._SOURCE}\n"
                      f"#undef {symbol}\n{_WRONG[symbol]}\n")
            subprocess.run(["cc", "-shared", "-fPIC", "-x", "c", "-", "-o", path],
                           input=source.encode(), check=True, timeout=120)
    return {**os.environ, "PYTHONPATH": SRC}


@pytest.mark.parametrize("case", ["no compiler", "unwritable cache", "garbage library",
                                  "self-check mismatch", "draw self-check mismatch"])
def test_failed_loads_fall_back_to_numpy_silently(case, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(test_golden.CLI_BASE)
    argv = ["verify", "--config", str(cfg), "--checks", "nash,gateaux,consistency"]
    assert main([*argv, "--out", str(tmp_path / "ref")]) == EXIT_OK
    capsys.readouterr()

    env = _break(case, tmp_path / "cache", monkeypatch)
    proc = subprocess.run([sys.executable, "-c", _FRESH, *argv, "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.splitlines()[0] == "numpy"
    ref = sorted((tmp_path / "ref").iterdir())
    assert [p.name for p in ref] == sorted(p.name for p in (tmp_path / "out").iterdir())
    for p in ref:
        assert (tmp_path / "out" / p.name).read_bytes() == p.read_bytes(), p.name


def test_load_builds_once_and_reuses_the_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    references = (_kernels._representative_numpy, _kernels._uniforms_numpy,
                  _kernels._DIVERGE_LIMIT)
    if _native.load(*references) is None:
        pytest.skip("the compiled kernel did not build here")
    path = _native.library_path()
    assert os.path.dirname(path) == str(tmp_path / "mfglab")
    assert os.listdir(tmp_path / "mfglab") == [os.path.basename(path)]
    stamp = os.stat(path).st_mtime_ns
    assert _native.load(*references) is not None
    assert os.stat(path).st_mtime_ns == stamp
