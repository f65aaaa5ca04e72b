"""The compiled library: the representative-path kernel and the Philox draw
in C, each bitwise equal to its numpy reference.

``_SOURCE`` holds both functions; they are built, cached, loaded and checked
together, and used only together.

- ``mfglab_representative`` is ``_kernels._representative_numpy`` written as
  a C loop, steps on the outside and paths on the inside.  Each step makes
  three passes over the paths: the update, with exactly the numpy kernel's
  operations in its order, so every IEEE result is the same; the kept
  states' column; and the divergence check.  The update has no branch, so
  the compiler vectorises it at the baseline instruction set.
- ``mfglab_uniforms`` is ``_kernels._uniforms_numpy``: Philox4x64-10 (Salmon
  et al., SC'11) as numpy's ``Philox`` computes it, its counter incremented
  before each block of four words and each word made a double as numpy's
  ``random()`` does, ``(w >> 11) * 2**-53``, which is exact.  It writes
  straight into a Fortran-order block, eight rows at a time, so eight
  independent rounds overlap and each column's writes share cache lines.
  Clipping and the inverse CDF stay numpy and scipy (``rng``).

The library is built with ``cc -O3 -ffp-contract=off -fPIC -shared``:
contraction is off because a fused multiply-add rounds once where numpy
rounds twice, and there is no ``-march`` or fast-math, which could change
results or the machines the library runs on.  It is cached as
``kernels-<digest>.so`` in ``${XDG_CACHE_HOME:-~/.cache}/mfglab``, the
digest covering the source, the flags and the platform, so it is built once
per key; a build is written to a temporary file and renamed into place, so
processes building at once leave one whole library.  Before it is used, two
self-checks must pass bit for bit: the kernel against the numpy kernel on
one small band with keep on and on a forced divergence, and the draw
against numpy's Philox on keys and indices at the top of their words and
every band offset.  Any failure (no compiler, an unwritable cache, a
library that will not load or lacks a symbol, a self-check mismatch) leaves
numpy in use for both, silently.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from typing import Callable, NamedTuple

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

int64_t mfglab_representative(
    int64_t n, int64_t steps, double *x, const double *mflow,
    const double *off, const double *noise, int64_t noise_col,
    double dt, const double *disc, double b1, double b2, double b3,
    double b4, double A, double C, double fx, double fm,
    double *states, int64_t s_row, int64_t s_col, int32_t keep,
    double *costs, double limit)
{
    if (keep)
        for (int64_t i = 0; i < n; i++)
            states[i * s_row] = x[i];
    for (int64_t k = 0; k < steps; k++) {
        const double m = mflow[k], fmm = fm * m, b2m = b2 * m;
        const double o = off[k], d = disc[k];
        const double *dw = noise + k * noise_col;
        for (int64_t i = 0; i < n; i++) {
            const double xi = x[i];
            double a = xi * fx;
            a += fmm;
            a += o;
            double t1 = xi * b4;
            t1 *= m;
            double t2 = xi * A;
            t2 *= xi;
            t1 += t2;
            t2 = a * C;
            t2 *= a;
            t1 += t2;
            t1 *= d;
            t1 *= dt;
            costs[i] += t1;
            a *= b3;
            double t = xi * b1;
            t += b2m;
            t += a;
            t *= dt;
            double y = xi + t;
            y += dw[i];
            x[i] = y;
        }
        if (keep)
            for (int64_t i = 0; i < n; i++)
                states[i * s_row + (k + 1) * s_col] = x[i];
        for (int64_t i = 0; i < n; i++)
            if (!(fabs(x[i]) < limit))
                return k;
    }
    return -1;
}

/* Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox computes it. */
static const uint64_t PHILOX_M0 = 0xD2E7470EE14C6C93u, PHILOX_M1 = 0xCA5A826395121157u;
static const uint64_t PHILOX_W0 = 0x9E3779B97F4A7C15u, PHILOX_W1 = 0xBB67AE8584CAA73Bu;
#define LANES 8

static void philox(const uint64_t ctr[4], uint64_t k0, uint64_t k1, uint64_t w[4])
{
    uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
    for (int r = 0; r < 10; r++) {
        if (r) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        const unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * c0;
        const unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    w[0] = c0, w[1] = c1, w[2] = c2, w[3] = c3;
}

void mfglab_uniforms(int64_t n_rows, int64_t n_cols, uint64_t k0, uint64_t first_index,
                     uint64_t counter, int64_t skip, double *out)
{
    for (int64_t i0 = 0; i0 < n_rows; i0 += LANES) {
        const int64_t lanes = n_rows - i0 < LANES ? n_rows - i0 : LANES;
        uint64_t ctr[4] = {counter, 0, 0, 0};
        for (int64_t j0 = -skip; j0 < n_cols; j0 += 4) {
            if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0)
                ++ctr[3];
            for (int64_t lane = 0; lane < lanes; lane++) {
                uint64_t w[4];
                philox(ctr, k0, first_index + (uint64_t)(i0 + lane), w);
                for (int q = 0; q < 4; q++)
                    if (j0 + q >= 0 && j0 + q < n_cols)
                        out[i0 + lane + (j0 + q) * n_rows] = (double)(w[q] >> 11) * 0x1.0p-53;
            }
        }
    }
}
"""
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120

_I64, _U64, _F64, _PTR = ctypes.c_int64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p
_ARGTYPES = [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _F64, _PTR,
             *[_F64] * 8, _PTR, _I64, _I64, ctypes.c_int32, _PTR, _F64]
_UNIFORM_ARGTYPES = [_I64, _I64, _U64, _U64, _U64, _I64, _PTR]
# Doubles per Philox counter step, and the counter's range.
_PER_COUNTER = 4
_WORD = 1 << 64


class Library(NamedTuple):
    """The compiled functions, each with its numpy reference's signature."""

    representative: Callable
    uniforms: Callable


def library_path() -> str:
    """Where the library for this source, these flags and this platform is
    cached."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    key = "\0".join([_SOURCE, *_FLAGS, sysconfig.get_platform()])
    return os.path.join(cache, "mfglab", f"kernels-{hashlib.sha256(key.encode()).hexdigest()}.so")


def _build(path: str) -> None:
    """Compile ``_SOURCE`` to ``path`` through a temporary file in its
    directory, renamed into place."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(["cc", *_FLAGS, "-x", "c", "-", "-o", tmp], input=_SOURCE.encode(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       check=True, timeout=_BUILD_TIMEOUT_S)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _f64(a, ndim: int) -> bool:
    """Whether ``a`` is an aligned float64 array of ``ndim`` dimensions,
    whose strides count whole doubles."""
    return (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == ndim
            and a.flags.aligned)


def _fits(x0s, mflow, off, noise, disc, states, keep, costs) -> bool:
    """Whether the compiled kernel takes these arguments, computing what the
    numpy kernel computes and reading and writing nothing outside them:
    float64 arrays, at least one path, ``x0s`` and ``costs`` of one entry
    per path, ``costs`` contiguous and writeable, ``mflow``, ``off`` and
    ``disc`` of at least one entry per step and, when ``keep``, ``states``
    a writeable (paths, steps + 1) array."""
    if not _f64(noise, 2):
        return False
    n_paths, n_steps = noise.shape
    return (n_paths > 0 and _f64(x0s, 1) and x0s.shape == (n_paths,)
            and all(_f64(v, 1) and v.shape[0] >= n_steps for v in (mflow, off, disc))
            and _f64(costs, 1) and costs.shape == (n_paths,) and costs.flags.c_contiguous
            and costs.flags.writeable
            and (not keep or (_f64(states, 2) and states.shape == (n_paths, n_steps + 1)
                              and states.flags.writeable)))


def _bind_representative(lib, reference, limit: float):
    """The library's kernel as a function with ``reference``'s signature;
    arguments it does not take (``_fits``) go to ``reference``."""
    fn = lib.mfglab_representative
    fn.argtypes = _ARGTYPES
    fn.restype = _I64

    def representative(x0s, mflow, off, noise, dt, disc, b1, b2, b3, b4, A, C, fx, fm,
                       states, keep, costs):
        if not _fits(x0s, mflow, off, noise, disc, states, keep, costs):
            return reference(x0s, mflow, off, noise, dt, disc, b1, b2, b3, b4, A, C, fx, fm,
                             states, keep, costs)
        n_paths, n_steps = noise.shape
        x = x0s.copy()
        noise = np.asfortranarray(noise)
        mflow, off, disc = map(np.ascontiguousarray, (mflow, off, disc))
        s_row, s_col = (s // 8 for s in states.strides) if keep else (0, 0)
        step = fn(n_paths, n_steps, x.ctypes.data, mflow.ctypes.data, off.ctypes.data,
                  noise.ctypes.data, noise.strides[1] // 8, float(dt), disc.ctypes.data,
                  *map(float, (b1, b2, b3, b4, A, C, fx, fm)), states.ctypes.data,
                  s_row, s_col, bool(keep), costs.ctypes.data, limit)
        return x, step

    return representative


def _bind_uniforms(lib, reference):
    """The library's draw as a function with ``reference``'s signature,
    ``uniforms(k0, first_index, first_col, out)``; an ``out`` that is not a
    writeable float64 array in Fortran order, or a counter that does not
    fit one 64-bit word, goes to ``reference``."""
    fn = lib.mfglab_uniforms
    fn.argtypes = _UNIFORM_ARGTYPES
    fn.restype = None

    def uniforms(k0, first_index, first_col, out):
        if not (_f64(out, 2) and out.flags.f_contiguous and out.flags.writeable
                and 0 <= first_col < _PER_COUNTER * _WORD):
            return reference(k0, first_index, first_col, out)
        n_rows, n_cols = out.shape
        counter, skip = divmod(first_col, _PER_COUNTER)
        fn(n_rows, n_cols, k0 % _WORD, first_index % _WORD, counter, skip, out.ctypes.data)
        return out

    return uniforms


def _self_check(kernel, reference) -> bool:
    """Whether ``kernel`` and ``reference`` agree bit for bit on one small
    band with every coefficient nonzero and keep on, and on the same band
    forced to diverge at step 5 by a huge increment."""
    n, steps = 5, 9
    x0s = np.linspace(-1.5, 2.0, n)
    mflow = 0.4 + 0.3 * np.cos(np.arange(steps) / 3.0)
    off = 0.2 * np.sin(np.arange(steps) + 1.0)
    disc = np.exp(-0.7 * 0.01 * np.arange(steps))
    noise = np.asfortranarray(0.1 * np.sin(np.arange(n * steps).reshape(n, steps) * 1.7))
    coefficients = (0.01, disc, -0.1, 0.5, 2.0, 0.3, 2.0, 1.0, -0.9, 0.35)
    diverging = noise.copy(order="F")
    diverging[2, 5] = 1e300
    for dw in (noise, diverging):
        got, ref = [], []
        for fn, out in ((kernel, got), (reference, ref)):
            states, costs = np.zeros((n, steps + 1)), np.full(n, 0.25)
            x, step = fn(x0s, mflow, off, dw, *coefficients, states, True, costs)
            out += [x.tobytes(), step, states.tobytes(), costs.tobytes()]
        if got != ref:
            return False
    return True


def _draw_self_check(uniforms, reference) -> bool:
    """Whether ``uniforms`` and ``reference`` fill the same bits: both key
    words at their top, stream indices wrapping past 2^64 across a group of
    rows, every ``first_col % 4``, and a counter carrying out of its first
    word."""
    top = _WORD - 1
    cases = [(top, _WORD - 3, first_col, 11, 9) for first_col in (0, 1, 2, 7)]
    cases.append((0x5DEECE66D, 2**63, _PER_COUNTER * top + 3, 2, 6))
    for k0, first_index, first_col, n_rows, n_cols in cases:
        got, ref = (fn(k0, first_index, first_col, np.empty((n_rows, n_cols), order="F"))
                    for fn in (uniforms, reference))
        if got.tobytes() != ref.tobytes():
            return False
    return True


def load(representative, uniforms, limit: float) -> Library | None:
    """The compiled library, built if its cache holds none, or None when any
    step fails or either function disagrees with its numpy reference:
    ``representative``, the kernel with divergence limit ``limit``, and
    ``uniforms``, the Philox draw."""
    path = library_path()
    if not os.path.isabs(path):  # no home directory to cache in
        return None
    try:
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
        compiled = Library(_bind_representative(lib, representative, limit),
                           _bind_uniforms(lib, uniforms))
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    if (_self_check(compiled.representative, representative)
            and _draw_self_check(compiled.uniforms, uniforms)):
        return compiled
    return None
