"""The compiled library: the representative-path kernel, the Philox draw,
the forward-field kernel and the backward PDE sweep in C, each bitwise
equal to its numpy reference.

``_SOURCE`` holds all four functions; they are built, cached, loaded and
checked together, and used only together.

- ``mfglab_representative`` is ``_kernels._representative_numpy`` written as
  a C loop, steps on the outside and paths on the inside.  Each step makes
  three passes over the paths: the update, with exactly the numpy kernel's
  operations in its order, so every IEEE result is the same; the kept
  states' column; and the divergence check ``diverged``, which the forward
  field shares.  The update and the check have no branch, so the compiler
  vectorises both at the baseline instruction set.
- ``mfglab_uniforms`` is ``_kernels._uniforms_numpy``: Philox4x64-10 (Salmon
  et al., SC'11) as numpy's ``Philox`` computes it, its counter incremented
  before each block of four words and each word made a double as numpy's
  ``random()`` does, ``(w >> 11) * 2**-53``, which is exact.  It writes
  straight into a Fortran-order block, eight rows at a time, so eight
  independent rounds overlap and each column's writes share cache lines.
  Clipping and the inverse CDF stay numpy and scipy (``rng``).
- ``mfglab_forward_field`` is ``_kernels._forward_field_numpy``.  Each step
  takes the mean as numpy's ``add.reduce`` sums contiguous doubles, 0.0
  plus one pairwise sum over the whole array (eight accumulators up to
  128 terms, halves cut at a multiple of eight above; no chunking), and
  then makes three passes: the cell index and weight, where clamping to
  [0, nx - 2] and truncating to 32 bits equals numpy's floor then clamp,
  both bounds being whole numbers; the gather of the two node values and
  the interpolation; and the Euler update.  The first and last vectorise
  at the baseline instruction set, as does the divergence check.
- ``mfglab_backward_sweep`` is ``_kernels._backward_sweep_numpy``, with
  LAPACK ``dgtts2``'s formulas for the tridiagonal solve (what ``dgttrs``
  runs for one right-hand side) when the factorisation's pivots are the
  identity; any other factorisation goes to the numpy code.

The library is built with ``cc -O3 -ffp-contract=off -fPIC -shared``:
contraction is off because a fused multiply-add rounds once where numpy
rounds twice, and there is no ``-march`` or fast-math, which could change
results or the machines the library runs on.  It is cached as
``kernels-<digest>.so`` in ``${XDG_CACHE_HOME:-~/.cache}/mfglab``, the
digest covering the source, the flags and the platform, so it is built once
per key; a build is written to a temporary file and renamed into place, so
processes building at once leave one whole library.  Before it is used,
four self-checks must pass bit for bit: the kernel against the numpy
kernel on one small band with keep on and on a forced divergence; the draw
against numpy's Philox on keys and indices at the top of their words and
every band offset; the forward field on 8197 particles (a mean past
8192 terms) and on 5, off the grid, on its nodes, at -0.0 and on a forced
divergence; and the sweep on a drift of both signs and on its CFL and
non-finite stops.  So a numpy that changed its summation order, or a
LAPACK that changed its solve, would leave numpy in use rather than change
a bit.  Any failure (no compiler, an unwritable cache, a library that will
not load or lacks a symbol, a self-check mismatch) leaves numpy in use for
all four, silently.
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

/* Whether some |x| is not below limit (NaN included), without a branch
   per element, so the loop vectorises. */
static int diverged(const double *x, int64_t n, double limit)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < n; i++) {
        const double over = fabs(x[i]) < limit ? 0.0 : 1.0;
        bad |= over != 0.0;
    }
    return bad != 0;
}

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
        if (diverged(x, n, limit))
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

/* numpy's pairwise sum of contiguous doubles: eight accumulators up to 128
   terms, halves cut at a multiple of eight above. */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

static double mean(const double *x, int64_t n)
{
    return (0.0 + pairwise(x, n)) / (double)n;
}

int64_t mfglab_forward_field(
    int64_t n, int64_t steps, double *x, const double *u, int64_t u_row,
    const double *noise, int64_t noise_col, double dt, double b1, double b2,
    double neg_gain, double x_lo, double dx, double top, double *means,
    double *w, int32_t *idx, double limit)
{
    for (int64_t k = 0; k < steps; k++) {
        const double m = mean(x, n), b2m = b2 * m;
        means[k] = m;
        const double *uk = u + k * u_row, *dw = noise + k * noise_col;
        /* floor, then clamp to [0, top], equals clamp, then truncate: both
           bounds are whole numbers */
        for (int64_t i = 0; i < n; i++) {
            double pos = x[i] - x_lo;
            pos /= dx;
            double c = pos > 0.0 ? pos : 0.0;
            c = c < top ? c : top;
            const int32_t j = (int32_t)c;
            idx[i] = j;
            w[i] = pos - (double)j;
        }
        for (int64_t i = 0; i < n; i++) {
            double v = uk[idx[i]] * (1.0 - w[i]);
            v += uk[idx[i] + 1] * w[i];
            w[i] = v;
        }
        for (int64_t i = 0; i < n; i++) {
            const double xi = x[i];
            double v = w[i];
            v *= neg_gain;
            double t = xi * b1;
            t += b2m;
            t += v;
            t *= dt;
            double y = xi + t;
            y += dw[i];
            x[i] = y;
        }
        if (diverged(x, n, limit))
            return k;
    }
    means[steps] = mean(x, n);
    return -1;
}

/* The backward decoupling-field sweep; the tridiagonal solve is LAPACK
   dgtts2's with the identity pivot. */
int64_t mfglab_backward_sweep(
    int64_t nt, int64_t nx, double *u, const double *mflow, const double *x,
    double dt, double dx, double lam, double b1, double b2, double b4, double a2,
    double r, double gain, const double *dl, const double *d, const double *du,
    const double *du2, double *g, double *cfl_out)
{
    const int64_t n = nx - 2;
    *cfl_out = NAN;
    for (int64_t k = nt - 2; k >= 0; k--) {
        const double *uk1 = u + (k + 1) * nx;
        double *row = u + k * nx;
        const double m = mflow[k + 1], b2m = b2 * m, b4m = b4 * m;
        double top = 0.0;
        int nan = 0;
        for (int64_t i = 0; i < nx; i++) {
            double gi = b1 * x[i];
            gi += b2m;
            gi -= uk1[i] * gain;
            g[i] = gi;
            const double a = fabs(gi);
            nan |= a != a;
            top = a > top ? a : top;
        }
        const double cfl = nan ? NAN : top * dt / dx;
        *cfl_out = cfl;
        if (cfl > 1.0)
            return k;
        for (int64_t i = 0; i < nx; i++) {
            const int64_t lo = i == 0 || (i < nx - 1 && !(g[i] > 0.0)) ? i : i - 1;
            double dudx = uk1[lo + 1] - uk1[lo];
            dudx /= dx;
            double src = uk1[i] * b1;
            src += b4m;
            src += a2 * x[i];
            double t = g[i] * dudx;
            t += src;
            t -= uk1[i] * r;
            t *= dt;
            row[i] = uk1[i] + t;
        }
        double *b = row + 1;
        b[0] += lam * row[0];
        b[n - 1] += lam * row[nx - 1];
        for (int64_t i = 0; i < n - 1; i++)
            b[i + 1] -= dl[i] * b[i];
        b[n - 1] /= d[n - 1];
        if (n > 1)
            b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2];
        for (int64_t i = n - 3; i >= 0; i--)
            b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i];
        for (int64_t i = 0; i < nx; i++)
            if (!isfinite(row[i]))
                return k;
    }
    return -1;
}
"""
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120

_I64, _U64, _F64, _PTR = ctypes.c_int64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p
_ARGTYPES = [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _F64, _PTR,
             *[_F64] * 8, _PTR, _I64, _I64, ctypes.c_int32, _PTR, _F64]
_UNIFORM_ARGTYPES = [_I64, _I64, _U64, _U64, _U64, _I64, _PTR]
_FIELD_ARGTYPES = [_I64, _I64, _PTR, _PTR, _I64, _PTR, _I64, *[_F64] * 7,
                   *[_PTR] * 3, _F64]
_SWEEP_ARGTYPES = [_I64, _I64, *[_PTR] * 3, *[_F64] * 9, *[_PTR] * 6]
# Doubles per Philox counter step (each step fills four 64-bit words, and
# random() reads one word per double), and the counter's range.
_PER_COUNTER = 4
_WORD = 1 << 64


class Library(NamedTuple):
    """The compiled functions, each with its numpy reference's signature
    (or the references themselves, as ``load`` takes them)."""

    representative: Callable
    uniforms: Callable
    forward_field: Callable
    backward_sweep: Callable


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


def _field_fits(x0, u, xgrid, noise) -> bool:
    """Whether the compiled forward field takes these arguments: float64
    arrays, at least one particle, ``x0`` of one entry per particle, a grid
    of 2 to 2^31 nodes (so every node index fits 32 bits) and a C-order
    ``u`` of at least one row per step and one column per node."""
    if not (_f64(noise, 2) and _f64(xgrid, 1) and _f64(u, 2)):
        return False
    n_particles, n_steps = noise.shape
    return (n_particles > 0 and _f64(x0, 1) and x0.shape == (n_particles,)
            and 2 <= xgrid.shape[0] <= 2**31 and u.flags.c_contiguous
            and u.shape[0] >= n_steps and u.shape[1] >= xgrid.shape[0])


def _bind_forward_field(lib, reference, limit: float):
    """The library's forward field as a function with ``reference``'s
    signature; arguments it does not take (``_field_fits``) go to
    ``reference``."""
    fn = lib.mfglab_forward_field
    fn.argtypes = _FIELD_ARGTYPES
    fn.restype = _I64

    def forward_field(x0, u, xgrid, noise, dt, b1, b2, gain):
        if not _field_fits(x0, u, xgrid, noise):
            return reference(x0, u, xgrid, noise, dt, b1, b2, gain)
        n_particles, n_steps = noise.shape
        x = x0.copy()
        noise = np.asfortranarray(noise)
        means, w = np.empty(n_steps + 1), np.empty(n_particles)
        idx = np.empty(n_particles, dtype=np.int32)
        step = fn(n_particles, n_steps, x.ctypes.data, u.ctypes.data, u.strides[0] // 8,
                  noise.ctypes.data, noise.strides[1] // 8, float(dt), float(b1), float(b2),
                  -float(gain), float(xgrid[0]), float(xgrid[1] - xgrid[0]),
                  float(xgrid.shape[0] - 2), means.ctypes.data, w.ctypes.data,
                  idx.ctypes.data, limit)
        return means, x, step

    return forward_field


def _sweep_fits(u, mflow, x, lu) -> bool:
    """Whether the compiled sweep takes these arguments: float64 arrays, a
    writeable C-order ``u`` of at least three nodes, ``mflow`` of one entry
    per time and ``x`` of one per node, and a factorisation of the
    interior nodes whose pivots are the identity, the one case LAPACK's
    solve makes no row swap in."""
    dl, d, du, du2, ipiv = lu
    if not (_f64(u, 2) and u.flags.c_contiguous and u.flags.writeable):
        return False
    nt, nx = u.shape
    n = nx - 2
    return (n > 0 and _f64(mflow, 1) and mflow.shape[0] >= nt and _f64(x, 1)
            and x.shape == (nx,) and _f64(d, 1) and d.shape == (n,)
            and all(_f64(v, 1) and v.shape[0] >= n - 1 for v in (dl, du))
            and _f64(du2, 1) and du2.shape[0] >= n - 2
            and np.array_equal(ipiv, np.arange(1, n + 1)))


def _bind_sweep(lib, reference):
    """The library's backward sweep as a function with ``reference``'s
    signature; arguments it does not take (``_sweep_fits``) go to
    ``reference``."""
    fn = lib.mfglab_backward_sweep
    fn.argtypes = _SWEEP_ARGTYPES
    fn.restype = _I64

    def backward_sweep(u, mflow, x, dt, dx, lam, b1, b2, b4, A, r, gain, lu):
        if not _sweep_fits(u, mflow, x, lu):
            return reference(u, mflow, x, dt, dx, lam, b1, b2, b4, A, r, gain, lu)
        nt, nx = u.shape
        mflow, x, dl, d, du, du2 = map(np.ascontiguousarray, (mflow, x, *lu[:4]))
        g = np.empty(nx)
        cfl = _F64()
        step = fn(nt, nx, u.ctypes.data, mflow.ctypes.data, x.ctypes.data,
                  *map(float, (dt, dx, lam, b1, b2, b4, 2.0 * A, r, gain)),
                  dl.ctypes.data, d.ctypes.data, du.ctypes.data, du2.ctypes.data,
                  g.ctypes.data, ctypes.addressof(cfl))
        return step, cfl.value

    return backward_sweep


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


def _field_self_check(forward_field, reference) -> bool:
    """Whether ``forward_field`` and ``reference`` agree bit for bit: 8197
    particles (a mean past numpy's 8192-element buffer, through every
    branch of its pairwise sum) and 5 (its short branch), some left and
    right of the grid, on its nodes and at -0.0, and the wide case forced
    to diverge at step 2."""
    xgrid = np.linspace(-1.0, 1.0, 6)
    u = np.cos(0.7 * np.arange(4))[:, None] * np.sin(2.0 * xgrid - 0.3)[None, :]
    cases = []
    for n in (8197, 5):
        x0 = np.linspace(-1.7, 1.9, n)
        x0[:3] = (-0.0, xgrid[2], xgrid[-1])
        noise = np.asfortranarray(0.05 * np.sin(1.3 * np.arange(3 * n).reshape(n, 3)))
        cases.append((x0, noise))
    diverging = cases[0][1].copy(order="F")
    diverging[7, 2] = 1e300
    cases.append((cases[0][0], diverging))
    for x0, noise in cases:
        (m1, x1, k1), (m2, x2, k2) = (fn(x0, u, xgrid, noise, 0.01, -0.2, 0.5, 1.7)
                                      for fn in (forward_field, reference))
        last = k1 if k1 >= 0 else noise.shape[1]
        if (k1 != k2 or x1.tobytes() != x2.tobytes()
                or m1[:last + 1].tobytes() != m2[:last + 1].tobytes()):
            return False
    return True


def _sweep_self_check(sweep, reference) -> bool:
    """Whether ``sweep`` and ``reference`` agree bit for bit on a drift
    that changes sign across the grid, with every factor of the
    tridiagonal solve nonzero, and on the stops: a step too large for the
    advection (CFL) after one step, and a source that overflows on the
    first step."""
    nt, nx = 7, 9
    x = np.linspace(-2.0, 2.0, nx)
    mflow = 0.6 - 0.2 * np.arange(nt)
    n = nx - 2
    lu = (np.full(n - 1, -0.21), 1.5 + 0.1 * np.cos(np.arange(n)), np.full(n - 1, -0.3),
          np.full(n - 2, 0.01), np.arange(1, n + 1, dtype=np.int32))
    # dt, dx, lam, b1, b2, b4, A, r, gain
    base = (0.05, 0.5, 0.1, 0.3, -0.4, 0.2, 0.5, 0.9, 1.3)
    cases = [(mflow, base), (mflow, (0.45, *base[1:])),
             (1e4 * mflow, (*base[:4], 0.0, 1e305, *base[6:]))]
    for flow, coefficients in cases:
        results = []
        for fn in (sweep, reference):
            u = np.zeros((nt, nx))
            u[-1] = 0.3 * x - 0.1 * x * x
            step, cfl = fn(u, flow, x, *coefficients, lu)
            results.append((u.tobytes(), step, repr(float(cfl))))
        if results[0] != results[1]:
            return False
    return True


def load(references: Library, limit: float) -> Library | None:
    """The compiled library, built if its cache holds none, or None when any
    step fails or any function disagrees with its numpy reference in
    ``references`` (the representative kernel with divergence limit
    ``limit``, the Philox draw, the forward field with the same limit and
    the backward sweep)."""
    path = library_path()
    if not os.path.isabs(path):  # no home directory to cache in
        return None
    try:
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
        compiled = Library(_bind_representative(lib, references.representative, limit),
                           _bind_uniforms(lib, references.uniforms),
                           _bind_forward_field(lib, references.forward_field, limit),
                           _bind_sweep(lib, references.backward_sweep))
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    checks = (_self_check, _draw_self_check, _field_self_check, _sweep_self_check)
    if all(check(fn, ref) for check, fn, ref in zip(checks, compiled, references)):
        return compiled
    return None
