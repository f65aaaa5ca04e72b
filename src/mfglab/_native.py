"""The compiled library: the representative-path kernel, the Philox draw,
the forward-field kernel and the backward PDE sweep in C, each bitwise
equal to its numpy reference.

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
- ``mfglab_backward_sweep`` is ``_kernels._backward_sweep_numpy``.  It
  works out lam = dt/(2*dx*dx) and factors the implicit-diffusion operator
  itself, with LAPACK's arithmetic for a factorisation that swaps no row
  (this operator never pivots for a finite lam >= 0), and solves each step
  with ``dgtts2``'s formulas, what LAPACK's solve runs for one right-hand
  side.  A ``dt`` or ``dx`` that is not a Python float, or any other lam,
  goes to the numpy code.

Each function's contract is stated once, as its row of ``_FUNCTIONS``:
C symbol, argtypes and restype; ``fits`` and ``call``, which ``_bind``
joins to the numpy reference so that any argument gives the same bytes,
or the same exception type, on both backends; and the self-check's
``cases`` and compared ``outputs`` (``_agree``).  A new function takes C
source, a row, a ``Library`` field, and its reference and dispatcher in
``_kernels``.

The library is built with ``cc -O3 -ffp-contract=off -fPIC -shared``:
contraction is off because a fused multiply-add rounds once where numpy
rounds twice, and there is no ``-march`` or fast-math, which could change
results or the machines the library runs on.  It is cached as
``kernels-<digest>.so`` in ``${XDG_CACHE_HOME:-~/.cache}/mfglab``, the
digest covering the source, the flags and the platform, so it is built once
per key; a build is written to a temporary file and renamed into place, so
processes building at once leave one whole library.  It is used only when
every function agrees with its reference bit for bit on its self-check
cases, so a numpy that changed its summation order, or a LAPACK that
changed its factorisation or solve, would leave numpy in use rather than
change a bit.  Any failure (no compiler, an unwritable cache, a library
that will not load or lacks a symbol, a self-check mismatch) leaves numpy
in use for all four, silently: the library is used whole or not at all.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sysconfig
import tempfile
from collections import namedtuple
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

/* The backward decoupling-field sweep.  Its implicit diffusion operator,
   1 + 2 lam on the diagonal and -lam beside it, is factored once with
   LAPACK dgttrf's arithmetic for a factorisation that swaps no row, which
   this one never does for 0 <= lam < inf: d[0] = 1 + 2 lam and
   d[i + 1] = 1 + 2 lam - lam^2 / d[i] >= 1 + lam > lam (rounded, each d[i]
   stays >= lam, as lam / d[i] <= 1 and 2 lam is exact).  Each step's solve
   is dgtts2's with the identity pivot and du2 all zero.  work holds 3 nx
   doubles: the drift, the diagonal d and the multipliers l. */
int64_t mfglab_backward_sweep(
    int64_t nt, int64_t nx, double *u, const double *mflow, const double *x,
    double dt, double dx, double b1, double b2, double b4, double a2, double r,
    double gain, double *work, double *cfl_out)
{
    const int64_t n = nx - 2;
    const double lam = dt / (2.0 * dx * dx), diag = 1.0 + 2.0 * lam, off = -lam;
    double *g = work, *d = work + nx, *l = work + 2 * nx;
    d[0] = diag;
    for (int64_t i = 0; i < n - 1; i++) {
        l[i] = off / d[i];
        d[i + 1] = diag - l[i] * off;
    }
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
            b[i + 1] -= l[i] * b[i];
        b[n - 1] /= d[n - 1];
        b[n - 2] = (b[n - 2] - off * b[n - 1]) / d[n - 2];
        /* dgtts2's du2 term stays, so signed zeros and NaNs are LAPACK's */
        for (int64_t i = n - 3; i >= 0; i--)
            b[i] = (b[i] - off * b[i + 1] - 0.0 * b[i + 2]) / d[i];
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
# Doubles per Philox counter step (each step fills four 64-bit words, and
# random() reads one word per double), and the counter's range.
_PER_COUNTER = 4
_WORD = 1 << 64


class Library(NamedTuple):
    """The compiled functions, each with its numpy reference's signature
    (or the references, as ``load`` takes them, or ``_FUNCTIONS``' rows)."""

    representative: Callable
    uniforms: Callable
    forward_field: Callable
    backward_sweep: Callable


def library_path() -> str:
    """Where the library for this source, these flags and this platform is
    cached."""
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):  # unset, empty or relative: the XDG spec ignores it
        cache = os.path.join(os.path.expanduser("~"), ".cache")
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


def _representative_fits(x0s, mflow, off, noise, dt, disc, b1, b2, b3, b4, A, C, fx, fm,
                         states, keep, costs) -> bool:
    """Whether the compiled kernel takes these arguments: float64 arrays,
    at least one path, ``x0s`` and ``costs`` of one entry per path,
    ``costs`` contiguous and writeable, ``mflow``, ``off`` and ``disc``
    contiguous, of at least one entry per step, and, when ``keep``,
    ``states`` a writeable (paths, steps + 1) array.  The kernel reads
    ``mflow``, ``off`` and ``disc`` in place, where the numpy kernel reads
    them, so they may share memory with ``states`` or ``costs``."""
    if not _f64(noise, 2):
        return False
    n_paths, n_steps = noise.shape
    return (n_paths > 0 and _f64(x0s, 1) and x0s.shape == (n_paths,)
            and all(_f64(v, 1) and v.flags.c_contiguous and v.shape[0] >= n_steps
                    for v in (mflow, off, disc))
            and _f64(costs, 1) and costs.shape == (n_paths,) and costs.flags.c_contiguous
            and costs.flags.writeable
            and (not keep or (_f64(states, 2) and states.shape == (n_paths, n_steps + 1)
                              and states.flags.writeable)))


def _call_representative(fn, limit, x0s, mflow, off, noise, dt, disc,
                         b1, b2, b3, b4, A, C, fx, fm, states, keep, costs):
    n_paths, n_steps = noise.shape
    x = x0s.copy()
    noise = np.asfortranarray(noise)
    # without keep, ``states`` is never read and may be anything
    s_row, s_col = (s // 8 for s in states.strides) if keep else (0, 0)
    step = fn(n_paths, n_steps, x.ctypes.data, mflow.ctypes.data, off.ctypes.data,
              noise.ctypes.data, noise.strides[1] // 8, float(dt), disc.ctypes.data,
              *map(float, (b1, b2, b3, b4, A, C, fx, fm)), states.ctypes.data if keep else None,
              s_row, s_col, bool(keep), costs.ctypes.data, limit)
    return x, step


def _representative_cases():
    """One small band with every coefficient nonzero and keep on, and the
    same band forced to diverge at step 5 by a huge increment."""
    n, steps = 5, 9
    x0s = np.linspace(-1.5, 2.0, n)
    mflow = 0.4 + 0.3 * np.cos(np.arange(steps) / 3.0)
    off = 0.2 * np.sin(np.arange(steps) + 1.0)
    disc = np.exp(-0.7 * 0.01 * np.arange(steps))
    coefficients = (0.01, disc, -0.1, 0.5, 2.0, 0.3, 2.0, 1.0, -0.9, 0.35)
    for diverging in (False, True):
        noise = np.asfortranarray(0.1 * np.sin(np.arange(n * steps).reshape(n, steps) * 1.7))
        if diverging:
            noise[2, 5] = 1e300
        yield (x0s, mflow, off, noise, *coefficients, np.zeros((n, steps + 1)), True,
               np.full(n, 0.25))


def _uniforms_fits(k0, first_index, first_col, out) -> bool:
    """Whether the compiled draw takes these arguments: ints, a key word
    that fits 64 bits and a counter that fits one 64-bit word, and a
    writeable float64 ``out`` in Fortran order."""
    return (all(isinstance(v, int) for v in (k0, first_index, first_col))
            and 0 <= k0 < _WORD and 0 <= first_col < _PER_COUNTER * _WORD
            and _f64(out, 2) and out.flags.f_contiguous and out.flags.writeable)


def _call_uniforms(fn, _limit, k0, first_index, first_col, out):
    n_rows, n_cols = out.shape
    counter, skip = divmod(first_col, _PER_COUNTER)
    fn(n_rows, n_cols, k0, first_index % _WORD, counter, skip, out.ctypes.data)
    return out


def _uniforms_cases():
    """Both key words at their top, stream indices wrapping past 2^64
    across a group of rows, every ``first_col % 4``, and a counter carrying
    out of its first word."""
    top = _WORD - 1
    for first_col in (0, 1, 2, 7):
        yield top, _WORD - 3, first_col, np.empty((11, 9), order="F")
    yield 0x5DEECE66D, 2**63, _PER_COUNTER * top + 3, np.empty((2, 6), order="F")


def _field_fits(x0, u, xgrid, noise, dt, b1, b2, gain) -> bool:
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


def _call_forward_field(fn, limit, x0, u, xgrid, noise, dt, b1, b2, gain):
    n_particles, n_steps = noise.shape
    x = x0.copy()
    noise = np.asfortranarray(noise)
    means, w = np.empty(n_steps + 1), np.empty(n_particles)
    idx = np.empty(n_particles, dtype=np.int32)
    step = fn(n_particles, n_steps, x.ctypes.data, u.ctypes.data, u.strides[0] // 8,
              noise.ctypes.data, noise.strides[1] // 8, float(dt), float(b1), float(b2),
              float(-gain), float(xgrid[0]), float(xgrid[1] - xgrid[0]),
              float(xgrid.shape[0] - 2), means.ctypes.data, w.ctypes.data,
              idx.ctypes.data, limit)
    return means, x, step


def _field_cases():
    """8197 particles (a mean past numpy's 8192-element buffer, through
    every branch of its pairwise sum) and 5 (its short branch), some left
    and right of the grid, on its nodes and at -0.0, and the wide case
    forced to diverge at step 2."""
    xgrid = np.linspace(-1.0, 1.0, 6)
    u = np.cos(0.7 * np.arange(4))[:, None] * np.sin(2.0 * xgrid - 0.3)[None, :]
    for n in (8197, 5):
        x0 = np.linspace(-1.7, 1.9, n)
        x0[:3] = (-0.0, xgrid[2], xgrid[-1])
        noise = np.asfortranarray(0.05 * np.sin(1.3 * np.arange(3 * n).reshape(n, 3)))
        yield x0, u, xgrid, noise, 0.01, -0.2, 0.5, 1.7
        if n > 5:  # and again, forced to diverge at step 2
            noise = noise.copy(order="F")
            noise[7, 2] = 1e300
            yield x0, u, xgrid, noise, 0.01, -0.2, 0.5, 1.7


def _field_outputs(result):
    """The means up to the step the field stopped at (the rest are never
    written), the terminal ensemble and that step."""
    means, x, step = result
    last = step if step >= 0 else means.shape[0] - 1
    return means[:last + 1].tobytes(), x.tobytes(), step


def _sweep_fits(u, mflow, x, dt, dx, b1, b2, b4, A, r, gain) -> bool:
    """Whether the compiled sweep takes these arguments: float64 arrays, a
    writeable C-order ``u`` of at least five nodes, contiguous ``mflow`` of
    one entry per time and ``x`` of one per node, and Python floats ``dt``
    and ``dx`` whose lam = dt/(2*dx*dx) is finite and not negative (numpy
    would work out a float32 ``dt``'s lam in float32, and a negative lam
    may pivot).  The sweep reads ``mflow`` and ``x`` in place at every
    step, as the numpy sweep does, so a row of ``u`` passed as either
    gives numpy's results."""
    if not (_f64(u, 2) and u.flags.c_contiguous and u.flags.writeable
            and isinstance(dt, float) and isinstance(dx, float)):
        return False
    nt, nx = u.shape
    scale = 2.0 * dx * dx
    return (nx >= 5 and _f64(mflow, 1) and mflow.flags.c_contiguous and mflow.shape[0] >= nt
            and _f64(x, 1) and x.flags.c_contiguous and x.shape == (nx,)
            and scale > 0.0 and 0.0 <= dt / scale < math.inf)


def _call_sweep(fn, _limit, u, mflow, x, dt, dx, b1, b2, b4, A, r, gain):
    nt, nx = u.shape
    work = np.empty(3 * nx)
    cfl = _F64()
    step = fn(nt, nx, u.ctypes.data, mflow.ctypes.data, x.ctypes.data,
              *map(float, (dt, dx, b1, b2, b4, 2.0 * A, r, gain)), work.ctypes.data,
              ctypes.addressof(cfl))
    return step, cfl.value


def _sweep_cases():
    """A drift that changes sign across the grid, lam = 0.1, and the stops:
    a step too large for the advection (CFL) after one step, and a source
    that overflows on the first step."""
    nt, nx = 7, 9
    x = np.linspace(-2.0, 2.0, nx)
    mflow = 0.6 - 0.2 * np.arange(nt)
    # dt, dx, b1, b2, b4, A, r, gain
    base = (0.05, 0.5, 0.3, -0.4, 0.2, 0.5, 0.9, 1.3)
    cases = [(mflow, base), (mflow, (0.45, *base[1:])),
             (1e4 * mflow, (*base[:3], 0.0, 1e305, *base[5:]))]
    for flow, coefficients in cases:
        u = np.zeros((nt, nx))
        u[-1] = 0.3 * x - 0.1 * x * x
        yield u, flow, x, *coefficients


# One contract per compiled function, in ``Library``'s order; ``call(fn,
# limit, *args)`` runs the C function ``fn`` on the arguments ``fits`` takes.
_Row = namedtuple("_Row", "symbol argtypes restype fits call cases outputs")
_FUNCTIONS = Library(
    _Row("mfglab_representative",
         [_I64, _I64, *[_PTR] * 4, _I64, _F64, _PTR, *[_F64] * 8, _PTR, _I64, _I64,
          ctypes.c_int32, _PTR, _F64],
         _I64, _representative_fits, _call_representative, _representative_cases,
         lambda result: (result[0].tobytes(), result[1])),
    _Row("mfglab_uniforms", [_I64, _I64, _U64, _U64, _U64, _I64, _PTR], None,
         _uniforms_fits, _call_uniforms, _uniforms_cases, lambda out: out.tobytes()),
    _Row("mfglab_forward_field",
         [_I64, _I64, _PTR, _PTR, _I64, _PTR, _I64, *[_F64] * 7, *[_PTR] * 3, _F64],
         _I64, _field_fits, _call_forward_field, _field_cases, _field_outputs),
    _Row("mfglab_backward_sweep", [_I64, _I64, *[_PTR] * 3, *[_F64] * 8, *[_PTR] * 2], _I64,
         _sweep_fits, _call_sweep, _sweep_cases,
         lambda result: (result[0], repr(float(result[1])))),
)


def _bind(lib, reference, limit: float, symbol, argtypes, restype, fits, call):
    """The C function ``symbol`` in ``lib`` with ``reference``'s positional
    signature: what ``fits`` accepts goes to ``call``, with divergence limit
    ``limit``, and the rest to ``reference``."""
    fn = getattr(lib, symbol)
    fn.argtypes, fn.restype = argtypes, restype

    def bound(*args):
        return call(fn, limit, *args) if fits(*args) else reference(*args)

    return bound


def _outcome(fn, args, outputs):
    """``outputs`` of ``fn(*args)``, and the bytes of every array argument
    after the call, which ``fn`` may have written."""
    result = outputs(fn(*args))
    return result, [a.tobytes() for a in args if isinstance(a, np.ndarray)]


def _agree(fn, reference, cases, outputs) -> bool:
    """Whether ``fn`` and ``reference`` agree bit for bit (``_outcome``) on
    every argument tuple ``cases()`` yields; ``reference`` runs first, on
    copies of the arrays, so what one writes in place the other never reads."""
    return all(_outcome(reference, [a.copy(order="K") if isinstance(a, np.ndarray) else a
                                    for a in args], outputs) == _outcome(fn, args, outputs)
               for args in cases())


def load(references: Library, limit: float) -> Library | None:
    """The compiled library, built if its cache holds none, or None when any
    step fails or any function disagrees with its numpy reference in
    ``references`` on its self-check; ``limit`` is the divergence limit."""
    path = library_path()
    if not os.path.isabs(path):  # no home directory to cache in
        return None
    try:
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
        compiled = Library(*(_bind(lib, reference, limit, *row[:5])
                             for reference, row in zip(references, _FUNCTIONS)))
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    if all(_agree(fn, reference, row.cases, row.outputs)
           for fn, reference, row in zip(compiled, references, _FUNCTIONS)):
        return compiled
    return None
