"""Counter-based random streams: reproducible regardless of scheduling.

Every stream is a Philox generator keyed by (seed, stream, index), so any
path's noise can be regenerated in isolation — paired-comparison and
replay-a-single-particle workflows depend on this.  Philox is
counter-based, so any band of a stream's draws is addressable too:
``gaussian_block`` draws a band of steps exactly, without the steps before
it.  Gaussians come from the inverse CDF applied to the raw uniform stream:
the uniforms are ``_kernels.uniforms``, compiled from C when the library
loaded and numpy's Philox otherwise, bitwise equal either way, and
``normal_quantile``, the one clipped inverse CDF (scipy's ``ndtri``), turns
them into Gaussians; ``simulate``'s inverse-CDF initial laws use it too.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from . import _kernels

# Stream ids, to keep independent uses of the same seed disjoint.
STREAM_PATHS = 0
STREAM_INITIAL = 1
STREAM_POPULATION = 2
STREAM_CHECKS = 3

_MIX = 0x9E3779B97F4A7C15  # splitmix64 increment, key whitening
_MASK = (1 << 64) - 1


def _key0(seed: int, stream: int) -> int:
    """The first word of the Philox key of every stream (seed, stream,
    index): the whitened seed xor the stream id.  The second word is the
    index, modulo 2^64."""
    return (((seed & _MASK) * _MIX) & _MASK) ^ (stream & _MASK)


def make_generator(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    key = np.array((_key0(seed, stream), index & _MASK), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_quantile(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normal inverse CDF of ``u`` clipped to [2.5e-17,
    1 - 1e-16], written into ``out`` when given (which may be ``u``).

    ``random()`` can return exactly 0.0, where the inverse CDF is -inf.  As
    a double, 1 - 1e-16 is the largest below 1, which no ``random()`` draw
    exceeds, so the upper clip leaves every uniform draw as it is."""
    return ndtri(np.clip(u, 2.5e-17, 1 - 1e-16, out=out), out=out)


def gaussian_block(
    seed: int, stream: int, first_index: int, n_rows: int, n_cols: int,
    first_col: int = 0, out: np.ndarray | None = None,
) -> np.ndarray:
    """(n_rows, n_cols) standard normals; row i holds draws first_col, ...,
    first_col + n_cols - 1 of the stream (seed, stream, first_index + i),
    independent of how rows are grouped or columns are banded.

    A band is exact: it is bitwise those columns of the block drawn from
    column 0 (``_kernels.uniforms`` starts the Philox counter at
    first_col // 4 and drops the first first_col % 4 draws).  The block is
    in Fortran order, so column k (step first_col + k of every path) is
    contiguous: the kernels read ``noise[:, k]`` once per time step.

    ``out``, when given, is a writeable (n_rows, n_cols) float64 array in
    Fortran order that receives the block in place of a new one, and is
    returned; any other ``out`` is refused before anything is drawn.
    """
    if out is None:
        out = np.empty((n_rows, n_cols), order="F")
    elif (out.shape != (n_rows, n_cols) or out.dtype != float or not out.flags.f_contiguous
          or not out.flags.writeable):
        raise ValueError(f"out must be a writeable ({n_rows}, {n_cols}) float64 array "
                         "in Fortran order")
    _kernels.uniforms(_key0(seed, stream), first_index, first_col, out)
    return normal_quantile(out, out=out)
