"""Counter-based random streams: reproducible regardless of scheduling.

Every stream is a Philox generator keyed by (seed, stream, index), so any
path's noise can be regenerated in isolation — paired-comparison and
replay-a-single-particle workflows depend on this.  Philox is
counter-based, so any band of a stream's draws is addressable too:
``gaussian_block`` draws a band of steps exactly, without the steps before
it.  Gaussians come from the inverse CDF applied to the raw uniform stream:
the uniforms are ``_kernels.uniforms``, compiled from C when the library
loaded and numpy's Philox otherwise, bitwise equal either way, and the
clip and the inverse CDF (scipy's ``ndtri``) stay numpy and scipy.
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
    # random() can return exactly 0.0, where the inverse CDF is -inf.
    np.clip(out, 2.5e-17, None, out=out)
    return ndtri(out, out=out)
