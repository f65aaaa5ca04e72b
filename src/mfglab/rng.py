"""Counter-based random streams: reproducible regardless of scheduling.

Every stream is a Philox generator keyed by (seed, stream, index), so any
path's noise can be regenerated in isolation — paired-comparison and
replay-a-single-particle workflows depend on this.  Philox is
counter-based, so any band of a stream's draws is addressable too:
``gaussian_block`` draws a band of steps exactly, without the steps before
it.  Gaussians come from the inverse CDF applied to the raw uniform stream.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# Stream ids, to keep independent uses of the same seed disjoint.
STREAM_PATHS = 0
STREAM_INITIAL = 1
STREAM_POPULATION = 2
STREAM_CHECKS = 3

_MIX = 0x9E3779B97F4A7C15  # splitmix64 increment, key whitening
_MASK = (1 << 64) - 1
# Rows drawn per C-order tile before the copy into a Fortran-order block.
_TILE_ROWS = 64
# Doubles per Philox counter step: each step fills a buffer of four 64-bit
# words, and random() reads one word per double.
_PER_COUNTER = 4


def _keys(seed: int, stream: int, first_index: int, n: int):
    """The Philox keys of the streams (seed, stream, first_index + i), i < n:
    two 64-bit words each, the whitened seed xor the stream id, and the
    index."""
    k0 = (((seed & _MASK) * _MIX) & _MASK) ^ (stream & _MASK)
    return ((k0, index & _MASK) for index in range(first_index, first_index + n))


def make_generator(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    (key,) = _keys(seed, stream, index, 1)
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def gaussian_block(
    seed: int, stream: int, first_index: int, n_rows: int, n_cols: int,
    first_col: int = 0, out: np.ndarray | None = None,
) -> np.ndarray:
    """(n_rows, n_cols) standard normals; row i holds draws first_col, ...,
    first_col + n_cols - 1 of the stream (seed, stream, first_index + i),
    independent of how rows are grouped or columns are banded.

    A band is exact: the Philox counter starts at first_col // 4 with an
    empty buffer and the first first_col % 4 draws are dropped, so the band
    is bitwise those columns of the block drawn from column 0.  The block is
    in Fortran order, so column k (step first_col + k of every path) is
    contiguous: the kernels read ``noise[:, k]`` once per time step.  Rows
    are drawn into a C-order tile of at most ``_TILE_ROWS`` rows and copied
    in, so no full-size transposed copy is ever made.

    ``out``, when given, is an (n_rows, n_cols) float64 array in Fortran
    order that receives the block in place of a new one, and is returned.
    """
    if out is None:
        out = np.empty((n_rows, n_cols), order="F")
    elif out.shape != (n_rows, n_cols) or out.dtype != float or not out.flags.f_contiguous:
        raise ValueError(f"out must be a ({n_rows}, {n_cols}) float64 array in Fortran order")
    skip = first_col % _PER_COUNTER
    tile = np.empty((min(_TILE_ROWS, n_rows), skip + n_cols))
    tile_rows = list(tile)
    keys = _keys(seed, stream, first_index, n_rows)
    # One generator re-keyed per row: the state (key, counter, empty buffer)
    # yields the same stream as make_generator(seed, stream, index), advanced
    # by 4 draws per counter step, without building a new Philox per row.
    # A band pays this per row, so it is kept cheap: plain ints make the
    # re-key about 4x cheaper than numpy arrays.
    bitgen = np.random.Philox()
    draw = np.random.Generator(bitgen).random
    row = {"counter": (first_col // _PER_COUNTER, 0, 0, 0), "key": (0, 0)}
    state = {"bit_generator": "Philox", "state": row, "buffer": (0, 0, 0, 0),
             "buffer_pos": _PER_COUNTER, "has_uint32": 0, "uinteger": 0}
    for lo in range(0, n_rows, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n_rows)
        for tile_row in tile_rows[: hi - lo]:
            row["key"] = next(keys)
            bitgen.state = state
            draw(out=tile_row)
        out[lo:hi] = tile[: hi - lo, skip:]
    # random() can return exactly 0.0, where the inverse CDF is -inf.
    np.clip(out, 2.5e-17, None, out=out)
    return ndtri(out, out=out)
