"""Counter-based random streams: reproducible regardless of scheduling.

Every stream is a Philox generator keyed by (seed, stream, index), so any
path's noise can be regenerated in isolation — paired-comparison and
replay-a-single-particle workflows depend on this.  Gaussians come from the
inverse CDF applied to the raw uniform stream.
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


def _key(seed: int, stream: int, index: int) -> np.ndarray:
    k0 = (((seed & _MASK) * _MIX) & _MASK) ^ (stream & _MASK)
    k1 = index & _MASK
    return np.array([k0, k1], dtype=np.uint64)


def make_generator(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, index)))


def gaussian_block(
    seed: int, stream: int, first_index: int, n_rows: int, n_cols: int
) -> np.ndarray:
    """(n_rows, n_cols) standard normals; row i is the stream of
    (seed, stream, first_index + i), independent of how rows are grouped.

    The block is in Fortran order, so column k (step k of every path) is
    contiguous: the kernels read ``noise[:, k]`` once per time step.  Rows
    are drawn into a C-order tile of at most ``_TILE_ROWS`` rows and copied
    in, so no full-size transposed copy is ever made.
    """
    out = np.empty((n_rows, n_cols), order="F")
    tile = np.empty((min(_TILE_ROWS, n_rows), n_cols))
    # One generator re-keyed per row: a reset to (key, counter 0, empty
    # buffer) yields the same stream as make_generator(seed, stream, index)
    # without building a new Philox per row.
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
    for lo in range(0, n_rows, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n_rows)
        for i in range(lo, hi):
            state["state"]["key"] = _key(seed, stream, first_index + i)
            bitgen.state = state
            gen.random(out=tile[i - lo])
        out[lo:hi] = tile[: hi - lo]
    # random() can return exactly 0.0, where the inverse CDF is -inf.
    np.clip(out, 2.5e-17, None, out=out)
    return ndtri(out, out=out)
