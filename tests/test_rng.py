import numpy as np
import pytest
from scipy.special import ndtri

from mfglab import rng


def test_streams_are_reproducible():
    a = rng.make_generator(1, rng.STREAM_PATHS, 0).standard_normal(8)
    b = rng.make_generator(1, rng.STREAM_PATHS, 0).standard_normal(8)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    base = rng.gaussian_block(1, rng.STREAM_PATHS, 0, 1, 64)
    other_seed = rng.gaussian_block(2, rng.STREAM_PATHS, 0, 1, 64)
    other_stream = rng.gaussian_block(1, rng.STREAM_POPULATION, 0, 1, 64)
    other_index = rng.gaussian_block(1, rng.STREAM_PATHS, 1, 1, 64)
    for other in (other_seed, other_stream, other_index):
        assert not np.array_equal(base, other)


def test_gaussian_block_rows_are_per_index_streams():
    block = rng.gaussian_block(7, rng.STREAM_PATHS, 0, 4, 32)
    for i in range(4):
        row = rng.gaussian_block(7, rng.STREAM_PATHS, i, 1, 32)
        assert np.array_equal(block[i], row[0])


def test_gaussian_block_is_standard_normal():
    block = rng.gaussian_block(3, rng.STREAM_CHECKS, 0, 64, 1024)
    flat = block.ravel()
    assert abs(flat.mean()) < 0.02
    assert abs(flat.std() - 1.0) < 0.02
    assert np.all(np.isfinite(flat))


def test_large_seed_values_accepted():
    g = rng.make_generator(2**62 + 11, rng.STREAM_PATHS, 2**40)
    assert np.isfinite(g.standard_normal())


@pytest.mark.parametrize("n_cols", [1, 3, 17])
@pytest.mark.parametrize("seed, first_index", [(5, 0), (2**41 + 9, 123)])
def test_gaussian_block_rows_equal_generator_streams(seed, first_index, n_cols):
    block = rng.gaussian_block(seed, rng.STREAM_POPULATION, first_index, 6, n_cols)
    for i in range(6):
        gen = rng.make_generator(seed, rng.STREAM_POPULATION, first_index + i)
        ref = ndtri(np.clip(gen.random(n_cols), 2.5e-17, None))
        assert np.array_equal(block[i], ref)


@pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 130])
def test_gaussian_block_is_fortran_ordered_generator_rows(n_rows):
    # rows are drawn through 64-row tiles; every tile boundary keeps the
    # per-stream rows, and each step's column is contiguous
    block = rng.gaussian_block(9, rng.STREAM_PATHS, 40, n_rows, 5)
    assert block.shape == (n_rows, 5)
    assert block.flags.f_contiguous
    assert block[:, 2].flags.c_contiguous
    for i in range(n_rows):
        gen = rng.make_generator(9, rng.STREAM_PATHS, 40 + i)
        ref = ndtri(np.clip(gen.random(5), 2.5e-17, None))
        assert np.array_equal(block[i], ref)
