import mmap

import numpy as np
import pytest
from scipy.special import ndtri

from mfglab import _kernels, rng


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


@pytest.mark.parametrize("first_col", [1, 3, 333, 1000])
def test_gaussian_block_bands_are_columns_of_the_full_block(first_col):
    # a band starting at any column, a counter step boundary or not, is
    # bitwise those columns of the block drawn from column 0
    full = rng.gaussian_block(2**41 + 9, rng.STREAM_PATHS, 123, 37, 1001)
    for n_cols in {1, (1002 - first_col) // 2, 1001 - first_col}:
        band = rng.gaussian_block(2**41 + 9, rng.STREAM_PATHS, 123, 37, n_cols, first_col)
        assert band.flags.f_contiguous
        assert np.array_equal(band, full[:, first_col:first_col + n_cols])


def test_gaussian_block_draws_into_out():
    # a band drawn into a given Fortran-order array is the band it returns
    # otherwise, in that array
    band = rng.gaussian_block(5, rng.STREAM_PATHS, 3, 6, 11, 7)
    out = np.full((6, 11), np.nan, order="F")
    assert rng.gaussian_block(5, rng.STREAM_PATHS, 3, 6, 11, 7, out=out) is out
    assert np.array_equal(out, band)
    for wrong in (np.empty((6, 11)), np.empty((6, 10), order="F"),
                  np.empty((6, 11), dtype=np.float32, order="F")):
        with pytest.raises(ValueError, match="Fortran order"):
            rng.gaussian_block(5, rng.STREAM_PATHS, 3, 6, 11, 7, out=wrong)


def test_gaussian_block_refuses_a_read_only_out():
    # refused before anything is drawn: a draw through a raw pointer into a
    # read-only mapping would fault, and a read-only view would be changed
    mapped = mmap.mmap(-1, 6 * 11 * 8, prot=mmap.PROT_READ)
    frozen = np.frombuffer(mapped, dtype=np.float64).reshape((6, 11), order="F")
    view = np.full((6, 11), 0.5, order="F")
    view.flags.writeable = False
    for out in (frozen, view):
        with pytest.raises(ValueError, match="writeable .* Fortran order"):
            rng.gaussian_block(5, rng.STREAM_PATHS, 3, 6, 11, 7, out=out)
    assert not frozen.any()
    assert np.all(view == 0.5)


class TestGaussianBlockOnNumpy:
    """The gaussian_block tests above with the compiled draw unloaded, so the
    numpy fallback keeps the independent check against make_generator."""

    @pytest.fixture(autouse=True)
    def numpy_draw(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_compiled", None)

    test_streams_are_distinct = staticmethod(test_streams_are_distinct)
    test_gaussian_block_rows_are_per_index_streams = staticmethod(
        test_gaussian_block_rows_are_per_index_streams)
    test_gaussian_block_is_standard_normal = staticmethod(test_gaussian_block_is_standard_normal)
    test_gaussian_block_rows_equal_generator_streams = staticmethod(
        test_gaussian_block_rows_equal_generator_streams)
    test_gaussian_block_is_fortran_ordered_generator_rows = staticmethod(
        test_gaussian_block_is_fortran_ordered_generator_rows)
    test_gaussian_block_bands_are_columns_of_the_full_block = staticmethod(
        test_gaussian_block_bands_are_columns_of_the_full_block)
    test_gaussian_block_draws_into_out = staticmethod(test_gaussian_block_draws_into_out)
    test_gaussian_block_refuses_a_read_only_out = staticmethod(
        test_gaussian_block_refuses_a_read_only_out)
