"""Tests for tile geometry and scatter/gather."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.diagonal import diagonal_3d
from repro.sweep.tiles import TileGrid, axis_extents


class TestAxisExtents:
    def test_even_division(self):
        assert axis_extents(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_remainder_goes_first(self):
        assert axis_extents(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_single_tile(self):
        assert axis_extents(7, 1) == [(0, 7)]

    def test_rejects_too_many_tiles(self):
        with pytest.raises(ValueError):
            axis_extents(3, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            axis_extents(0, 1)

    @given(st.integers(1, 200), st.integers(1, 20))
    def test_partition_properties(self, eta, gamma):
        if gamma > eta:
            return
        spans = axis_extents(eta, gamma)
        assert spans[0][0] == 0 and spans[-1][1] == eta
        sizes = [hi - lo for lo, hi in spans]
        assert sum(sizes) == eta
        assert max(sizes) - min(sizes) <= 1
        # contiguous
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c


class TestTileGrid:
    def test_tile_slices_and_shape(self):
        grid = TileGrid((10, 8), (2, 4))
        assert grid.tile_slices((0, 0)) == (slice(0, 5), slice(0, 2))
        assert grid.tile_shape((1, 3)) == (5, 2)
        assert grid.tile_span(0, 1) == (5, 10)

    @pytest.mark.parametrize(
        "shape, gammas",
        [((10, 7, 9), (4, 3, 2)), ((102, 102, 102), (16, 16, 16)),
         ((5, 11), (5, 4))],
    )
    def test_axis_sizes_match_tile_shape(self, shape, gammas):
        grid = TileGrid(shape, gammas)
        sizes = [grid.axis_sizes(axis) for axis in range(grid.ndim)]
        for axis, gamma in enumerate(gammas):
            assert len(sizes[axis]) == gamma
            assert sum(sizes[axis]) == shape[axis]
        for tile in grid.tile_coords():
            assert grid.tile_shape(tile) == tuple(
                sizes[axis][t] for axis, t in enumerate(tile)
            )

    def test_uneven_tiles(self):
        grid = TileGrid((7, 7), (2, 3))
        shapes = [grid.tile_shape(t) for t in grid.tile_coords()]
        total = sum(int(np.prod(s)) for s in shapes)
        assert total == 49

    def test_extract_insert_roundtrip(self, rng):
        grid = TileGrid((6, 9, 4), (2, 3, 2))
        arr = rng.standard_normal((6, 9, 4))
        out = np.zeros_like(arr)
        for tile in grid.tile_coords():
            grid.insert(out, tile, grid.extract(arr, tile))
        assert (out == arr).all()

    def test_extract_shape_check(self, rng):
        grid = TileGrid((6, 6), (2, 2))
        with pytest.raises(ValueError):
            grid.extract(rng.standard_normal((5, 6)), (0, 0))

    def test_insert_shape_check(self):
        grid = TileGrid((6, 6), (2, 2))
        with pytest.raises(ValueError):
            grid.insert(np.zeros((6, 6)), (0, 0), np.zeros((2, 2)))

    def test_scatter_gather_roundtrip(self, rng):
        owner = diagonal_3d(4)
        grid = TileGrid((8, 8, 8), (2, 2, 2))
        arr = rng.standard_normal((8, 8, 8))
        per_rank = grid.scatter(arr, owner, 4)
        assert sum(len(d) for d in per_rank) == 8
        back = grid.gather(per_rank)
        assert (back == arr).all()

    def test_gather_detects_missing_tiles(self):
        grid = TileGrid((4, 4), (2, 2))
        with pytest.raises(ValueError):
            grid.gather([{(0, 0): np.zeros((2, 2))}])

    def test_scatter_owner_shape_check(self, rng):
        grid = TileGrid((4, 4), (2, 2))
        with pytest.raises(ValueError):
            grid.scatter(
                rng.standard_normal((4, 4)), np.zeros((3, 3), int), 2
            )

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TileGrid((4, 4), (2, 2, 2))
