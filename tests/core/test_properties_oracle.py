"""The vectorized property checks and tile lists against their loop forms.

``repro.core.properties`` and ``repro.core.mapping`` answer with whole-array
numpy operations.  The functions below are the per-tile and per-slab loops
they replaced, kept verbatim in spirit as the reference: hypothesis draws
owner grids that satisfy or break each property (equal counts, balance, the
neighbor property, interior and periodic) and requires the same verdicts,
the same successor tables and the same tile lists, order included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.elementary import elementary_partitionings_cached
from repro.core.mapping import Multipartitioning
from repro.core.modmap import build_modular_mapping
from repro.core.properties import (
    has_balance_property,
    image_counts,
    is_equally_many_to_one,
    neighbor_table,
    slab_counts,
)


# -- loop oracles ---------------------------------------------------------


def loop_has_balance_property(grid: np.ndarray, nprocs: int) -> bool:
    for axis in range(grid.ndim):
        for k in range(grid.shape[axis]):
            if not is_equally_many_to_one(
                np.take(grid, k, axis=axis), nprocs
            ):
                return False
    return True


def loop_slab_counts(grid: np.ndarray, nprocs: int, axis: int) -> np.ndarray:
    out = np.empty((grid.shape[axis], nprocs), dtype=np.int64)
    for k in range(grid.shape[axis]):
        out[k] = image_counts(np.take(grid, k, axis=axis), nprocs)
    return out


def loop_neighbor_table(grid: np.ndarray, periodic: bool = False):
    nprocs = int(grid.max()) + 1 if grid.size else 0
    table = {}
    for axis in range(grid.ndim):
        for step in (+1, -1):
            succ = np.full(nprocs, -1, dtype=np.int64)
            shifted = np.roll(grid, -step, axis=axis)
            if periodic:
                pairs = zip(grid.ravel(), shifted.ravel())
            else:
                sel = [slice(None)] * grid.ndim
                sel[axis] = slice(0, -1) if step == 1 else slice(1, None)
                sel_t = tuple(sel)
                pairs = zip(grid[sel_t].ravel(), shifted[sel_t].ravel())
            for owner, nbr in pairs:
                if succ[owner] == -1:
                    succ[owner] = nbr
                elif succ[owner] != nbr:
                    return None
            table[(axis, step)] = succ
    return table


def loop_tiles_by_rank(grid: np.ndarray, nprocs: int) -> list[list[tuple]]:
    tiles: list[list[tuple]] = [[] for _ in range(nprocs)]
    for coord in np.ndindex(*grid.shape):
        tiles[grid[coord]].append(coord)
    return tiles


def loop_construction_error(grid: np.ndarray, nprocs: int) -> str | None:
    """The message ``Multipartitioning`` must raise, by the loop checks."""
    if not is_equally_many_to_one(grid, nprocs):
        return "owner table is not equally-many-to-one"
    if not loop_has_balance_property(grid, nprocs):
        return "owner table violates the balance property"
    if loop_neighbor_table(grid) is None:
        return "owner table violates the neighbor property"
    return None


# -- owner grids ----------------------------------------------------------


def _valid_grid(draw, d: int) -> tuple[np.ndarray, int]:
    """A multipartitioning from the paper's construction, ranks relabeled."""
    p = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]))
    options = elementary_partitionings_cached(p, d)
    gammas = draw(st.sampled_from(sorted(options)))
    grid = build_modular_mapping(gammas, p).rank_grid(gammas)
    perm = np.array(draw(st.permutations(range(p))), dtype=np.int64)
    return perm[grid], p


@st.composite
def owner_grids(draw) -> tuple[np.ndarray, int]:
    """Owner grids that keep or break each property, 2-D to 4-D."""
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["valid", "swapped", "rolled", "random"]))
    if kind == "random":
        # extent-1 axes included; mostly breaks equal counts
        shape = tuple(draw(st.lists(st.integers(1, 4), min_size=d,
                                    max_size=d)))
        nprocs = draw(st.integers(1, 6))
        flat = draw(st.lists(st.integers(0, nprocs - 1),
                             min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.int64).reshape(shape), nprocs
    grid, nprocs = _valid_grid(draw, d)
    if kind == "swapped" and grid.size > 1:
        # keeps equal counts, usually breaks balance or the neighbor property
        flat = grid.ravel().copy()
        i, j = draw(st.lists(st.integers(0, flat.size - 1), min_size=2,
                             max_size=2, unique=True))
        flat[i], flat[j] = flat[j], flat[i]
        grid = flat.reshape(grid.shape)
    elif kind == "rolled":
        # keeps balance, may break the interior neighbor property
        axis = draw(st.integers(0, d - 1))
        lo = draw(st.integers(0, grid.shape[axis] - 1))
        grid = grid.copy()
        index = [slice(None)] * d
        index[axis] = slice(lo, None)
        block = tuple(index)
        grid[block] = np.roll(grid[block], 1, axis=(axis + 1) % d)
    return grid, nprocs


_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAgainstLoopOracles:
    @_SETTINGS
    @given(owner_grids())
    def test_balance_and_slab_counts(self, case):
        grid, nprocs = case
        assert has_balance_property(grid, nprocs) == (
            loop_has_balance_property(grid, nprocs)
        )
        for axis in range(-grid.ndim, grid.ndim):
            np.testing.assert_array_equal(
                slab_counts(grid, nprocs, axis),
                loop_slab_counts(grid, nprocs, axis),
            )

    @_SETTINGS
    @given(owner_grids(), st.booleans())
    def test_neighbor_table(self, case, periodic):
        grid, _ = case
        fast = neighbor_table(grid, periodic=periodic)
        slow = loop_neighbor_table(grid, periodic=periodic)
        if slow is None:
            assert fast is None
            return
        assert fast is not None and fast.keys() == slow.keys()
        for key in slow:
            assert fast[key].dtype == slow[key].dtype
            np.testing.assert_array_equal(fast[key], slow[key])

    @_SETTINGS
    @given(owner_grids())
    def test_multipartitioning_tile_lists(self, case):
        grid, nprocs = case
        expected_error = loop_construction_error(grid, nprocs)
        if expected_error is not None:
            with pytest.raises(ValueError) as err:
                Multipartitioning(grid, nprocs)
            assert str(err.value) == expected_error
            return
        mp = Multipartitioning(grid, nprocs)
        oracle = loop_tiles_by_rank(grid, nprocs)
        successors = loop_neighbor_table(grid)
        for rank in range(nprocs):
            assert mp.tiles_of(rank) == tuple(oracle[rank])
            for axis in range(-grid.ndim, grid.ndim):
                for slab in range(-1, grid.shape[axis] + 1):
                    assert mp.tiles_of_in_slab(rank, axis, slab) == tuple(
                        t for t in oracle[rank] if t[axis] == slab
                    )
                for step in (+1, -1):
                    succ = successors[(axis % grid.ndim, step)]
                    assert mp.neighbor_rank(rank, axis, step) == succ[rank]


class TestOracleCoverage:
    """The strategy really draws grids on both sides of every check."""

    def test_each_verdict_is_drawn(self):
        seen: set[tuple] = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(owner_grids(), st.booleans())
        def collect(case, periodic):
            grid, nprocs = case
            seen.add(("counts", is_equally_many_to_one(grid, nprocs)))
            seen.add(("balance", loop_has_balance_property(grid, nprocs)))
            seen.add(("neighbor", periodic,
                      loop_neighbor_table(grid, periodic) is not None))
            seen.add(("error", loop_construction_error(grid, nprocs)))
            seen.add(("ndim", grid.ndim))
            seen.add(("extent1", 1 in grid.shape))

        collect()
        for item in [("counts", True), ("counts", False),
                     ("balance", True), ("balance", False),
                     ("neighbor", False, True), ("neighbor", False, False),
                     ("neighbor", True, True), ("neighbor", True, False),
                     ("error", None),
                     ("error", "owner table is not equally-many-to-one"),
                     ("error", "owner table violates the balance property"),
                     ("error", "owner table violates the neighbor property"),
                     ("ndim", 2), ("ndim", 3), ("ndim", 4),
                     ("extent1", True)]:
            assert item in seen, item


class TestOutOfRange:
    def test_slab_counts_rejects_out_of_range(self):
        grid = np.array([[0, 1], [2, 0]])
        for fn in (slab_counts, loop_slab_counts):
            with pytest.raises(ValueError, match="out-of-range"):
                fn(grid, 2, 0)

    def test_balance_rejects_out_of_range(self):
        grid = np.array([[0, 1], [1, 5]])
        for fn in (has_balance_property, loop_has_balance_property):
            with pytest.raises(ValueError, match="out-of-range"):
                fn(grid, 2)
