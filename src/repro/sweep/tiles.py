"""Tile geometry: mapping between a global array and its grid of tiles.

The paper assumes ``gamma_i`` divides ``eta_i``; real arrays rarely oblige,
so tiles here use the standard BLOCK remainder rule (the first
``eta_i mod gamma_i`` tiles along a dimension are one element longer), which
is also what dHPF's BLOCK distributions do.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

import numpy as np

__all__ = ["axis_extents", "TileGrid"]


def axis_extents(eta: int, gamma: int) -> list[tuple[int, int]]:
    """``gamma`` contiguous (start, stop) intervals covering ``range(eta)``,
    sizes differing by at most one (longer tiles first)."""
    if eta < 1 or gamma < 1:
        raise ValueError("eta and gamma must be >= 1")
    if gamma > eta:
        raise ValueError(
            f"cannot cut extent {eta} into {gamma} non-empty tiles"
        )
    base, rem = divmod(eta, gamma)
    extents = []
    start = 0
    for t in range(gamma):
        size = base + (1 if t < rem else 0)
        extents.append((start, start + size))
        start += size
    return extents


@dataclasses.dataclass(frozen=True)
class TileGrid:
    """Geometry of a ``gamma_1 x ... x gamma_d`` tiling of a
    ``eta_1 x ... x eta_d`` array."""

    shape: tuple[int, ...]
    gammas: tuple[int, ...]

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        gammas = tuple(int(g) for g in self.gammas)
        if len(shape) != len(gammas):
            raise ValueError("shape and gammas must have equal length")
        per_axis = tuple(
            axis_extents(eta, gamma) for eta, gamma in zip(shape, gammas)
        )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "_extents", per_axis)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def tile_coords(self) -> Iterator[tuple[int, ...]]:
        """All tile coordinates in lexicographic order."""
        return np.ndindex(*self.gammas)

    def tile_slices(self, tile: Sequence[int]) -> tuple[slice, ...]:
        """Global-array slices covered by ``tile``."""
        return tuple(
            slice(*self._extents[axis][t]) for axis, t in enumerate(tile)
        )

    def tile_shape(self, tile: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            self._extents[axis][t][1] - self._extents[axis][t][0]
            for axis, t in enumerate(tile)
        )

    def axis_sizes(self, axis: int) -> tuple[int, ...]:
        """Extent along ``axis`` of each tile index along ``axis``."""
        return tuple(stop - start for start, stop in self._extents[axis])

    def tile_span(self, axis: int, index: int) -> tuple[int, int]:
        """(start, stop) of tile ``index`` along ``axis`` in global
        coordinates — used to slice global coefficient vectors."""
        return self._extents[axis][index]

    def extract(self, array: np.ndarray, tile: Sequence[int]) -> np.ndarray:
        """Copy of the block of ``array`` covered by ``tile``."""
        if array.shape != self.shape:
            raise ValueError(
                f"array shape {array.shape} != grid shape {self.shape}"
            )
        # np.array(copy=True), NOT ascontiguousarray: the latter returns the
        # input unchanged when the slice is already contiguous (e.g. the
        # whole array for a 1x...x1 grid), silently aliasing caller data.
        return np.array(array[self.tile_slices(tile)], copy=True, order="C")

    def insert(
        self, array: np.ndarray, tile: Sequence[int], block: np.ndarray
    ) -> None:
        """Write ``block`` back into ``array`` at ``tile``'s position."""
        sl = self.tile_slices(tile)
        expected = self.tile_shape(tile)
        if block.shape != expected:
            raise ValueError(
                f"block shape {block.shape} != tile shape {expected}"
            )
        array[sl] = block

    def scatter(
        self, array: np.ndarray, owner: np.ndarray, nprocs: int
    ) -> list[dict[tuple[int, ...], np.ndarray]]:
        """Split ``array`` into per-rank block dictionaries according to an
        owner table of shape ``gammas``."""
        if tuple(owner.shape) != self.gammas:
            raise ValueError("owner table shape must equal gammas")
        ranks: list[dict[tuple[int, ...], np.ndarray]] = [
            {} for _ in range(nprocs)
        ]
        for tile in self.tile_coords():
            ranks[int(owner[tile])][tile] = self.extract(array, tile)
        return ranks

    def gather(
        self,
        rank_blocks: Sequence[dict[tuple[int, ...], np.ndarray]],
        dtype=np.float64,
    ) -> np.ndarray:
        """Reassemble a global array from per-rank block dictionaries."""
        out = np.empty(self.shape, dtype=dtype)
        seen = 0
        for blocks in rank_blocks:
            for tile, block in blocks.items():
                self.insert(out, tile, block)
                seen += 1
        expected = int(np.prod(self.gammas))
        if seen != expected:
            raise ValueError(f"gathered {seen} tiles, expected {expected}")
        return out
