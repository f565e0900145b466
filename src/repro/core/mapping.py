"""The `Multipartitioning` object — the runtime view of a tile→rank mapping.

Wraps an owner table (any int array over the tile grid, usually produced by
:func:`repro.core.modmap.build_modular_mapping` or
:mod:`repro.core.diagonal`).  Construction validates the table and keeps
the neighbor successor tables per signed direction (the neighbor property
guarantees these are single-valued); both are whole-array work.  What only
some callers read is built on first use:

* per-rank tile lists, from one stable argsort of the owner table (plan and
  modeled runs never read them);
* per axis, each rank's tiles grouped by slab, from one stable argsort of
  ``owner * gamma + slab``.

Slabs are enumerated in sweep order.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterator, Sequence

import numpy as np

from . import properties

__all__ = ["Multipartitioning"]

#: one rank's tiles grouped by slab along an axis (entry s: slab s)
_Slabs = tuple[tuple[tuple[int, ...], ...], ...]


@dataclasses.dataclass(frozen=True)
class Multipartitioning:
    """A validated multipartitioning of a ``gamma_1 x ... x gamma_d`` tile
    grid onto ``nprocs`` processors.

    ``owner[t]`` is the rank owning tile ``t``.  Construction verifies the
    balance property and the (interior) neighbor property, so downstream code
    can rely on both unconditionally.
    """

    owner: np.ndarray
    nprocs: int
    #: derived caches, filled in __post_init__ via object.__setattr__
    _neighbors: dict[tuple[int, int], np.ndarray] = dataclasses.field(
        init=False, repr=False, compare=False
    )
    #: axis -> per-rank tiles grouped by slab, filled by tiles_of_in_slab
    _slab_index: dict[int, tuple[_Slabs, ...]] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        owner = np.ascontiguousarray(self.owner, dtype=np.int64)
        if owner.ndim < 2:
            raise ValueError("multipartitioning needs a >= 2-D tile grid")
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if not properties.is_equally_many_to_one(owner, self.nprocs):
            raise ValueError("owner table is not equally-many-to-one")
        if not properties.has_balance_property(owner, self.nprocs):
            raise ValueError("owner table violates the balance property")
        nbr = properties.neighbor_table(owner, periodic=False)
        if nbr is None:
            raise ValueError("owner table violates the neighbor property")
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "_neighbors", nbr)
        object.__setattr__(self, "_slab_index", {})

    def _grouped_tiles(
        self, key: np.ndarray, groups: int
    ) -> list[tuple[tuple[int, ...], ...]]:
        """Tile coordinates grouped by ``key`` (one int in ``[0, groups)``
        per tile, row-major; every group equally large), lexicographic
        within a group: a stable sort keeps the row-major order of ties."""
        order = np.argsort(key, kind="stable")
        coords = np.unravel_index(order, self.owner.shape)
        tiles = list(zip(*(c.tolist() for c in coords)))
        size = len(tiles) // groups
        return [
            tuple(tiles[g * size:(g + 1) * size]) for g in range(groups)
        ]

    @functools.cached_property
    def _tiles_by_rank(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every rank's tiles in lexicographic order, built on first use
        (equally-many-to-one makes the groups equal)."""
        return tuple(self._grouped_tiles(self.owner.ravel(), self.nprocs))

    # -- basic geometry ----------------------------------------------------

    @property
    def gammas(self) -> tuple[int, ...]:
        """Tile counts per dimension."""
        return tuple(self.owner.shape)

    @property
    def ndim(self) -> int:
        return self.owner.ndim

    @property
    def tiles_total(self) -> int:
        return int(self.owner.size)

    @property
    def tiles_per_rank(self) -> int:
        return self.tiles_total // self.nprocs

    def tiles_per_slab_per_rank(self, axis: int) -> int:
        """Tiles each rank owns inside one slab along ``axis`` (balance
        property makes this a constant)."""
        slab_tiles = self.tiles_total // self.owner.shape[axis]
        return slab_tiles // self.nprocs

    # -- queries -----------------------------------------------------------

    def rank_of(self, tile: Sequence[int]) -> int:
        """Owner rank of one tile coordinate."""
        return int(self.owner[tuple(tile)])

    def tiles_of(self, rank: int) -> tuple[tuple[int, ...], ...]:
        """All tile coordinates owned by ``rank`` (lexicographic order)."""
        return self._tiles_by_rank[rank]

    def tiles_of_in_slab(
        self, rank: int, axis: int, slab: int
    ) -> tuple[tuple[int, ...], ...]:
        """Tiles of ``rank`` whose coordinate along ``axis`` equals ``slab``
        (lexicographic order), looked up in a per-axis slab index built on
        first use."""
        axis = range(self.ndim)[axis]
        gamma = self.owner.shape[axis]
        index = self._slab_index.get(axis)
        if index is None:
            # the balance property makes every (rank, slab) group equal
            coord = np.indices(self.owner.shape, sparse=True)[axis]
            groups = self._grouped_tiles(
                (self.owner * gamma + coord).ravel(), self.nprocs * gamma
            )
            index = self._slab_index[axis] = tuple(
                tuple(groups[r * gamma:(r + 1) * gamma])
                for r in range(self.nprocs)
            )
        return index[rank][slab] if 0 <= slab < gamma else ()

    def slabs(self, axis: int, reverse: bool = False) -> Iterator[int]:
        """Slab indices along ``axis`` in sweep order."""
        rng = range(self.owner.shape[axis])
        return iter(reversed(rng)) if reverse else iter(rng)

    def neighbor_rank(self, rank: int, axis: int, step: int) -> int:
        """The single rank owning the ``step``-neighbors (along ``axis``) of
        ``rank``'s tiles; ``-1`` if ``rank`` has no tile with such a neighbor
        (only when ``gamma_axis == 1``)."""
        if step not in (+1, -1):
            raise ValueError("step must be +1 or -1")
        axis = range(self.ndim)[axis]
        return int(self._neighbors[(axis, step)][rank])

    # -- representations ----------------------------------------------------

    def layer_strings(self, axis: int = 0) -> list[str]:
        """ASCII rendering of the owner table, one 2-D layer per slab along
        ``axis`` (only for 2-D/3-D grids) — used to regenerate Figure 1."""
        if self.ndim == 2:
            return [_matrix_str(self.owner)]
        if self.ndim == 3:
            return [
                _matrix_str(np.take(self.owner, k, axis=axis))
                for k in range(self.owner.shape[axis])
            ]
        raise ValueError("layer rendering supports 2-D and 3-D grids only")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = "x".join(map(str, self.gammas))
        return (
            f"Multipartitioning({shape} tiles on {self.nprocs} ranks, "
            f"{self.tiles_per_rank} tiles/rank)"
        )


def _matrix_str(mat: np.ndarray) -> str:
    width = max(2, len(str(int(mat.max()))))
    return "\n".join(
        " ".join(f"{int(v):>{width}d}" for v in row) for row in mat
    )
