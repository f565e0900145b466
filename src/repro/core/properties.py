"""Verifiers for the structural properties of multipartitionings.

They check the owner table itself, not the construction that produced it,
so they serve as an independent oracle for the constructive algorithms of
:mod:`repro.core.modmap` — the test-suite checks the paper's construction
against these on hundreds of cases.  Every check is a few whole-array
numpy operations (a ``bincount`` per axis for balance, a scatter and a
read-back per signed direction for the neighbor property), so
:class:`~repro.core.mapping.Multipartitioning` can run all of them on every
mapping it builds.  The per-tile and per-slab loop forms they replaced live
on in ``tests/core/test_properties_oracle.py`` as the reference they are
compared against.

Definitions (Section 4 of the paper):

* **one-to-one** — every processor-grid point has exactly one pre-image;
* **equally-many-to-one** — every processor-grid point has the same number of
  pre-images;
* **load-balancing / balance** — restricted to any axis-aligned *slice*
  (all tiles with fixed coordinate ``k`` along some axis ``i``), the mapping
  is equally-many-to-one;
* **neighbor** — for every processor ``q`` and signed direction, the owners
  of the neighbors of ``q``'s tiles form a single processor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


__all__ = [
    "image_counts",
    "is_one_to_one",
    "is_equally_many_to_one",
    "has_balance_property",
    "has_neighbor_property",
    "neighbor_table",
    "slab_counts",
    "validity_certificate",
    "balance_certificate",
    "neighbor_certificate",
]


def _check_ranks(grid: np.ndarray, nprocs: int) -> None:
    if grid.size and (grid.min() < 0 or grid.max() >= nprocs):
        raise ValueError("rank grid contains out-of-range ranks")


def image_counts(rank_grid: np.ndarray, nprocs: int) -> np.ndarray:
    """Histogram of tile owners: ``counts[q]`` = number of tiles of rank q."""
    grid = np.asarray(rank_grid)
    _check_ranks(grid, nprocs)
    return np.bincount(grid.ravel(), minlength=nprocs)


def is_one_to_one(rank_grid: np.ndarray, nprocs: int) -> bool:
    """Every rank owns exactly one tile."""
    grid = np.asarray(rank_grid)
    return grid.size == nprocs and bool(
        (image_counts(grid, nprocs) == 1).all()
    )


def is_equally_many_to_one(rank_grid: np.ndarray, nprocs: int) -> bool:
    """Every rank owns the same (positive) number of tiles."""
    grid = np.asarray(rank_grid)
    if grid.size == 0 or grid.size % nprocs != 0:
        return False
    counts = image_counts(grid, nprocs)
    return bool((counts == grid.size // nprocs).all())


def has_balance_property(rank_grid: np.ndarray, nprocs: int) -> bool:
    """Paper's balance property: every slice along every axis is
    equally-many-to-one (each slab gives every processor the same number of
    tiles, so every sweep phase is perfectly load-balanced)."""
    grid = np.asarray(rank_grid)
    for axis, gamma in enumerate(grid.shape):
        if gamma == 0:
            continue
        slab_tiles = grid.size // gamma
        if slab_tiles == 0 or slab_tiles % nprocs != 0:
            return False
        counts = slab_counts(grid, nprocs, axis)
        if not (counts == slab_tiles // nprocs).all():
            return False
    return True


def slab_counts(rank_grid: np.ndarray, nprocs: int, axis: int) -> np.ndarray:
    """Per-slab ownership histogram: shape ``(gamma_axis, nprocs)``; row k is
    the tile count per rank within slab k along ``axis``.

    One ``bincount`` over the key ``slab * nprocs + owner``."""
    grid = np.asarray(rank_grid)
    _check_ranks(grid, nprocs)
    axis = range(grid.ndim)[axis]
    gamma = grid.shape[axis]
    slab = np.arange(gamma, dtype=np.int64).reshape(
        [-1 if i == axis else 1 for i in range(grid.ndim)]
    )
    keys = slab * nprocs + grid
    return np.bincount(
        keys.ravel(), minlength=gamma * nprocs
    ).reshape(gamma, nprocs)


def neighbor_table(
    rank_grid: np.ndarray, periodic: bool = False
) -> dict[tuple[int, int], np.ndarray] | None:
    """If the neighbor property holds, return the rank->rank successor table
    per signed direction; otherwise ``None``.

    Keys are ``(axis, step)`` with ``step in (+1, -1)``; values are int
    arrays ``succ`` with ``succ[q]`` = the unique owner of the ``step``
    neighbors (along ``axis``) of ``q``'s tiles, or ``-1`` when ``q`` owns no
    tile with such a neighbor (only possible when ``periodic=False``).

    The paper's neighbor property concerns *immediate* (interior) tile
    adjacency, so ``periodic=False`` is the default.  A modular mapping
    additionally satisfies the periodic version exactly when
    ``b_axis * M[:, axis] == 0 (mod m)`` — true for diagonal
    multipartitionings, not for general ones.

    Per direction, the owners ``a`` and neighbor owners ``b`` of all
    adjacent tile pairs are scattered as ``succ[a] = b``; the property
    holds exactly when every pair then reads back, ``succ[a] == b``.
    """
    grid = np.asarray(rank_grid)
    nprocs = int(grid.max()) + 1 if grid.size else 0
    table: dict[tuple[int, int], np.ndarray] = {}
    for axis in range(grid.ndim):
        head = [slice(None)] * grid.ndim
        tail = [slice(None)] * grid.ndim
        head[axis] = slice(0, -1)
        tail[axis] = slice(1, None)
        for step in (+1, -1):
            if periodic:
                owners = grid
                nbrs = np.roll(grid, -step, axis=axis)
            elif step == 1:
                owners, nbrs = grid[tuple(head)], grid[tuple(tail)]
            else:
                owners, nbrs = grid[tuple(tail)], grid[tuple(head)]
            owners, nbrs = owners.ravel(), nbrs.ravel()
            succ = np.full(nprocs, -1, dtype=np.int64)
            succ[owners] = nbrs
            if not (succ[owners] == nbrs).all():
                return None
            table[(axis, step)] = succ
    return table


def has_neighbor_property(rank_grid: np.ndarray, periodic: bool = False) -> bool:
    """True when, in every signed coordinate direction, all neighbors of any
    one processor's tiles belong to a single processor."""
    return neighbor_table(rank_grid, periodic=periodic) is not None


# -- certificates -------------------------------------------------------------
#
# Certificate-producing variants of the boolean verifiers above: each
# returns a JSON-ready dict with the checked quantities spelled out, so a
# downstream consumer (the static verifier's ``repro.verify-report.v1``
# document) can archive *why* a property holds, and a failure carries a
# concrete witness instead of a bare False.


def validity_certificate(gammas: Sequence[int], p: int) -> dict:
    """Proof record for the paper's validity condition (Section 3):
    ``p`` divides ``prod_{j != i} gamma_j`` for every axis ``i``."""
    gammas = tuple(int(g) for g in gammas)
    total = 1
    for g in gammas:
        total *= g
    axes: list[dict] = []
    ok = True
    for i, g in enumerate(gammas):
        others = total // g
        divides = others % p == 0
        ok = ok and divides
        axes.append(
            {
                "axis": i,
                "gamma": g,
                "others_product": others,
                "divides": divides,
            }
        )
    return {"property": "validity", "ok": ok, "p": p,
            "gammas": list(gammas), "axes": axes}


def balance_certificate(rank_grid: np.ndarray, nprocs: int) -> dict:
    """Proof record for the balance property: every slab along every axis
    gives every rank exactly ``slab_tiles / nprocs`` tiles.  On failure the
    witness names the first offending (axis, slab, rank, count)."""
    grid = np.asarray(rank_grid)
    axes: list[dict] = []
    ok = True
    witness: dict | None = None
    for axis in range(grid.ndim):
        slab_tiles = grid.size // grid.shape[axis]
        expected, rem = divmod(slab_tiles, nprocs)
        counts = slab_counts(grid, nprocs, axis)
        axis_ok = rem == 0 and bool((counts == expected).all())
        if not axis_ok and witness is None:
            if rem != 0:
                witness = {
                    "axis": axis,
                    "reason": "slab size not divisible by nprocs",
                    "slab_tiles": slab_tiles,
                    "nprocs": nprocs,
                }
            else:
                bad = np.argwhere(counts != expected)
                slab, rank = (int(v) for v in bad[0])
                witness = {
                    "axis": axis,
                    "slab": slab,
                    "rank": rank,
                    "count": int(counts[slab, rank]),
                    "expected": expected,
                }
        ok = ok and axis_ok
        axes.append(
            {
                "axis": axis,
                "slabs": int(grid.shape[axis]),
                "tiles_per_rank_per_slab": expected if rem == 0 else None,
                "ok": axis_ok,
            }
        )
    cert = {"property": "balance", "ok": ok, "nprocs": nprocs, "axes": axes}
    if witness is not None:
        cert["witness"] = witness
    return cert


def neighbor_certificate(rank_grid: np.ndarray, periodic: bool = False) -> dict:
    """Proof record for the neighbor property.  On success it archives the
    full successor tables (the run-time neighbor function); on failure the
    witness names the first rank whose neighbors straddle several owners."""
    grid = np.asarray(rank_grid)
    table = neighbor_table(grid, periodic=periodic)
    if table is not None:
        return {
            "property": "neighbor",
            "ok": True,
            "periodic": periodic,
            "successors": {
                f"axis{axis}{'+' if step > 0 else '-'}": [
                    int(v) for v in succ
                ]
                for (axis, step), succ in sorted(table.items())
            },
        }
    # localize the first conflict (same scan as diagnose_mapping)
    witness: dict | None = None
    for axis in range(grid.ndim):
        for step in (+1, -1):
            owners_of: dict[int, set[int]] = {}
            shifted = np.roll(grid, -step, axis=axis)
            sel = [slice(None)] * grid.ndim
            sel[axis] = slice(0, -1) if step == 1 else slice(1, None)
            sel_t = tuple(sel)
            for q, nbr in zip(grid[sel_t].ravel(), shifted[sel_t].ravel()):
                owners_of.setdefault(int(q), set()).add(int(nbr))
            for q in sorted(owners_of):
                if len(owners_of[q]) > 1:
                    witness = {
                        "rank": q,
                        "axis": axis,
                        "step": step,
                        "neighbor_owners": sorted(owners_of[q]),
                    }
                    break
            if witness is not None:
                break
        if witness is not None:
            break
    return {
        "property": "neighbor",
        "ok": False,
        "periodic": periodic,
        "witness": witness,
    }
