"""Star-stencil halo kernels shared by every distributed executor.

:func:`face_copy` cuts the boundary planes a neighbour needs as ghosts and
:func:`apply_star` pads a block with the received ghosts and applies the
stencil; the multipartitioned, block-grid and slab executors differ only in
which faces travel to which rank.

:func:`slab_stencil` is the exchange for 1-D (slab) partitionings, shared by
the wavefront and transpose baseline executors.  A slab owns the full extent
of every axis except ``part_axis``, so a star stencil needs ghosts only
across the two slab faces: rank ``r`` sends its trailing planes to ``r+1``
(their low ghosts) and its leading planes to ``r-1`` (their high ghosts).
All other axes are globally complete, so their padding is the global zero
boundary.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.machine import MachineModel

from .ops import StencilOp

__all__ = ["apply_star", "face_copy", "slab_stencil"]


def face_copy(
    block: np.ndarray, axis: int, side: int, width: int
) -> np.ndarray:
    """Copy of the ``width`` boundary planes of ``block`` along ``axis``
    that become a neighbour's ghosts: the trailing planes for side 0 (sent
    toward ``+1``), the leading ones for side 1 (sent toward ``-1``)."""
    n = block.shape[axis]
    sel: list = [slice(None)] * block.ndim
    sel[axis] = slice(n - width, n) if side == 0 else slice(0, width)
    # copy=True, NOT ascontiguousarray: a leading-axis slice is already
    # contiguous and would alias the block, which the receiver must not
    # see after the update
    return np.array(block[tuple(sel)], copy=True)


def apply_star(
    op: StencilOp,
    block: np.ndarray,
    reach: tuple[tuple[int, int], ...],
    ghosts: dict,
    out: np.ndarray,
) -> None:
    """Apply ``op`` to ``block`` padded by ``reach`` and write the core to
    ``out``.

    ``ghosts[(axis, side)]`` fills the low (side 0) or high (side 1)
    padding of ``axis`` over the core extent of the other axes; padding
    without a ghost and the padding corners stay zero (the star
    contract)."""
    padded = np.zeros(
        tuple(s + lo + hi for s, (lo, hi) in zip(block.shape, reach)),
        dtype=block.dtype,
    )
    core = tuple(slice(lo, lo + s) for s, (lo, _) in zip(block.shape, reach))
    padded[core] = block
    for (axis, side), ghost in ghosts.items():
        lo, hi = reach[axis]
        n = block.shape[axis]
        sel = list(core)
        sel[axis] = slice(0, lo) if side == 0 else slice(lo + n, lo + n + hi)
        padded[tuple(sel)] = ghost
    result = op.fn(padded)
    if result.shape != block.shape:
        raise ValueError(
            f"{op.name} must return the core shape {block.shape}, "
            f"got {result.shape}"
        )
    out[...] = result


def slab_stencil(
    comm: Comm,
    slab: np.ndarray,
    op: StencilOp,
    part_axis: int,
    machine: MachineModel,
    tag_base: int,
    out: np.ndarray | None = None,
) -> Generator:
    """Apply a star stencil to this rank's slab, exchanging the two
    ``part_axis`` faces with the neighbouring ranks.  Writes the result to
    ``out`` (default: in place) and charges compute time."""
    reach = op.pad_widths(slab.ndim)
    low_w, high_w = reach[part_axis]
    rank, size = comm.rank, comm.size
    # sends first (eager), then receives — no deadlock possible
    if low_w and rank + 1 < size:
        yield from comm.send(
            face_copy(slab, part_axis, 0, low_w), rank + 1, tag_base
        )
    if high_w and rank - 1 >= 0:
        yield from comm.send(
            face_copy(slab, part_axis, 1, high_w), rank - 1, tag_base + 1
        )
    ghosts = {}
    if low_w and rank - 1 >= 0:
        ghosts[(part_axis, 0)] = yield from comm.recv(rank - 1, tag_base)
    if high_w and rank + 1 < size:
        ghosts[(part_axis, 1)] = yield from comm.recv(rank + 1, tag_base + 1)
    apply_star(op, slab, reach, ghosts, slab if out is None else out)
    yield from comm.compute(
        machine.compute_time(slab.size, op.flops_per_point, tiles=1),
        points=slab.size,
    )
