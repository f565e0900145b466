"""Star-stencil halo kernels shared by every distributed executor.

:func:`face_copy` cuts the boundary planes a neighbour needs as ghosts and
:func:`apply_star` pads a block with the received ghosts and applies the
stencil.  The multipartitioned and block-grid executors differ only in
which faces travel to which rank: a tile's faces go to its neighbour
processor along each cut axis, a block's to the adjacent blocks of the
grid.  Padding without a ghost is the global zero boundary.
"""

from __future__ import annotations

import numpy as np

from .ops import StencilOp

__all__ = ["apply_star", "face_copy"]


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

