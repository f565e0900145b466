"""Line-sweep execution engines.

Real-data executors (all interpret the same :mod:`repro.sweep.ops`
schedules, so results are directly comparable):

* :class:`MultipartExecutor` — the paper's strategy;
* :class:`BlockGridExecutor` — static block partitioning on a processor
  grid with pipelined wavefront sweeps; the one-axis grid
  ``(1,) * k + (p,)`` is the classic wavefront baseline;
* :class:`TransposeExecutor` — dynamic block (transpose) baseline: the
  one-axis block grid with a transpose as its cut-axis sweep;
* :func:`run_sequential` — single-processor ground truth.

Modeled mode (:mod:`repro.sweep.modeled`) provides closed-form times for
large problem instances.
"""

from .modeled import (
    best_processor_count_modeled,
    best_wavefront_chunks,
    blockgrid_time,
    multipart_time,
    transpose_time,
)
from .multipart import MultipartExecutor
from .blockgrid import BlockGridExecutor
from .ops import (
    BinaryPointwiseOp,
    BlockSweepOp,
    CopyOp,
    PointwiseOp,
    Schedule,
    StencilOp,
    SweepOp,
    block_thomas_ops,
    scan_op,
    star_laplacian,
    thomas_ops,
)
from .recurrence import affine_scan, thomas_factor, thomas_solve
from .sequential import run_sequential, sequential_time
from .tiles import TileGrid, axis_extents
from .transpose import TransposeExecutor

__all__ = [
    "MultipartExecutor",
    "TransposeExecutor",
    "BlockGridExecutor",
    "blockgrid_time",
    "run_sequential",
    "sequential_time",
    "PointwiseOp",
    "BinaryPointwiseOp",
    "CopyOp",
    "BlockSweepOp",
    "block_thomas_ops",
    "scan_op",
    "Schedule",
    "StencilOp",
    "SweepOp",
    "star_laplacian",
    "thomas_ops",
    "affine_scan",
    "thomas_factor",
    "thomas_solve",
    "TileGrid",
    "axis_extents",
    "multipart_time",
    "transpose_time",
    "best_wavefront_chunks",
    "best_processor_count_modeled",
]
