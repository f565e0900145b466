"""Static block partitioning on a processor grid — both block baselines.

A block grid is a rectilinear partition with one processor count per
leading axis; axes past the grid stay uncut.  The 1-D static block
("wavefront") baseline is the one-axis grid ``(1,) * k + (p,)``, a ``p1 x
p2`` grid over axes 0 and 1 is the strongest static block baseline for 3-D
line sweeps (van der Wijngaart's "static" variants), and
:class:`~repro.sweep.transpose.TransposeExecutor` (dynamic block) is the
one-axis grid with a different cut-axis sweep.
"""

from __future__ import annotations

import math
from typing import Generator

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.engine import run_programs
from repro.simmpi.machine import MachineModel

from .halo import apply_star, face_copy
from .ops import (
    BinaryPointwiseOp,
    BlockSweepOp,
    CopyOp,
    PointwiseOp,
    StencilOp,
    SweepOp,
    scan_op,
)
from .slabops import as_named, local_slab_op, unwrap_named
from .tiles import axis_extents

__all__ = ["BlockGridExecutor"]


class BlockGridExecutor:
    """Static block partitioning: ``grid[a]`` contiguous blocks along each
    leading axis ``a``, one block per rank, ranks numbered row-major over
    the grid (as :meth:`repro.hpf.distribution.ResolvedBlock.owner_of`).

    The one rule: a sweep along an axis whose count is greater than 1 runs
    the cut-axis sweep :meth:`_cut_sweep` — here a wavefront pipelined
    along the chain of ranks that differ only in that axis's coordinate,
    chunked over the first axis other than the sweep axis, so the chains
    run concurrently and rank ``r`` starts chunk ``c`` as soon as its
    upstream neighbour finishes it.  Every other sweep is one local scan
    with one compute charge.  Stencils exchange faces with both neighbours
    on every cut axis, with tags ``tag_base + 10 * axis + side`` as in
    :class:`~repro.sweep.multipart.MultipartExecutor`.

    Small chunks shorten pipeline fill and drain but pay more per-message
    overhead — the tension the paper's Section 1 describes.
    """

    def __init__(
        self,
        grid: tuple[int, ...],
        shape: tuple[int, ...],
        machine: MachineModel,
        chunks: int = 8,
        record_events: bool = False,
    ):
        shape = tuple(int(s) for s in shape)
        grid = tuple(int(g) for g in grid)
        if len(shape) < 2:
            raise ValueError("need at least 2 dimensions")
        if len(grid) > len(shape):
            raise ValueError(
                f"grid {grid} has more axes than the array shape {shape}"
            )
        if any(g < 1 for g in grid):
            raise ValueError("grid counts must be >= 1")
        if any(g > n for g, n in zip(grid, shape)):
            raise ValueError("grid exceeds array extents")
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        self.grid = grid + (1,) * (len(shape) - len(grid))
        self.nprocs = math.prod(self.grid)
        self.shape = shape
        self.machine = machine
        self.chunks = chunks
        self.record_events = record_events
        self._spans = [axis_extents(n, g) for n, g in zip(shape, self.grid)]
        # rank distance between neighbours along each axis (row-major)
        self._strides = [
            math.prod(self.grid[a + 1:]) for a in range(len(shape))
        ]

    def _coords(self, rank: int) -> list[int]:
        return [rank // s % g for s, g in zip(self._strides, self.grid)]

    def _rank_sel(self, rank: int) -> tuple:
        return tuple(
            slice(*spans[c])
            for spans, c in zip(self._spans, self._coords(rank))
        )

    def run(self, arrays, schedule) -> "tuple":
        single, named = as_named(arrays)
        sels = [self._rank_sel(rank) for rank in range(self.nprocs)]
        per_rank: list[dict] = [{} for _ in range(self.nprocs)]
        for name, array in named.items():
            array = np.asarray(array, dtype=np.float64)
            if array.shape != self.shape:
                raise ValueError("array shape mismatch")
            for blocks, sel in zip(per_rank, sels):
                blocks[name] = np.array(array[sel], copy=True)
        programs = [
            self._rank_program(Comm(rank, self.nprocs), per_rank[rank],
                               schedule)
            for rank in range(self.nprocs)
        ]
        result = run_programs(
            self.machine, programs, record_events=self.record_events
        )
        out = {}
        for name in named:
            full = np.empty(self.shape, dtype=np.float64)
            for blocks, sel in zip(per_rank, sels):
                full[sel] = blocks[name]
            out[name] = full
        return unwrap_named(single, out), result

    def _rank_program(
        self, comm: Comm, blocks: dict, schedule
    ) -> Generator:
        def get(name: str) -> np.ndarray:
            if name not in blocks:
                raise KeyError(
                    f"schedule references unknown array {name!r}"
                )
            return blocks[name]

        for op_index, op in enumerate(schedule):
            if isinstance(op, (PointwiseOp, BinaryPointwiseOp, CopyOp)):
                yield from local_slab_op(comm, op, get, self.machine)
            elif isinstance(op, StencilOp):
                yield from self._stencil(
                    comm,
                    get(op.array),
                    op,
                    op_index,
                    out=get(op.out_array or op.array),
                )
            elif isinstance(op, (SweepOp, BlockSweepOp)):
                block = get(op.array)
                axis = op.axis % len(self.shape)
                if self.grid[axis] > 1:
                    yield from self._cut_sweep(comm, block, op, axis,
                                               op_index)
                else:
                    n = self.shape[axis]
                    scan_op(block, op, 0, n, n, carry=None)
                    yield from comm.compute(
                        self.machine.compute_time(
                            block.size, op.flops_per_point, tiles=1
                        ),
                        points=block.size,
                    )
            else:
                raise TypeError(f"unsupported op {op!r}")
        return comm.rank

    def _cut_sweep(
        self, comm: Comm, block: np.ndarray, op, axis: int, op_index: int
    ) -> Generator:
        """Wavefront along cut ``axis``, chunked over the first other
        axis; the carry of each chunk travels down the chain."""
        pos = self._coords(comm.rank)[axis]
        chain_len = self.grid[axis]
        stride = self._strides[axis]
        lo, hi = self._spans[axis][pos]
        n_global = self.shape[axis]
        chunk_axis = 0 if axis != 0 else 1
        n_chunk = block.shape[chunk_axis]
        spans = axis_extents(n_chunk, min(self.chunks, n_chunk))

        step = -1 if op.reverse else +1
        first = pos == (0 if step == 1 else chain_len - 1)
        last = pos == (chain_len - 1 if step == 1 else 0)
        upstream = comm.rank - step * stride
        downstream = comm.rank + step * stride
        tag_base = (op_index + 1) * 100_000

        for k, (clo, chi) in enumerate(spans):
            sel: list = [slice(None)] * block.ndim
            sel[chunk_axis] = slice(clo, chi)
            sub = block[tuple(sel)]
            carry_in = None
            if not first:
                carry_in = yield from comm.recv(upstream, tag_base + k)
            carry_out = scan_op(sub, op, lo, hi, n_global, carry=carry_in)
            yield from comm.compute(
                self.machine.compute_time(
                    sub.size, op.flops_per_point, tiles=1
                ),
                points=sub.size,
            )
            if not last:
                yield from comm.send(carry_out, downstream, tag_base + k)

    def _stencil(
        self,
        comm: Comm,
        block: np.ndarray,
        op: StencilOp,
        op_index: int,
        out: np.ndarray,
    ) -> Generator:
        """Halo exchange across every cut axis, one after the other (star
        stencil: axis fills are independent); sends go first (eager), so no
        exchange can deadlock."""
        coords = self._coords(comm.rank)
        reach = op.pad_widths(block.ndim)
        tag_base = (op_index + 1) * 100_000 + 50_000

        ghosts: dict[tuple[int, int], np.ndarray] = {}
        for axis, length in enumerate(self.grid):
            if length == 1:
                continue
            pos, stride = coords[axis], self._strides[axis]
            lo_w, hi_w = reach[axis]
            tag = tag_base + 10 * axis
            if lo_w and pos + 1 < length:
                yield from comm.send(
                    face_copy(block, axis, 0, lo_w), comm.rank + stride, tag
                )
            if hi_w and pos > 0:
                yield from comm.send(
                    face_copy(block, axis, 1, hi_w), comm.rank - stride,
                    tag + 1,
                )
            if lo_w and pos > 0:
                ghosts[(axis, 0)] = yield from comm.recv(
                    comm.rank - stride, tag
                )
            if hi_w and pos + 1 < length:
                ghosts[(axis, 1)] = yield from comm.recv(
                    comm.rank + stride, tag + 1
                )

        apply_star(op, block, reach, ghosts, out)
        yield from comm.compute(
            self.machine.compute_time(
                block.size, op.flops_per_point, tiles=1
            ),
            points=block.size,
        )
