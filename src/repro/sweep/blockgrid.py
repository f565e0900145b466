"""Multi-axis static block partitioning with wavefront sweeps.

:class:`WavefrontExecutor` cuts one dimension; real static block
parallelizations of 3-D codes cut two (a ``p1 x p2`` processor grid over
axes 0 and 1, axis 2 local).  Sweeps then behave per axis:

* along a partitioned axis: every line crosses one *chain* of the grid
  (a row or column of processors) — the chain pipelines chunk by chunk
  exactly like the 1-D wavefront, and the ``p_other`` chains run
  concurrently;
* along an unpartitioned axis: fully local.

This is the strongest block-partitioning baseline for 3-D line sweeps and
the shape against which the paper's 3-D multipartitionings were
historically compared (van der Wijngaart's "static" variants).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.engine import run_programs
from repro.simmpi.machine import MachineModel

from .ops import (
    BinaryPointwiseOp,
    BlockSweepOp,
    CopyOp,
    PointwiseOp,
    StencilOp,
    SweepOp,
    scan_op,
)
from .halo import apply_star, face_copy
from .slabops import as_named, local_slab_op, unwrap_named
from .tiles import axis_extents

__all__ = ["BlockGridExecutor", "blockgrid_time"]


class BlockGridExecutor:
    """Static ``p1 x p2`` block partitioning of axes (0, 1) with pipelined
    wavefront sweeps along both partitioned axes."""

    def __init__(
        self,
        grid: tuple[int, int],
        shape: tuple[int, ...],
        machine: MachineModel,
        chunks: int = 8,
        record_events: bool = False,
    ):
        shape = tuple(int(s) for s in shape)
        if len(shape) < 2:
            raise ValueError("need at least 2 dimensions")
        p1, p2 = int(grid[0]), int(grid[1])
        if p1 < 1 or p2 < 1:
            raise ValueError("grid factors must be >= 1")
        if p1 > shape[0] or p2 > shape[1]:
            raise ValueError("grid exceeds array extents")
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        self.grid = (p1, p2)
        self.nprocs = p1 * p2
        self.shape = shape
        self.machine = machine
        self.chunks = chunks
        self.record_events = record_events
        self._spans0 = axis_extents(shape[0], p1)
        self._spans1 = axis_extents(shape[1], p2)

    # -- rank geometry -------------------------------------------------------

    def _coords(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.grid[1])

    def _rank(self, r: int, c: int) -> int:
        return r * self.grid[1] + c

    def _rank_sel(self, rank: int, ndim: int) -> tuple:
        r, c = self._coords(rank)
        lo0, hi0 = self._spans0[r]
        lo1, hi1 = self._spans1[c]
        sel: list = [slice(None)] * ndim
        sel[0] = slice(lo0, hi0)
        sel[1] = slice(lo1, hi1)
        return tuple(sel)

    def run(self, arrays, schedule) -> "tuple":
        single, named = as_named(arrays)
        per_rank: list[dict] = [{} for _ in range(self.nprocs)]
        ndim = None
        for name, array in named.items():
            array = np.asarray(array, dtype=np.float64)
            if array.shape != self.shape:
                raise ValueError("array shape mismatch")
            ndim = array.ndim
            for rank in range(self.nprocs):
                per_rank[rank][name] = np.array(
                    array[self._rank_sel(rank, ndim)], copy=True
                )
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
            for rank in range(self.nprocs):
                full[self._rank_sel(rank, len(self.shape))] = (
                    per_rank[rank][name]
                )
            out[name] = full
        return unwrap_named(single, out), result

    # -- rank program -----------------------------------------------------------

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
                if axis >= 2:
                    n = self.shape[axis]
                    scan_op(block, op, 0, n, n, carry=None)
                    yield from comm.compute(
                        self.machine.compute_time(
                            block.size, op.flops_per_point, tiles=1
                        ),
                        points=block.size,
                    )
                else:
                    yield from self._pipelined(comm, block, op, axis,
                                               op_index)
            else:
                raise TypeError(f"unsupported op {op!r}")
        return comm.rank

    def _pipelined(
        self, comm: Comm, block: np.ndarray, op, axis: int, op_index: int
    ) -> Generator:
        """Wavefront along partitioned axis 0 or 1: the chain is this
        rank's row/column of the grid; chunk over the *other* partitioned
        axis (keeping chunk traffic within the chain)."""
        r, c = self._coords(comm.rank)
        if axis == 0:
            chain_pos, chain_len = r, self.grid[0]
            lo, hi = self._spans0[r]

            def chain_rank(pos: int) -> int:
                return self._rank(pos, c)
        else:
            chain_pos, chain_len = c, self.grid[1]
            lo, hi = self._spans1[c]

            def chain_rank(pos: int) -> int:
                return self._rank(r, pos)

        n_global = self.shape[axis]
        chunk_axis = 1 - axis  # the other partitioned axis (local extent)
        n_chunk = block.shape[chunk_axis]
        chunks = min(self.chunks, n_chunk)
        spans = axis_extents(n_chunk, chunks)

        step = -1 if op.reverse else +1
        first = chain_pos == (0 if step == 1 else chain_len - 1)
        last = chain_pos == (chain_len - 1 if step == 1 else 0)
        upstream = chain_rank(chain_pos - step) if not first else -1
        downstream = chain_rank(chain_pos + step) if not last else -1
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
        out: np.ndarray | None = None,
    ) -> Generator:
        """Halo exchange across both partitioned axes, one after the other
        (star stencil: axis fills are independent)."""
        r, c = self._coords(comm.rank)
        reach = op.pad_widths(block.ndim)
        tag_base = (op_index + 1) * 100_000 + 50_000

        ghosts: dict[tuple[int, int], np.ndarray] = {}
        for axis, (pos, length, other) in (
            (0, (r, self.grid[0], c)),
            (1, (c, self.grid[1], r)),
        ):
            lo_w, hi_w = reach[axis]

            def nbr(p_: int) -> int:
                return (
                    self._rank(p_, other) if axis == 0 else self._rank(
                        other, p_
                    )
                )

            if lo_w and pos + 1 < length:
                yield from comm.send(
                    face_copy(block, axis, 0, lo_w), nbr(pos + 1),
                    tag_base + 10 * axis,
                )
            if hi_w and pos - 1 >= 0:
                yield from comm.send(
                    face_copy(block, axis, 1, hi_w), nbr(pos - 1),
                    tag_base + 10 * axis + 1,
                )
            if lo_w and pos - 1 >= 0:
                ghosts[(axis, 0)] = yield from comm.recv(
                    nbr(pos - 1), tag_base + 10 * axis
                )
            if hi_w and pos + 1 < length:
                ghosts[(axis, 1)] = yield from comm.recv(
                    nbr(pos + 1), tag_base + 10 * axis + 1
                )

        apply_star(op, block, reach, ghosts, block if out is None else out)
        yield from comm.compute(
            self.machine.compute_time(
                block.size, op.flops_per_point, tiles=1
            ),
            points=block.size,
        )


def blockgrid_time(
    shape: tuple[int, ...],
    grid: tuple[int, int],
    machine: MachineModel,
    schedule,
    chunks: int = 8,
) -> float:
    """Closed-form model of :class:`BlockGridExecutor`: per partitioned
    axis, a ``chunks + chain - 1``-stage pipeline of chunk compute + chunk
    carry; unpartitioned axes and pointwise ops are pure compute."""
    from .modeled import _msg_time

    eta = float(np.prod(shape))
    p1, p2 = grid
    p = p1 * p2
    total = 0.0
    for op in schedule:
        if isinstance(op, (PointwiseOp, StencilOp)):
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            if isinstance(op, StencilOp):
                for axis, chain in ((0, p1), (1, p2)):
                    if chain == 1:
                        continue
                    lo, hi = op.reach[axis]
                    share = eta / (shape[axis] * p)
                    for width in (lo, hi):
                        if width:
                            total += _msg_time(
                                machine,
                                width * share * machine.itemsize,
                                concurrent=p,
                            )
            continue
        axis = op.axis % len(shape)
        if axis >= 2 or (axis == 0 and p1 == 1) or (axis == 1 and p2 == 1):
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            continue
        chain = p1 if axis == 0 else p2
        other_local = shape[1 - axis] // (p2 if axis == 0 else p1)
        eff_chunks = min(chunks, max(1, other_local))
        chunk_points = eta / (p * eff_chunks)
        carry_elems = eta / (shape[axis] * (p2 if axis == 0 else p1)) / (
            eff_chunks
        )
        stage = machine.compute_time(
            chunk_points, op.flops_per_point, tiles=1
        ) + _msg_time(
            machine, carry_elems * machine.itemsize, concurrent=p
        )
        total += (eff_chunks + chain - 1) * stage
    return total
