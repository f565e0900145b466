"""Distributed line sweeps over a multipartitioned array (real-data mode).

Each simulated rank owns the tiles its :class:`Multipartitioning` assigns it.
A sweep along axis ``i`` proceeds slab by slab: every rank computes the scan
on *its own* tiles of the current slab (perfect balance), then forwards each
tile's outgoing boundary plane ("carry") to the owner of the downstream
neighbour tile.  The **neighbor property** guarantees all those carries go to
one single rank, so they are aggregated into one message per phase —
the communication-vectorization the dHPF compiler performs (Section 5).
Setting ``aggregate=False`` sends one message per tile instead (the ablation
of that optimization).

The executor runs any :mod:`repro.sweep.ops` schedule and returns both the
reassembled global array (verified against the sequential reference in the
tests) and the simulator's :class:`RunResult` (virtual time, message and
byte counts).

**Skeleton mode** (``payload="skeleton"``, or :meth:`MultipartExecutor
.run_skeleton` directly) emits each rank's op stream — sends by tag and
declared byte count (:class:`~repro.simmpi.message.Bytes`), receives,
compute charges, phase marks — from per-rank slab tables of exact integers
built once from tile extents and the owner table.  The modular mapping
makes every rank run the same per-(op, axis, slab) template over its own
tiles, so one flat generator walks the schedule and reads the tables.  The
streams equal real-data mode's rank by rank, and so do clocks and makespan
(pinned bit-for-bit by ``tests/sweep/test_skeleton.py``).  No scatter,
scan, or gather happens, which is what lets class B (102^3) simulate up to
p = 256 in seconds: the paper's Table 1 claims are about communication
structure and timing, none of which needs the payload data.
"""

from __future__ import annotations

import dataclasses
import functools
from math import prod
from typing import Generator

import numpy as np

from repro.core.mapping import Multipartitioning
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.protocol import ProtocolConfig, ReliableComm
from repro.simmpi.comm import Comm, _check_phase_label
from repro.simmpi.engine import run_programs
from repro.simmpi.machine import MachineModel
from repro.simmpi.message import (
    PHASE_BEGIN,
    PHASE_END,
    Bytes,
    ComputeOp,
    MarkOp,
    RecvOp,
    SendOp,
)
from repro.simmpi.trace import RunResult

from .ops import (
    BinaryPointwiseOp,
    BlockSweepOp,
    CopyOp,
    PointwiseOp,
    StencilOp,
    SweepOp,
    scan_op,
)
from .tiles import TileGrid

__all__ = ["MultipartExecutor"]

#: distributed blocks are always float64 (scatter casts on entry)
_ITEMSIZE = 8


def _tile_linear_index(tile: tuple[int, ...], gammas: tuple[int, ...]) -> int:
    idx = 0
    for t, g in zip(tile, gammas):
        idx = idx * g + t
    return idx


class _CarryPayload:
    """Aggregated sweep carries: tile coords + their boundary planes.

    Declares a *structural* wire size — the plane buffers only, matching
    what an MPI implementation would put on the wire for the vectorized
    carry message (coords are tiny metadata) and what skeleton mode can
    recompute from tile geometry alone."""

    __slots__ = ("coords", "planes", "nbytes")

    def __init__(self, coords, planes):
        self.coords = coords
        self.planes = planes
        self.nbytes = sum(p.nbytes for p in planes)


class _FacePayload:
    """Aggregated stencil halo faces: (dest tile, face array) pairs, with
    the same structural wire-size convention as :class:`_CarryPayload`."""

    __slots__ = ("items", "nbytes")

    def __init__(self, items):
        self.items = items
        self.nbytes = sum(face.nbytes for _, face in items)

    def __iter__(self):
        return iter(self.items)


class MultipartExecutor:
    """Runs sweep schedules on a multipartitioned distributed array."""

    def __init__(
        self,
        partitioning: Multipartitioning,
        shape: tuple[int, ...],
        machine: MachineModel,
        aggregate: bool = True,
        record_events: bool = False,
        sinks: tuple = (),
        payload: str = "data",
        faults: FaultPlan | None = None,
        protocol: ProtocolConfig | None = None,
    ):
        if len(shape) != partitioning.ndim:
            raise ValueError("array rank must match partitioning rank")
        if payload not in ("data", "skeleton"):
            raise ValueError(
                f"payload must be 'data' or 'skeleton', got {payload!r}"
            )
        if (
            faults is not None
            and (faults.drop_rate > 0.0 or faults.dup_rate > 0.0)
            and protocol is None
        ):
            raise ValueError(
                "fault plans that drop or duplicate messages require the "
                "reliable-delivery protocol (pass protocol=ProtocolConfig())"
            )
        self.partitioning = partitioning
        self.grid = TileGrid(tuple(shape), partitioning.gammas)
        self.machine = machine
        self.aggregate = aggregate
        self.record_events = record_events
        self.sinks = tuple(sinks)
        self.payload = payload
        self.faults = faults
        self.protocol = protocol
        # ops' phase annotations / marks only matter when someone observes
        # them: the in-memory trace or a streaming sink
        self._emit_marks = record_events or bool(self.sinks)
        # skeleton programs: row-major tile strides, the per-rank tables
        # (built on first use) and the op parts every rank shares
        gammas = partitioning.gammas
        self._strides = tuple(prod(gammas[a + 1:]) for a in range(len(gammas)))
        self._tables: list | None = None
        self._compute_op = functools.cache(
            lambda points, fpp, ntiles: ComputeOp(
                machine.compute_time(points, fpp, tiles=ntiles), points=points
            )
        )
        self._payload = functools.cache(Bytes)

    # -- fault / protocol plumbing --------------------------------------------

    def _make_comm(self, rank: int) -> Comm:
        """Plain communicator, or the reliable-delivery wrapper when a
        protocol config is attached."""
        nprocs = self.partitioning.nprocs
        if self.protocol is not None:
            return ReliableComm(rank, nprocs, self.protocol)
        return Comm(rank, nprocs)

    @staticmethod
    def _finalized(comm: "ReliableComm", inner: Generator) -> Generator:
        """Run ``inner``, then linger re-acking stray retransmissions until
        every rank is done (see :meth:`ReliableComm.finalize`)."""
        result = yield from inner
        yield from comm.finalize()
        return result

    def _execute(
        self, programs: list, comms: "list[Comm] | None"
    ) -> RunResult:
        """Run the rank programs; under a protocol config each one lingers
        in :meth:`ReliableComm.finalize` after its last op and the result
        carries the protocol counters."""
        if self.protocol is not None:
            programs = [
                self._finalized(comm, prog)
                for comm, prog in zip(comms, programs)
            ]
        injector = None
        if self.faults is not None:
            injector = FaultInjector(self.faults, self.partitioning.nprocs)
        result = run_programs(
            self.machine, programs, record_events=self.record_events,
            sinks=self.sinks, faults=injector,
        )
        if self.protocol is not None:
            # fold the per-rank ReliableComm counters into the result
            stats = {
                key: sum(comm.stats[key] for comm in comms)
                for key in comms[0].stats
            }
            result = dataclasses.replace(result, protocol_stats=stats)
        return result

    # -- public API -----------------------------------------------------------

    def run(self, arrays, schedule) -> "tuple":
        """Distribute the array(s), execute ``schedule`` on all simulated
        ranks, reassemble and return ``(result, run_result)``.

        ``arrays`` is a single numpy array (ops default to array "u"; a
        single array comes back) or a dict of aligned same-shape arrays.

        In skeleton mode the data (if any) is ignored entirely and the
        result array is ``None`` — see :meth:`run_skeleton`.
        """
        if self.payload == "skeleton":
            return None, self.run_skeleton(schedule)
        single = not isinstance(arrays, dict)
        named = {"u": arrays} if single else arrays
        mp = self.partitioning
        per_rank_named: list[dict] = [
            {} for _ in range(mp.nprocs)
        ]
        for name, array in named.items():
            array = np.asarray(array, dtype=np.float64)
            scattered = self.grid.scatter(array, mp.owner, mp.nprocs)
            for rank in range(mp.nprocs):
                per_rank_named[rank][name] = scattered[rank]
        comms = [self._make_comm(rank) for rank in range(mp.nprocs)]
        programs = [
            self._rank_program(comms[rank], per_rank_named[rank], schedule)
            for rank in range(mp.nprocs)
        ]
        result = self._execute(programs, comms)
        out = {
            name: self.grid.gather(
                [per_rank_named[rank][name] for rank in range(mp.nprocs)]
            )
            for name in named
        }
        return (out["u"] if single else out), result

    def run_skeleton(self, schedule) -> "RunResult":
        """Execute ``schedule`` payload-free and return the
        :class:`~repro.simmpi.trace.RunResult` only.

        The rank programs yield the identical op sequence as :meth:`run` —
        same sends (by tag and byte count), receives, compute durations and
        phase marks — so clocks, makespan, message counts, and byte totals
        match real-data mode bit-for-bit; only the array contents are
        absent."""
        nprocs = self.partitioning.nprocs
        programs = [
            self.skeleton_rank_program(rank, schedule)
            for rank in range(nprocs)
        ]
        if self.protocol is None:
            return self._execute(programs, None)
        comms = [self._make_comm(rank) for rank in range(nprocs)]
        return self._execute(
            [self._reliable(c, prog) for c, prog in zip(comms, programs)],
            comms,
        )

    def skeleton_rank_program(self, rank: int, schedule) -> Generator:
        """One rank's payload-free program as a fresh generator.

        It yields the primitive ops of :meth:`run`'s rank program for
        ``rank`` — same sends (dest, tag, declared bytes), receives,
        compute charges and, when marks are emitted, phase marks — read
        from the executor's per-rank slab tables instead of numpy blocks.
        No control flow depends on received payloads, so the static
        verifier (:mod:`repro.verify`) drains it without the engine (see
        :func:`repro.simmpi.program.record_ops`).
        """
        points, ntiles, slab_rows, faces = self._rank_tables()[rank]
        ndim = self.grid.ndim
        marks = self._emit_marks
        aggregate = self.aggregate
        compute = self._compute_op
        payload = self._payload
        open_phase: str | None = None
        for op_index, op in enumerate(schedule):
            if marks:
                # consecutive ops sharing a phase annotation share one span
                phase = getattr(op, "phase", None)
                if phase != open_phase:
                    if open_phase is not None:
                        yield MarkOp(PHASE_END + open_phase)
                    if phase is not None:
                        yield MarkOp(PHASE_BEGIN + _check_phase_label(phase))
                    open_phase = phase
                yield MarkOp(f"op{op_index}:{op.label()}")
            if isinstance(op, (SweepOp, BlockSweepOp)):
                axis = op.axis % ndim
                up, down = self._neighbors(rank, axis)
                slabs = slab_rows[axis]
                send_to, recv_from, shift = up, down, self._strides[axis]
                if op.reverse:
                    slabs = slabs[::-1]
                    send_to, recv_from, shift = down, up, -shift
                last = len(slabs) - 1
                tag_base = (op_index + 1) * 100_000
                fpp = op.flops_per_point
                for phase, (npoints, count, carry, planes) in enumerate(slabs):
                    if marks:
                        yield MarkOp(f"{PHASE_BEGIN}p{phase}")
                    if phase:
                        tag = tag_base + phase
                        if aggregate:
                            yield RecvOp(recv_from, tag)
                        else:
                            for lin, _ in planes:
                                yield RecvOp(recv_from, tag * 1_000_000 + lin)
                    yield compute(npoints, fpp, count)
                    if phase < last and count:
                        tag = tag_base + phase + 1
                        if aggregate:
                            yield SendOp(send_to, payload(carry), tag)
                        else:
                            # per-tile carries are tagged by the downstream tile
                            tag = tag * 1_000_000 + shift
                            for lin, nbytes in planes:
                                yield SendOp(send_to, payload(nbytes), tag + lin)
                    if marks:
                        yield MarkOp(f"{PHASE_END}p{phase}")
            elif isinstance(op, StencilOp):
                reach = op.pad_widths(ndim)
                tag_base = (op_index + 1) * 100_000 + 50_000
                # side 0 sends its trailing planes toward +1, side 1 toward -1
                sides = [
                    (axis, side, reach[axis][side])
                    for axis in range(ndim)
                    if len(slab_rows[axis]) > 1
                    for side in (0, 1)
                    if reach[axis][side]
                ]
                for axis, side, width in sides:
                    if faces[axis][side]:
                        yield SendOp(
                            self._neighbors(rank, axis)[side],
                            payload(width * faces[axis][side]),
                            tag_base + 10 * axis + side,
                        )
                # ghosts sent toward `side` arrive from the opposite one
                for axis, side, _ in sides:
                    if faces[axis][1 - side]:
                        yield RecvOp(
                            self._neighbors(rank, axis)[1 - side],
                            tag_base + 10 * axis + side,
                        )
                yield compute(points, op.flops_per_point, ntiles)
            elif isinstance(op, (BinaryPointwiseOp, CopyOp, PointwiseOp)):
                yield compute(points, op.flops_per_point, ntiles)
            else:
                raise TypeError(f"unsupported op {op!r}")
        if marks and open_phase is not None:
            yield MarkOp(PHASE_END + open_phase)
        return rank

    @staticmethod
    def _reliable(comm: "ReliableComm", ops: Generator) -> Generator:
        """Route a skeleton op stream's sends and receives through the
        reliable-delivery protocol; compute and mark ops pass through."""
        for op in ops:
            cls = op.__class__
            if cls is SendOp:
                yield from comm.send(op.payload, op.dest, op.tag)
            elif cls is RecvOp:
                yield from comm.recv(op.source, op.tag)
            else:
                yield op
        return comm.rank

    def _neighbors(self, rank: int, axis: int) -> "tuple[int, int]":
        """The ranks owning the ``+1`` and ``-1`` neighbors along ``axis``
        of ``rank``'s tiles."""
        mp = self.partitioning
        nbrs = (mp.neighbor_rank(rank, axis, +1),
                mp.neighbor_rank(rank, axis, -1))
        if rank in nbrs:  # a rank owning whole lines along ``axis``
            raise ValueError("self-send is not supported; keep data local")
        return nbrs

    # -- rank program -----------------------------------------------------------

    def _rank_program(
        self,
        comm: Comm,
        arrays: "dict[str, dict[tuple[int, ...], np.ndarray]]",
        schedule,
    ) -> Generator:
        def blocks_of(name: str):
            if name not in arrays:
                raise KeyError(
                    f"schedule references unknown array {name!r}"
                )
            return arrays[name]

        open_phase: str | None = None
        for op_index, op in enumerate(schedule):
            if self._emit_marks:
                # consecutive ops sharing a phase annotation share one span
                # (e.g. the four sweeps of SP's x_solve)
                phase = getattr(op, "phase", None)
                if phase != open_phase:
                    if open_phase is not None:
                        yield from comm.phase_end(open_phase)
                    if phase is not None:
                        yield from comm.phase_begin(phase)
                    open_phase = phase
                yield from comm.mark(f"op{op_index}:{op.label()}")
            if isinstance(op, (SweepOp, BlockSweepOp)):
                yield from self._sweep(
                    comm, blocks_of(op.array), op, op_index
                )
            elif isinstance(op, StencilOp):
                yield from self._stencil(
                    comm,
                    blocks_of(op.array),
                    op,
                    op_index,
                    out_blocks=blocks_of(op.out_array or op.array),
                )
            elif isinstance(op, BinaryPointwiseOp):
                target = blocks_of(op.target)
                source = blocks_of(op.source)
                points = 0
                for tile, block in target.items():
                    result = op.fn(block, source[tile])
                    if result.shape != block.shape:
                        raise ValueError(
                            f"{op.name} changed a tile's shape"
                        )
                    block[...] = result
                    points += block.size
                yield from comm.compute(
                    self.machine.compute_time(
                        points, op.flops_per_point, tiles=len(target)
                    ),
                    points=points,
                )
            elif isinstance(op, CopyOp):
                src = blocks_of(op.src)
                dst = blocks_of(op.dst)
                points = 0
                for tile, block in dst.items():
                    block[...] = src[tile]
                    points += block.size
                yield from comm.compute(
                    self.machine.compute_time(
                        points, op.flops_per_point, tiles=len(dst)
                    ),
                    points=points,
                )
            elif isinstance(op, PointwiseOp):
                yield from self._pointwise(comm, blocks_of(op.array), op)
            else:
                raise TypeError(f"unsupported op {op!r}")
        if self._emit_marks and open_phase is not None:
            yield from comm.phase_end(open_phase)
        return comm.rank

    def _pointwise(self, comm: Comm, blocks, op: PointwiseOp) -> Generator:
        points = 0
        for tile, block in blocks.items():
            result = op.fn(block)
            if result.shape != block.shape:
                raise ValueError(f"{op.name} changed a tile's shape")
            # in-place update so scatter/gather aliasing stays intact
            block[...] = result
            points += block.size
        yield from comm.compute(
            self.machine.compute_time(
                points, op.flops_per_point, tiles=len(blocks)
            ),
            points=points,
        )

    def _sweep(
        self, comm: Comm, blocks, op: SweepOp, op_index: int
    ) -> Generator:
        mp = self.partitioning
        axis = op.axis % self.grid.ndim
        gamma = mp.gammas[axis]
        n_axis = self.grid.shape[axis]
        send_dir = -1 if op.reverse else +1
        nbr_send = mp.neighbor_rank(comm.rank, axis, send_dir)
        nbr_recv = mp.neighbor_rank(comm.rank, axis, -send_dir)
        slab_order = list(mp.slabs(axis, reverse=op.reverse))
        tag_base = (op_index + 1) * 100_000

        carries: dict[tuple[int, ...], np.ndarray] = {}
        for phase, slab in enumerate(slab_order):
            if self._emit_marks:
                # nested span: the paper's per-sweep pipeline phases
                # ("x_solve/p2") — every rank participates in every one
                # (balance property), which the phase profile verifies
                yield from comm.phase_begin(f"p{phase}")
            my_tiles = mp.tiles_of_in_slab(comm.rank, axis, slab)
            if phase > 0:
                carries = yield from self._recv_carries(
                    comm, nbr_recv, my_tiles, tag_base + phase
                )
            outgoing: dict[tuple[int, ...], np.ndarray] = {}
            points = 0
            for tile in my_tiles:
                block = blocks[tile]
                lo, hi = self.grid.tile_span(axis, slab)
                carry_in = carries.get(tile)
                carry_out = scan_op(
                    block, op, lo, hi, n_axis, carry=carry_in
                )
                points += block.size
                dest = list(tile)
                dest[axis] += send_dir
                if 0 <= dest[axis] < gamma:
                    outgoing[tuple(dest)] = carry_out
            yield from comm.compute(
                self.machine.compute_time(
                    points, op.flops_per_point, tiles=len(my_tiles)
                ),
                points=points,
            )
            if phase < len(slab_order) - 1 and outgoing:
                yield from self._send_carries(
                    comm, nbr_send, outgoing, tag_base + phase + 1
                )
            if self._emit_marks:
                yield from comm.phase_end(f"p{phase}")
        # sanity: every rank participates in every phase (balance property)

    def _stencil(
        self,
        comm: Comm,
        blocks,
        op: StencilOp,
        op_index: int,
        out_blocks=None,
    ) -> Generator:
        """Star-stencil update with halo exchange (shadow-region fill).

        One aggregated message per (rank, axis, side) — the communication
        pattern the dHPF shadow/vectorization analysis plans.  Ghosts beyond
        the global boundary stay zero; padding corners stay zero (the star
        contract).
        """
        mp = self.partitioning
        ndim = self.grid.ndim
        reach = op.pad_widths(ndim)
        tag_base = (op_index + 1) * 100_000 + 50_000

        # -- send faces (eager, never blocks) -------------------------------
        # Ghosts on the `step=-1` side of a tile come from the previous
        # tile's trailing planes (sent in the +1 direction), and vice versa.
        for axis in range(ndim):
            for step, width in ((+1, reach[axis][0]), (-1, reach[axis][1])):
                if width == 0 or mp.gammas[axis] == 1:
                    continue
                dest_rank = mp.neighbor_rank(comm.rank, axis, step)
                outgoing = []
                for tile in mp.tiles_of(comm.rank):
                    dest = list(tile)
                    dest[axis] += step
                    if not 0 <= dest[axis] < mp.gammas[axis]:
                        continue
                    block = blocks[tile]
                    sel = [slice(None)] * ndim
                    n = block.shape[axis]
                    sel[axis] = (
                        slice(n - width, n) if step == 1 else slice(0, width)
                    )
                    # copy=True, NOT ascontiguousarray: a leading-axis slice
                    # is already contiguous and would alias the block, which
                    # the receiver must not see post-update
                    outgoing.append(
                        (tuple(dest), np.array(block[tuple(sel)], copy=True))
                    )
                if outgoing:
                    yield from comm.send(
                        _FacePayload(outgoing),
                        dest_rank,
                        tag_base + 10 * axis + (0 if step == 1 else 1),
                    )

        # -- receive ghosts ---------------------------------------------------
        # ghosts[tile][(axis, side)] -> face array; side 0 = low, 1 = high
        ghosts: dict[tuple[int, ...], dict[tuple[int, int], np.ndarray]] = {
            tile: {} for tile in mp.tiles_of(comm.rank)
        }
        for axis in range(ndim):
            for step, width, side in (
                (+1, reach[axis][0], 0),
                (-1, reach[axis][1], 1),
            ):
                if width == 0 or mp.gammas[axis] == 1:
                    continue
                src_rank = mp.neighbor_rank(comm.rank, axis, -step)
                expecting = any(
                    0 <= t[axis] - step < mp.gammas[axis]
                    for t in mp.tiles_of(comm.rank)
                )
                if not expecting:
                    continue
                payload = yield from comm.recv(
                    src_rank,
                    tag_base + 10 * axis + (0 if step == 1 else 1),
                )
                for tile, face in payload:
                    ghosts[tile][(axis, side)] = face

        # -- apply --------------------------------------------------------------
        points = 0
        for tile in mp.tiles_of(comm.rank):
            block = blocks[tile]
            padded = np.zeros(
                tuple(
                    s + lo + hi
                    for s, (lo, hi) in zip(block.shape, reach)
                ),
                dtype=block.dtype,
            )
            core = tuple(
                slice(lo, lo + s) for s, (lo, _) in zip(block.shape, reach)
            )
            padded[core] = block
            for (axis, side), face in ghosts[tile].items():
                lo, hi = reach[axis]
                sel = list(core)
                sel[axis] = (
                    slice(0, lo)
                    if side == 0
                    else slice(lo + block.shape[axis], lo + block.shape[axis] + hi)
                )
                padded[tuple(sel)] = face
            result = op.fn(padded)
            if result.shape != block.shape:
                raise ValueError(
                    f"{op.name} must return the core shape {block.shape}"
                )
            (out_blocks if out_blocks is not None else blocks)[tile][
                ...
            ] = result
            points += block.size
        yield from comm.compute(
            self.machine.compute_time(
                points, op.flops_per_point, tiles=len(blocks)
            ),
            points=points,
        )

    def _send_carries(
        self, comm: Comm, dest: int, outgoing, tag: int
    ) -> Generator:
        if dest < 0:
            raise AssertionError(
                "outgoing carries with no neighbor rank (gamma==1?)"
            )
        if self.aggregate:
            # one vectorized message carrying every tile's boundary plane
            items = sorted(outgoing.items())
            coords = tuple(t for t, _ in items)
            planes = [p for _, p in items]
            yield from comm.send(_CarryPayload(coords, planes), dest, tag)
        else:
            for tile in sorted(outgoing):
                yield from comm.send(
                    outgoing[tile],
                    dest,
                    tag * 1_000_000 + _tile_linear_index(tile, self.grid.gammas),
                )

    def _recv_carries(
        self, comm: Comm, source: int, my_tiles, tag: int
    ) -> Generator:
        if source < 0:
            raise AssertionError(
                "expecting carries but no neighbor rank (gamma==1?)"
            )
        if self.aggregate:
            payload = yield from comm.recv(source, tag)
            return dict(zip(payload.coords, payload.planes))
        carries = {}
        for tile in sorted(my_tiles):
            carries[tile] = yield from comm.recv(
                source, tag * 1_000_000 + _tile_linear_index(tile, self.grid.gammas)
            )
        return carries

    # -- skeleton geometry tables ---------------------------------------------

    def _rank_tables(self) -> list:
        """Per-rank ``(points, tiles, slabs, faces)`` tables in exact
        integers, built on first use from tile extents and owners.

        ``slabs[axis][s]`` is ``(points, tiles, carry bytes, planes)`` of
        the rank's tiles in slab ``s``; ``planes`` lists ``(linear tile
        index, plane bytes)`` per tile, lexicographically (empty when
        aggregating).  ``faces[axis][side]`` (side 0 is ``+1``, side 1 is
        ``-1``) is the bytes of one boundary plane of every tile with a
        neighbor that way, zero when none has one.  Equal entries are
        stored once.
        """
        if self._tables is not None:
            return self._tables
        mp = self.partitioning
        sizes = [self.grid.axis_sizes(axis) for axis in range(mp.ndim)]
        self._tables = []
        shared: dict = {}
        for rank in range(mp.nprocs):
            tiles = mp.tiles_of(rank)
            # per axis and slab: [points, tiles, carry bytes, planes]
            acc = [[[0, 0, 0, []] for _ in size] for size in sizes]
            for tile in tiles:
                points = prod(map(tuple.__getitem__, sizes, tile))
                lin = _tile_linear_index(tile, mp.gammas)
                for size, slab_acc, slab in zip(sizes, acc, tile):
                    entry = slab_acc[slab]
                    plane = _ITEMSIZE * points // size[slab]
                    entry[0] += points
                    entry[1] += 1
                    entry[2] += plane
                    entry[3].append((lin, plane))
            slabs = tuple(
                tuple(
                    shared.setdefault(row, row) for row in (
                        (n, count, carry, () if self.aggregate else tuple(pl))
                        for n, count, carry, pl in slab_acc
                    )
                )
                for slab_acc in acc
            )
            # the boundary slab on each side has no neighbor that way
            faces = tuple(
                (total - rows[-1][2], total - rows[0][2])
                for rows in slabs
                for total in [sum(row[2] for row in rows)]
            )
            self._tables.append((
                sum(row[0] for row in slabs[0]), len(tiles),
                tuple(shared.setdefault(rows, rows) for rows in slabs),
                tuple(shared.setdefault(face, face) for face in faces),
            ))
        return self._tables
