"""Distributed line sweeps over a multipartitioned array.

Each simulated rank owns the tiles its :class:`Multipartitioning` assigns it.
A sweep along axis ``i`` proceeds slab by slab: every rank computes the scan
on *its own* tiles of the current slab (perfect balance), then forwards each
tile's outgoing boundary plane ("carry") to the owner of the downstream
neighbour tile.  The **neighbor property** guarantees all those carries go to
one single rank, so they are aggregated into one message per phase —
the communication-vectorization the dHPF compiler performs (Section 5).
Setting ``aggregate=False`` sends one message per tile instead (the ablation
of that optimization).

**One rank program, two payload modes.**  The modular mapping makes every
rank run the same per-(op, axis, slab) template over its own tiles, so each
rank's program is one flat generator over per-rank slab tables of exact
integers, built once from tile extents and the owner table.  The tables
alone decide the op stream: sends by tag and declared byte count,
receives, compute charges and phase marks.  The payload mode decides only
what the messages hold:

* real-data mode (``payload="data"``, :meth:`MultipartExecutor.run`)
  scatters numpy tiles, scans them slab by slab, ships boundary planes and
  halo faces, and reassembles the global array (verified against the
  sequential reference in the tests);
* skeleton mode (``payload="skeleton"``, :meth:`MultipartExecutor
  .run_skeleton`) sends :class:`~repro.simmpi.message.Bytes` tokens of the
  same sizes and runs no scatter, scan or gather, which is what lets class
  B (102^3) simulate up to p = 256 in seconds: the paper's Table 1 claims
  are about communication structure and timing, none of which needs the
  payload data.

Both return the simulator's :class:`RunResult` (virtual time, message and
byte counts), bit-identical across the modes; ``tests/sweep/test_skeleton.py``
pins the per-rank event streams equal.
"""

from __future__ import annotations

import dataclasses
import functools
from itertools import repeat
from math import prod
from typing import Generator

import numpy as np

from repro.core.mapping import Multipartitioning
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.protocol import ProtocolConfig, ReliableComm
from repro.simmpi.comm import _check_phase_label
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
from .slabops import apply_local
from .tiles import TileGrid

__all__ = ["MultipartExecutor"]

#: distributed blocks are always float64 (scatter casts on entry)
_ITEMSIZE = 8


def _tile_linear_index(tile: tuple[int, ...], gammas: tuple[int, ...]) -> int:
    idx = 0
    for t, g in zip(tile, gammas):
        idx = idx * g + t
    return idx


def _facing(tiles, axis: int, side: int, gamma: int) -> list:
    """The ``tiles`` with a neighbor toward ``side`` of ``axis`` (side 0
    is ``+1``, side 1 is ``-1``), in their given order."""
    edge = gamma - 1 if side == 0 else 0
    return [tile for tile in tiles if tile[axis] != edge]


class _Planes(list):
    """The boundary planes (sweep carries or halo faces) one rank sends
    another in one message, in the lexicographic order of the sender's
    tiles.  By the neighbor property the receiving tiles are the sending
    ones shifted by one along the axis, so they come in the same order.

    Declares a *structural* wire size — the plane buffers only, what an
    MPI implementation would put on the wire for the vectorized message
    and what skeleton mode recomputes from tile geometry alone."""

    __slots__ = ("nbytes",)

    def __init__(self, planes: list):
        super().__init__(planes)
        self.nbytes = sum(plane.nbytes for plane in planes)


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
        # rank programs: row-major tile strides, the per-rank tables
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
        per_rank: list[dict] = [{} for _ in range(mp.nprocs)]
        for name, array in named.items():
            array = np.asarray(array, dtype=np.float64)
            scattered = self.grid.scatter(array, mp.owner, mp.nprocs)
            for rank_arrays, blocks in zip(per_rank, scattered):
                rank_arrays[name] = blocks
        result = self._execute(schedule, per_rank)
        out = {
            name: self.grid.gather([blocks[name] for blocks in per_rank])
            for name in named
        }
        return (out["u"] if single else out), result

    def run_skeleton(self, schedule) -> "RunResult":
        """Execute ``schedule`` payload-free and return the
        :class:`~repro.simmpi.trace.RunResult` only.

        The rank programs are :meth:`run`'s, with byte-count tokens for
        payloads — same sends (by tag and byte count), receives, compute
        durations and phase marks — so clocks, makespan, message counts,
        and byte totals match real-data mode bit-for-bit; only the array
        contents are absent."""
        return self._execute(schedule, None)

    def skeleton_rank_program(self, rank: int, schedule) -> Generator:
        """One rank's payload-free program as a fresh generator.

        It yields the primitive ops of :meth:`run`'s rank program for
        ``rank`` — same sends (dest, tag, declared bytes), receives,
        compute charges and, when marks are emitted, phase marks.  No
        control flow depends on received payloads, so the static verifier
        (:mod:`repro.verify`) drains it without the engine (see
        :func:`repro.simmpi.program.record_ops`).
        """
        return self._program(rank, schedule, None)

    # -- execution ------------------------------------------------------------

    def _execute(self, schedule, arrays: "list[dict] | None") -> RunResult:
        """Run every rank's program (``arrays[rank]`` holds its blocks;
        ``None`` runs payload-free).  Under a protocol config the sends and
        receives go through :meth:`_reliable` and the result carries the
        protocol counters."""
        nprocs = self.partitioning.nprocs
        programs = [
            self._program(
                rank, schedule, None if arrays is None else arrays[rank]
            )
            for rank in range(nprocs)
        ]
        comms = None
        if self.protocol is not None:
            comms = [
                ReliableComm(rank, nprocs, self.protocol)
                for rank in range(nprocs)
            ]
            programs = [
                self._reliable(comm, prog)
                for comm, prog in zip(comms, programs)
            ]
        injector = None
        if self.faults is not None:
            injector = FaultInjector(self.faults, nprocs)
        result = run_programs(
            self.machine, programs, record_events=self.record_events,
            sinks=self.sinks, faults=injector,
        )
        if comms is not None:
            # fold the per-rank ReliableComm counters into the result
            stats = {
                key: sum(comm.stats[key] for comm in comms)
                for key in comms[0].stats
            }
            result = dataclasses.replace(result, protocol_stats=stats)
        return result

    @staticmethod
    def _reliable(comm: ReliableComm, ops: Generator) -> Generator:
        """Route a rank program's sends and receives through the
        reliable-delivery protocol and hand each received payload back to
        the program; compute and mark ops pass through.  After the last op
        the rank lingers re-acking stray retransmissions until every rank
        is done (see :meth:`ReliableComm.finalize`)."""
        send = ops.send
        value = None
        while True:
            try:
                op = send(value)
            except StopIteration as stop:
                result = stop.value
                break
            cls = op.__class__
            if cls is SendOp:
                value = yield from comm.send(op.payload, op.dest, op.tag)
            elif cls is RecvOp:
                value = yield from comm.recv(op.source, op.tag)
            else:
                value = yield op
        yield from comm.finalize()
        return result

    def _neighbors(self, rank: int, axis: int) -> "tuple[int, int]":
        """The ranks owning the ``+1`` and ``-1`` neighbors along ``axis``
        of ``rank``'s tiles."""
        mp = self.partitioning
        nbrs = (mp.neighbor_rank(rank, axis, +1),
                mp.neighbor_rank(rank, axis, -1))
        if rank in nbrs:  # a rank owning whole lines along ``axis``
            raise ValueError("self-send is not supported; keep data local")
        return nbrs

    # -- rank program ---------------------------------------------------------

    def _program(
        self, rank: int, schedule, arrays: "dict | None"
    ) -> Generator:
        """Rank ``rank``'s program for ``schedule`` as a fresh generator.

        Which ops it yields, in what order, is read from the rank's slab
        tables alone.  ``arrays`` maps each array name to the rank's
        ``{tile: block}`` in real-data mode and is ``None`` in skeleton
        mode; it decides only what goes into a payload and whether numpy
        runs: sweep slabs scan the rank's tiles in the slab, stencils ship
        faces and apply ghosts, and the local ops update blocks in place.
        """
        points, ntiles, slab_rows, faces = self._rank_tables()[rank]
        ndim = self.grid.ndim
        marks = self._emit_marks
        aggregate = self.aggregate
        compute = self._compute_op
        payload = self._payload
        data = arrays is not None
        mp = self.partitioning
        tiles = mp.tiles_of(rank)

        def blocks_of(name: str) -> dict:
            if name not in arrays:
                raise KeyError(f"schedule references unknown array {name!r}")
            return arrays[name]

        open_phase: str | None = None
        for op_index, op in enumerate(schedule):
            if marks:
                # consecutive ops sharing a phase annotation share one span
                # (e.g. the four sweeps of SP's x_solve)
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
                if data:
                    blocks = blocks_of(op.array)
                    n_axis = self.grid.shape[axis]
                carries = None
                for phase, (npoints, count, carry, planes) in enumerate(slabs):
                    if marks:
                        # nested span: the paper's per-sweep pipeline phases
                        # ("x_solve/p2"), one per slab on every rank
                        yield MarkOp(f"{PHASE_BEGIN}p{phase}")
                    if phase:
                        tag = tag_base + phase
                        if aggregate:
                            carries = yield RecvOp(recv_from, tag)
                        else:
                            # per-tile carries line up with the planes rows
                            carries = []
                            for lin, _ in planes:
                                carries.append((yield RecvOp(
                                    recv_from, tag * 1_000_000 + lin
                                )))
                    if data:
                        # scan the rank's tiles of the slab; their outgoing
                        # planes are the carries this phase sends on
                        slab = last - phase if op.reverse else phase
                        lo, hi = self.grid.tile_span(axis, slab)
                        carries = [
                            scan_op(blocks[tile], op, lo, hi, n_axis, carry_in)
                            for tile, carry_in in zip(
                                mp.tiles_of_in_slab(rank, axis, slab),
                                carries or repeat(None),
                            )
                        ]
                    yield compute(npoints, fpp, count)
                    if phase < last and count:
                        tag = tag_base + phase + 1
                        if aggregate:
                            yield SendOp(
                                send_to,
                                _Planes(carries) if data else payload(carry),
                                tag,
                            )
                        else:
                            # per-tile tags name the downstream tile
                            tag = tag * 1_000_000 + shift
                            for row, (lin, nbytes) in enumerate(planes):
                                yield SendOp(
                                    send_to,
                                    carries[row] if data else payload(nbytes),
                                    tag + lin,
                                )
                    if marks:
                        yield MarkOp(f"{PHASE_END}p{phase}")
            elif isinstance(op, StencilOp):
                reach = op.pad_widths(ndim)
                tag_base = (op_index + 1) * 100_000 + 50_000
                # side 0 sends its trailing planes toward +1, side 1 its
                # leading planes toward -1
                sides = [
                    (axis, side, reach[axis][side])
                    for axis in range(ndim)
                    if len(slab_rows[axis]) > 1
                    for side in (0, 1)
                    if reach[axis][side]
                ]
                if data:
                    blocks = blocks_of(op.array)
                    out_blocks = blocks_of(op.out_array or op.array)
                    ghosts: dict = {tile: {} for tile in tiles}
                for axis, side, width in sides:
                    if faces[axis][side]:
                        if data:
                            message = _Planes([
                                face_copy(blocks[tile], axis, side, width)
                                for tile in _facing(
                                    tiles, axis, side, mp.gammas[axis]
                                )
                            ])
                        else:
                            message = payload(width * faces[axis][side])
                        yield SendOp(
                            self._neighbors(rank, axis)[side],
                            message,
                            tag_base + 10 * axis + side,
                        )
                # ghosts sent toward `side` arrive from the opposite one and
                # land on the tiles with a neighbor that way
                for axis, side, _ in sides:
                    if faces[axis][1 - side]:
                        got = yield RecvOp(
                            self._neighbors(rank, axis)[1 - side],
                            tag_base + 10 * axis + side,
                        )
                        if data:
                            receivers = _facing(
                                tiles, axis, 1 - side, mp.gammas[axis]
                            )
                            for tile, face in zip(receivers, got):
                                ghosts[tile][(axis, side)] = face
                if data:
                    for tile in tiles:
                        apply_star(
                            op, blocks[tile], reach, ghosts[tile],
                            out_blocks[tile],
                        )
                yield compute(points, op.flops_per_point, ntiles)
            elif isinstance(op, (BinaryPointwiseOp, CopyOp, PointwiseOp)):
                if data:
                    for tile in tiles:
                        apply_local(
                            op, lambda name, tile=tile: blocks_of(name)[tile]
                        )
                yield compute(points, op.flops_per_point, ntiles)
            else:
                raise TypeError(f"unsupported op {op!r}")
        if marks and open_phase is not None:
            yield MarkOp(PHASE_END + open_phase)
        return rank

    # -- slab tables ----------------------------------------------------------

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
