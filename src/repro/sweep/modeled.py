"""Closed-form modeled execution times: multipartitionings, block grids
and transposes.

Used for problem sizes too large to push through the real-data simulator
(e.g. the class-B 102**3 runs of Table 1).  The formulas are the same
latency/bandwidth/compute accounting the simulator performs, collapsed
analytically; tests cross-check them against simulated runs on small
problems.

All functions return the modeled time of executing a *schedule* (list of
:class:`SweepOp` / :class:`PointwiseOp`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cost import NetworkScaling
from repro.core.mapping import Multipartitioning
from repro.simmpi.machine import MachineModel

from .ops import BlockSweepOp, PointwiseOp, StencilOp, SweepOp

__all__ = [
    "multipart_time",
    "blockgrid_time",
    "transpose_time",
    "best_wavefront_chunks",
    "best_processor_count_modeled",
]


def _msg_time(
    machine: MachineModel, nbytes: float, concurrent: int = 1
) -> float:
    """End-to-end time of one message: both endpoint overheads plus wire.

    ``concurrent`` is how many such transfers are in flight simultaneously
    (one per rank in a multipartitioned phase, one per pair in an
    all-to-all round).  On a scalable network they overlap freely; on a
    BUS they serialize through the shared channel (footnote 1), so the wire
    term is multiplied by the concurrency."""
    wire = machine.transfer_time(nbytes)
    if machine.network is NetworkScaling.BUS:
        wire *= max(1, concurrent)
    return (
        machine.send_cpu_time(int(nbytes))
        + machine.recv_cpu_time(int(nbytes))
        + wire
    )


def _stencil_halo_time(
    machine: MachineModel,
    shape: tuple[int, ...],
    op: StencilOp,
    p: int,
    cut_axes: list[int],
) -> float:
    """Halo-exchange cost of one StencilOp: one message per rank per
    (axis, side) of every cut axis, carrying that rank's share of the face
    (``eta / (shape[axis] * p)`` elements per plane) — the aggregated
    multipartitioned exchange and the block-grid exchange alike."""
    eta = float(np.prod(shape))
    total = 0.0
    for ax in cut_axes:
        lo, hi = op.reach[ax]
        share = eta / (shape[ax] * p)  # per-rank face elements per plane
        for width in (lo, hi):
            if width:
                total += _msg_time(
                    machine,
                    width * share * machine.itemsize,
                    concurrent=p,
                )
    return total


def multipart_time(
    shape: tuple[int, ...],
    partitioning: Multipartitioning,
    machine: MachineModel,
    schedule,
    aggregate: bool = True,
) -> float:
    """Modeled time of a schedule under a multipartitioning.

    One sweep along axis ``i``: ``gamma_i`` perfectly balanced compute
    phases of ``eta / (gamma_i * p)`` points each, separated by
    ``gamma_i - 1`` carry exchanges.  With aggregation each exchange is one
    message carrying that rank's share of the cut hyper-surface,
    ``eta / (eta_i * p)`` elements; without aggregation the same volume is
    split into one message per tile in the slab.
    """
    eta = float(np.prod(shape))
    p = partitioning.nprocs
    gammas = partitioning.gammas
    tiles_per_rank = partitioning.tiles_per_rank
    total = 0.0
    for op in schedule:
        if isinstance(op, PointwiseOp):
            total += machine.compute_time(
                eta / p, op.flops_per_point, tiles=tiles_per_rank
            )
            continue
        if isinstance(op, StencilOp):
            total += machine.compute_time(
                eta / p, op.flops_per_point, tiles=tiles_per_rank
            )
            total += _stencil_halo_time(
                machine, shape, op, p,
                [ax for ax in range(len(shape)) if gammas[ax] > 1],
            )
            continue
        axis = op.axis % len(shape)
        g = gammas[axis]
        # NOTE: `shape` includes any trailing component axis, so `eta`
        # already counts individual scalars — block sweeps need no extra
        # component factor (their carry planes are c-vectors, but the cut
        # hyper-surface eta/shape[axis] counts them already).
        compute = machine.compute_time(
            eta / p, op.flops_per_point, tiles=tiles_per_rank
        )
        surface_elems = eta / (shape[axis] * p)
        if aggregate:
            per_phase = _msg_time(
                machine, surface_elems * machine.itemsize, concurrent=p
            )
        else:
            tiles = partitioning.tiles_per_slab_per_rank(axis)
            per_phase = tiles * _msg_time(
                machine,
                surface_elems * machine.itemsize / tiles,
                concurrent=p,
            )
        total += compute + (g - 1) * per_phase
    return total


def blockgrid_time(
    shape: tuple[int, ...],
    grid: tuple[int, ...],
    machine: MachineModel,
    schedule,
    chunks: int = 8,
) -> float:
    """Closed-form model of :class:`~repro.sweep.blockgrid.BlockGridExecutor`
    on ``grid`` (one processor count per leading axis, later axes uncut).

    A sweep along a cut axis behaves like ``chunks + count - 1`` pipeline
    stages, each costing one chunk of compute plus one chunk-carry message;
    the chunks split the first other axis.  Every other op is pure compute,
    plus one halo message per (cut axis, side) for a stencil.
    """
    eta = float(np.prod(shape))
    grid = tuple(grid) + (1,) * (len(shape) - len(grid))
    p = math.prod(grid)
    cut_axes = [ax for ax, g in enumerate(grid) if g > 1]
    total = 0.0
    for op in schedule:
        chain = (
            grid[op.axis % len(shape)]
            if isinstance(op, (SweepOp, BlockSweepOp))
            else 1
        )
        if chain == 1:
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            if isinstance(op, StencilOp):
                total += _stencil_halo_time(machine, shape, op, p, cut_axes)
            continue
        axis = op.axis % len(shape)
        chunk_axis = 0 if axis != 0 else 1
        eff_chunks = min(chunks, max(1, shape[chunk_axis] // grid[chunk_axis]))
        chunk_points = eta / (p * eff_chunks)
        # this rank's chunk of the cut plane
        carry_elems = eta / (shape[axis] * (p // chain)) / eff_chunks
        stage = machine.compute_time(
            chunk_points, op.flops_per_point, tiles=1
        ) + _msg_time(
            machine, carry_elems * machine.itemsize, concurrent=p
        )
        total += (eff_chunks + chain - 1) * stage
    return total


def best_wavefront_chunks(
    shape: tuple[int, ...],
    nprocs: int,
    machine: MachineModel,
    schedule,
    part_axis: int = 0,
    max_chunks: int = 4096,
) -> tuple[int, float]:
    """Pick the pipeline granularity minimizing the modeled time of the
    one-axis block grid cutting ``part_axis`` into ``nprocs`` blocks — the
    tuning knob a careful hand coder would sweep."""
    limit = shape[0] if part_axis != 0 else shape[1]
    grid = (1,) * part_axis + (nprocs,)
    best = (1, float("inf"))
    c = 1
    while c <= min(limit, max_chunks):
        t = blockgrid_time(shape, grid, machine, schedule, c)
        if t < best[1]:
            best = (c, t)
        c *= 2
    return best


def transpose_time(
    shape: tuple[int, ...],
    nprocs: int,
    machine: MachineModel,
    schedule,
    part_axis: int = 0,
) -> float:
    """Modeled time under dynamic block partitioning: local sweeps plus two
    all-to-alls (pairwise exchange, ``p - 1`` rounds) around every sweep
    along the partitioned axis."""
    eta = float(np.prod(shape))
    p = nprocs
    total = 0.0
    for op in schedule:
        if isinstance(op, PointwiseOp):
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            continue
        if isinstance(op, StencilOp):
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            total += _stencil_halo_time(
                machine, shape, op, p, [part_axis] if p > 1 else []
            )
            continue
        axis = op.axis % len(shape)
        total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
        if axis == part_axis and p > 1:
            # each rank exchanges (p-1)/p of its eta/p elements per transpose
            piece = eta / (p * p)
            round_time = _msg_time(
                machine, piece * machine.itemsize, concurrent=p
            )
            total += 2 * (p - 1) * round_time
            # pack + unpack memory passes over the local data, per transpose
            total += 2 * 2 * machine.compute_time(eta / p, ops=1.0)
    return total


def best_processor_count_modeled(
    shape: tuple[int, ...],
    p: int,
    machine: MachineModel,
    schedule,
    p_min: int | None = None,
) -> tuple[int, float]:
    """The Conclusions' processor-dropping search under the *full* machine
    model (including per-tile overheads): returns ``(p_used, time)`` for the
    fastest ``p' in [p_min, p]`` each running its own optimal partitioning.

    Default ``p_min`` is the largest ``q**(d-1) <= p`` — the nearest lower
    processor count guaranteed to admit a compact (diagonal) partitioning.
    """
    from repro.core.api import plan_multipartitioning

    d = len(shape)
    if p_min is None:
        root = 1
        while (root + 1) ** (d - 1) <= p:
            root += 1
        p_min = root ** (d - 1)
    if not 1 <= p_min <= p:
        raise ValueError("need 1 <= p_min <= p")
    cost_model = machine.to_cost_model()
    best: tuple[int, float] | None = None
    for p_try in range(p_min, p + 1):
        plan = plan_multipartitioning(shape, p_try, cost_model)
        t = multipart_time(shape, plan.partitioning, machine, schedule)
        if best is None or t < best[1]:
            best = (p_try, t)
    assert best is not None
    return best
