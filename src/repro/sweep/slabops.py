"""Shared dispatch of the communication-free ops: :func:`apply_local` updates
one rank's aligned blocks (a whole block in the block-grid and transpose
executors, one tile at a time in the multipartitioned one)."""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.machine import MachineModel

from .ops import BinaryPointwiseOp, CopyOp, PointwiseOp

__all__ = ["apply_local", "local_slab_op", "as_named", "unwrap_named"]


def as_named(arrays) -> tuple[bool, dict]:
    """Normalize executor input: single array -> {"u": array}."""
    single = not isinstance(arrays, dict)
    named = {"u": arrays} if single else arrays
    shapes = {np.asarray(a).shape for a in named.values()}
    if len(shapes) > 1:
        raise ValueError(f"aligned arrays must share a shape, got {shapes}")
    return single, named


def unwrap_named(single: bool, named: dict):
    return named["u"] if single else named


def apply_local(op, get: Callable[[str], np.ndarray]) -> int:
    """Apply a communication-free op (pointwise / binary / copy) in place
    to the aligned blocks ``get(name)`` returns; returns the points
    updated."""
    if isinstance(op, CopyOp):
        dst = get(op.dst)
        dst[...] = get(op.src)
        return dst.size
    if isinstance(op, PointwiseOp):
        target = get(op.array)
        result = op.fn(target)
    elif isinstance(op, BinaryPointwiseOp):
        target = get(op.target)
        result = op.fn(target, get(op.source))
    else:
        raise TypeError(f"not a local op: {op!r}")
    if result.shape != target.shape:
        raise ValueError(
            f"{op.name} changed a block's shape {target.shape} -> "
            f"{result.shape}"
        )
    # in place: the block ``get`` returned is the one the caller gathers
    target[...] = result
    return target.size


def local_slab_op(
    comm: Comm,
    op,
    get: Callable[[str], np.ndarray],
    machine: MachineModel,
) -> Generator:
    """Apply a communication-free op to this rank's slabs and charge its
    compute; ``get(name)`` returns the local slab of an array."""
    size = apply_local(op, get)
    yield from comm.compute(
        machine.compute_time(size, op.flops_per_point, tiles=1),
        points=size,
    )
