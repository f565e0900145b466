"""Operation descriptors for sweep schedules.

A *schedule* is a list of these ops; every executor (multipartitioned,
block grid, transpose, sequential) interprets the same schedule, which is
how the test-suite proves all strategies compute the same thing.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

__all__ = [
    "SweepOp",
    "BlockSweepOp",
    "PointwiseOp",
    "BinaryPointwiseOp",
    "CopyOp",
    "StencilOp",
    "Schedule",
    "thomas_ops",
    "block_thomas_ops",
    "star_laplacian",
    "scan_op",
]


@dataclasses.dataclass(frozen=True)
class SweepOp:
    """One affine scan over the whole array along ``axis``.

    ``mult`` / ``scale`` are scalars or global-length-``eta_axis`` vectors in
    the orientation documented in :func:`repro.sweep.recurrence.affine_scan`.
    """

    axis: int
    mult: float | np.ndarray = 1.0
    scale: float | np.ndarray = 1.0
    reverse: bool = False
    flops_per_point: float = 3.0  # one multiply-add + scaling, roughly
    array: str = "u"              # which aligned array the op targets
    #: observability: phase span this op belongs to (consecutive ops with
    #: the same phase share one span; None = no phase annotation)
    phase: str | None = None

    def label(self) -> str:
        return f"sweep(axis={self.axis},{'bwd' if self.reverse else 'fwd'})"


@dataclasses.dataclass(frozen=True)
class BlockSweepOp:
    """A *block* recurrence along ``axis`` — the NAS BT case.

    Arrays carry a trailing component axis of size ``c``; ``mult`` and
    ``scale`` are ``(eta_axis, c, c)`` matrix sequences in the orientation
    of :func:`repro.sweep.blockrec.matrix_affine_scan`.  ``axis`` indexes
    the *spatial* axes and must never be the component axis.
    """

    axis: int
    mult: np.ndarray
    scale: np.ndarray
    reverse: bool = False
    # flops per array *element* (component scalars count individually):
    # two dense c x c matvecs per c-vector = 4c^2 flops / c elements = 4c
    flops_per_point: float = 20.0
    array: str = "u"
    phase: str | None = None

    def label(self) -> str:
        return (
            f"blocksweep(axis={self.axis},"
            f"{'bwd' if self.reverse else 'fwd'})"
        )

    @property
    def components(self) -> int:
        return np.asarray(self.mult).shape[-1]


def scan_op(
    block: np.ndarray,
    op,
    lo: int,
    hi: int,
    n_global: int,
    carry: np.ndarray | None,
) -> np.ndarray:
    """Apply one (Block)SweepOp to a tile/slab spanning global indices
    ``[lo, hi)`` of an axis of global extent ``n_global``; returns the
    outgoing carry plane.

    The single dispatch point shared by every executor, so scalar and block
    sweeps traverse identical code paths (coefficients live in global
    orientation; the slice happens here).
    """
    from .blockrec import matrix_affine_scan
    from .recurrence import _coef, affine_scan

    if isinstance(op, BlockSweepOp):
        mult = np.asarray(op.mult, dtype=np.float64)
        scale = np.asarray(op.scale, dtype=np.float64)
        if mult.shape[0] != n_global or scale.shape[0] != n_global:
            raise ValueError(
                "block coefficient sequences must span the global extent"
            )
        return matrix_affine_scan(
            block,
            op.axis,
            mult[lo:hi],
            scale[lo:hi],
            reverse=op.reverse,
            carry=carry,
        )
    if isinstance(op, SweepOp):
        mult = _coef(op.mult, n_global, "mult")[lo:hi]
        scale = _coef(op.scale, n_global, "scale")[lo:hi]
        return affine_scan(
            block, op.axis, mult, scale, reverse=op.reverse, carry=carry
        )
    raise TypeError(f"not a sweep op: {op!r}")


@dataclasses.dataclass(frozen=True)
class PointwiseOp:
    """A purely local elementwise update ``block = fn(block)``.

    ``fn`` must be shape-preserving and position-independent (applied
    per-tile in distributed executors, whole-array sequentially).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    flops_per_point: float = 1.0
    name: str = "pointwise"
    array: str = "u"
    phase: str | None = None

    def label(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True)
class StencilOp:
    """A star-stencil update requiring halo (shadow-region) exchange.

    ``fn(padded)`` receives the block padded by ``reach[axis] = (lo, hi)``
    ghost planes on every axis and must return the updated *core* (original
    shape).  The contract is a **star** stencil: ``fn`` may read
    axis-aligned ghost planes but never the corner/edge intersections of
    the padding (distributed executors fill those with zeros, matching
    ``np.pad`` only on the axes, not diagonally).  Ghosts beyond the global
    array boundary are zero.

    This is the op the dHPF shadow analysis (``repro.hpf.shadow``) feeds:
    NAS SP's ``compute_rhs`` is exactly such a stencil.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    reach: tuple[tuple[int, int], ...]
    flops_per_point: float = 8.0
    name: str = "stencil"
    #: array read as stencil input; the result is written to ``out_array``
    #: (defaults to in-place) — SP's compute_rhs reads u and writes rhs
    array: str = "u"
    out_array: str | None = None
    phase: str | None = None

    def __post_init__(self) -> None:
        for lo, hi in self.reach:
            if lo < 0 or hi < 0:
                raise ValueError("stencil reach must be >= 0")

    def label(self) -> str:
        return self.name

    def pad_widths(self, ndim: int) -> tuple[tuple[int, int], ...]:
        if len(self.reach) != ndim:
            raise ValueError(
                f"stencil reach has {len(self.reach)} axes, array has {ndim}"
            )
        return self.reach


@dataclasses.dataclass(frozen=True)
class BinaryPointwiseOp:
    """An elementwise combination of two aligned arrays:
    ``target = fn(target_block, source_block)`` — e.g. SP's ``add`` step
    ``u += rhs``.  Both arrays share the template's distribution, so the
    combination is communication-free."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    target: str
    source: str
    flops_per_point: float = 2.0
    name: str = "binary"
    phase: str | None = None

    def label(self) -> str:
        return f"{self.name}({self.target},{self.source})"


@dataclasses.dataclass(frozen=True)
class CopyOp:
    """``dst = src`` over aligned arrays (communication-free)."""

    src: str
    dst: str
    flops_per_point: float = 1.0
    phase: str | None = None

    def label(self) -> str:
        return f"copy({self.src}->{self.dst})"


Schedule = list  # list of the op dataclasses above


def star_laplacian(ndim: int, weight: float = 0.1) -> "StencilOp":
    """A ready-made 2*ndim+1-point Laplacian-like star stencil:
    ``out = (1 - 2*ndim*w) * x + w * sum(axis neighbors)``."""

    def fn(padded: np.ndarray) -> np.ndarray:
        core = tuple(slice(1, s - 1) for s in padded.shape)
        out = (1.0 - 2 * ndim * weight) * padded[core]
        for axis in range(ndim):
            lo = list(core)
            hi = list(core)
            lo[axis] = slice(0, padded.shape[axis] - 2)
            hi[axis] = slice(2, padded.shape[axis])
            out += weight * (padded[tuple(lo)] + padded[tuple(hi)])
        return out

    return StencilOp(
        fn=fn,
        reach=((1, 1),) * ndim,
        flops_per_point=4.0 * ndim,
        name=f"laplacian{ndim}d",
    )


def thomas_ops(
    n: int, axis: int, a: float, b: float, c: float
) -> list[SweepOp]:
    """The two sweeps of a Thomas tridiagonal solve along ``axis`` of extent
    ``n`` (forward elimination + back substitution)."""
    from .recurrence import (
        thomas_backward_coeffs,
        thomas_factor,
        thomas_forward_coeffs,
    )

    cprime, denom_inv = thomas_factor(n, a, b, c)
    fm, fs = thomas_forward_coeffs(a, denom_inv)
    bm, bs = thomas_backward_coeffs(cprime)
    return [
        SweepOp(axis=axis, mult=fm, scale=fs, reverse=False),
        SweepOp(axis=axis, mult=bm, scale=bs, reverse=True),
    ]


def block_thomas_ops(
    n: int, axis: int, A: np.ndarray, B: np.ndarray, C: np.ndarray
) -> list["BlockSweepOp"]:
    """The two matrix sweeps of a block-tridiagonal (NAS BT style) solve
    along ``axis`` of extent ``n`` with constant ``c x c`` block
    coefficients."""
    from .blockrec import (
        block_thomas_backward_coeffs,
        block_thomas_factor,
        block_thomas_forward_coeffs,
    )

    Cprime = block_thomas_factor(n, A, B, C)
    fm, fs = block_thomas_forward_coeffs(n, A, B, Cprime)
    bm, bs = block_thomas_backward_coeffs(Cprime)
    c = Cprime.shape[-1]
    flops = 4.0 * c  # per array element: 4c^2 flops per c-vector
    return [
        BlockSweepOp(axis=axis, mult=fm, scale=fs, reverse=False,
                     flops_per_point=flops),
        BlockSweepOp(axis=axis, mult=bm, scale=bs, reverse=True,
                     flops_per_point=flops),
    ]
