"""NAS-BT-like proxy benchmark — the *other* multipartitioned NAS code.

NAS BT differs from SP in one structural way: its per-dimension solves are
**block**-tridiagonal — every grid point carries a 5-vector of conserved
quantities and the tridiagonal coefficients are 5x5 matrices.  The proxy
reproduces exactly that: fields have shape ``(nx, ny, nz, 5)``, each time
step runs ``compute_rhs``, then a block-tridiagonal solve (two matrix
sweeps) along x, y and z, then ``add``.

The trailing component axis is never partitioned: planning goes through the
dHPF-lite ``DISTRIBUTE (MULTI, MULTI, MULTI, *)`` directive, so the
optimizer sees only the three spatial dimensions — the same decision NAS
programmers make by hand.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.core.api import MultipartitionPlan
from repro.core.cost import CostModel
from repro.hpf.directives import Distribute, DistFormat, Processors, Template
from repro.hpf.distribution import ResolvedMulti, resolve_distribution
from repro.sweep.blockrec import block_tridiagonal_matvec, block_thomas_solve
from repro.sweep.ops import BlockSweepOp, PointwiseOp, block_thomas_ops
from repro.sweep.sequential import run_sequential

__all__ = ["BTProblem", "bt_plan", "bt_class"]

_RHS_FLOPS = 40.0
_ADD_FLOPS = 4.0

#: components per grid point (conserved quantities in NAS BT)
NCOMP = 5


def _default_blocks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant, diagonally dominant 5x5 block coefficients (A, B, C).

    ``B`` dominates ``A + C`` in every row, so every pivot
    ``B - A @ Cprime`` in the block Thomas factorization stays well
    conditioned — the proxy analogue of BT's implicit operator."""
    c = NCOMP
    coupling = 0.1 * (np.eye(c, k=1) + np.eye(c, k=-1))
    B = 6.0 * np.eye(c) + coupling
    A = -1.0 * np.eye(c) + 0.05 * np.eye(c, k=1)
    C = -1.0 * np.eye(c) + 0.05 * np.eye(c, k=-1)
    return A, B, C


@functools.lru_cache(maxsize=16)
def _solve_ops(n: int) -> tuple[BlockSweepOp, ...]:
    """The block Thomas sweeps (along axis 0) for an axis of extent ``n``.

    The blocks are constant, so the coefficients depend on ``n`` alone:
    they are factored once per extent and shared by every
    :class:`BTProblem`, hence read-only."""
    ops = tuple(block_thomas_ops(n, 0, *_default_blocks()))
    for op in ops:
        op.mult.setflags(write=False)
        op.scale.setflags(write=False)
    return ops


@dataclasses.dataclass(frozen=True)
class BTProblem:
    """A proxy BT instance on a 3-D grid of 5-vectors."""

    shape: tuple[int, int, int]
    steps: int = 1

    def __post_init__(self) -> None:
        if len(self.shape) != 3:
            raise ValueError("BT is a 3-D benchmark")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def field_shape(self) -> tuple[int, int, int, int]:
        """Array shape including the trailing component axis."""
        return (*self.shape, NCOMP)

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _default_blocks()

    def solve_ops(self, axis: int) -> list:
        return [
            dataclasses.replace(op, axis=axis, phase=f"{'xyz'[axis]}_solve")
            for op in _solve_ops(self.shape[axis])
        ]

    def step_schedule(self) -> list:
        ops: list = [
            PointwiseOp(fn=_bt_rhs, flops_per_point=_RHS_FLOPS,
                        name="compute_rhs", phase="rhs")
        ]
        for axis in range(3):
            ops.extend(self.solve_ops(axis))
        ops.append(
            PointwiseOp(fn=_bt_add, flops_per_point=_ADD_FLOPS, name="add",
                        phase="add")
        )
        return ops

    def schedule(self) -> list:
        ops: list = []
        for _ in range(self.steps):
            ops.extend(self.step_schedule())
        return ops

    def solve_sequential(self, field: np.ndarray) -> np.ndarray:
        if field.shape != self.field_shape:
            raise ValueError(
                f"field must have shape {self.field_shape}, "
                f"got {field.shape}"
            )
        return run_sequential(field, self.schedule())

    def block_solve_residual(self, rhs: np.ndarray, axis: int) -> float:
        """Sanity check of the block Thomas kernels: solve then re-apply
        the operator; returns the max-abs residual."""
        A, B, C = self.blocks()
        x = block_thomas_solve(rhs, axis, A, B, C)
        back = block_tridiagonal_matvec(x, axis, A, B, C)
        return float(np.abs(back - rhs).max())


def bt_plan(
    shape: tuple[int, int, int], p: int, model: CostModel | None = None
) -> MultipartitionPlan:
    """Multipartitioning plan for a BT field: MULTI on the three spatial
    axes, STAR on the component axis (never cut)."""
    prob_shape = (*shape, NCOMP)
    directive = Distribute(
        Template("bt", prob_shape),
        (DistFormat.MULTI,) * 3 + (DistFormat.STAR,),
        Processors("procs", p),
    )
    resolved = resolve_distribution(directive, model)
    assert isinstance(resolved, ResolvedMulti)
    return resolved.plan


def bt_class(cls: str, steps: int | None = None) -> BTProblem:
    """BT proxy instance for a NAS class name (same grids as SP)."""
    from .workloads import CLASS_SHAPES, CLASS_STEPS

    shape = CLASS_SHAPES[cls.upper()]
    if steps is None:
        steps = CLASS_STEPS[cls.upper()]
    return BTProblem(shape=shape, steps=steps)


def _bt_rhs(block: np.ndarray) -> np.ndarray:
    """Proxy RHS: a cheap component-mixing nonlinearity (flop weight is
    charged via flops_per_point)."""
    rolled = np.roll(block, 1, axis=-1)
    return 0.9 * block + 0.1 * np.tanh(rolled)


def _bt_add(block: np.ndarray) -> np.ndarray:
    return block + 0.01 * block / (1.0 + block * block)
