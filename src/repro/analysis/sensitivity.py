"""Sensitivity of partitioning decisions to machine parameters.

The Section-3.1 objective bakes the machine into ``lambda_i``; these sweeps
show *how much* the decisions depend on it — which tilings are robust, and
where the decision boundaries lie.  Used by the ablation benches and
available as a library feature for users porting to new machines.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.cost import CostModel
from repro.runner import BatchRunner, spec_for_cost_model

__all__ = [
    "DecisionPoint",
    "tiling_vs_parameter",
    "decision_boundary",
]


@dataclasses.dataclass(frozen=True)
class DecisionPoint:
    """One row of a sensitivity sweep."""

    parameter: str
    value: float
    gammas: tuple[int, ...]
    cost: float


def tiling_vs_parameter(
    shape: Sequence[int],
    p: int,
    parameter: str,
    values: Sequence[float],
    base: CostModel | None = None,
    runner: BatchRunner | None = None,
) -> list[DecisionPoint]:
    """Optimal tiling as one cost-model constant sweeps through ``values``.

    ``parameter`` is one of ``k1``, ``k2``, ``k3``.  Each value becomes a
    plan-mode experiment spec pinning the full cost model, and the batch
    runs through ``runner`` (cacheless inline by default) — hand one with a
    :class:`~repro.runner.ResultCache` to make repeated ablations free.
    The specs name ADI, whose plan is the optimizer's under the full
    objective for any ``d >= 2`` (SP and BT are 3-D only).
    """
    base = base or CostModel()
    if parameter not in ("k1", "k2", "k3"):
        raise ValueError("parameter must be one of k1, k2, k3")
    runner = runner or BatchRunner()
    specs = [
        spec_for_cost_model(
            tuple(shape),
            p,
            dataclasses.replace(base, **{parameter: float(v)}),
            app="adi",
        )
        for v in values
    ]
    results = runner.run(specs)
    out = []
    for v, result in zip(values, results):
        if "error" in result:
            raise RuntimeError(
                f"sensitivity sweep failed at {parameter}={v}: "
                f"{result['error']}"
            )
        out.append(
            DecisionPoint(
                parameter=parameter,
                value=float(v),
                gammas=tuple(result["gammas"]),
                cost=result["cost"],
            )
        )
    return out


def decision_boundary(
    shape: Sequence[int],
    p: int,
    parameter: str,
    lo: float,
    hi: float,
    base: CostModel | None = None,
    tol: float = 1e-3,
    max_iter: int = 80,
    runner: BatchRunner | None = None,
) -> float | None:
    """Bisect for the parameter value where the optimal tiling changes
    between ``lo`` and ``hi``; ``None`` if the decision is constant.

    The returned value is accurate to a relative ``tol`` on the parameter.
    """
    base = base or CostModel()
    runner = runner or BatchRunner()
    points = tiling_vs_parameter(shape, p, parameter, [lo, hi], base, runner)
    g_lo, g_hi = points[0].gammas, points[1].gammas
    if g_lo == g_hi:
        return None
    a, b = float(lo), float(hi)
    for _ in range(max_iter):
        mid = (a + b) / 2.0
        g_mid = tiling_vs_parameter(
            shape, p, parameter, [mid], base, runner
        )[0].gammas
        if g_mid == g_lo:
            a = mid
        else:
            b = mid
        if b - a <= tol * max(abs(a), abs(b), 1e-300):
            break
    return (a + b) / 2.0
