"""One planner for every ``(app, shape, p)`` the package runs.

:func:`plan_app` applies the paper's two steps (the Section-3 optimizer
picks the tile counts, the Section-4 modular mapping assigns tiles to
ranks) and owns every app-specific rule on the way: the app name ->
problem class table, BT's never-cut STAR component axis, the diagonal
partitioner's rejections and the objective.  The runner, the verifier, the
chaos report, the profiler and the CLI all plan through it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.api import MultipartitionPlan, plan_multipartitioning
from repro.core.cost import CostModel, Objective
from repro.core.diagonal import diagonal_applicable, diagonal_nd
from repro.core.mapping import Multipartitioning

from .adi import ADIProblem
from .bt import BTProblem, bt_plan
from .sp import SPProblem

__all__ = ["PROBLEMS", "app_problem", "plan_app"]

#: app name -> problem class
PROBLEMS = {"sp": SPProblem, "bt": BTProblem, "adi": ADIProblem}


def app_problem(
    app: str,
    shape: Sequence[int],
    *,
    steps: int = 1,
    objective: Objective | str = Objective.FULL,
    stencil_rhs: bool = False,
) -> Any:
    """The app's problem instance, after the checks that need no planning:
    a known app, a shape its problem class accepts (the class raises its
    own message, e.g. "SP is a 3-D benchmark"), and for BT, whose
    directive path has no objective, the full one.  ``stencil_rhs`` is
    SP's alone: another app rejects it rather than run its plain
    schedule under the flag."""
    cls = PROBLEMS.get(app)
    if cls is None:
        raise ValueError(f"unknown app {app!r} (expected sp, bt or adi)")
    if stencil_rhs and app != "sp":
        raise ValueError("stencil_rhs is SP's alone")
    kwargs = {"stencil_rhs": stencil_rhs} if app == "sp" else {}
    problem = cls(tuple(int(s) for s in shape), steps=steps, **kwargs)
    objective = Objective(objective)
    if app == "bt" and objective is not Objective.FULL:
        raise ValueError(
            f"BT plans under the full objective only, got {objective.value!r}"
        )
    return problem


def plan_app(
    app: str,
    shape: Sequence[int],
    p: int,
    cost_model: CostModel,
    *,
    partitioner: str = "optimal",
    objective: Objective | str = Objective.FULL,
    steps: int = 1,
    stencil_rhs: bool = False,
) -> tuple[Any, Multipartitioning, MultipartitionPlan | None]:
    """``(problem, partitioning, plan)`` for one configuration; ``plan`` is
    the optimizer's :class:`MultipartitionPlan` (for BT, the 3-D plan
    embedded into the 4-D field), or ``None`` for the diagonal partitioner.
    """
    problem = app_problem(
        app, shape, steps=steps, objective=objective,
        stencil_rhs=stencil_rhs,
    )
    if partitioner == "diagonal":
        if app == "bt":
            raise ValueError(
                "diagonal partitioner does not support BT's component axis"
            )
        d = len(problem.shape)
        if not diagonal_applicable(p, d):
            raise ValueError(
                f"no diagonal multipartitioning of p={p} in {d}-D"
            )
        owner = diagonal_nd(p, d)
        return problem, Multipartitioning(owner=owner, nprocs=p), None
    if partitioner != "optimal":
        raise ValueError(f"unknown partitioner {partitioner!r}")
    if app == "bt":
        plan = bt_plan(problem.shape, p, cost_model)
    else:
        plan = plan_multipartitioning(
            problem.shape, p, cost_model, Objective(objective)
        )
    return problem, plan.partitioning, plan
