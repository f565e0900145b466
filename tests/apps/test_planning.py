"""Every entry point plans through :func:`repro.apps.planning.plan_app`.

The runner, the verifier, the chaos report and the profiler must judge and
run the same configuration: the same tile grid and the same owner table,
and the same message when the planner rejects the request.
"""

import numpy as np
import pytest

from repro.apps.planning import app_problem, plan_app
from repro.core.diagonal import diagonal_applicable
from repro.faults import chaos_report
from repro.obs import run_profiled_app
from repro.runner import ExperimentSpec, run_spec
from repro.simmpi.machine import origin2000
from repro.sweep import multipart
from repro.verify import build_configuration, verify_config

APPS = ("sp", "bt", "adi")
#: the last two are shapes where the objectives pick different tile grids
#: (at p=6, and p=4 or 6), so an entry point that plans under another
#: objective than the full one shows here
SHAPES = ((8, 8, 8), (10, 13, 11), (12, 12, 12), (32, 8, 8), (16, 16, 4))
PS = (1, 2, 4, 6, 9)


def _diagonal_ok(app, p):
    return app != "bt" and diagonal_applicable(p, 3)


PLANNED = [
    (app, shape, p, partitioner)
    for app in APPS
    for shape in SHAPES
    for p in PS
    for partitioner in ("optimal", "diagonal")
    if partitioner == "optimal" or _diagonal_ok(app, p)
]
REJECTED = [
    (app, shape, p)
    for app in APPS
    for shape in SHAPES
    for p in PS
    if not _diagonal_ok(app, p)
]


class _Built(Exception):
    """Raised by the executor spy once it has seen the partitioning."""


def _spy_executors(monkeypatch):
    """Replace the executor class with a spy that records the partitioning
    it is built on, then stops the run."""
    seen = []

    def spy(partitioning, *args, **kwargs):
        seen.append(partitioning)
        raise _Built

    monkeypatch.setattr(multipart, "MultipartExecutor", spy)
    return seen


def _spec(app, shape, p, partitioner):
    return ExperimentSpec(
        shape=shape, p=p, app=app, partitioner=partitioner, mode="plan"
    )


@pytest.mark.parametrize("app,shape,p,partitioner", PLANNED)
def test_entry_points_plan_the_same_configuration(
    monkeypatch, app, shape, p, partitioner
):
    _, reference, _ = plan_app(
        app, shape, p, origin2000().to_cost_model(), partitioner=partitioner
    )
    gammas = list(reference.gammas)
    assert run_spec(_spec(app, shape, p, partitioner))["gammas"] == gammas
    report = verify_config(app, shape, p, partitioner=partitioner)
    assert report.config["gammas"] == gammas
    _, _, built, _ = build_configuration(
        app, shape, p, partitioner=partitioner
    )

    seen = _spy_executors(monkeypatch)
    with pytest.raises(_Built):
        run_spec(_spec(app, shape, p, partitioner), verify=True)
    if partitioner == "optimal":  # neither takes a partitioner
        with pytest.raises(_Built):
            chaos_report(app, shape, p)
        with pytest.raises(_Built):
            run_profiled_app(app, shape, p)
    for partitioning in (built, *seen):
        assert list(partitioning.gammas) == gammas
        assert np.array_equal(partitioning.owner, reference.owner)
    assert len(seen) == (3 if partitioner == "optimal" else 1)


@pytest.mark.parametrize("app,shape,p", REJECTED)
def test_rejections_carry_the_planner_message(app, shape, p):
    with pytest.raises(ValueError) as planned:
        plan_app(app, shape, p, None, partitioner="diagonal")
    message = str(planned.value)
    with pytest.raises(ValueError) as ran:
        run_spec(_spec(app, shape, p, "diagonal"))
    assert str(ran.value) == message
    with pytest.raises(ValueError) as built:
        build_configuration(app, shape, p, partitioner="diagonal")
    assert str(built.value) == message
    report = verify_config(app, shape, p, partitioner="diagonal")
    (violation,) = report.violations()
    assert violation.kind == "unplannable"
    assert violation.message == message
    if app == "bt":
        assert message == (
            "diagonal partitioner does not support BT's component axis"
        )
    else:
        assert message == f"no diagonal multipartitioning of p={p} in 3-D"


@pytest.mark.parametrize("app", ["bt", "adi"])
def test_stencil_rhs_is_sp_alone(app):
    with pytest.raises(ValueError) as planned:
        app_problem(app, (8, 8, 8), stencil_rhs=True)
    assert str(planned.value) == "stencil_rhs is SP's alone"
    with pytest.raises(ValueError, match="stencil_rhs is SP's alone"):
        plan_app(app, (8, 8, 8), 4, None, stencil_rhs=True)
    report = verify_config(app, (8, 8, 8), 4, stencil_rhs=True)
    assert not report.ok
    (violation,) = report.violations()
    assert violation.kind == "unplannable"
    assert violation.message == "stencil_rhs is SP's alone"
    # without the flag the same configuration verifies clean
    assert verify_config(app, (8, 8, 8), 4).ok
