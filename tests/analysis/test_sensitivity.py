"""Tests for machine-parameter sensitivity sweeps."""

import pytest

from repro.analysis.sensitivity import (
    decision_boundary,
    tiling_vs_parameter,
)
from repro.apps.workloads import anisotropic_shape
from repro.core.cost import CostModel


SHAPE = anisotropic_shape(128, ratio=16)  # 128x128x8


class TestTilingVsParameter:
    def test_k2_sweep_changes_decision(self):
        points = tiling_vs_parameter(
            SHAPE, 4, "k2", [0.0, 1e-6, 1e-2], CostModel(k3=4e-8)
        )
        assert points[0].gammas[2] == 1          # volume-bound: 2-D tiling
        assert tuple(sorted(points[-1].gammas)) == (2, 2, 2)  # startup-bound

    def test_monotone_cost_in_k2(self):
        points = tiling_vs_parameter(
            (64, 64, 64), 8, "k2", [1e-6, 1e-5, 1e-4]
        )
        costs = [pt.cost for pt in points]
        assert costs == sorted(costs)

    def test_k1_never_changes_decision(self):
        """Compute cost is partitioning-independent, so sweeping k1 must
        never change the chosen tiling."""
        points = tiling_vs_parameter(
            SHAPE, 4, "k1", [0.0, 1e-7, 1e-3]
        )
        assert len({pt.gammas for pt in points}) == 1

    @pytest.mark.parametrize(
        "shape,p,expected",
        [((64, 64), 4, (4, 4)), ((32, 32, 16, 8), 8, (2, 2, 2, 2))],
    )
    def test_any_dimensionality(self, shape, p, expected):
        """The sweep is the optimizer's alone, so it takes any d >= 2."""
        points = tiling_vs_parameter(shape, p, "k2", [1e-6, 1e-3])
        assert [pt.gammas for pt in points] == [expected, expected]
        assert points[0].cost < points[1].cost

    @pytest.mark.parametrize(
        "shape,p,parameter,values,base,expected",
        [
            (SHAPE, 4, "k2", [0.0, 1e-6, 1e-2], CostModel(k3=4e-8),
             [((4, 4, 1), 0.00024576000000000003),
              ((4, 4, 1), 0.00025476000000000003),
              ((2, 2, 2), 0.06036864)]),
            ((102, 102, 102), 50, "k3", [1e-9, 1e-7, 1e-5], None,
             [((5, 10, 10), 0.0005052020000000001),
              ((10, 10, 5), 0.0010202),
              ((10, 10, 5), 0.052520000000000004)]),
            ((64, 64, 64), 8, "k2", [1e-6, 1e-5, 1e-4], None,
             [((2, 4, 4), 0.00021480000000000002),
              ((4, 4, 2), 0.0003048),
              ((2, 4, 4), 0.0012048000000000002)]),
        ],
    )
    def test_3d_results_pinned(
        self, shape, p, parameter, values, base, expected
    ):
        """3-D tilings and costs, exactly as when the sweep planned SP."""
        points = tiling_vs_parameter(shape, p, parameter, values, base)
        assert [(pt.gammas, pt.cost) for pt in points] == expected

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            tiling_vs_parameter(SHAPE, 4, "k9", [1.0])


class TestDecisionBoundary:
    def test_finds_k2_crossover(self):
        base = CostModel(k3=4e-8)
        boundary = decision_boundary(SHAPE, 4, "k2", 0.0, 1e-2, base)
        assert boundary is not None
        # the decision really flips across the boundary
        below = tiling_vs_parameter(
            SHAPE, 4, "k2", [boundary * 0.5], base
        )[0].gammas
        above = tiling_vs_parameter(
            SHAPE, 4, "k2", [boundary * 2.0], base
        )[0].gammas
        assert below != above

    def test_constant_decision_returns_none(self):
        assert (
            decision_boundary((64, 64, 64), 4, "k2", 1e-7, 1e-3) is None
        )
