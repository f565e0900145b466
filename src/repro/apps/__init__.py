"""Workloads: ADI integration and the NAS-SP-like proxy."""

from .adi import ADIProblem
from .bt import BTProblem, bt_class, bt_plan
from .planning import PROBLEMS, app_problem, plan_app
from .sp import SPProblem, sp_class
from .workloads import (
    CLASS_SHAPES,
    CLASS_STEPS,
    anisotropic_shape,
    problem_shape,
    random_field,
)

__all__ = [
    "ADIProblem",
    "BTProblem",
    "bt_class",
    "bt_plan",
    "PROBLEMS",
    "app_problem",
    "plan_app",
    "SPProblem",
    "sp_class",
    "CLASS_SHAPES",
    "CLASS_STEPS",
    "anisotropic_shape",
    "problem_shape",
    "random_field",
]
