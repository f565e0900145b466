"""Seeded input generation for the benchmark's four workloads.

Every generator is a pure function of ``(seed, tiny)``: the same seed gives
the same inputs, in the same order.  The seed varies what can vary without
changing how much work a run does — spec order, fault-plan seeds, and the
extents and axis order of shapes whose planning, mapping and verification
cost does not depend on extents — so that ten runs with ten seeds measure
the same amount of work on different inputs.

The chaos and verify pools are finite (:func:`chaos_pool`,
:func:`verify_pool`) so that ``reference.json`` can hold an expected digest
for every input any seed can draw.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("table1-skeleton", "sweep-cached", "chaos-lossy", "check-verify")

APPS = ("sp", "bt", "adi")

#: class B, the paper's Table 1 problem size (102 is not divisible by most
#: tile counts, so tiles are ragged)
CLASS_B = (102, 102, 102)

#: sweep-cached processor counts: 1..256 with primes (2, 7, 31, 97, 127,
#: 181); 127 and 181 exceed some extents, giving infeasible tilings
SWEEP_COUNTS = (1, 2, 7, 12, 31, 50, 64, 97, 127, 128, 181, 256)

CHAOS_SHAPES = ((24, 24, 24), (36, 36, 36), (48, 48, 48))
CHAOS_COUNTS = (4, 9, 16, 36)
CHAOS_DROPS = (0.0, 0.02, 0.05, 0.1)
#: fault-plan seeds a spec can draw; the reference covers all of them
CHAOS_FAULT_SEEDS = tuple(range(8))

VERIFY_COUNTS = (4, 9, 16, 36, 64)
VERIFY_CUBES = (24, 32, 40, 48)
VERIFY_RAGGED = (30, 45, 60)


def table1_specs(seed: int, tiny: bool = False) -> list:
    """SP class B in skeleton mode: the 20 Table 1 processor counts with the
    optimal partitioner, the diagonal (hand-coded) counts, p=128 and p=256.
    The grid is the paper's; the seed sets the order."""
    from repro.analysis.speedup import PAPER_CPU_COUNTS
    from repro.core.diagonal import diagonal_applicable
    from repro.runner import ExperimentSpec

    counts = list(PAPER_CPU_COUNTS) + [128, 256]
    if tiny:
        counts = [p for p in counts if p <= 9]

    def spec(p: int, partitioner: str):
        return ExperimentSpec(
            shape=CLASS_B, p=p, mode="skeleton", app="sp",
            machine="origin2000", partitioner=partitioner,
        )

    specs = [spec(p, "optimal") for p in counts] + [
        spec(p, "diagonal")
        for p in PAPER_CPU_COUNTS
        if diagonal_applicable(p, 3) and p in counts
    ]
    random.Random(seed).shuffle(specs)
    return specs


def sweep_shapes(rng: random.Random) -> list[tuple[int, int, int]]:
    """Four shapes per seed, one from each family; families never share an
    extent range, so no two shapes coincide."""
    anisotropic = [128, 128, 32]
    rng.shuffle(anisotropic)
    long_thin = [rng.randint(200, 260), rng.randint(40, 59),
                 rng.randint(40, 59)]
    rng.shuffle(long_thin)
    ragged = [rng.randint(61, 99) for _ in range(3)]
    return [CLASS_B, tuple(anisotropic), tuple(long_thin), tuple(ragged)]


def sweep_specs(seed: int, tiny: bool = False) -> list:
    """Plan and modeled specs over SP/BT/ADI x 4 shapes x 12 processor
    counts: 288 distinct specs, so 288 cache entries, for every seed."""
    from repro.runner import ExperimentSpec

    rng = random.Random(seed)
    shapes = sweep_shapes(rng)
    apps, counts = APPS, SWEEP_COUNTS
    if tiny:
        apps, shapes, counts = ("sp",), shapes[:1], (1, 7, 12, 127)
    specs = [
        ExperimentSpec(shape=shape, p=p, mode=mode, app=app)
        for app in apps
        for shape in shapes
        for p in counts
        for mode in ("plan", "modeled")
    ]
    rng.shuffle(specs)
    return specs


def chaos_spec(app, shape, p, drop, fault_seed):
    from repro.runner import ExperimentSpec

    return ExperimentSpec(
        shape=shape, p=p, mode="skeleton", app=app,
        faults={
            "drop_rate": drop,
            "dup_rate": 0.01,
            "jitter": 2e-6,
            "straggler_rate": 0.1,
            "straggler_factor": 1.5,
            "seed": fault_seed,
        },
    )


def chaos_specs(seed: int, tiny: bool = False) -> list:
    """Lossy skeleton runs: SP/BT/ADI x 24^3..48^3 x p in {4,9,16,36} x
    drop rate in {0,0.02,0.05,0.1}, each with duplication, jitter and
    stragglers; the seed draws each spec's fault-plan seed."""
    rng = random.Random(seed)
    shapes, counts, drops = CHAOS_SHAPES, CHAOS_COUNTS, CHAOS_DROPS
    if tiny:
        shapes, counts, drops = shapes[:1], (4,), (0.0, 0.05)
    specs = [
        chaos_spec(app, shape, p, drop, rng.choice(CHAOS_FAULT_SEEDS))
        for app in APPS
        for shape in shapes
        for p in counts
        for drop in drops
    ]
    rng.shuffle(specs)
    return specs


def chaos_pool() -> list:
    """Every chaos spec any seed can draw."""
    return [
        chaos_spec(app, shape, p, drop, fault_seed)
        for app in APPS
        for shape in CHAOS_SHAPES
        for p in CHAOS_COUNTS
        for drop in CHAOS_DROPS
        for fault_seed in CHAOS_FAULT_SEEDS
    ]


def _anisotropic(flat_axis: int) -> tuple[int, int, int]:
    shape = [64, 64, 64]
    shape[flat_axis] = 16
    return tuple(shape)


def verify_shape_slots() -> list[list[tuple[int, int, int]]]:
    """The four shape slots of check-verify and the variants a seed picks
    from in each."""
    return [
        [CLASS_B],
        [(n, n, n) for n in VERIFY_CUBES],
        [_anisotropic(axis) for axis in range(3)],
        [tuple(perm) for perm in itertools.permutations(VERIFY_RAGGED)],
    ]


def verify_configs(seed: int, tiny: bool = False) -> list[tuple]:
    """``(app, shape, p, aggregate)`` for ``verify_config(...,
    protocol=True)``: SP/BT/ADI x 4 shapes x p in {4,9,16,36,64} x
    aggregation on/off — 120 configurations for every seed."""
    rng = random.Random(seed)
    shapes = [rng.choice(slot) for slot in verify_shape_slots()]
    counts = VERIFY_COUNTS
    if tiny:
        shapes, counts = [shapes[1]], (4, 9)
    configs = [
        (app, shape, p, aggregate)
        for app in APPS
        for shape in shapes
        for p in counts
        for aggregate in (True, False)
    ]
    rng.shuffle(configs)
    return configs


def verify_pool() -> list[tuple]:
    """Every check-verify configuration any seed can draw."""
    shapes = sorted({s for slot in verify_shape_slots() for s in slot})
    return [
        (app, shape, p, aggregate)
        for app in APPS
        for shape in shapes
        for p in VERIFY_COUNTS
        for aggregate in (True, False)
    ]


def build_inputs(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's items for one run, in execution order."""
    makers = {
        "table1-skeleton": table1_specs,
        "sweep-cached": sweep_specs,
        "chaos-lossy": chaos_specs,
        "check-verify": verify_configs,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return makers[workload](seed, tiny)
