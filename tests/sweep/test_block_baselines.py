"""Golden pins for the block baselines: wavefront (one-axis block grid),
two-axis block grid and transpose, all on SP 12x10x9 with a stencil RHS,
ADI 11x13x7 with 2 steps and BT 8x9x7.

``SIMULATED`` holds (makespan, per-rank clocks, messages, bytes) and
``MODELED`` the closed forms, both recorded from the earlier separate
wavefront, block-grid and transpose implementations, which the one
block-grid executor and model must reproduce.  The single-processor pins
at the end fix what the one rule changed: a count-1 axis is never
pipelined, so a one-block run is exactly :func:`sequential_time`.
"""

import numpy as np
import pytest

from repro.apps.adi import ADIProblem
from repro.apps.bt import BTProblem
from repro.apps.sp import SPProblem
from repro.apps.workloads import random_field
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.modeled import blockgrid_time, transpose_time
from repro.sweep.sequential import run_sequential, sequential_time
from repro.sweep.transpose import TransposeExecutor

APPS = {
    "sp": lambda: SPProblem(shape=(12, 10, 9), steps=1, stencil_rhs=True),
    "adi": lambda: ADIProblem(shape=(11, 13, 7), steps=2),
    "bt": lambda: BTProblem(shape=(8, 9, 7), steps=1),
}

# ("wavefront", app, p, part_axis, chunks) | ("blockgrid", app, grid)
# | ("transpose", app, p, part_axis)
SIMULATED = {
    ("wavefront", "sp", 2, 0, 1): (
        0.007984000000000005, (0.007984000000000005, 0.007690800000000005), 6,
        4320,
    ),
    ("wavefront", "sp", 2, 0, 8): (
        0.00726496, (0.00726496, 0.00719352), 34, 4320,
    ),
    ("wavefront", "sp", 2, 1, 1): (
        0.007991200000000006, (0.007991200000000006, 0.007696560000000005), 6,
        5184,
    ),
    ("wavefront", "sp", 2, 1, 8): (
        0.007230399999999996, (0.007230399999999996, 0.007167959999999997), 34,
        5184,
    ),
    ("wavefront", "sp", 3, 0, 1): (
        0.0062117999999999965, (0.0062117999999999965, 0.006008599999999997,
        0.005800399999999997), 12, 8640,
    ),
    ("wavefront", "sp", 3, 0, 8): (
        0.005246839999999984, (0.005246839999999984, 0.005212119999999984,
        0.005118679999999987), 68, 8640,
    ),
    ("wavefront", "sp", 3, 1, 1): (
        0.006980760000000002, (0.006980760000000002, 0.00647012, 0.00627848),
        12, 10368,
    ),
    ("wavefront", "sp", 3, 1, 8): (
        0.005986719999999987, (0.005986719999999987, 0.005653279999999986,
        0.005568839999999988), 68, 10368,
    ),
    ("blockgrid", "sp", (2, 2)): (
        0.0040246799999999906, (0.0040246799999999906, 0.003985459999999991,
        0.003980959999999991, 0.003941739999999991), 96, 9504,
    ),
    ("blockgrid", "sp", (2, 3)): (
        0.003444119999999995, (0.003444119999999995, 0.0032743999999999946,
        0.0032141799999999957, 0.0034003999999999953, 0.003230679999999995,
        0.003170459999999996), 150, 14688,
    ),
    ("blockgrid", "sp", (4, 2)): (
        0.0025757800000000006, (0.0025757800000000006, 0.0025365600000000006,
        0.0025455600000000005, 0.0025063400000000006, 0.0025103400000000007,
        0.0024711200000000007, 0.002455120000000001, 0.002415900000000001),
        188, 18144,
    ),
    ("transpose", "sp", 2, 0): (
        0.007987999999999997, (0.007987999999999997, 0.007987999999999997), 18,
        36000,
    ),
    ("transpose", "sp", 2, 1): (
        0.007989439999999995, (0.007989439999999995, 0.007989439999999995), 18,
        36288,
    ),
    ("transpose", "sp", 3, 0): (
        0.005805079999999992, (0.005805079999999992, 0.005786439999999992,
        0.005786439999999992), 52, 48960,
    ),
    ("transpose", "sp", 3, 1): (
        0.006418519999999996, (0.006418519999999996, 0.006126999999999995,
        0.006129879999999995), 52, 49536,
    ),
    ("wavefront", "adi", 2, 0, 1): (
        0.00329792, (0.00329792, 0.00294704), 4, 2912,
    ),
    ("wavefront", "adi", 2, 0, 8): (
        0.0029666800000000015, (0.0029666800000000015, 0.002737460000000002),
        32, 2912,
    ),
    ("wavefront", "adi", 2, 1, 1): (
        0.003268239999999999, (0.003268239999999999, 0.0030073799999999996), 4,
        2464,
    ),
    ("wavefront", "adi", 2, 1, 8): (
        0.002941479999999996, (0.002941479999999996, 0.0027990599999999964),
        32, 2464,
    ),
    ("wavefront", "adi", 3, 0, 1): (
        0.00275584, (0.00275584, 0.00262336, 0.002322079999999999), 8, 5824,
    ),
    ("wavefront", "adi", 3, 0, 8): (
        0.002336120000000001, (0.002336120000000001, 0.002311160000000001,
        0.00205034), 64, 5824,
    ),
    ("wavefront", "adi", 3, 1, 1): (
        0.0028224799999999983, (0.0028224799999999983, 0.002607819999999999,
        0.0024882599999999995), 8, 4928,
    ),
    ("wavefront", "adi", 3, 1, 8): (
        0.0023697199999999996, (0.0023697199999999996, 0.00226566,
        0.0021917399999999993), 64, 4928,
    ),
    ("blockgrid", "adi", (2, 2)): (
        0.0019580799999999988, (0.0019580799999999988, 0.0018743199999999985,
        0.0018161199999999992, 0.0017414599999999994), 96, 5376,
    ),
    ("blockgrid", "adi", (2, 3)): (
        0.0016679199999999994, (0.0016679199999999994, 0.0015988599999999995,
        0.0015438999999999995, 0.0015495599999999995, 0.0014874999999999997,
        0.0014375399999999997), 140, 7840,
    ),
    ("blockgrid", "adi", (4, 2)): (
        0.0014981600000000008, (0.0014981600000000008, 0.0014417000000000008,
        0.0014753000000000008, 0.0014188400000000009, 0.0014474400000000008,
        0.0013909800000000009, 0.0012767800000000001, 0.0012294200000000002),
        200, 11200,
    ),
    ("transpose", "adi", 2, 0): (
        0.003674439999999999, (0.003674439999999999, 0.0035375999999999984),
        16, 31808,
    ),
    ("transpose", "adi", 2, 1): (
        0.003651439999999998, (0.003651439999999998, 0.003604599999999998), 16,
        31808,
    ),
    ("transpose", "adi", 3, 0): (
        0.0028708799999999993, (0.0028708799999999993, 0.002851919999999999,
        0.002685319999999998), 48, 42560,
    ),
    ("transpose", "adi", 3, 1): (
        0.0029212799999999975, (0.0029212799999999975, 0.0028230799999999978,
        0.0028230799999999978), 48, 42560,
    ),
    ("wavefront", "bt", 2, 0, 1): (
        0.025804399999999998, (0.025804399999999998, 0.0232432), 2, 5040,
    ),
    ("wavefront", "bt", 2, 0, 8): (
        0.021929199999999992, (0.021929199999999992, 0.021347599999999994), 16,
        5040,
    ),
    ("wavefront", "bt", 2, 1, 1): (
        0.027534799999999998, (0.027534799999999998, 0.023464400000000003), 2,
        4480,
    ),
    ("wavefront", "bt", 2, 1, 8): (
        0.02365960000000001, (0.02365960000000001, 0.02156880000000001), 16,
        4480,
    ),
    ("wavefront", "bt", 3, 0, 1): (
        0.0219908, (0.0219908, 0.0200596, 0.015477399999999997), 4, 10080,
    ),
    ("wavefront", "bt", 3, 0, 8): (
        0.016988599999999996, (0.016988599999999996, 0.016581999999999996,
        0.012964399999999994), 32, 10080,
    ),
    ("wavefront", "bt", 3, 1, 1): (
        0.020677599999999997, (0.020677599999999997, 0.0189592, 0.0172358), 4,
        8960,
    ),
    ("wavefront", "bt", 3, 1, 8): (
        0.014873199999999986, (0.014873199999999986, 0.014644399999999986,
        0.014375599999999988), 32, 8960,
    ),
    ("blockgrid", "bt", (2, 2)): (
        0.012787199999999997, (0.012787199999999997, 0.011592399999999996,
        0.012488399999999997, 0.011293599999999996), 34, 9520,
    ),
    ("blockgrid", "bt", (2, 3)): (
        0.008528799999999998, (0.008528799999999998, 0.008299999999999998,
        0.008051199999999998, 0.00823, 0.008001199999999998,
        0.007752399999999998), 50, 14000,
    ),
    ("blockgrid", "bt", (4, 2)): (
        0.007438399999999994, (0.007438399999999994, 0.006691599999999995,
        0.007279599999999995, 0.006532799999999995, 0.007115799999999995,
        0.006368999999999995, 0.006931999999999996, 0.006185199999999997), 70,
        19600,
    ),
    ("transpose", "bt", 2, 0): (
        0.0226, (0.022534, 0.0226), 8, 40320,
    ),
    ("transpose", "bt", 2, 1): (
        0.023776, (0.023776, 0.022478000000000005), 8, 40320,
    ),
    ("transpose", "bt", 3, 0): (
        0.016161599999999998, (0.016161599999999998, 0.016128,
        0.013471999999999996), 24, 53760,
    ),
    ("transpose", "bt", 3, 1): (
        0.015279600000000003, (0.015279600000000003, 0.015246000000000001,
        0.015244400000000002), 24, 53760,
    ),
}

# ("wavefront", app, p, part_axis, chunks) | ("blockgrid", app, grid), the
# latter at the default 8 chunks
MODELED = {
    ("wavefront", "sp", 2, 0, 1): 0.008112800000000003,
    ("wavefront", "sp", 2, 0, 8): 0.007730600000000002,
    ("wavefront", "sp", 2, 1, 1): 0.008125760000000001,
    ("wavefront", "sp", 2, 1, 8): 0.007738520000000001,
    ("wavefront", "sp", 3, 0, 1): 0.006333199999999999,
    ("wavefront", "sp", 3, 0, 8): 0.005610799999999997,
    ("wavefront", "sp", 3, 1, 1): 0.006351439999999999,
    ("wavefront", "sp", 3, 1, 8): 0.005618959999999999,
    ("blockgrid", "sp", (2, 2)): 0.004796359999999999,
    ("blockgrid", "sp", (2, 3)): 0.0036251200000000003,
    ("blockgrid", "sp", (4, 2)): 0.00307202,
    ("wavefront", "adi", 2, 0, 1): 0.0032432399999999997,
    ("wavefront", "adi", 2, 0, 8): 0.0032802350000000003,
    ("wavefront", "adi", 2, 1, 1): 0.0032342799999999995,
    ("wavefront", "adi", 2, 1, 8): 0.003275195,
    ("wavefront", "adi", 3, 0, 1): 0.0027557599999999995,
    ("wavefront", "adi", 3, 0, 8): 0.0025921,
    ("wavefront", "adi", 3, 1, 1): 0.00274232,
    ("wavefront", "adi", 3, 1, 8): 0.0025865000000000003,
    ("blockgrid", "adi", (2, 2)): 0.002445080666666667,
    ("blockgrid", "adi", (2, 3)): 0.001978311333333333,
    ("blockgrid", "adi", (4, 2)): 0.0017998300000000003,
    ("wavefront", "bt", 2, 0, 1): 0.025894799999999996,
    ("wavefront", "bt", 2, 0, 8): 0.0217347,
    ("wavefront", "bt", 2, 1, 1): 0.0258836,
    ("wavefront", "bt", 2, 1, 8): 0.0217284,
    ("wavefront", "bt", 3, 0, 1): 0.020779199999999998,
    ("wavefront", "bt", 3, 0, 8): 0.015105,
    ("wavefront", "bt", 3, 1, 1): 0.020762399999999997,
    ("wavefront", "bt", 3, 1, 8): 0.015098,
    ("blockgrid", "bt", (2, 2)): 0.0120755,
    ("blockgrid", "bt", (2, 3)): 0.008768,
    ("blockgrid", "bt", (4, 2)): 0.0072259,
}


def _id(key) -> str:
    return "-".join(str(part) for part in key)


def _grid(key) -> tuple[int, ...]:
    if key[0] == "blockgrid":
        return key[2]
    _, _, p, part_axis = key[:4]
    return (1,) * part_axis + (p,)


def _executor(key, shape, machine):
    if key[0] == "transpose":
        return TransposeExecutor(key[2], shape, machine, part_axis=key[3])
    chunks = key[4] if key[0] == "wavefront" else 8
    return BlockGridExecutor(_grid(key), shape, machine, chunks=chunks)


def _summary(res) -> tuple:
    return res.makespan, tuple(res.clocks), res.message_count, res.total_bytes


def _run(executor, prob):
    field = random_field(prob.field_shape)
    return executor.run(field, prob.schedule())


@pytest.mark.parametrize("key", list(SIMULATED), ids=_id)
def test_simulated_unchanged(key, machine):
    prob = APPS[key[1]]()
    out, res = _run(_executor(key, prob.field_shape, machine), prob)
    assert _summary(res) == SIMULATED[key]
    ref = run_sequential(random_field(prob.field_shape), prob.schedule())
    assert np.allclose(out, ref, atol=1e-9)


@pytest.mark.parametrize("key", list(MODELED), ids=_id)
def test_modeled_unchanged(key, machine):
    prob = APPS[key[1]]()
    chunks = key[4] if key[0] == "wavefront" else 8
    got = blockgrid_time(
        prob.field_shape, _grid(key), machine, prob.schedule(), chunks=chunks
    )
    assert got == pytest.approx(MODELED[key], rel=1e-12)


@pytest.mark.parametrize("app", list(APPS))
class TestSingleProcessor:
    @pytest.mark.parametrize("chunks", [1, 8])
    def test_all_ones_grid_is_sequential(self, app, chunks, machine):
        prob = APPS[app]()
        seq = sequential_time(prob.field_shape, prob.schedule(), machine)
        for grid in ((1,), (1, 1), (1, 1, 1)):
            _, res = _run(
                BlockGridExecutor(grid, prob.field_shape, machine,
                                  chunks=chunks),
                prob,
            )
            assert res.message_count == 0
            assert res.makespan == seq

    @pytest.mark.parametrize("part_axis", [0, 1])
    def test_transpose_one_rank_is_sequential(self, app, part_axis, machine):
        prob = APPS[app]()
        _, res = _run(
            TransposeExecutor(1, prob.field_shape, machine,
                              part_axis=part_axis),
            prob,
        )
        assert res.message_count == 0
        assert res.makespan == sequential_time(
            prob.field_shape, prob.schedule(), machine
        )

    def test_models_at_one_rank_are_sequential(self, app, machine):
        prob = APPS[app]()
        shape, sched = prob.field_shape, prob.schedule()
        seq = sequential_time(shape, sched, machine)
        for chunks in (1, 8):
            assert blockgrid_time(shape, (1, 1), machine, sched,
                                  chunks=chunks) == seq
        for part_axis in (0, 1):
            assert transpose_time(shape, 1, machine, sched,
                                  part_axis=part_axis) == seq

    @pytest.mark.parametrize("p", [2, 4])
    def test_trailing_count_one_is_uncut(self, app, p, machine):
        prob = APPS[app]()
        shape = prob.field_shape
        out_a, res_a = _run(BlockGridExecutor((p, 1), shape, machine), prob)
        out_b, res_b = _run(BlockGridExecutor((p,), shape, machine), prob)
        assert _summary(res_a) == _summary(res_b)
        assert np.array_equal(out_a, out_b)
        sched = prob.schedule()
        assert blockgrid_time(shape, (p, 1), machine, sched) == (
            blockgrid_time(shape, (p,), machine, sched)
        )
