"""Skeleton-vs-real-data equivalence: the fidelity contract of skeleton
mode.

A skeleton run must replay the exact rank programs of a real-data run —
same op sequence, message counts, tags, byte counts, compute durations —
and therefore produce *bit-identical* virtual clocks, makespan, and
aggregate counters.  These tests pin that for SP, BT, and ADI schedules
across small shapes and processor counts, with aggregation on and off, and
cross-check both modes against the closed-form communication totals."""

import pytest

from repro.analysis.counting import schedule_comm_totals
from repro.apps.adi import ADIProblem
from repro.apps.bt import BTProblem, bt_plan
from repro.apps.sp import SPProblem
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.simmpi.machine import origin2000
from repro.simmpi.summary import RunSummary
from repro.sweep.multipart import MultipartExecutor

MACHINE = origin2000()
SHAPES = [(8, 8, 8), (12, 12, 12)]
CPU_COUNTS = [2, 4, 6, 9]


def _plan(app, shape, p):
    if app == "bt":
        return bt_plan(shape, p, MACHINE.to_cost_model())
    return plan_multipartitioning(shape, p, MACHINE.to_cost_model())


def _problem(app, shape, steps=1):
    cls = {"sp": SPProblem, "bt": BTProblem, "adi": ADIProblem}[app]
    return cls(shape, steps=steps)


def _run_both(app, shape, p, aggregate=True, schedule=None, arrays=None):
    prob = _problem(app, shape)
    plan = _plan(app, shape, p)
    schedule = schedule if schedule is not None else prob.schedule()
    field_shape = prob.field_shape
    real = MultipartExecutor(
        plan.partitioning, field_shape, MACHINE, aggregate=aggregate
    )
    data = arrays if arrays is not None else random_field(field_shape)
    _, real_res = real.run(data, schedule)
    skel = MultipartExecutor(
        plan.partitioning, field_shape, MACHINE, aggregate=aggregate,
        payload="skeleton",
    )
    skel_res = skel.run_skeleton(schedule)
    return real_res, skel_res, plan.partitioning, field_shape, schedule


class TestBitIdenticalEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("p", CPU_COUNTS)
    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    def test_summary_identical(self, app, shape, p):
        real_res, skel_res, *_ = _run_both(app, shape, p)
        real = RunSummary.from_result(real_res)
        skel = RunSummary.from_result(skel_res)
        # dataclass equality: nprocs, makespan, every per-rank clock,
        # message count, byte total, compute/comm/blocked seconds — all
        # bit-identical floats, not approximations
        assert real == skel

    @pytest.mark.parametrize("p", CPU_COUNTS)
    def test_per_rank_totals_identical(self, p):
        real_res, skel_res, *_ = _run_both("sp", (8, 8, 8), p)
        assert real_res.clocks == skel_res.clocks
        assert real_res.compute_by_rank == skel_res.compute_by_rank
        assert real_res.comm_by_rank == skel_res.comm_by_rank
        assert real_res.blocked_by_rank == skel_res.blocked_by_rank

    @pytest.mark.parametrize("p", [4, 6])
    def test_aggregation_off(self, p):
        """The per-tile-message ablation must match too (distinct tag
        arithmetic path)."""
        real_res, skel_res, *_ = _run_both("sp", (8, 8, 8), p,
                                           aggregate=False)
        assert RunSummary.from_result(real_res) == RunSummary.from_result(
            skel_res
        )

    @pytest.mark.parametrize("p", [4, 9])
    def test_stencil_schedule(self, p):
        """Two-array SP with a real halo-exchange stencil RHS."""
        import numpy as np

        shape = (12, 12, 12)
        prob = SPProblem(shape, steps=1)
        arrays = {"u": random_field(shape), "rhs": np.zeros(shape)}
        real_res, skel_res, *_ = _run_both(
            "sp", shape, p, schedule=prob.schedule_two_array(), arrays=arrays
        )
        assert RunSummary.from_result(real_res) == RunSummary.from_result(
            skel_res
        )

    def test_multi_step(self):
        prob = SPProblem((8, 8, 8), steps=2)
        real_res, skel_res, *_ = _run_both(
            "sp", (8, 8, 8), 6, schedule=prob.schedule()
        )
        assert RunSummary.from_result(real_res) == RunSummary.from_result(
            skel_res
        )


def _streams(result):
    """Each rank's event sequence: (kind, peer, tag, nbytes, compute
    seconds, phase path, detail)."""
    streams = [[] for _ in result.clocks]
    for ev in result.trace.events:
        seconds = ev.end - ev.start if ev.kind == "compute" else 0.0
        streams[ev.rank].append(
            (ev.kind, ev.peer, ev.tag, ev.nbytes, seconds, ev.phase,
             ev.detail)
        )
    return streams


def _run_traced(app, shape, p, aggregate=True, steps=1, two_array=False,
                **kw):
    """Real-data and skeleton runs of one config with every event
    recorded."""
    prob = _problem(app, shape, steps)
    if two_array:
        schedule = prob.schedule_two_array()
        data = {"u": random_field(shape), "rhs": random_field(shape)}
    else:
        schedule = prob.schedule()
        data = random_field(prob.field_shape)
    partitioning = _plan(app, shape, p).partitioning
    results = []
    for payload in ("data", "skeleton"):
        executor = MultipartExecutor(
            partitioning, prob.field_shape, MACHINE, aggregate=aggregate,
            record_events=True, payload=payload, **kw,
        )
        results.append(executor.run(data, schedule)[1])
    return results


class TestRankStreams:
    """Per-rank event streams, not just run totals, are identical: the
    skeleton emitter and the real-data program emit the same ops."""

    @pytest.mark.parametrize("aggregate", [True, False])
    @pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    def test_ragged_shape(self, app, p, aggregate):
        real, skel = _run_traced(app, (10, 13, 11), p, aggregate=aggregate)
        assert _streams(real) == _streams(skel)
        assert real.returns == skel.returns

    @pytest.mark.parametrize("aggregate", [True, False])
    @pytest.mark.parametrize("p", [4, 9])
    def test_stencil_two_array(self, p, aggregate):
        real, skel = _run_traced(
            "sp", (12, 9, 10), p, aggregate=aggregate, two_array=True
        )
        assert _streams(real) == _streams(skel)

    def test_multi_step(self):
        real, skel = _run_traced("sp", (10, 13, 11), 6, steps=2)
        assert _streams(real) == _streams(skel)

    @pytest.mark.parametrize("aggregate", [True, False])
    def test_zero_rate_protocol_run_equals_clean_run(self, aggregate):
        """Under the reliable-delivery protocol with a zero-rate fault
        plan, skeleton and real streams still agree, and the protocol
        carries exactly the clean run's messages, each acked once."""
        from repro.faults import ProtocolConfig, ZERO_FAULTS

        clean, _ = _run_traced("sp", (10, 13, 11), 6, aggregate=aggregate)
        real, skel = _run_traced(
            "sp", (10, 13, 11), 6, aggregate=aggregate, faults=ZERO_FAULTS,
            protocol=ProtocolConfig(),
        )
        assert _streams(real) == _streams(skel)
        assert real.protocol_stats == skel.protocol_stats
        stats = skel.protocol_stats
        assert stats["data_sent"] == stats["acks"] == clean.message_count
        assert stats["retransmits"] == stats["timeouts"] == 0

        def local(result):
            # (kind, phase, detail): the clocks differ under the
            # protocol, so durations are compared through the points
            return [
                [(ev[0], ev[5], ev[6]) for ev in stream
                 if ev[0] in ("compute", "mark")]
                for stream in _streams(result)
            ]

        assert local(skel) == local(clean)


class TestAnalyticCrossCheck:
    @pytest.mark.parametrize("aggregate", [True, False])
    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    def test_comm_totals_match_closed_form(self, app, aggregate):
        _, skel_res, partitioning, field_shape, schedule = _run_both(
            app, (12, 12, 12), 6, aggregate=aggregate
        )
        messages, nbytes = schedule_comm_totals(
            field_shape, partitioning, schedule, aggregate=aggregate
        )
        assert skel_res.message_count == messages
        assert skel_res.total_bytes == nbytes

    def test_stencil_comm_totals(self):
        import numpy as np

        shape = (12, 12, 12)
        prob = SPProblem(shape, steps=1)
        arrays = {"u": random_field(shape), "rhs": np.zeros(shape)}
        _, skel_res, partitioning, field_shape, schedule = _run_both(
            "sp", shape, 6, schedule=prob.schedule_two_array(), arrays=arrays
        )
        messages, nbytes = schedule_comm_totals(
            field_shape, partitioning, schedule
        )
        assert skel_res.message_count == messages
        assert skel_res.total_bytes == nbytes


class TestExecutorApi:
    def test_run_delegates_in_skeleton_mode(self):
        prob = SPProblem((8, 8, 8), steps=1)
        plan = _plan("sp", prob.shape, 4)
        ex = MultipartExecutor(
            plan.partitioning, prob.shape, MACHINE, payload="skeleton"
        )
        out, res = ex.run(None, prob.schedule())
        assert out is None
        assert res.message_count > 0

    def test_rejects_unknown_payload_mode(self):
        prob = SPProblem((8, 8, 8), steps=1)
        plan = _plan("sp", prob.shape, 4)
        with pytest.raises(ValueError, match="payload"):
            MultipartExecutor(
                plan.partitioning, prob.shape, MACHINE, payload="ghost"
            )

    def test_skeleton_p1_speedup_is_exactly_one(self):
        """The p=1 anomaly fix: one simulated rank pays the same per-tile
        overhead as the sequential baseline, so speedup == 1.0 exactly."""
        from repro.sweep.sequential import sequential_time

        prob = SPProblem((8, 8, 8), steps=1)
        plan = _plan("sp", prob.shape, 1)
        ex = MultipartExecutor(
            plan.partitioning, prob.shape, MACHINE, payload="skeleton"
        )
        res = ex.run_skeleton(prob.schedule())
        t_seq = sequential_time(prob.shape, prob.schedule(), MACHINE)
        assert res.makespan == pytest.approx(t_seq, rel=1e-12)
        assert res.message_count == 0
