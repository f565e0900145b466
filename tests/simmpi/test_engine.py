"""Tests for the discrete-event engine: timing semantics, ordering,
deadlock detection."""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_TAG,
    Comm,
    MachineModel,
    SimDeadlockError,
    run,
)
from repro.simmpi.engine import run_programs
from repro.simmpi.machine import origin2000
from repro.simmpi.message import Bytes, ComputeOp, RecvOp, SendOp


def simple_machine(**kw) -> MachineModel:
    defaults = dict(
        compute_per_point=0.0,
        overhead=1.0,
        latency=10.0,
        bandwidth=1.0,
    )
    defaults.update(kw)
    return MachineModel(**defaults)


class TestPointToPoint:
    def test_timing_semantics(self):
        """sender: +overhead; arrival: +latency+bytes/bw; receiver completes
        at max(clock, arrival)+overhead."""

        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload=Bytes(5))
            else:
                got = yield RecvOp(source=0)
                assert isinstance(got, Bytes)

        res = run(simple_machine(), prog, 2)
        # sender clock: 1 (overhead); arrival: 1 + 10 + 5 = 16;
        # receiver: max(0, 16) + 1 = 17
        assert res.clocks[0] == pytest.approx(1.0)
        assert res.clocks[1] == pytest.approx(17.0)

    def test_receiver_busy_delays_completion(self):
        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload=Bytes(5))
            else:
                yield ComputeOp(seconds=100.0)
                yield RecvOp(source=0)

        res = run(simple_machine(), prog, 2)
        assert res.clocks[1] == pytest.approx(101.0)

    def test_fifo_ordering_same_tag(self):
        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload="first", tag=7)
                yield SendOp(dest=1, payload="second", tag=7)
                return None
            a = yield RecvOp(source=0, tag=7)
            b = yield RecvOp(source=0, tag=7)
            return (a, b)

        res = run(simple_machine(), prog, 2)
        assert res.returns[1] == ("first", "second")

    def test_tag_selective_matching(self):
        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload="x", tag=1)
                yield SendOp(dest=1, payload="y", tag=2)
                return None
            b = yield RecvOp(source=0, tag=2)
            a = yield RecvOp(source=0, tag=1)
            return (a, b)

        res = run(simple_machine(), prog, 2)
        assert res.returns[1] == ("x", "y")

    def test_any_tag_takes_arrival_order(self):
        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload="x", tag=5)
                yield SendOp(dest=1, payload="y", tag=3)
                return None
            a = yield RecvOp(source=0, tag=ANY_TAG)
            b = yield RecvOp(source=0, tag=ANY_TAG)
            return (a, b)

        res = run(simple_machine(), prog, 2)
        assert res.returns[1] == ("x", "y")

    def test_any_tag_after_selective_receive(self):
        """A selective receive consumes a later-sent message; the ANY_TAG
        receives that follow still take the remaining ones in send order."""

        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload="x", tag=5)
                yield SendOp(dest=1, payload="y", tag=3)
                yield SendOp(dest=1, payload="z", tag=5)
                return None
            a = yield RecvOp(source=0, tag=3)
            b = yield RecvOp(source=0, tag=ANY_TAG)
            c = yield RecvOp(source=0, tag=ANY_TAG)
            return (a, b, c)

        res = run(simple_machine(), prog, 2)
        assert res.returns[1] == ("y", "x", "z")

    def test_any_source_any_tag_across_two_senders(self):
        """Earliest arrival wins, ties go to the lowest source, and each
        source's candidate is its earliest-sent message even when a later
        one from it arrives sooner."""

        class Named:
            def __init__(self, name, nbytes):
                self.name, self.nbytes = name, nbytes

        def prog(comm):
            if comm.rank in (1, 2):
                first, second = ("a1", "a2") if comm.rank == 1 else (
                    "b1", "b2"
                )
                # sent at t=1, arrives at 1 + 10 + 5 = 16 from both ranks
                yield SendOp(dest=0, payload=Named(first, 5), tag=1)
                # sent at t=2: rank 1's arrives at 12, before its first;
                # rank 2's arrives at 21
                size = 0 if comm.rank == 1 else 9
                yield SendOp(dest=0, payload=Named(second, size), tag=2)
                if comm.rank == 2:
                    # rank 2 runs after rank 1: once this lands, all four
                    # messages are queued
                    yield SendOp(dest=0, payload=Named("go", 0), tag=9)
                return None
            yield ComputeOp(seconds=100.0)
            yield RecvOp(source=2, tag=9)
            got = []
            for _ in range(4):
                msg = yield from comm.recv_any()
                got.append(msg.name)
            return tuple(got)

        res = run(simple_machine(), prog, 3)
        assert res.returns[0] == ("a1", "a2", "b1", "b2")

    def test_protocol_duplicates_match_in_send_order(self):
        """Under ``dup_rate=1.0`` every wire message arrives twice; the
        copy queues behind its original, so the reliable-delivery protocol
        still hands over every payload once, in send order, and discards
        each data copy as stale."""
        from repro.faults import (
            FaultInjector,
            FaultPlan,
            ProtocolConfig,
            ReliableComm,
        )

        comms = [ReliableComm(r, 2, ProtocolConfig()) for r in range(2)]
        sent = [("p", 4), ("q", 9), ("r", 4), ("s", 9)]

        def sender(comm):
            for payload, tag in sent:
                yield from comm.send(payload, dest=1, tag=tag)
            yield from comm.finalize()

        def receiver(comm):
            got = []
            for _, tag in sent:
                got.append((yield from comm.recv(source=0, tag=tag)))
            yield from comm.finalize()
            return got

        plan = FaultPlan(seed=4, dup_rate=1.0)
        res = run_programs(
            origin2000(), [sender(comms[0]), receiver(comms[1])],
            faults=FaultInjector(plan, 2), record_events=True,
        )
        assert res.returns[1] == ["p", "q", "r", "s"]
        # every data packet and every ack was duplicated
        assert res.fault_counts["duplicated"] == res.message_count // 2
        assert comms[1].stats["duplicates_dropped"] == len(sent)
        assert comms[0].stats["retransmits"] == 0
        # each channel's receives consume its wire messages (copies
        # included) in send order
        events = res.trace.events
        for src, dst in ((0, 1), (1, 0)):
            sends = [e.arrival for e in events
                     if e.kind == "send" and e.rank == src and e.peer == dst]
            recvs = [e.arrival for e in events
                     if e.kind == "recv" and e.rank == dst and e.peer == src]
            assert len(recvs) >= 2 * len(sent)
            assert recvs == sends[:len(recvs)]

    def test_duplicates_keep_send_order_under_any_tag(self):
        """A copy is stamped right after its original, so an ANY_TAG
        receive takes it before anything the source sent later."""
        from repro.faults import FaultInjector, FaultPlan

        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload="a", tag=1)
                yield SendOp(dest=1, payload="b", tag=2)
                return None
            got = []
            for _ in range(4):
                got.append((yield RecvOp(source=0, tag=ANY_TAG)))
            return got

        plan = FaultPlan(seed=4, dup_rate=1.0)
        res = run_programs(
            simple_machine(), [prog(Comm(r, 2)) for r in range(2)],
            faults=FaultInjector(plan, 2),
        )
        assert res.returns[1] == ["a", "a", "b", "b"]

    def test_numpy_payload_preserved(self):
        data = np.arange(16, dtype=np.float64).reshape(4, 4)

        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload=data)
                return None
            got = yield RecvOp(source=0)
            return got

        res = run(simple_machine(), prog, 2)
        assert (res.returns[1] == data).all()

    def test_invalid_dest_raises(self):
        def prog(comm):
            yield SendOp(dest=5, payload=None)

        with pytest.raises(ValueError):
            run(simple_machine(), prog, 2)


class TestDeadlock:
    def test_mutual_recv_detected(self):
        def prog(comm):
            other = 1 - comm.rank
            yield RecvOp(source=other)

        with pytest.raises(SimDeadlockError):
            run(simple_machine(), prog, 2)

    def test_message_names_ranks_and_ops(self):
        def prog(comm):
            if comm.rank == 1:
                yield RecvOp(source=0, tag=7)
            else:
                yield ComputeOp(seconds=1.0)

        with pytest.raises(SimDeadlockError) as excinfo:
            run(simple_machine(), prog, 2)
        msg = str(excinfo.value)
        assert "1 rank(s) blocked" in msg
        assert "rank 1 waiting on recv(source=0, tag=7)" in msg

    def test_message_spells_out_any_tag(self):
        from repro.simmpi.message import ANY_TAG

        def prog(comm):
            other = 1 - comm.rank
            yield RecvOp(source=other, tag=ANY_TAG)

        with pytest.raises(SimDeadlockError) as excinfo:
            run(simple_machine(), prog, 2)
        msg = str(excinfo.value)
        assert "2 rank(s) blocked" in msg
        assert "rank 0 waiting on recv(source=1, tag=ANY)" in msg
        assert "rank 1 waiting on recv(source=0, tag=ANY)" in msg

    def test_missing_message_detected(self):
        def prog(comm):
            if comm.rank == 1:
                yield RecvOp(source=0, tag=99)
            else:
                yield ComputeOp(seconds=1.0)

        with pytest.raises(SimDeadlockError):
            run(simple_machine(), prog, 2)


class TestBusNetwork:
    def test_bus_serializes_transfers(self):
        """On a bus, two concurrent transfers occupy the channel one after
        the other; on a scalable network they overlap."""

        def prog(comm):
            if comm.rank in (0, 1):
                yield SendOp(dest=comm.rank + 2, payload=Bytes(100))
            else:
                yield RecvOp(source=comm.rank - 2)

        from repro.core.cost import NetworkScaling

        scal = run(simple_machine(), prog, 4)
        bus_res = run(
            simple_machine(network=NetworkScaling.BUS), prog, 4
        )
        assert max(bus_res.clocks) > max(scal.clocks)

    def test_trace_counts(self):
        def prog(comm):
            if comm.rank == 0:
                yield SendOp(dest=1, payload=Bytes(64))
            else:
                yield RecvOp(source=0)

        res = run(simple_machine(), prog, 2, record_events=True)
        assert res.message_count == 1
        assert res.total_bytes == 64
        kinds = [e.kind for e in res.trace.events]
        assert "send" in kinds and "recv" in kinds


class TestEngineMisc:
    def test_program_count_mismatch(self):
        from repro.simmpi.engine import Engine

        eng = Engine(simple_machine(), nprocs=3)

        def gen():
            yield ComputeOp(seconds=0.0)

        with pytest.raises(ValueError):
            eng.run([gen()])

    def test_unsupported_op_rejected(self):
        def prog(comm):
            yield "not-an-op"

        with pytest.raises(TypeError):
            run(simple_machine(), prog, 1)

    def test_return_values_collected(self):
        def prog(comm):
            yield ComputeOp(seconds=float(comm.rank))
            return comm.rank * 10

        res = run(simple_machine(), prog, 3)
        assert res.returns == (0, 10, 20)
        assert res.clocks == (0.0, 1.0, 2.0)
        assert res.makespan == 2.0
