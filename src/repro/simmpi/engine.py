"""Deterministic discrete-event engine driving simulated rank programs.

Each rank is a Python generator; the engine runs a rank until it blocks on a
:class:`~repro.simmpi.message.RecvOp` whose message has not been *sent* yet,
then switches to another runnable rank.  Determinism: ranks are always
scanned in rank order, messages match in FIFO order per (source, dest, tag),
and all time is virtual.

The per-message path
--------------------

* **One interpreter, one handler per op class.**  :meth:`Engine._advance`
  is the only op interpreter.  It handles ``SendOp`` and ``ComputeOp``
  inline, with the rank clock in a local; ``RecvOp`` goes through
  :meth:`Engine._try_recv`, the single receive matcher that the wake path
  drives too, and ``MarkOp`` through :meth:`Engine._do_mark`.  Fault
  injection, the bus channel, pauses and tracing are guarded blocks inside
  those handlers, so a clean untraced run skips them with one test each.
* **One mailbox per destination.**  Undelivered messages wait in FIFO
  queues keyed ``(source, tag)``; each message is in exactly one queue and
  carries an engine-global send-order stamp (``Message.order``).  A
  specific receive pops the head of its queue.  An ``ANY_TAG`` receive
  takes the earliest-*sent* head among the source's queues; an
  ``ANY_SOURCE`` receive then takes the earliest-*arriving* of the
  sources' candidates, ties to the lowest source.  Either way the match is
  a queue head, so no receive searches inside a queue.

Timing semantics (see :class:`~repro.simmpi.machine.MachineModel`):

* ``SendOp`` — sender clock advances by ``send_cpu_time``; the message's
  arrival time is ``sender_clock + transfer_time`` (eager/buffered send, the
  sender never blocks — adequate for the coarse-grain, well-matched traffic
  of line sweeps).
* ``RecvOp`` — completes at ``max(receiver_clock, arrival) + recv_cpu_time``.
* ``ComputeOp`` — advances the local clock.

On a *bus* network all transfers additionally serialize through a shared
channel: each message's wire occupancy begins no earlier than the channel's
previous release.

Observability hooks
-------------------

* Every event also flows through the engine's *trace sinks* — objects with
  an ``on_event(TraceEvent)`` method (and optionally ``on_run_end(result)``)
  passed via the ``sinks`` argument.  Sinks see all events even when
  ``record_events=False``, which is how long runs stream to disk
  (:class:`repro.obs.sinks.JsonlSink`) or keep a bounded window
  (:class:`repro.obs.sinks.RingBufferSink`) without O(events) memory.
* ``MarkOp`` labels prefixed with :data:`~repro.simmpi.message.PHASE_BEGIN`
  / :data:`~repro.simmpi.message.PHASE_END` maintain a per-rank stack of
  open phases; every event is stamped with the "/"-joined path of that
  stack (``TraceEvent.phase``), attributing all compute/send/recv time to
  the innermost open phase.

The null-emit fast path
-----------------------

When ``record_events=False`` *and* no sinks are attached, nobody can ever
observe a :class:`TraceEvent`, so the engine skips constructing them
entirely (no dataclass allocation, no ``detail`` string formatting, no sink
fan-out).  All aggregate accounting survives: the per-rank virtual clocks
and per-rank compute/comm/blocked second totals are accumulated
unconditionally, so :class:`~repro.simmpi.trace.RunResult` /
:class:`~repro.simmpi.summary.RunSummary` report identical numbers with and
without tracing — pinned by ``tests/simmpi/test_engine_fastpath.py``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from heapq import heappop, heappush
from typing import Callable, Generator, Iterable

from repro.core.cost import NetworkScaling

from .machine import MachineModel
from .message import (
    ANY_SOURCE,
    ANY_TAG,
    CANCELLED,
    PHASE_BEGIN,
    PHASE_END,
    TIMEOUT,
    ComputeOp,
    MarkOp,
    Message,
    RecvOp,
    SendOp,
    payload_nbytes,
)
from .trace import RunResult, Trace, TraceEvent

__all__ = ["SimDeadlockError", "Engine", "run_programs"]

RankProgram = Callable[..., Generator]


#: the primitive op classes, in the order a subclass instance is matched
_OP_BASES = (SendOp, RecvOp, ComputeOp, MarkOp)
_OP_CLASSES = frozenset(_OP_BASES)


class SimDeadlockError(RuntimeError):
    """All unfinished ranks are blocked on receives that can never match."""


def _describe_source(source: int) -> str:
    return "ANY" if source == ANY_SOURCE else str(source)


def _deadlock_message(blocked: list[tuple[int, RecvOp]]) -> str:
    descriptions = "; ".join(
        f"rank {rank} waiting on recv(source={_describe_source(op.source)}, "
        f"tag={'ANY' if op.tag == ANY_TAG else op.tag})"
        for rank, op in blocked
    )
    return (
        f"deadlock: {len(blocked)} rank(s) blocked on unmatched "
        f"receives: {descriptions}"
    )


def _base_op_class(rank: int, op: object) -> type:
    """The primitive op class of an instance of a subclass of one."""
    for base in _OP_BASES:
        if isinstance(op, base):
            return base
    raise TypeError(f"rank {rank} yielded unsupported op {op!r}")


class _RankState:
    __slots__ = (
        "gen",
        "clock",
        "blocked",
        "done",
        "result",
        "pending_value",
        "phases",
        "phase_path",
    )

    def __init__(self, gen: Generator):
        self.gen = gen
        self.clock = 0.0
        self.blocked: RecvOp | None = None
        self.done = False
        self.result: object = None
        self.pending_value: object = None
        self.phases: list[str] = []
        self.phase_path = ""


class Engine:
    """Runs a set of rank generators to completion over virtual time."""

    def __init__(
        self,
        machine: MachineModel,
        nprocs: int,
        record_events: bool = False,
        sinks: Iterable = (),
        faults=None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.machine = machine
        self.nprocs = nprocs
        self.trace = Trace(enabled=record_events)
        self.sinks = tuple(sinks)
        # null-emit fast path: with no in-memory trace and no sinks, no
        # TraceEvent can ever be observed, so none is constructed
        self._fast = not record_events and not self.sinks
        # one mailbox per destination: FIFO queues of undelivered messages
        # keyed (source, tag).  A message sits in exactly one queue; every
        # receive pops a queue head, and wildcard receives choose among the
        # heads by the messages' send-order stamps (`Message.order`).
        # Indexing by dest first avoids building a 3-tuple key per
        # send/recv on the hot path.
        self._inbox: list[dict[tuple[int, int], deque[Message]]] = [
            defaultdict(deque) for _ in range(nprocs)
        ]
        self._bus_free_at = 0.0
        self._bus = machine.network is NetworkScaling.BUS
        # bound-method caches for the per-op timing calls (bound again as
        # locals by `_advance`)
        self._send_cpu_time = machine.send_cpu_time
        self._recv_cpu_time = machine.recv_cpu_time
        self._transfer_time = machine.transfer_time
        # wake index: _waiting_src[rank] is the source a blocked rank is
        # receiving from (-1 when runnable, ANY_SOURCE for wildcard
        # receives); _dirty lists the blocked ranks whose awaited source
        # sent since the last wake sweep
        self._waiting_src = [-1] * nprocs
        self._dirty: list[int] = []
        # optional fault injection (repro.faults.FaultInjector, duck-typed):
        # all decisions are pure-integer hashes of the message coordinates,
        # so they are independent of scheduling.  None keeps every hot path
        # on its original branch.
        self._faults = faults
        if faults is not None:
            self._seq: dict[int, int] = {}
            self._straggle: list[float] | None = faults.compute_factors(
                nprocs
            )
            self._pauses: list[list[tuple[float, float]]] | None = (
                faults.pause_intervals(nprocs)
            )
            self._pause_idx = [0] * nprocs
            self._fault_counts = {
                "dropped": 0,
                "duplicated": 0,
                "delayed": 0,
                "link_slowed": 0,
                "timeouts_fired": 0,
                "cancelled": 0,
            }
        else:
            self._straggle = None
            self._pauses = None
            self._fault_counts = None
        # aggregate accounting, maintained on both the traced and the
        # null-emit paths (engine-owned; folded into `trace` at run end).
        # The message count doubles as the send-order stamp: a wire message
        # is stamped with the count of messages sent before it.
        self._msg_count = 0
        self._total_bytes = 0
        self._compute_s = [0.0] * nprocs
        self._comm_s = [0.0] * nprocs
        self._blocked_s = [0.0] * nprocs

    # -- event fan-out -------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        """Append one event to the in-memory trace and fan it out to sinks
        (never called on the fast path — aggregate counters are maintained
        directly by the op handlers)."""
        if self.trace.enabled:
            self.trace.events.append(event)
        for sink in self.sinks:
            sink.on_event(event)

    # -- op handlers ---------------------------------------------------------

    def _pause_shift(self, rank: int, t: float) -> float:
        """Push ``t`` past any fault-plan pause interval covering it.

        Per-rank clocks are monotone, so a single advancing index suffices.
        The time spent waiting out the pause is charged as blocked time.
        """
        intervals = self._pauses[rank]  # type: ignore[index]
        i = self._pause_idx[rank]
        while i < len(intervals) and intervals[i][1] <= t:
            i += 1
        self._pause_idx[rank] = i
        if i < len(intervals) and intervals[i][0] <= t:
            shifted = intervals[i][1]
            self._blocked_s[rank] += shifted - t
            return shifted
        return t

    def _match_wildcard(self, rank: int, op: RecvOp) -> Message | None:
        """The queue head a wildcard receive matches, or None.

        :data:`ANY_TAG` takes each candidate source's earliest-*sent*
        message (least ``order`` among that source's queue heads);
        :data:`ANY_SOURCE` then takes the earliest-*arriving* of the
        candidates, ties to the lowest source.  Either way the match is the
        head of its ``(source, tag)`` queue, so per-channel FIFO holds."""
        source, tag = op.source, op.tag
        if source != ANY_SOURCE and not 0 <= source < self.nprocs:
            raise ValueError(
                f"rank {rank}: recv from invalid source {source}"
            )
        heads: dict[int, Message] = {}
        for (src, t), q in self._inbox[rank].items():
            if not q or (tag != ANY_TAG and t != tag) or (
                source != ANY_SOURCE and src != source
            ):
                continue
            head = q[0]
            seen = heads.get(src)
            if seen is None or head.order < seen.order:
                heads[src] = head
        best: Message | None = None
        for head in heads.values():
            if best is None or (head.arrives_at, head.source) < (
                best.arrives_at, best.source
            ):
                best = head
        return best

    def _try_recv(self, rank: int, state: _RankState, op: RecvOp) -> bool:
        """Attempt to complete a receive; True on success.

        A timed receive (``op.timeout >= 0``) completes here only when a
        matching message arrives within the window; an expired window is
        resolved at quiescence (:meth:`_resolve_quiescence`), never eagerly
        — per-channel FIFO guarantees no earlier message can still appear,
        but an :data:`ANY_SOURCE` receive could yet be satisfied by another
        sender, so expiry must wait until no rank can make progress.
        """
        source = op.source
        tag = op.tag
        if tag != ANY_TAG and 0 <= source < self.nprocs:
            q = self._inbox[rank][(source, tag)]
            if not q:
                return False
            msg = q[0]
        else:
            msg = self._match_wildcard(rank, op)
            if msg is None:
                return False
            q = self._inbox[rank][(msg.source, msg.tag)]
        if op.timeout >= 0 and msg.arrives_at > state.clock + op.timeout:
            return False
        q.popleft()
        clock = state.clock
        start = msg.arrives_at
        if start < clock:
            start = clock
        else:
            self._blocked_s[rank] += start - clock
        if self._pauses is not None:
            start = self._pause_shift(rank, start)
        end = start + self._recv_cpu_time(msg.nbytes)
        state.clock = end
        self._comm_s[rank] += end - start
        state.pending_value = msg.payload
        if not self._fast:
            self._emit(
                TraceEvent(
                    rank=rank,
                    kind="recv",
                    start=start,
                    end=end,
                    detail=f"<-{msg.source} tag={msg.tag}",
                    nbytes=msg.nbytes,
                    peer=msg.source,
                    tag=msg.tag,
                    arrival=msg.arrives_at,
                    phase=state.phase_path,
                )
            )
        return True

    def _do_mark(self, rank: int, state: _RankState, op: MarkOp) -> None:
        label = op.label
        if label.startswith(PHASE_BEGIN):
            state.phases.append(label[len(PHASE_BEGIN):])
            state.phase_path = "/".join(state.phases)
        elif label.startswith(PHASE_END):
            name = label[len(PHASE_END):]
            if not state.phases or state.phases[-1] != name:
                open_phase = state.phases[-1] if state.phases else None
                raise ValueError(
                    f"rank {rank}: phase_end({name!r}) does not match the "
                    f"innermost open phase {open_phase!r}"
                )
        if not self._fast:
            self._emit(
                TraceEvent(
                    rank=rank,
                    kind="mark",
                    start=state.clock,
                    end=state.clock,
                    detail=label,
                    phase=state.phase_path,
                )
            )
        if label.startswith(PHASE_END):
            state.phases.pop()
            state.phase_path = "/".join(state.phases)

    # -- main loop ------------------------------------------------------------

    def run(self, generators: Iterable[Generator]) -> RunResult:
        states = [_RankState(g) for g in generators]
        if len(states) != self.nprocs:
            raise ValueError(
                f"expected {self.nprocs} rank programs, got {len(states)}"
            )
        runnable = deque(range(self.nprocs))
        while True:
            while runnable:
                rank = runnable.popleft()
                state = states[rank]
                if state.done:
                    continue
                self._advance(rank, state)
                if not state.done and state.blocked is None:
                    raise AssertionError("rank neither done nor blocked")
                # A rank that blocked may be unblocked by messages already
                # sent; _advance loops internally, so reaching here means it
                # is either finished or waiting on a future message.  Wake
                # any ranks whose mailbox actually changed.
                self._drain_wakeups(states)
            if all(s.done for s in states):
                break
            # quiescence: every unfinished rank is blocked and no pending
            # message can complete its receive — fire the earliest receive
            # deadline, cancel an all-cancellable remainder, or report
            # deadlock
            runnable.extend(self._resolve_quiescence(states))
        trace = self.trace
        trace.message_count = self._msg_count
        trace.total_bytes = self._total_bytes
        trace.compute_seconds = sum(self._compute_s)
        result = RunResult(
            clocks=tuple(s.clock for s in states),
            returns=tuple(s.result for s in states),
            trace=trace,
            compute_by_rank=tuple(self._compute_s),
            comm_by_rank=tuple(self._comm_s),
            blocked_by_rank=tuple(self._blocked_s),
            fault_counts=(
                dict(self._fault_counts)
                if self._fault_counts is not None
                else None
            ),
        )
        for sink in self.sinks:
            on_run_end = getattr(sink, "on_run_end", None)
            if on_run_end is not None:
                on_run_end(result)
        return result

    def _resolve_quiescence(self, states: list[_RankState]) -> list[int]:
        """Resolve a stall where every unfinished rank is blocked.

        Resolution order:

        1. **Timed receives** — fire the earliest ``(deadline, rank)``: the
           rank resumes with :data:`TIMEOUT` at ``clock = deadline``.  Safe
           by induction: at quiescence no rank can run before some blocked
           receive resolves, and every other resolution happens at a
           deadline ``>=`` this one, so every message sent afterwards is
           *sent* at virtual time ``>=`` the fired deadline — no message
           that "should have" beaten the timeout can still appear.
        2. **Cancellable receives** — if every blocked rank is cancellable,
           all resume with :data:`CANCELLED`, clocks unchanged (protocol
           termination).
        3. Otherwise the configuration is genuinely deadlocked.
        """
        best_rank = -1
        best_deadline = 0.0
        for r, s in enumerate(states):
            if s.done or s.blocked is None:
                continue
            op = s.blocked
            if op.timeout >= 0:
                deadline = s.clock + op.timeout
                if best_rank < 0 or deadline < best_deadline:
                    best_rank, best_deadline = r, deadline
        if best_rank >= 0:
            s = states[best_rank]
            self._blocked_s[best_rank] += best_deadline - s.clock
            if not self._fast:
                self._emit(
                    TraceEvent(
                        rank=best_rank,
                        kind="timeout",
                        start=s.clock,
                        end=best_deadline,
                        detail=(
                            f"recv(source={_describe_source(s.blocked.source)}"
                            f", tag={s.blocked.tag}) timed out"
                        ),
                        phase=s.phase_path,
                    )
                )
            s.clock = best_deadline
            s.pending_value = TIMEOUT
            s.blocked = None
            self._waiting_src[best_rank] = -1
            if self._fault_counts is not None:
                self._fault_counts["timeouts_fired"] += 1
            return [best_rank]
        blocked = [(r, s) for r, s in enumerate(states) if not s.done]
        if blocked and all(
            s.blocked is not None and s.blocked.cancellable
            for _, s in blocked
        ):
            resumed = []
            for r, s in blocked:
                if not self._fast:
                    self._emit(
                        TraceEvent(
                            rank=r,
                            kind="cancel",
                            start=s.clock,
                            end=s.clock,
                            detail="lingering recv cancelled",
                            phase=s.phase_path,
                        )
                    )
                s.pending_value = CANCELLED
                s.blocked = None
                self._waiting_src[r] = -1
                if self._fault_counts is not None:
                    self._fault_counts["cancelled"] += 1
                resumed.append(r)
            return resumed
        raise SimDeadlockError(
            _deadlock_message([(r, s.blocked) for r, s in blocked])
        )

    def _drain_wakeups(self, states: list[_RankState]) -> None:
        """Re-poll only the blocked receivers whose awaited source has sent.

        The wake index (``_waiting_src`` + ``_dirty``) makes each sweep
        O(#ranks-with-new-mail) instead of rescanning every blocked rank:
        a send to rank ``r`` marks ``r`` dirty only when ``r`` is currently
        blocked on that source, and only dirty ranks are re-polled here.
        Wake *order* still matches a full ascending-rank scan exactly (the
        equivalence is pinned by a hypothesis stress test): each pass visits
        candidates in ascending rank order; a rank dirtied mid-pass joins
        the current pass if its rank number is still ahead of the scan
        position, otherwise the next pass.
        """
        ready = self._dirty
        if not ready:
            return
        self._dirty = []
        waiting_src = self._waiting_src
        try_recv = self._try_recv
        advance = self._advance
        while ready:
            heap = sorted(set(ready))
            in_pass = set(heap)
            next_pass: set[int] = set()
            while heap:
                rank = heappop(heap)
                in_pass.discard(rank)
                state = states[rank]
                op = state.blocked
                if state.done or op is None:
                    continue
                if not try_recv(rank, state, op):
                    continue
                state.blocked = None
                waiting_src[rank] = -1
                advance(rank, state)
                woken = self._dirty
                if not woken:
                    continue
                self._dirty = []
                for newly in woken:
                    if newly in in_pass or newly in next_pass:
                        continue
                    if newly > rank:
                        heappush(heap, newly)
                        in_pass.add(newly)
                    else:
                        next_pass.add(newly)
            ready = sorted(next_pass)

    def _advance(self, rank: int, state: _RankState) -> None:
        """Drive one rank until it finishes or blocks on an empty receive.

        This is the engine's only op interpreter, with one handler per op
        class: sends and computes inline, receives through
        :meth:`_try_recv` (which the wake path drives too) and marks
        through :meth:`_do_mark`.  The rank clock and the value to send
        into the generator live in locals; they are written back to
        ``state`` before any call that reads it.  An instance of a subclass
        of an op class is dispatched to its base class's handler.
        """
        gen_send = state.gen.send
        clock = state.clock
        value = state.pending_value
        nprocs = self.nprocs
        inbox = self._inbox
        waiting_src = self._waiting_src
        dirty = self._dirty
        compute_s = self._compute_s
        comm_s = self._comm_s
        send_cpu_time = self._send_cpu_time
        transfer_time = self._transfer_time
        faults = self._faults
        straggle = self._straggle
        pauses = self._pauses
        bus = self._bus
        fast = self._fast
        while True:
            try:
                op = gen_send(value)
            except StopIteration as stop:
                state.clock = clock
                state.pending_value = None
                state.done = True
                state.result = stop.value
                return
            value = None
            cls = op.__class__
            if cls not in _OP_CLASSES:
                cls = _base_op_class(rank, op)
            if cls is SendOp:
                dest = op.dest
                if not 0 <= dest < nprocs:
                    raise ValueError(
                        f"rank {rank}: send to invalid dest {dest}"
                    )
                payload = op.payload
                tag = op.tag
                nbytes = getattr(payload, "nbytes", None)
                if nbytes.__class__ is not int:
                    nbytes = payload_nbytes(payload)
                start = clock
                seq = 0
                if faults is not None:
                    if pauses is not None:
                        start = self._pause_shift(rank, start)
                    key = rank * nprocs + dest
                    seq = self._seq.get(key, 0)
                    self._seq[key] = seq + 1
                clock = start + send_cpu_time(nbytes)
                comm_s[rank] += clock - start
                wire_start = clock
                if bus and self._bus_free_at > wire_start:
                    wire_start = self._bus_free_at
                transfer = transfer_time(nbytes, rank, dest)
                dropped = duplicated = False
                if faults is not None:
                    counts = self._fault_counts
                    factor = faults.link_factor(rank, dest)
                    if factor != 1.0:
                        transfer *= factor
                        counts["link_slowed"] += 1  # type: ignore[index]
                    delay = faults.extra_delay(rank, dest, tag, seq)
                    if delay != 0.0:
                        transfer += delay
                        counts["delayed"] += 1  # type: ignore[index]
                    dropped = faults.drop(rank, dest, tag, seq)
                    duplicated = not dropped and faults.duplicate(
                        rank, dest, tag, seq
                    )
                arrives = wire_start + transfer
                if bus:
                    self._bus_free_at = arrives
                # every wire message, dropped or not, takes the next stamp
                order = self._msg_count
                self._msg_count = order + 1
                self._total_bytes += nbytes
                if dropped:
                    # transmitted and lost: the sender paid its CPU and (on
                    # a bus) the wire occupancy, but nothing is delivered
                    counts["dropped"] += 1  # type: ignore[index]
                else:
                    inbox[dest][(rank, tag)].append(Message(
                        rank, dest, tag, payload, nbytes, clock, arrives,
                        seq, order,
                    ))
                    ws = waiting_src[dest]
                    if ws == rank or ws == ANY_SOURCE:
                        dirty.append(dest)
                if not fast:
                    self._emit(
                        TraceEvent(
                            rank=rank,
                            kind="send",
                            start=start,
                            end=clock,
                            detail=f"->{dest} tag={tag}"
                            + (" dropped" if dropped else ""),
                            nbytes=nbytes,
                            peer=dest,
                            tag=tag,
                            arrival=arrives,
                            phase=state.phase_path,
                        )
                    )
                if duplicated:
                    # an in-network duplicate: same bytes delivered a second
                    # time, one wire latency later (deterministic spacing)
                    arrives += self.machine.latency
                    inbox[dest][(rank, tag)].append(Message(
                        rank, dest, tag, payload, nbytes, clock, arrives,
                        seq, order + 1,
                    ))
                    ws = waiting_src[dest]
                    if ws == rank or ws == ANY_SOURCE:
                        dirty.append(dest)
                    counts["duplicated"] += 1  # type: ignore[index]
                    self._msg_count = order + 2
                    self._total_bytes += nbytes
                    if not fast:
                        # a second send event keeps FIFO send<->recv pairing
                        # intact for trace consumers (obs.critical matches
                        # per channel)
                        self._emit(
                            TraceEvent(
                                rank=rank,
                                kind="send",
                                start=clock,
                                end=clock,
                                detail=f"->{dest} tag={tag} dup",
                                nbytes=nbytes,
                                peer=dest,
                                tag=tag,
                                arrival=arrives,
                                phase=state.phase_path,
                            )
                        )
            elif cls is RecvOp:
                state.clock = clock
                if not self._try_recv(rank, state, op):
                    state.pending_value = None
                    state.blocked = op
                    waiting_src[rank] = op.source
                    return
                clock = state.clock
                value = state.pending_value
            elif cls is ComputeOp:
                start = clock
                seconds = op.seconds
                if straggle is not None:
                    if pauses is not None:
                        start = self._pause_shift(rank, start)
                    factor = straggle[rank]
                    if factor != 1.0:
                        seconds = seconds * factor
                clock = start + seconds
                compute_s[rank] += seconds
                if not fast:
                    self._emit(
                        TraceEvent(
                            rank=rank,
                            kind="compute",
                            start=start,
                            end=clock,
                            detail=f"{op.points:g} pts" if op.points else "",
                            phase=state.phase_path,
                        )
                    )
            else:
                state.clock = clock
                self._do_mark(rank, state, op)


def run_programs(
    machine: MachineModel,
    programs: list[Generator],
    record_events: bool = False,
    sinks: Iterable = (),
    faults=None,
) -> RunResult:
    """Convenience wrapper: run already-instantiated rank generators."""
    engine = Engine(
        machine, nprocs=len(programs), record_events=record_events,
        sinks=sinks, faults=faults,
    )
    return engine.run(programs)
