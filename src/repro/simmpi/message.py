"""Messages and the primitive operations rank programs yield to the engine.

Rank programs are generator functions ``prog(comm)`` that ``yield`` these
primitive ops (usually indirectly, through :class:`repro.simmpi.comm.Comm`
helpers with ``yield from``).  The engine interprets each op, charges virtual
time, and sends results back into the generator.

The per-message ops, :class:`SendOp` and :class:`RecvOp`, are
:class:`typing.NamedTuple` records: a Table 1 pass builds one per message
endpoint (hundreds of thousands), and a tuple-backed record is built by one
C-level ``tuple.__new__`` where a frozen dataclass pays an
``object.__setattr__`` per field.  They keep the dataclass surface — field
names and defaults, keyword construction, a field-naming ``repr``,
immutability, hashing, ``isinstance`` — and since the two have different
arities they never compare equal to each other or to the dataclass ops.
:class:`ComputeOp` (validated, and cached by the emitters) and
:class:`MarkOp` (the multipartitioned programs yield marks only for traced
runs) stay frozen dataclasses.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Any, NamedTuple

__all__ = [
    "payload_nbytes",
    "Bytes",
    "Message",
    "SendOp",
    "RecvOp",
    "ComputeOp",
    "MarkOp",
    "ANY_TAG",
    "ANY_SOURCE",
    "TIMEOUT",
    "CANCELLED",
    "PHASE_BEGIN",
    "PHASE_END",
]

ANY_TAG = -1
ANY_SOURCE = -2


class _Sentinel:
    """Singleton payload-substitute returned by special receive outcomes."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: returned by a timed :class:`RecvOp` whose deadline passed with no
#: matching message arriving in time
TIMEOUT = _Sentinel("TIMEOUT")
#: returned by a cancellable :class:`RecvOp` when the engine cancelled it
#: at quiescence (all remaining ranks were lingering on cancellable recvs)
CANCELLED = _Sentinel("CANCELLED")

#: Mark-label prefixes of the hierarchical phase-span protocol: a
#: ``MarkOp(PHASE_BEGIN + label)`` pushes ``label`` onto the rank's phase
#: stack, ``MarkOp(PHASE_END + label)`` pops it (labels must match — the
#: engine validates nesting).  Every event a rank records while the stack
#: is non-empty is attributed to the innermost open phase via
#: ``TraceEvent.phase`` ("/"-joined path).  Use the :class:`~repro.simmpi
#: .comm.Comm` helpers ``phase_begin``/``phase_end``/``phase`` rather than
#: yielding raw marks.
PHASE_BEGIN = "phase_begin:"
PHASE_END = "phase_end:"


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload.

    Anything exposing an integer ``nbytes`` attribute — numpy arrays,
    :class:`Bytes` sentinels, the executor's structural payload wrappers —
    declares its own size; raw byte buffers count their length; everything
    else falls back to its pickled size (the mpi4py lower-case-method
    convention)."""
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


@dataclasses.dataclass(frozen=True, slots=True)
class Bytes:
    """A payload-free message body of a declared size — used by *modeled
    mode* executors that track time and volume without moving data."""

    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be >= 0")


@dataclasses.dataclass(slots=True)
class Message:
    """An in-flight or delivered message.

    Not frozen — the engine allocates one per send on its hottest path and
    a frozen dataclass pays ``object.__setattr__`` per field — but treated
    as immutable everywhere after construction.  ``order`` is the engine's
    global send stamp: wildcard receives compare it across the per-(source,
    tag) queues of one mailbox to find a source's earliest-sent message."""

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    sent_at: float
    arrives_at: float
    #: per-(source, dest) wire sequence number; assigned only when a fault
    #: injector is attached (it keys the injector's per-message decisions),
    #: 0 otherwise
    seq: int = 0
    #: engine-global send order (strictly increasing over the run's sends,
    #: a duplicate stamped after its original)
    order: int = 0


class SendOp(NamedTuple):
    """Buffered (eager) send: charges sender CPU overhead and schedules the
    arrival; never blocks the sender.

    Payloads travel zero-copy: the receiver gets the same object the sender
    passed.  If the sender will mutate the underlying buffer after sending
    (e.g. an array view into a block that gets updated), it must pass a
    copy — exactly the MPI buffer-reuse contract."""

    dest: int
    payload: Any
    tag: int = 0


class RecvOp(NamedTuple):
    """Blocking receive matched by (source, tag) in FIFO order.  ``tag`` may
    be :data:`ANY_TAG` to match the earliest message from ``source``, and
    ``source`` may be :data:`ANY_SOURCE` to match the earliest-arriving
    message from any source (ties broken by lowest source rank).

    ``timeout >= 0`` bounds the wait: the receive completes normally only
    with a matching message whose arrival is within ``timeout`` virtual
    seconds of the moment the receive was posted; otherwise it yields the
    :data:`TIMEOUT` sentinel with the clock advanced to the deadline.
    Timeouts fire only at engine quiescence (earliest deadline first), so
    they can never reorder against a message that would have arrived
    earlier in virtual time.

    ``cancellable=True`` marks a receive that may be abandoned: when every
    unfinished rank is blocked on a cancellable receive, the engine resumes
    them all with :data:`CANCELLED` (clocks unchanged) instead of declaring
    deadlock — the termination handshake of the reliable-delivery protocol.
    """

    source: int
    tag: int = 0
    timeout: float = -1.0
    cancellable: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class ComputeOp:
    """Advance the local clock by a modeled compute duration (seconds)."""

    seconds: float
    points: float = 0.0  # bookkeeping only: elements touched, for traces

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("compute duration must be >= 0")


@dataclasses.dataclass(frozen=True, slots=True)
class MarkOp:
    """Trace marker (phase boundaries etc.); costs nothing."""

    label: str
