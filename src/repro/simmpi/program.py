"""Side-effect-free extraction of a rank program's primitive-op stream.

A rank program is a generator that yields the primitive ops of
:mod:`repro.simmpi.message`.  The engine *interprets* that stream against
virtual time; the static verifier (:mod:`repro.verify`) instead wants the
stream itself — every send/recv/compute/mark a rank would issue, without
running the engine, advancing clocks, or touching any payload data.

:func:`record_ops` drives one generator to completion in isolation, feeding
a placeholder value into every blocking receive.  That is only sound for
programs whose *control flow* does not depend on received payloads —
exactly the contract of the executor's skeleton programs
(:meth:`repro.sweep.multipart.MultipartExecutor.skeleton_rank_program`),
flat generators that read every decision from per-rank tables of tile
geometry.
"""

from __future__ import annotations

from typing import Any, Generator

from .message import (
    ANY_TAG,
    ComputeOp,
    MarkOp,
    RecvOp,
    SendOp,
    payload_nbytes,
)

__all__ = ["record_ops", "op_metadata"]

#: Primitive op classes a well-formed rank program may yield.
_PRIMITIVE_OPS = (SendOp, RecvOp, ComputeOp, MarkOp)


def record_ops(
    gen: Generator,
    recv_value: Any = None,
    max_ops: int | None = None,
) -> list:
    """Drain one rank generator and return its primitive-op list.

    Every :class:`~repro.simmpi.message.RecvOp` is answered with
    ``recv_value`` (default ``None``) so the program keeps running without
    a matching sender; all other ops receive ``None``, mirroring the
    engine.  ``max_ops`` guards against runaway programs (an op budget,
    not a time budget — extraction involves no clock).

    Raises :class:`TypeError` on a non-primitive op and
    :class:`RuntimeError` when ``max_ops`` is exhausted.
    """
    ops: list = []
    value: Any = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration:
            return ops
        if not isinstance(op, _PRIMITIVE_OPS):
            raise TypeError(f"rank program yielded unsupported op {op!r}")
        ops.append(op)
        if max_ops is not None and len(ops) > max_ops:
            raise RuntimeError(
                f"rank program exceeded the {max_ops}-op extraction budget"
            )
        value = recv_value if isinstance(op, RecvOp) else None


def op_metadata(op: object) -> dict:
    """JSON-ready description of one primitive op — the witness vocabulary
    shared by the verifier's diagnostics."""
    if isinstance(op, SendOp):
        return {
            "kind": "send",
            "dest": op.dest,
            "tag": op.tag,
            "nbytes": payload_nbytes(op.payload),
        }
    if isinstance(op, RecvOp):
        return {
            "kind": "recv",
            "source": op.source,
            "tag": "ANY" if op.tag == ANY_TAG else op.tag,
        }
    if isinstance(op, ComputeOp):
        return {"kind": "compute", "seconds": op.seconds, "points": op.points}
    if isinstance(op, MarkOp):
        return {"kind": "mark", "label": op.label}
    raise TypeError(f"not a primitive op: {op!r}")
