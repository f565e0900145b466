"""Compiling a :class:`~repro.faults.plan.FaultPlan` into injection hooks.

The engine consults a :class:`FaultInjector` at delivery-scheduling time
(each send in :meth:`~repro.simmpi.engine.Engine._advance`) and at rank
start-up (for straggler factors and pause intervals).  Every decision is a
pure function of ``(seed, channel, coordinates)`` through a
splitmix64-style integer hash — no RNG objects, no hidden state — so the
injected fault pattern is structurally deterministic: it cannot depend on
scheduling order, host, or process count, only on which messages the
program actually sends.
"""

from __future__ import annotations

from .plan import FaultPlan

__all__ = ["FaultInjector", "unit_hash"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# channel salts: each fault class draws from an independent hash stream
_CH_DROP = 1
_CH_DUP = 2
_CH_JITTER = 3
_CH_LINK = 4
_CH_STRAGGLER = 5
_CH_PAUSE = 6


def _mix(*parts: int) -> int:
    """splitmix64-style avalanche over a sequence of integers."""
    x = 0
    for part in parts:
        x = (x + (part & _MASK) + _GAMMA) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        x = z ^ (z >> 31)
    return x


def unit_hash(*parts: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed by ``parts``."""
    return _mix(*parts) / 2.0**64


def _mix4(x: int, a: int, b: int, c: int, d: int) -> int:
    """:func:`_mix` continued from state ``x`` over four more parts,
    unrolled: ``_mix4(_mix(*head), a, b, c, d) == _mix(*head, a, b, c,
    d)``."""
    x = (x + (a & _MASK) + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    x = (x + (b & _MASK) + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    x = (x + (c & _MASK) + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    x = (x + (d & _MASK) + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class FaultInjector:
    """Per-run decision oracle compiled from a :class:`FaultPlan`.

    All per-message methods key on ``(source, dest, tag, seq)`` where
    ``seq`` is the engine's per-(source, dest) wire sequence number — so a
    retransmission of the same protocol packet is a *new* wire message with
    an independent fate, exactly like a real lossy link.
    """

    __slots__ = (
        "plan", "nprocs", "_seed", "_link_factors",
        "_drop_state", "_dup_state", "_jitter_state",
    )

    def __init__(self, plan: FaultPlan, nprocs: int):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.plan = plan
        self.nprocs = nprocs
        self._seed = plan.seed
        # splitmix state after the shared ``(seed, channel)`` prefix of each
        # per-message stream; a decision continues from it over
        # ``(src, dst, tag, seq)`` with `_mix4`
        self._drop_state = _mix(self._seed, _CH_DROP)
        self._dup_state = _mix(self._seed, _CH_DUP)
        self._jitter_state = _mix(self._seed, _CH_JITTER)
        # per-directed-link degradation factors, precomputed (p**2 entries)
        factors: dict[int, float] = {}
        if plan.slow_link_rate > 0.0:
            for src in range(nprocs):
                for dst in range(nprocs):
                    if src == dst:
                        continue
                    if (
                        unit_hash(self._seed, _CH_LINK, src, dst)
                        < plan.slow_link_rate
                    ):
                        factors[src * nprocs + dst] = plan.slow_link_factor
        self._link_factors = factors

    # -- per-message decisions ------------------------------------------------

    def drop(self, src: int, dst: int, tag: int, seq: int) -> bool:
        rate = self.plan.drop_rate
        return rate > 0.0 and (
            _mix4(self._drop_state, src, dst, tag, seq) / 2.0**64 < rate
        )

    def duplicate(self, src: int, dst: int, tag: int, seq: int) -> bool:
        rate = self.plan.dup_rate
        return rate > 0.0 and (
            _mix4(self._dup_state, src, dst, tag, seq) / 2.0**64 < rate
        )

    def extra_delay(self, src: int, dst: int, tag: int, seq: int) -> float:
        jitter = self.plan.jitter
        if jitter == 0.0:
            return 0.0
        return jitter * (
            _mix4(self._jitter_state, src, dst, tag, seq) / 2.0**64
        )

    def link_factor(self, src: int, dst: int) -> float:
        return self._link_factors.get(src * self.nprocs + dst, 1.0)

    # -- per-rank schedules ---------------------------------------------------

    def compute_factors(self, nprocs: int) -> list[float]:
        """Per-rank compute-time multipliers (1.0 for non-stragglers)."""
        plan = self.plan
        if plan.straggler_rate == 0.0:
            return [1.0] * nprocs
        return [
            plan.straggler_factor
            if unit_hash(self._seed, _CH_STRAGGLER, rank)
            < plan.straggler_rate
            else 1.0
            for rank in range(nprocs)
        ]

    def straggler_ranks(self) -> tuple[int, ...]:
        """The ranks the plan slows down (for reports and tests)."""
        return tuple(
            rank
            for rank, factor in enumerate(self.compute_factors(self.nprocs))
            if factor != 1.0
        )

    def pause_intervals(
        self, nprocs: int
    ) -> list[list[tuple[float, float]]] | None:
        """Per-rank unresponsiveness windows, or None when the plan has no
        pauses (keeps the engine's hot path branch-free)."""
        plan = self.plan
        if plan.pause_rate == 0.0 or plan.pause_duration == 0.0:
            return None
        intervals: list[list[tuple[float, float]]] = []
        for rank in range(nprocs):
            if unit_hash(self._seed, _CH_PAUSE, rank) < plan.pause_rate:
                intervals.append(
                    [(plan.pause_start,
                      plan.pause_start + plan.pause_duration)]
                )
            else:
                intervals.append([])
        return intervals
