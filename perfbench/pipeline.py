"""The traced run: spans, a timing proxy for the result cache, and the
pipeline rebuilt step by step from the program's public functions.

The benchmark records spans from its own code, around each call into a
layer; nothing inside ``src/`` is instrumented.  The stepwise pipelines
below must reproduce :func:`repro.runner.run_spec` and
:func:`repro.verify.verify_config` bit for bit — the traced run compares
their canonical JSON and fails when they differ, so the per-layer times
always describe the computation the untraced run measured.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

from repro.apps import ADIProblem, BTProblem, SPProblem
from repro.core import (
    Multipartitioning,
    Objective,
    PartitioningChoice,
    build_modular_mapping,
    optimal_partitioning,
)
from repro.core.diagonal import diagonal_nd
from repro.faults import ProtocolExhaustedError
from repro.runner import SCHEMA_TAG, resolve_cost_model, resolve_machine
from repro.runner.execute import resolve_faults
from repro.simmpi import RunSummary, origin2000, run_programs
from repro.simmpi.program import record_ops
from repro.sweep import MultipartExecutor, multipart_time, sequential_time
from repro.verify import (
    AnalysisResult,
    VerifyReport,
    check_invariants,
    check_protocol,
    extract_program_ir,
    verify_ir,
)

_PROBLEMS = {"sp": SPProblem, "bt": BTProblem, "adi": ADIProblem}


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class Tracer:
    """In-memory span recorder.  A span is ``(id, name, spec, parent,
    start, end)``; the parent is the innermost span open when it began.
    ``counts`` holds counters taken at the same layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, spec: int):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [sid, name, spec, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum((s[5] - s[4] for s in self.spans if s[1] == name), 0.0)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their children's."""
        ids = {s[0] for s in self.spans if s[1] == name}
        children = sum(s[5] - s[4] for s in self.spans if s[3] in ids)
        return self.total(name) - children

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "spec", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


class TimedCache:
    """Timing proxy for a :class:`repro.runner.ResultCache`.

    ``get``/``put`` run inside spans; ``__len__`` is delegated unchanged
    (``BatchRunner`` tests the cache's truthiness on every spec, which
    lists the cache directory) and timed as its own span."""

    def __init__(self, cache, tracer: Tracer, spec_ids: dict) -> None:
        self._cache = cache
        self._tracer = tracer
        self._ids = spec_ids

    def get(self, spec):
        with self._tracer.span("runner.cache.get", self._ids[spec]):
            result = self._cache.get(spec)
        self._tracer.count(
            "runner.cache.hits" if result is not None
            else "runner.cache.misses"
        )
        return result

    def put(self, spec, result):
        with self._tracer.span("runner.cache.put", self._ids[spec]):
            path = self._cache.put(spec, result)
        self._tracer.count("runner.cache.bytes_written", path.stat().st_size)
        return path

    def __len__(self) -> int:
        with self._tracer.span("runner.cache.len", -1):
            return len(self._cache)

    def __getattr__(self, name):
        return getattr(self._cache, name)


def _replay(ops: list, rank: int):
    """A rank program that yields pre-recorded ops."""
    for op in ops:
        yield op
    return rank


def _plan_and_map(app, shape, p, partitioner, objective, cost_model,
                  tracer, sid):
    """(partitioning, choice, mapping) the way the runner plans: the
    optimizer, then the modular mapping.  BT plans its three spatial axes
    and never cuts the component axis; ``choice`` is None for diagonal."""
    if partitioner == "diagonal":
        with tracer.span("core.mapping", sid):
            partitioning = Multipartitioning(
                owner=diagonal_nd(p, len(shape)), nprocs=p
            )
        tracer.count("core.mapping.tiles", math.prod(partitioning.gammas))
        return partitioning, None, None
    with tracer.span("core.plan", sid):
        choice = optimal_partitioning(tuple(shape), p, cost_model, objective)
    tracer.count("core.plan.candidates", choice.candidates_examined)
    with tracer.span("core.mapping", sid):
        mapping = build_modular_mapping(choice.gammas, p)
        owner = mapping.rank_grid(choice.gammas)
        if app == "bt":
            choice = PartitioningChoice(
                gammas=(*choice.gammas, 1), p=p, cost=choice.cost,
                candidates_examined=choice.candidates_examined,
            )
            owner = owner.reshape(choice.gammas)
        partitioning = Multipartitioning(owner=owner, nprocs=p)
    tracer.count("core.mapping.tiles", math.prod(partitioning.gammas))
    return partitioning, choice, mapping


def _replay_skeleton(partitioning, field_shape, machine, schedule,
                     tracer, sid):
    """Program generation, then engine replay, then the summary."""
    executor = MultipartExecutor(
        partitioning, field_shape, machine, payload="skeleton"
    )
    with tracer.span("sweep.progen", sid):
        programs = [
            record_ops(executor.skeleton_rank_program(rank, schedule))
            for rank in range(partitioning.nprocs)
        ]
    nops = sum(len(ops) for ops in programs)
    tracer.count("sweep.progen.ops", nops)
    with tracer.span("simmpi.engine", sid):
        run = run_programs(
            machine,
            [_replay(ops, rank) for rank, ops in enumerate(programs)],
        )
    tracer.count("simmpi.engine.ops", nops)
    with tracer.span("simmpi.summary", sid):
        summary = RunSummary.from_result(run).to_dict()
    tracer.count("simmpi.engine.messages", summary["message_count"])
    tracer.count("simmpi.engine.bytes", summary["total_bytes"])
    return summary


def stepwise_run_spec(spec, tracer: Tracer, sid: int) -> dict:
    """:func:`repro.runner.run_spec` (plan, modeled and skeleton modes)
    rebuilt from public functions, one span per layer."""
    cost_model = resolve_cost_model(spec)
    machine = resolve_machine(spec)
    problem = _PROBLEMS[spec.app](spec.shape, steps=spec.steps)
    schedule = problem.schedule()
    partitioning, choice, _ = _plan_and_map(
        spec.app, spec.shape, spec.p, spec.partitioner,
        Objective(spec.objective) if spec.app != "bt" else Objective.FULL,
        cost_model, tracer, sid,
    )
    result: dict = {
        "schema": SCHEMA_TAG,
        "spec": spec.to_canonical(),
        "gammas": list(partitioning.gammas),
        "cost": float(choice.cost) if choice else None,
        "candidates_examined": choice.candidates_examined if choice else 0,
        "compact": choice.is_compact() if choice else True,
    }
    if spec.mode == "plan":
        return result
    field_shape = problem.field_shape
    with tracer.span("sweep.modeled", sid):
        t_seq = sequential_time(field_shape, schedule, machine)
        if spec.mode == "modeled":
            t_par = multipart_time(field_shape, partitioning, machine,
                                   schedule)
    result["sequential_time"] = float(t_seq)
    if spec.mode == "modeled":
        result["modeled_time"] = float(t_par)
        result["speedup"] = float(t_seq / t_par) if t_par > 0 else None
        return result
    if spec.mode != "skeleton":
        raise ValueError(f"the benchmark does not run {spec.mode!r} specs")

    fault_plan, protocol = resolve_faults(spec)
    if fault_plan is None:
        summary = _replay_skeleton(
            partitioning, field_shape, machine, schedule, tracer, sid
        )
    else:
        result["fault_plan"] = fault_plan.to_canonical()
        result["fault_plan_hash"] = fault_plan.plan_hash()
        # under faults the protocol wrapper answers acks and retransmits
        # inside the engine run, so program generation, engine and
        # protocol are one call
        executor = MultipartExecutor(
            partitioning, field_shape, machine, payload="skeleton",
            faults=fault_plan, protocol=protocol,
        )
        with tracer.span("faults.run", sid):
            try:
                run = executor.run_skeleton(schedule)
            except ProtocolExhaustedError as exc:
                return {"error": f"protocol retries exhausted: {exc}"}
        with tracer.span("simmpi.summary", sid):
            summary = RunSummary.from_result(run).to_dict()
        _count_faults(tracer, summary)
        # the same configuration without faults, for faults.clean_run_s
        with tracer.span("faults.clean_run", sid):
            _replay_skeleton(
                partitioning, field_shape, machine, schedule, tracer, sid
            )
    result["summary"] = summary
    makespan = summary["makespan"]
    result["speedup"] = float(t_seq / makespan) if makespan > 0 else None
    return result


def _count_faults(tracer: Tracer, summary: dict) -> None:
    tracer.count("faults.drops", summary["faults"]["dropped"])
    protocol = summary.get("protocol") or {}
    for key, name in (
        ("retransmits", "faults.retransmits"),
        ("timeouts", "faults.timeouts"),
        ("duplicates_dropped", "faults.duplicates_dropped"),
        ("acks", "faults.acks"),
        ("data_sent", "faults.data_sent"),
    ):
        tracer.count(name, protocol.get(key, 0))


def stepwise_verify_config(config: tuple, tracer: Tracer, sid: int) -> dict:
    """``verify_config(app, shape, p, aggregate=..., protocol=True)``
    rebuilt from public functions; returns the report's ``to_dict()``."""
    app, shape, p, aggregate = config
    machine = origin2000()
    problem = _PROBLEMS[app](tuple(shape), steps=1)
    partitioning, _, mapping = _plan_and_map(
        app, shape, p, "optimal", Objective.FULL,
        machine.to_cost_model(), tracer, sid,
    )
    if mapping is not None and mapping.dims_in != partitioning.ndim:
        mapping = None  # BT: the mapping certifies the spatial axes only
    executor = MultipartExecutor(
        partitioning, problem.field_shape, machine, aggregate=aggregate,
        record_events=True, payload="skeleton",
    )
    report_config = {
        "app": app,
        "shape": list(shape),
        "p": p,
        "steps": 1,
        "aggregate": aggregate,
        "partitioner": "optimal",
        "stencil_rhs": False,
        "gammas": list(partitioning.gammas),
    }
    with tracer.span("verify.invariants", sid):
        invariants, certificate = check_invariants(
            partitioning, p=partitioning.nprocs, mapping=mapping
        )
    with tracer.span("verify.extract", sid):
        ir = extract_program_ir(executor, problem.schedule())
    tracer.count("verify.ir_ops", ir.total_ops)
    with tracer.span("verify.analyses", sid):
        matching, deadlock, races = verify_ir(ir)
    report_config["ir"] = {
        "ranks": ir.nprocs,
        "ops": ir.total_ops,
        "messages": ir.total_sends,
        "bytes": ir.total_send_bytes,
    }
    with tracer.span("verify.protocol", sid):
        proto = check_protocol()
    proto = AnalysisResult(
        name=proto.name,
        violations=proto.violations,
        stats={**proto.stats, "config_channels": ir.total_sends},
    )
    return VerifyReport(
        config=report_config,
        analyses=(matching, deadlock, races, invariants, proto),
        certificate=certificate,
    ).to_dict()
