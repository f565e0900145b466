"""Batch execution: fan a list of specs over a process pool, through the
cache.

The :class:`BatchRunner` keeps a strict determinism discipline:

* results are assembled **in spec order**, regardless of worker completion
  order — a ``--jobs 4`` run and a ``--jobs 1`` run produce byte-identical
  result lists;
* only cache *misses* are submitted to the pool, and only unique ones —
  duplicate specs in a grid execute once and share the result;
* all cache writes happen in the parent process after the worker returns
  (single-writer), so a crashed worker can never leave a partial entry.

Worker failures are captured per-spec as ``{"error": ...}`` result stubs
(never cached) instead of aborting the batch.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor

from .cache import ResultCache
from .execute import run_spec
from .spec import SCHEMA_TAG, ExperimentSpec

__all__ = ["BatchRunner", "BatchStats"]


class BatchStats:
    """Counters of one :meth:`BatchRunner.run` invocation."""

    def __init__(self) -> None:
        self.total = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.wall_seconds = 0.0
        self.jobs = 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "hit_rate": self.hit_rate,
            "wall_seconds": self.wall_seconds,
            "jobs": self.jobs,
        }


class BatchRunner:
    """Runs experiment grids; see module docstring for the guarantees."""

    def __init__(
        self,
        cache: ResultCache | None = None,
        jobs: int = 1,
        metrics=None,
        verify: bool = False,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.cache = cache
        self.jobs = jobs
        self.metrics = metrics
        #: statically verify each spec before executing it (pre-flight);
        #: violations come back as never-cached {"error": ...} results
        self.verify = verify
        self.last_stats = BatchStats()
        #: per-spec provenance of the last run: "hit" | "miss" | "dup"
        self.last_sources: list[str] = []

    def run(self, specs: list[ExperimentSpec]) -> list[dict]:
        """Execute every spec; returns results aligned with ``specs``."""
        start = time.perf_counter()
        stats = BatchStats()
        stats.total = len(specs)
        stats.jobs = self.jobs
        corrupt_before = (
            self.cache.corrupt_reads if self.cache is not None else 0
        )

        results: list[dict | None] = [None] * len(specs)
        sources: list[str] = [""] * len(specs)
        seen: set[str] = set()
        # first index that must actually execute, per cache key
        to_run: dict[str, int] = {}
        for i, spec in enumerate(specs):
            key = spec.cache_key()
            if key in seen:
                sources[i] = "dup"
                stats.hits += 1
                continue
            seen.add(key)
            cached = (
                self.cache.get(spec) if self.cache is not None else None
            )
            if cached is not None:
                results[i] = cached
                sources[i] = "hit"
                stats.hits += 1
            else:
                to_run[key] = i
                sources[i] = "miss"
                stats.misses += 1

        fresh = self._execute([specs[i] for i in to_run.values()])
        for (key, i), result in zip(to_run.items(), fresh):
            results[i] = result
            if "error" in result:
                stats.errors += 1
            elif self.cache is not None:
                self.cache.put(specs[i], result)

        # replicate shared results onto dup slots, preserving spec order
        by_key = {
            specs[i].cache_key(): results[i]
            for i in range(len(specs))
            if results[i] is not None
        }
        for i, spec in enumerate(specs):
            if results[i] is None:
                results[i] = by_key[spec.cache_key()]

        stats.wall_seconds = time.perf_counter() - start
        self.last_stats = stats
        self.last_sources = sources
        self._publish(stats, corrupt_before)
        return [r for r in results if r is not None]

    # -- internals ----------------------------------------------------------

    def _execute(self, specs: list[ExperimentSpec]) -> list[dict]:
        if not specs:
            return []
        if self.jobs <= 1 or len(specs) == 1:
            out = [_guarded_run(spec, self.verify) for spec in specs]
        else:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = [
                    pool.submit(run_spec, spec, self.verify)
                    for spec in specs
                ]
                out = []
                for spec, future in zip(specs, futures):
                    try:
                        out.append(future.result())
                    except Exception as exc:
                        out.append(_error_result(spec, exc))
        # round-trip through the cache's canonical JSON encoding so fresh
        # results are structurally identical (key order included) to results
        # replayed from disk — `--json` output never depends on provenance
        return [_canonical(result) for result in out]

    def _publish(self, stats: BatchStats, corrupt_before: int) -> None:
        if self.metrics is None:
            return
        rank = 0  # the runner is a single logical producer
        reg = self.metrics
        reg.counter("sweep.specs").inc(rank, stats.total)
        reg.counter("sweep.cache.hits").inc(rank, stats.hits)
        reg.counter("sweep.cache.misses").inc(rank, stats.misses)
        if self.cache is not None:
            reg.counter("sweep.cache.corrupt").inc(
                rank, self.cache.corrupt_reads - corrupt_before
            )
        reg.counter("sweep.errors").inc(rank, stats.errors)
        reg.counter("sweep.wall_seconds").inc(rank, stats.wall_seconds)
        reg.gauge("sweep.jobs").set(rank, stats.jobs)


def _canonical(doc: dict) -> dict:
    return json.loads(json.dumps(doc, sort_keys=True))


def _guarded_run(spec: ExperimentSpec, verify: bool = False) -> dict:
    try:
        return run_spec(spec, verify)
    except Exception as exc:
        return _error_result(spec, exc)


def _error_result(spec: ExperimentSpec, exc: Exception) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "spec": spec.to_canonical(),
        "error": f"{type(exc).__name__}: {exc}",
    }
