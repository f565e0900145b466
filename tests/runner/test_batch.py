"""Batch runner tests: determinism, caching, dedup, error isolation."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runner import BatchRunner, ExperimentSpec, ResultCache

SPECS = [
    ExperimentSpec(shape=(8, 8, 8), p=p, mode="plan") for p in (1, 2, 4, 6)
]
SIM_SPECS = [
    ExperimentSpec(shape=(8, 8, 8), p=p, mode="simulated", app="adi")
    for p in (1, 2, 4)
]


def dumps(results):
    return json.dumps(results)


class TestDeterminism:
    def test_results_in_spec_order(self, tmp_path):
        runner = BatchRunner(cache=ResultCache(tmp_path))
        results = runner.run(SPECS)
        assert [r["spec"]["p"] for r in results] == [1, 2, 4, 6]

    def test_parallel_matches_inline(self):
        inline = BatchRunner(cache=None, jobs=1).run(SIM_SPECS)
        fanned = BatchRunner(cache=None, jobs=4).run(SIM_SPECS)
        assert dumps(inline) == dumps(fanned)

    def test_cached_replay_matches_fresh(self, tmp_path):
        runner = BatchRunner(cache=ResultCache(tmp_path), jobs=2)
        fresh = runner.run(SIM_SPECS)
        assert runner.last_stats.misses == len(SIM_SPECS)
        replay = runner.run(SIM_SPECS)
        assert runner.last_stats.hits == len(SIM_SPECS)
        assert runner.last_stats.hit_rate == 1.0
        assert dumps(fresh) == dumps(replay)


class TestCachingSemantics:
    def test_no_cache_always_misses(self):
        runner = BatchRunner(cache=None)
        runner.run(SPECS)
        assert runner.last_stats.misses == len(SPECS)
        runner.run(SPECS)
        assert runner.last_stats.misses == len(SPECS)

    def test_duplicate_specs_execute_once(self, tmp_path):
        runner = BatchRunner(cache=ResultCache(tmp_path))
        results = runner.run([SPECS[0], SPECS[1], SPECS[0]])
        assert runner.last_sources == ["miss", "miss", "dup"]
        assert dumps(results[0]) == dumps(results[2])

    def test_cache_size_never_queried(self, tmp_path):
        """Sizing a cache lists its directory, so a run must not test the
        cache's truthiness once per spec."""

        class UnsizedCache(ResultCache):
            def __len__(self):
                raise AssertionError("BatchRunner.run called len(cache)")

        runner = BatchRunner(cache=UnsizedCache(tmp_path))
        fresh = runner.run(SPECS)
        replay = runner.run(SPECS)
        assert runner.last_stats.hits == len(SPECS)
        assert dumps(fresh) == dumps(replay)

    def test_corrupted_entry_reruns(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = BatchRunner(cache=cache)
        first = runner.run([SPECS[0]])
        cache.path_for(SPECS[0]).write_text("garbage")
        second = runner.run([SPECS[0]])
        assert runner.last_sources == ["miss"]
        assert cache.corrupt_reads == 1
        assert dumps(first) == dumps(second)
        # and the rerun repaired the entry
        assert cache.get(SPECS[0]) is not None


class TestErrors:
    BAD = ExperimentSpec(
        # diagonal multipartitioning of p=6 does not exist in 3-D
        shape=(8, 8, 8), p=6, mode="plan", partitioner="diagonal"
    )

    def test_error_isolated_per_spec(self, tmp_path):
        runner = BatchRunner(cache=ResultCache(tmp_path))
        results = runner.run([SPECS[0], self.BAD, SPECS[1]])
        assert "error" not in results[0]
        assert "ValueError" in results[1]["error"]
        assert "error" not in results[2]
        assert runner.last_stats.errors == 1

    def test_errors_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = BatchRunner(cache=cache)
        runner.run([self.BAD])
        assert cache.get(self.BAD) is None
        assert len(cache) == 0

    def test_worker_error_isolated_in_parallel_mode(self):
        results = BatchRunner(cache=None, jobs=2).run(
            [SPECS[0], self.BAD, SPECS[1]]
        )
        assert "ValueError" in results[1]["error"]
        assert "error" not in results[0]


class TestMetricsAndStats:
    def test_metrics_published(self, tmp_path):
        registry = MetricsRegistry()
        runner = BatchRunner(
            cache=ResultCache(tmp_path), metrics=registry
        )
        runner.run(SPECS)
        runner.run(SPECS)
        snap = registry.snapshot()
        assert snap["counters"]["sweep.specs"]["total"] == 2 * len(SPECS)
        assert snap["counters"]["sweep.cache.hits"]["total"] == len(SPECS)
        assert snap["counters"]["sweep.cache.misses"]["total"] == len(SPECS)
        assert snap["counters"]["sweep.errors"]["total"] == 0
        assert snap["counters"]["sweep.wall_seconds"]["total"] > 0
        assert snap["gauges"]["sweep.jobs"]["0"] == 1

    def test_corrupt_counter(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path)
        runner = BatchRunner(cache=cache, metrics=registry)
        runner.run([SPECS[0]])
        cache.path_for(SPECS[0]).write_text("garbage")
        runner.run([SPECS[0]])
        snap = registry.snapshot()
        assert snap["counters"]["sweep.cache.corrupt"]["total"] == 1

    def test_stats_dict_shape(self):
        runner = BatchRunner(cache=None)
        runner.run(SPECS)
        stats = runner.last_stats.to_dict()
        assert stats["total"] == len(SPECS)
        assert stats["hit_rate"] == 0.0
        assert stats["jobs"] == 1
        assert stats["wall_seconds"] > 0

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            BatchRunner(jobs=0)
