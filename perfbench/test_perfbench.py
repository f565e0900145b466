"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from checks import config_key, load_reference, spec_key  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _identity(items):
    return [
        item if isinstance(item, tuple) else item.to_canonical()
        for item in items
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first = workloads.build_inputs(workload, 7)
    assert _identity(first) == _identity(workloads.build_inputs(workload, 7))
    other = workloads.build_inputs(workload, 8)
    assert _identity(first) != _identity(other)
    # a seed changes the inputs, never how many there are
    assert len(first) == len(other)


def test_sweep_grid_has_a_fixed_number_of_distinct_entries():
    for seed in range(5):
        specs = workloads.sweep_specs(seed)
        assert len({s.cache_key() for s in specs}) == len(specs) == 288


def test_reference_covers_every_input_a_seed_can_draw():
    reference = load_reference()
    for seed in range(5):
        for spec in workloads.table1_specs(seed):
            assert spec_key(spec) in reference["table1-skeleton"]
        for spec in workloads.chaos_specs(seed):
            assert spec_key(spec) in reference["chaos-lossy"]
        for config in workloads.verify_configs(seed):
            assert config_key(config) in reference["check-verify"]


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_percentile_is_the_harrell_davis_estimate():
    # symmetric samples: the estimate of the median is the centre
    assert run.percentile([5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0], 50) == (
        pytest.approx(4.0, rel=1e-12))
    values = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 7.0]
    assert run.high_percentile(124) == 90
    assert run.high_percentile(60) == 83
    mstats = pytest.importorskip("scipy.stats.mstats")
    expected = mstats.hdquantiles(values, [0.5, 0.9])
    assert run.percentile(values, 50) == pytest.approx(expected[0])
    assert run.percentile(values, 90) == pytest.approx(expected[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if workload == "sweep-cached":
        # p=127 on 102^3 plans gamma=(1,127,127): counted as failed
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0
