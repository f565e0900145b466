"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload table1-skeleton --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, step by step, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the provenance and every metric by name with its unit.  See README.md
in this directory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("table1-skeleton", "sweep-cached", "chaos-lossy", "check-verify")
#: fresh-process set-ups per run; setup_s is their median
SETUP_SAMPLES = 5
#: per-spec latency samples a full-size run collects at least
MIN_SAMPLES = 100
#: the high latency percentile, when at least ten samples lie beyond it
HIGH_PERCENTILE = 90

END_TO_END = {
    "setup_s": "s",
    "specs_per_s": "1/s",
    "spec_p50_ms": "ms",
    "spec_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.plan.calls": "count",
    "core.plan.busy_s": "s",
    "core.plan.candidates": "count",
    "core.mapping.busy_s": "s",
    "core.mapping.tiles": "count",
    "sweep.progen.busy_s": "s",
    "sweep.progen.ops": "count",
    "sweep.progen.ops_per_s": "1/s",
    "simmpi.engine.busy_s": "s",
    "simmpi.engine.ops": "count",
    "simmpi.engine.messages": "count",
    "simmpi.engine.bytes": "B",
    "simmpi.engine.ops_per_s": "1/s",
    "sweep.modeled.busy_s": "s",
    "simmpi.summary.busy_s": "s",
    "runner.cache.get_s": "s",
    "runner.cache.put_s": "s",
    "runner.cache.len_s": "s",
    "runner.cache.hits": "count",
    "runner.cache.misses": "count",
    "runner.cache.hit_ratio": "ratio",
    "runner.cache.entries": "count",
    "runner.cache.bytes_written": "B",
    "runner.pool.wall_s": "s",
    "runner.pool.efficiency": "ratio",
    "faults.run_s": "s",
    "faults.clean_run_s": "s",
    "faults.drops": "count",
    "faults.retransmits": "count",
    "faults.timeouts": "count",
    "faults.duplicates_dropped": "count",
    "faults.acks": "count",
    "faults.useful_ratio": "ratio",
    "verify.extract_s": "s",
    "verify.ir_ops": "count",
    "verify.analyses_s": "s",
    "verify.invariants_s": "s",
    "verify.protocol_s": "s",
    "trace.overhead_frac": "ratio",
    "hits_per_s": "1/s",
    "failed_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-th percentile: a mean of all
    order statistics weighted by a beta density centred on rank q*n.  The
    Table 1 grid's latencies come in clusters with gaps between them; a
    single order statistic jumps across a gap when noise reorders two
    samples, the weighted mean moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def high_percentile(n: int) -> int:
    """The highest percentile up to 90 with at least ten samples beyond
    it (50 when there are too few samples for that)."""
    if n <= 20:
        return 50
    return min(HIGH_PERCENTILE, math.floor(100.0 * (n - 10) / n))


def import_program() -> None:
    """Put the checkout's ``src`` on the path and check that ``repro``
    comes from it; exits non-zero when the sources are missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child
    (pool workers), in MiB (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Checker:
    """Collects output-check failures; the run is correct when none."""

    def __init__(self) -> None:
        self.errors: list[str] = []  # the first 20, for the report
        self.failures = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failures == 0


def setup_times(args, first: float, cal: Calibration) -> list[float]:
    """Raw set-up time of this process plus SETUP_SAMPLES-1 fresh ones."""
    samples = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(json.loads(done.stdout)["setup_s"]))
        cal.tick(force=True)
    return samples


# -- serial workloads --------------------------------------------------------


def serial_call(workload: str):
    """The untraced call for one item, as a user would make it."""
    from repro.runner import run_spec
    from repro.verify import verify_config

    if workload == "check-verify":
        def call(config):
            app, shape, p, aggregate = config
            return verify_config(app, shape, p, aggregate=aggregate,
                                 protocol=True).to_dict()
        return call

    def guarded(spec):
        try:
            return run_spec(spec)
        except Exception as exc:  # a failed spec is counted, not fatal
            return {"error": f"{type(exc).__name__}: {exc}"}
    return guarded


def run_serial(items, call, seconds: float, min_samples: int,
               cal: Calibration):
    """Closed loop over whole passes of ``items``: one spec starts when the
    previous one has finished.  Stops once ``min_samples`` latencies are in
    and another pass would overrun ``seconds`` by more than half a pass.
    Returns (raw latencies, results, passes)."""
    latencies: list[float] = []
    results: list = []
    start = time.perf_counter()
    passes = 0
    while True:
        for item in items:
            began = time.perf_counter()
            results.append(call(item))
            latencies.append(time.perf_counter() - began)
            cal.tick()
        passes += 1
        elapsed = time.perf_counter() - start
        if (len(latencies) >= min_samples
                and elapsed + 0.5 * elapsed / passes >= seconds):
            return latencies, results, passes


def check_serial(workload, items, results, reference, checker) -> int:
    """Compare every result with the reference; returns the failed count."""
    from checks import config_key, skeleton_digest, spec_key, verify_digest

    expected = reference[workload]
    failed = 0
    for i, result in enumerate(results):
        item = items[i % len(items)]
        if workload == "check-verify":
            key, name = config_key(item), repr(item)
            if not result["ok"]:
                failed += 1
            digest = verify_digest(result)
        else:
            key, name = spec_key(item), item.label()
            if "error" in result:
                failed += 1
                checker.expect(False, f"{name}: {result['error']}")
                continue
            digest = skeleton_digest(result)
        checker.expect(key in expected, f"{name}: not in reference.json")
        checker.expect(expected.get(key, digest) == digest,
                       f"{name}: digest {digest} != reference "
                       f"{expected.get(key)}")
    return failed


def serial_traced(workload, items, results, tracer, checker) -> float:
    """Re-run the untraced sequence step by step under spans, checking each
    result bit for bit; returns the traced wall time of the same work."""
    from pipeline import canonical, stepwise_run_spec, stepwise_verify_config

    step = (stepwise_verify_config if workload == "check-verify"
            else stepwise_run_spec)
    for i, untraced in enumerate(results):
        item = items[i % len(items)]
        if "error" in untraced:
            continue
        with tracer.span("spec", i):
            traced = step(item, tracer, i)
        checker.expect(canonical(traced) == canonical(untraced),
                       f"traced pipeline differs from the untraced run on "
                       f"{item if workload == 'check-verify' else item.label()}")
    # the clean re-runs of chaos specs are extra work of the traced run
    return tracer.total("spec") - tracer.total("faults.clean_run")


# -- sweep-cached --------------------------------------------------------------


def sweep_cycle(specs, jobs: int, checker, cal: Calibration) -> dict:
    """One cold pass through a fresh cache (pool fan-out), then one warm
    pass (closed loop, one spec per request); raw times."""
    from repro.runner import BatchRunner, ResultCache

    root = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    try:
        cache = ResultCache(root)
        runner = BatchRunner(cache=cache, jobs=jobs)
        began = time.perf_counter()
        cold = runner.run(specs)
        cold_wall = time.perf_counter() - began
        cal.tick(force=True)
        checker.expect(all(s == "miss" for s in runner.last_sources),
                       "cold pass found entries in a fresh cache")
        warm, latencies = [], []
        for i, (spec, first) in enumerate(zip(specs, cold)):
            began = time.perf_counter()
            warm.append(runner.run([spec])[0])
            latencies.append(time.perf_counter() - began)
            expected = "miss" if "error" in first else "hit"
            checker.expect(runner.last_sources == [expected],
                           f"{spec.label()}: warm pass was a "
                           f"{runner.last_sources}, expected {expected}")
            cal.tick()
        entries = len(cache)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    checker.expect(entries == sum("error" not in r for r in cold),
                   "cache entry count differs from the number of specs")
    for spec, c, w in zip(specs, cold, warm):
        checker.expect(json.dumps(c, sort_keys=True)
                       == json.dumps(w, sort_keys=True),
                       f"{spec.label()}: warm result differs from cold")
    return {"cold_wall": cold_wall, "cold": cold, "latencies": latencies,
            "warm": warm, "entries": entries}


def sweep_failed(specs, results) -> int:
    from checks import infeasible

    return sum(
        1 for spec, r in zip(specs, results)
        if "error" in r or infeasible(spec, r)
    )


def sweep_traced(specs, jobs, tracer, checker, untraced_wall) -> dict:
    """Cold and warm passes through the timing proxy, then the stepwise
    pipeline serially for the plan, mapping and modeled layers."""
    from pipeline import TimedCache, canonical, stepwise_run_spec
    from repro.runner import BatchRunner, ResultCache

    ids = {spec: i for i, spec in enumerate(specs)}
    root = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    try:
        cache = ResultCache(root)
        runner = BatchRunner(cache=TimedCache(cache, tracer, ids), jobs=jobs)
        with tracer.span("runner.pool", -1):
            cold = runner.run(specs)
        for spec in specs:
            with tracer.span("runner.batch", ids[spec]):
                warm = runner.run([spec])[0]
            checker.expect(canonical(warm) == canonical(cold[ids[spec]]),
                           f"{spec.label()}: traced warm differs from cold")
        entries = len(cache)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    traced_wall = tracer.total("runner.pool") + tracer.total("runner.batch")
    for i, spec in enumerate(specs):
        with tracer.span("spec", i):
            stepwise = stepwise_run_spec(spec, tracer, i)
        checker.expect(canonical(stepwise) == canonical(cold[i]),
                       f"{spec.label()}: stepwise pipeline differs")
    return {
        "runner.cache.entries": entries,
        "runner.pool.efficiency": _ratio(
            tracer.total("spec"), jobs * tracer.total("runner.pool")),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }


# -- metrics -------------------------------------------------------------------


def latency_metrics(latencies: list[float], scale: float) -> dict:
    ms = [x * scale * 1000.0 for x in latencies]
    return {
        "spec_p50_ms": percentile(ms, 50),
        "spec_p90_ms": percentile(ms, high_percentile(len(ms))),
    }


def layer_metrics(tracer, extra: dict) -> dict:
    c = tracer.counts
    t = tracer.total
    progen, engine = t("sweep.progen"), t("simmpi.engine")
    data_sent = c.get("faults.data_sent", 0)
    retransmits = c.get("faults.retransmits", 0)
    hits = c.get("runner.cache.hits", 0)
    misses = c.get("runner.cache.misses", 0)
    metrics = {
        "core.plan.calls": sum(1 for s in tracer.spans
                               if s[1] == "core.plan"),
        "core.plan.busy_s": t("core.plan"),
        "core.plan.candidates": c.get("core.plan.candidates", 0),
        "core.mapping.busy_s": t("core.mapping"),
        "core.mapping.tiles": c.get("core.mapping.tiles", 0),
        "sweep.progen.busy_s": progen,
        "sweep.progen.ops": c.get("sweep.progen.ops", 0),
        "sweep.progen.ops_per_s": _ratio(c.get("sweep.progen.ops", 0),
                                         progen),
        "simmpi.engine.busy_s": engine,
        "simmpi.engine.ops": c.get("simmpi.engine.ops", 0),
        "simmpi.engine.messages": c.get("simmpi.engine.messages", 0),
        "simmpi.engine.bytes": c.get("simmpi.engine.bytes", 0),
        "simmpi.engine.ops_per_s": _ratio(c.get("simmpi.engine.ops", 0),
                                          engine),
        "sweep.modeled.busy_s": t("sweep.modeled"),
        "simmpi.summary.busy_s": t("simmpi.summary"),
        "runner.cache.get_s": t("runner.cache.get"),
        "runner.cache.put_s": t("runner.cache.put"),
        "runner.cache.len_s": t("runner.cache.len"),
        "runner.cache.hits": hits,
        "runner.cache.misses": misses,
        "runner.cache.hit_ratio": _ratio(hits, hits + misses),
        "runner.cache.entries": 0,
        "runner.cache.bytes_written": c.get("runner.cache.bytes_written", 0),
        "runner.pool.wall_s": tracer.self_time("runner.pool"),
        "runner.pool.efficiency": 0.0,
        "faults.run_s": t("faults.run"),
        "faults.clean_run_s": t("faults.clean_run"),
        "faults.drops": c.get("faults.drops", 0),
        "faults.retransmits": retransmits,
        "faults.timeouts": c.get("faults.timeouts", 0),
        "faults.duplicates_dropped": c.get("faults.duplicates_dropped", 0),
        "faults.acks": c.get("faults.acks", 0),
        "faults.useful_ratio": _ratio(data_sent, data_sent + retransmits),
        "verify.extract_s": t("verify.extract"),
        "verify.ir_ops": c.get("verify.ir_ops", 0),
        "verify.analyses_s": t("verify.analyses"),
        "verify.invariants_s": t("verify.invariants"),
        "verify.protocol_s": t("verify.protocol"),
    }
    metrics.update(extra)
    return metrics


# -- the run -------------------------------------------------------------------


def measure(args, items, setup_raw: float) -> dict:
    from checks import load_reference
    from pipeline import Tracer

    checker = Checker()
    reference = load_reference()
    jobs = os.cpu_count() or 1
    cal = Calibration()
    cal.tick()
    OUT.mkdir(exist_ok=True)
    # a traced run spends half its time untraced, half traced
    budget = args.seconds / 2.0 if args.trace else args.seconds
    info: dict = {"jobs": 1}

    if args.workload == "sweep-cached":
        info["jobs"] = jobs
        cold_walls, warm_walls, latencies = [], [], []
        failed = 0
        first_cold = None
        start = time.perf_counter()
        while True:
            cycle = sweep_cycle(items, jobs, checker, cal)
            first_cold = first_cold or cycle["cold"]
            cold_walls.append(cycle["cold_wall"])
            warm_walls.append(sum(cycle["latencies"]))
            latencies += cycle["latencies"]
            failed += (sweep_failed(items, cycle["cold"])
                       + sweep_failed(items, cycle["warm"]))
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(cold_walls) >= budget:
                break
        attempted = 2 * len(items) * len(cold_walls)
        cold_wall = statistics.median(cold_walls)
        warm_wall = statistics.median(warm_walls)
        untraced_wall = cold_walls[-1] + warm_walls[-1]
        info.update(cycles=len(cold_walls), cache_entries=cycle["entries"])
    else:
        latencies, results, passes = run_serial(
            items, serial_call(args.workload), budget,
            1 if args.tiny or args.trace else MIN_SAMPLES, cal)
        failed = check_serial(args.workload, items, results, reference,
                              checker)
        attempted = len(results)
        cold_wall = sum(latencies) / passes  # one pass over the items
        warm_wall = 0.0
        info["passes"] = passes

    setups = [] if args.trace else setup_times(args, setup_raw, cal)
    scale = cal.scale()
    e2e = {
        "specs_per_s": len(items) / (cold_wall * scale),
        **latency_metrics(latencies, scale),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "specs_per_s": len(items) / cold_wall,
        **latency_metrics(latencies, 1.0),
    }
    if setups:
        e2e["setup_s"] = statistics.median(setups) * scale
        raw["setup_s"] = statistics.median(setups)
    failed_frac = _ratio(failed, attempted)
    hits_per_s = _ratio(len(items), warm_wall * scale)
    info.update(
        samples=len(latencies),
        percentiles={"spec_p50_ms": 50,
                     "spec_p90_ms": high_percentile(len(latencies)),
                     "estimator": "harrell-davis"},
        setup_samples=len(setups),
        calibration={"scale": scale, "ticks": len(cal.small)},
        raw=raw,
        failed_frac=failed_frac,
        hits_per_s=hits_per_s,
    )

    if args.trace:
        tracer = Tracer()
        extra = {"hits_per_s": hits_per_s, "failed_frac": failed_frac}
        if args.workload == "sweep-cached":
            extra.update(sweep_traced(items, jobs, tracer, checker,
                                      untraced_wall))
        else:
            traced_wall = serial_traced(args.workload, items, results,
                                        tracer, checker)
            extra["trace.overhead_frac"] = traced_wall / sum(latencies) - 1.0
        metrics, units = layer_metrics(tracer, extra), PER_LAYER
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(spans)
        info.update(spans=str(spans.relative_to(ROOT)),
                    span_count=len(tracer.spans))
    else:
        metrics, units = e2e, END_TO_END

    if args.workload == "sweep-cached":
        # after the timed and traced passes: running every spec in this
        # process warms caches that later forked pool workers would inherit
        from repro.runner import BatchRunner

        checker.expect(
            [json.dumps(r, sort_keys=True)
             for r in BatchRunner(jobs=1).run(items)]
            == [json.dumps(r, sort_keys=True) for r in first_cold],
            f"jobs=1 results differ from jobs={jobs}")
    return {
        "checker": checker,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small inputs (the self-tests' smoke run)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import pipeline  # noqa: F401  (imports every layer the run drives)
    from workloads import build_inputs

    items = build_inputs(args.workload, args.seed, args.tiny)
    setup_raw = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_raw}))
        return 0

    run = measure(args, items, setup_raw)
    checker = run["checker"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": len(items),
        "host": host_fingerprint(),
        **run["info"],
        "check_failures": checker.failures,
        "check_errors": checker.errors,
    }
    print("report " + json.dumps(report, sort_keys=True))
    if not args.trace:  # with --trace 1 both are among the metrics
        print(f"failed_frac {run['info']['failed_frac']!r} ratio")
        print(f"hits_per_s {run['info']['hits_per_s']!r} 1/s")
    for name, metric in run["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
