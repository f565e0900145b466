"""Output checks: digests of the simulated statistics and the committed
reference they are compared with.

A digest covers what a performance change must leave identical:

* skeleton runs (table1-skeleton, chaos-lossy): the tile counts and the
  whole run summary — makespan, per-rank clocks, message and byte counts,
  compute/comm/blocked seconds, fault counters and protocol counters;
* verify runs (check-verify): the verdict of every analysis with its
  violation count, the tile counts, and the message and byte counts of the
  extracted program.

Modeled times are not digested: a more exact closed form may change them.
sweep-cached instead checks that warm results equal cold results and that
``jobs=1`` equals ``jobs=nproc``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SCHEMA = "perfbench-reference.v1"


def _sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def spec_key(spec) -> str:
    """Reference key of an ExperimentSpec (independent of the result
    schema tag, so a schema bump does not orphan the reference)."""
    return _sha(spec.to_canonical())


def config_key(config: tuple) -> str:
    app, shape, p, aggregate = config
    return _sha([app, list(shape), p, bool(aggregate)])


def skeleton_digest(result: dict) -> str:
    return _sha({"gammas": result["gammas"], "summary": result["summary"]})


def verify_digest(report: dict) -> str:
    ir = report["config"]["ir"]
    return _sha({
        "ok": report["ok"],
        "gammas": report["config"]["gammas"],
        "ranks": ir["ranks"],
        "messages": ir["messages"],
        "bytes": ir["bytes"],
        "verdicts": {
            name: [analysis["ok"], len(analysis["violations"])]
            for name, analysis in report["analyses"].items()
        },
    })


def load_reference() -> dict:
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if doc.get("schema") != REFERENCE_SCHEMA:
        raise ValueError(f"{REFERENCE} is not a {REFERENCE_SCHEMA} file")
    return doc


def infeasible(spec, result: dict) -> bool:
    """A tiling that cuts some axis into more tiles than it has points
    (gamma_i > eta_i).  The planner returns these without an error today;
    the benchmark counts them as failed specs."""
    return any(g > n for g, n in zip(result["gammas"], spec.shape))
