"""Regenerate ``reference.json``: the expected digest of every input any
seed can draw for the table1-skeleton, chaos-lossy and check-verify
workloads.

Run from the repository root::

    python3 perfbench/make_reference.py

The reference pins the simulated statistics of the program as it is when
the file is generated.  Regenerating it accepts whatever the program now
computes, so it is a change to the benchmark, never part of a change that
claims a speed-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    REFERENCE,
    REFERENCE_SCHEMA,
    config_key,
    skeleton_digest,
    spec_key,
    verify_digest,
)
from workloads import chaos_pool, table1_specs, verify_pool  # noqa: E402


def _skeleton_entries(specs) -> dict:
    from repro.runner import run_spec

    entries = {}
    for spec in specs:
        result = run_spec(spec)
        if "error" in result:
            raise RuntimeError(f"{spec.label()}: {result['error']}")
        entries[spec_key(spec)] = skeleton_digest(result)
    return entries


def _verify_entries(configs) -> dict:
    from repro.verify import verify_config

    entries = {}
    for config in configs:
        app, shape, p, aggregate = config
        report = verify_config(app, shape, p, aggregate=aggregate,
                               protocol=True)
        if not report.ok:
            raise RuntimeError(f"{config}: {report.summary()}")
        entries[config_key(config)] = verify_digest(report.to_dict())
    return entries


def main() -> int:
    doc = {
        "schema": REFERENCE_SCHEMA,
        "table1-skeleton": _skeleton_entries(table1_specs(0)),
        "chaos-lossy": _skeleton_entries(chaos_pool()),
        "check-verify": _verify_entries(verify_pool()),
    }
    REFERENCE.write_text(
        json.dumps(doc, sort_keys=True, indent=0) + "\n", encoding="utf-8"
    )
    sizes = {k: len(v) for k, v in doc.items() if isinstance(v, dict)}
    print(f"wrote {REFERENCE.name}: {sizes}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
