#!/usr/bin/env python3
"""Serial == sharded ``metrics --batch`` gate (CI ``fleet-batch`` helper).

``metrics --batch`` plans its lockstep cohorts from the worker count:
each signature group becomes at most one cohort per worker
(:func:`repro.experiments.batch.plan_cohorts`).  The contract is that
the plan changes wall clock only.  This helper runs one mixed sweep
through the ``metrics --batch`` code path
(:func:`repro.service.jobs.batch_metrics_sweep`) at ``--jobs 1`` and at
``--jobs 2`` and fails unless both give byte-identical deterministic
registries (:func:`repro.experiments.fleet.deterministic_registry_dict`),
per-session summaries and per-session logs::

    python tools/check_batch_determinism.py

The sweep interleaves three signature groups so that every kind of plan
decision is covered:

- :data:`SESSIONS` sessions over four LTE scenarios: one cohort
  serially, cut into two at ``--jobs 2``;
- 40 sessions with a 20 ms diag interval: a different signature, too
  small to cut into two cohorts of the scalar crossover's size;
- 10 sessions one second shorter: below the crossover, so they run on
  the scalar engine under either plan.

Exits 0 when both runs match, 1 on divergence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.fleet import deterministic_registry_dict, lockstep_scenario  # noqa: E402
from repro.service.jobs import batch_metrics_sweep  # noqa: E402

SCENARIOS = ("cellular", "busy_cell", "rss_weak", "driving_30mph")

#: Size of the widest group.  The plan decisions listed in the module
#: doc hold for this value; the cohort-count guard in :func:`main`
#: fails the gate if a change to the planner voids them.
SESSIONS = 80
DURATION = 4.0
WARMUP = 1.0
SEED = 1


def mixed_configs() -> list:
    """The interleaved three-group sweep described in the module doc."""

    def config(index: int, name: str, length: float):
        return lockstep_scenario(
            name, scheme="poi360", transport="fbcc", duration=length, seed=SEED + index
        )

    wide = [config(i, SCENARIOS[i % len(SCENARIOS)], DURATION) for i in range(SESSIONS)]
    slow_diag = []
    for i in range(40):
        base = config(1000 + i, "cellular", DURATION)
        slow_diag.append(
            dataclasses.replace(base, lte=dataclasses.replace(base.lte, diag_interval=0.020))
        )
    short = [config(2000 + i, "idle_cell", DURATION - 1.0) for i in range(10)]
    mixed = []
    for index, item in enumerate(wide):
        mixed.append(item)
        if index % 2 and slow_diag:
            mixed.append(slow_diag.pop())
        if index % 8 == 7 and short:
            mixed.append(short.pop())
    return mixed + slow_diag + short


def log_digest(log) -> str:
    """sha256 over every field of a session log, packet arrivals included."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(log):
        value = getattr(log, field.name)
        if isinstance(value, (int, float)):
            digest.update(repr(value).encode())
        else:
            digest.update(np.asarray(value, dtype=np.float64).tobytes())
    return digest.hexdigest()


def sweep_document(configs: list, jobs: int):
    """Canonical JSON of one run's deterministic outputs, plus the
    number of cohorts the run was planned into."""
    results, fleet = batch_metrics_sweep(configs, warmup=WARMUP, jobs=jobs)
    sessions = [
        {"summary": result.summary.to_dict(), "log_sha256": log_digest(result.log)}
        for result in results
    ]
    document = {"registry": deterministic_registry_dict(fleet), "sessions": sessions}
    cohorts = int(fleet.gauges["batch.cohorts"])
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode(), cohorts


def main() -> int:
    configs = mixed_configs()
    serial, serial_cohorts = sweep_document(configs, jobs=1)
    sharded, sharded_cohorts = sweep_document(configs, jobs=2)
    if serial_cohorts == sharded_cohorts:
        print(
            "metrics --batch determinism: FAIL — both runs were planned into "
            f"{serial_cohorts} cohorts, so the gate compared nothing"
        )
        return 1
    if serial != sharded:
        print("metrics --batch determinism: FAIL — --jobs 1 and --jobs 2 diverge")
        print(f"  serial:  {len(serial)} bytes")
        print(f"  sharded: {len(sharded)} bytes")
        return 1
    print(
        f"metrics --batch determinism: OK — {len(configs)} sessions in "
        f"{serial_cohorts} and {sharded_cohorts} cohorts give byte-identical "
        f"registries and summaries ({len(serial)} bytes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
