"""The benchmark's workloads: inputs, entry call, output gate and digest.

Each workload is one closed-loop client making one call into a public
entry point of the simulator with ``jobs=1``.  :func:`prepare` builds the
inputs from the seed (that is the end of set-up); :meth:`Prepared.entry`
is the timed call; :meth:`Prepared.check` runs the output gate on what
the call returned and hashes its deterministic outputs.

Sizes are those of the paths users run: the report's 30 + 10 s
sessions, the ``repro360 fleet`` defaults, ``metrics --batch`` in full
64-session cohorts.  One rep takes about 5-9 s on one core.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

#: Workload names; BENCHMARK.json says why each one exists.
NAMES = ("event_grid", "fleet_event", "batch_sweep", "batch_small", "fleet_batch")

#: ExperimentSettings of event_grid (the report's session length).
EVENT_GRID_SETTINGS = {"duration": 30.0, "warmup": 10.0, "repetitions": 1, "num_users": 2}

#: Job specs of the job-based workloads; the seed is added per run.
#: fleet_event is the ``repro360 fleet`` defaults (calls 1, 2, 4, 8 in
#: one cell, 30 + 5 s).
JOB_SPECS = {
    "fleet_event": {"kind": "fleet"},
    "batch_sweep": {
        "kind": "metrics", "batch": True, "sessions": 256, "duration": 10.0, "warmup": 2.0,
    },
    "batch_small": {
        "kind": "metrics", "batch": True, "sessions": 8, "duration": 120.0, "warmup": 2.0,
    },
    "fleet_batch": {
        "kind": "fleet", "batch": True, "calls": [2, 4, 8], "cells": 32,
        "duration": 10.0, "warmup": 2.0,
    },
}

#: batch_sweep re-runs this many of its sessions through the scalar
#: reference engine and requires identical summaries.
BITEXACT_SESSIONS = 2


def canonical_json(doc: Any) -> str:
    """Key-sorted compact JSON; numpy values become plain numbers."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_plain)


def _plain(value: Any) -> Any:
    if hasattr(value, "tolist"):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


def digest(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def session_problems(result) -> List[str]:
    """Why one SessionResult fails the output gate (empty if it passes).

    The PSNR model clamps every frame to the video config's
    ``[psnr_floor, psnr_ceiling]``; a mean at the floor means no frame
    was ever coded above it.
    """
    summary, video = result.summary, result.config.video
    problems = []
    if not summary.frames_displayed > 0:
        problems.append(f"frames_displayed={summary.frames_displayed}")
    psnr = summary.quality.mean_psnr
    if not (math.isfinite(psnr) and video.psnr_floor < psnr <= video.psnr_ceiling):
        problems.append(f"mean ROI PSNR={psnr}")
    if not 0.0 <= summary.freeze_ratio <= 1.0:
        problems.append(f"freeze_ratio={summary.freeze_ratio}")
    if not summary.throughput.mean > 0.0:
        problems.append(f"throughput={summary.throughput.mean}")
    return problems


def point_problems(point: dict) -> List[str]:
    """Why one fleet point fails the output gate (empty if it passes)."""
    problems = []
    for key in ("jain_mean", "jain_min"):
        if not 0.0 < point[key] <= 1.0:
            problems.append(f"{key}={point[key]}")
    if not 1.0 <= point["mos_mean"] <= 5.0:
        problems.append(f"mos_mean={point['mos_mean']}")
    return problems


@dataclasses.dataclass
class Checked:
    """What the output gate found in one rep."""

    sessions: int
    failed: int
    problems: List[str]
    digest: str


@dataclasses.dataclass
class Prepared:
    """A workload with its inputs built: ``entry()`` is the timed call and
    ``check(output)`` gates and hashes what it returned."""

    sizes: Dict[str, Any]
    entry: Callable[[], Any]
    check: Callable[[Any], Checked]


def _gate(
    results: Sequence, expected: int, groups: Sequence[tuple] = ()
) -> tuple:
    """Gate session results; ``groups`` are ``(point, first, stop)`` ranges.

    A fleet point that fails fails every session in its range.  Returns
    ``(failed_count, problem_messages)``.
    """
    failed = set()
    problems = []
    if len(results) != expected:
        problems.append(f"expected {expected} sessions, got {len(results)}")
        failed.update(range(max(expected, len(results))))
    for index, result in enumerate(results):
        found = session_problems(result)
        if found:
            failed.add(index)
            problems.append(f"session {index}: {', '.join(found)}")
    for point, first, stop in groups:
        found = point_problems(point)
        if found:
            failed.update(range(first, stop))
            problems.append(f"point {point['calls_per_cell']}: {', '.join(found)}")
    return len(failed), problems


def _sessions(result) -> list:
    """Flatten a run_tasks/BatchRunner progress result into SessionResults."""
    if isinstance(result, list):
        return [session for item in result for session in _sessions(item)]
    if hasattr(result, "summary"):
        return [result]
    return _sessions(list(result.results))


def _event_grid(seed: int, workdir: Path) -> Prepared:
    from repro.experiments import cache, runner
    from repro.experiments.microbench import NETWORKS, SCHEMES

    cache.set_cache_dir(workdir / "cache")
    settings = runner.ExperimentSettings(base_seed=seed, **EVENT_GRID_SETTINGS)
    grids = [(NETWORKS, SCHEMES, "gcc"), (("cellular",), ("poi360",), "fbcc")]
    per_condition = settings.num_users * settings.repetitions
    sessions = per_condition * sum(len(n) * len(s) for n, s, _ in grids)
    sizes = {
        "sessions": sessions,
        "session_seconds": sessions * (settings.duration + settings.warmup),
        "settings": dataclasses.asdict(settings),
    }

    def entry():
        # Through the module attribute, so a traced rep sees the root.
        return [
            (transport, runner.run_grid(networks, schemes, transport, settings=settings, jobs=1))
            for networks, schemes, transport in grids
        ]

    def check(output) -> Checked:
        rows = []
        results = []
        for transport, grid in output:
            for (scenario, scheme), condition in grid.items():
                rows.append(
                    [scenario, scheme, transport, [r.summary.to_dict() for r in condition]]
                )
                results.extend(condition)
        failed, problems = _gate(results, sessions)
        return Checked(len(results), failed, problems, digest(rows))

    return Prepared(sizes, entry, check)


def _bitexact_problems(results: Sequence, warmup: float) -> List[str]:
    """Re-run sessions through the scalar reference; summaries must match."""
    from repro.telephony.uplink import run_uplink_session

    problems = []
    for index, result in enumerate(results[:BITEXACT_SESSIONS]):
        reference = run_uplink_session(result.config, warmup=warmup)
        if canonical_json(reference.summary) != canonical_json(result.summary):
            problems.append(f"session {index}: batched summary != scalar reference")
    return problems


def _job(name: str, seed: int, workdir: Path) -> Prepared:
    from repro.experiments import cache
    from repro.service import jobs

    cache.set_cache_dir(workdir / "cache")
    spec = dict(JOB_SPECS[name], seed=seed)
    full = dict(jobs.SPEC_DEFAULTS[spec["kind"]], **spec)
    spans = full["duration"] + full["warmup"]
    if spec["kind"] == "fleet":
        calls, cells = full["calls"], full["cells"]
        sessions = sum(calls) * cells
    else:
        calls, cells = [], 0
        sessions = spec["sessions"]
    sizes = {"sessions": sessions, "session_seconds": sessions * spans, "spec": full}
    collected: list = []

    def progress(_done, _total, result) -> None:
        collected.extend(_sessions(result))

    def entry():
        return jobs.execute_job(spec, jobs=1, progress=progress)

    def check(outcome) -> Checked:
        groups = []
        first = 0
        for point, ues in zip(outcome.payload.get("points", []), calls):
            groups.append((point, first, first + ues * cells))
            first += ues * cells
        failed, problems = _gate(collected, sessions, groups)
        for group in outcome.payload.get("cell_jains", []):
            bad = [jain for jain in group if not 0.0 < jain <= 1.0]
            if bad:
                problems.append(f"cell Jain out of (0, 1]: {bad}")
        if name == "batch_sweep":
            problems.extend(_bitexact_problems(collected, spec["warmup"]))
        doc = {"payload": outcome.payload, "registry": outcome.registry}
        return Checked(len(collected), failed, problems, digest(doc))

    return Prepared(sizes, entry, check)


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    """Build workload ``name``'s inputs for ``seed`` (cache under ``workdir``)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name == "event_grid":
        return _event_grid(seed, workdir)
    return _job(name, seed, workdir)
