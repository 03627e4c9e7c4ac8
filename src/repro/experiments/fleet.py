"""Cell-capacity sweeps: calls-per-cell vs. quality (docs/FLEET.md).

The capacity-planning question the paper's Fig. 17 gestures at — how
many concurrent POI360 callers does one LTE cell carry before quality
degrades? — becomes a sweep here: for each calls-per-cell value, run
several independent shared cells (:class:`repro.experiments.parallel.
CellTask` shards whole cells across the process pool) and aggregate
per-cell Jain fairness and per-caller MOS / rate / delay into one
:class:`FleetPoint` per population size.

Determinism contract: cell ``c`` of point ``p`` always derives its base
seed as ``seed + 1_000_000 * (p * cells + c)`` regardless of worker
count, so sharded sweeps are bit-identical to serial ones (the CI
``fleet-smoke`` leg diffs the two merged registries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.parallel import (
    CellBlockTask,
    CellTask,
    ProgressCallback,
    balanced_cuts,
    merged_meter,
    per_item_progress,
    resolve_jobs,
    run_tasks,
)
from repro.obs.meter import SessionMeter
from repro.telephony.fleet import CellResult

#: Seed stride between cells of one sweep — far above the 1000-stride
#: between members of one cell, so no two simulated UEs in a sweep can
#: collide on a seed (cells would need >1000 members).
CELL_SEED_STRIDE = 1_000_000


def cell_schedule(calls: Sequence[int], cells: int, seed: int) -> List[Tuple[int, int]]:
    """``(members, cell_seed)`` of every cell of a sweep, in (point, cell)
    order — the one seed schedule of the event and batched sweeps."""
    if any(ues < 1 for ues in calls):
        raise ValueError("calls-per-cell values must be >= 1")
    return [
        (ues, seed + CELL_SEED_STRIDE * (point_index * cells + cell_index))
        for point_index, ues in enumerate(calls)
        for cell_index in range(cells)
    ]


def _finite_mean(values: Sequence[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return float("nan")
    return float(np.mean(finite))


@dataclass(frozen=True)
class FleetPoint:
    """Aggregates for one calls-per-cell population size."""

    ues: int
    cells: int
    #: Mean / worst Jain fairness index across the point's cells.
    jain_mean: float
    jain_min: float
    #: Mean expected MOS across every caller of every cell.
    mos_mean: float
    #: Mean received media rate per caller (Mbps).
    rate_mean_mbps: float
    #: Median of the callers' median frame delays (ms).
    delay_median_ms: float
    #: Mean freeze ratio across callers.
    freeze_mean: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "calls_per_cell": self.ues,
            "cells": self.cells,
            "jain_mean": round(self.jain_mean, 4),
            "jain_min": round(self.jain_min, 4),
            "mos_mean": round(self.mos_mean, 3),
            "rate_mean_mbps": round(self.rate_mean_mbps, 3),
            "delay_median_ms": round(self.delay_median_ms, 1),
            "freeze_mean": round(self.freeze_mean, 4),
        }


@dataclass
class FleetSweepResult:
    """One capacity sweep: per-population aggregates + raw cells."""

    points: List[FleetPoint]
    #: Raw per-cell results, grouped per point (``cells[p][c]``).
    cells: List[List[CellResult]]
    #: Merged fleet registry (cells + members) when metering was on.
    meter: Optional[SessionMeter] = None


def fleet_tasks(
    scenario_name: str,
    calls: Sequence[int],
    cells: int = 1,
    scheme: str = "poi360",
    transport: str = "fbcc",
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 0,
    background_ues: int = 0,
    background_load: float = 0.0,
    prb_budget: int = 50,
    rotate_profiles: bool = False,
    meter: bool = False,
) -> List[CellTask]:
    """The sweep's task list, in deterministic (point, cell) order."""
    return [
        CellTask(
            scenario_name=scenario_name,
            scheme=scheme,
            transport=transport,
            duration=duration,
            warmup=warmup,
            seed=cell_seed,
            ues=ues,
            background_ues=background_ues,
            background_load=background_load,
            prb_budget=prb_budget,
            rotate_profiles=rotate_profiles,
            meter=meter,
        )
        for ues, cell_seed in cell_schedule(calls, cells, seed)
    ]


def lockstep_scenario(
    scenario_name: str,
    scheme: str = "poi360",
    transport: str = "fbcc",
    duration: float = 30.0,
    seed: int = 0,
):
    """A scenario config coerced onto the lockstep grid.

    The batched cell engine requires every cadence on the 1 ms subframe
    grid (:func:`repro.telephony.uplink.batch_unsupported_reason`); the
    default 30 fps frame interval (1/30 s) is not, so batched sweeps run
    the scenario at 25 fps.  This makes ``--batch`` numbers comparable
    *to each other* and to the scalar lockstep reference — not bitwise
    to the event-driven 30 fps sweep (docs/FLEET.md, "Batched cells").
    """
    import dataclasses

    from repro.telephony.uplink import _ms_aligned
    from repro.traces.scenarios import scenario

    config = scenario(
        scenario_name,
        scheme=scheme,
        transport=transport,
        duration=duration,
        seed=seed,
    )
    if not _ms_aligned(1.0 / config.video.fps):
        config = dataclasses.replace(
            config, video=dataclasses.replace(config.video, fps=25.0)
        )
    return config


def fleet_batch_tasks(
    scenario_name: str,
    calls: Sequence[int],
    cells: int = 1,
    scheme: str = "poi360",
    transport: str = "fbcc",
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 0,
    background_ues: int = 0,
    background_load: float = 0.0,
    prb_budget: int = 50,
    jobs: Optional[int] = None,
    meter: bool = False,
    heartbeat_path: Optional[str] = None,
) -> List[CellBlockTask]:
    """The ``--batch`` task list: whole batched cell blocks.

    The sweep's cells, in the seed order of :func:`fleet_tasks`, are
    chunked into at most ``jobs`` contiguous blocks balanced by member
    sessions (a block may span calls-per-cell points); the partition
    affects wall clock only (cells are independent — the flattened
    results are byte-equal for any block split).  ``meter`` attaches
    live per-cell engine meters, ``heartbeat_path`` streams each block's
    tick progress into a run-ledger heartbeat file.
    """
    schedule = cell_schedule(calls, cells, seed)
    members = [ues for ues, _ in schedule]
    seeds = [cell_seed for _, cell_seed in schedule]
    return [
        CellBlockTask(
            scenario_name=scenario_name,
            scheme=scheme,
            transport=transport,
            duration=duration,
            warmup=warmup,
            seeds=tuple(seeds[start:stop]),
            ues=tuple(members[start:stop]),
            background_ues=background_ues,
            background_load=background_load,
            prb_budget=prb_budget,
            meter=meter,
            heartbeat_path=heartbeat_path,
        )
        for start, stop in balanced_cuts(members, resolve_jobs(jobs))
    ]


def _aggregate(ues: int, results: Sequence[CellResult]) -> FleetPoint:
    summaries = [r.summary for cell in results for r in cell.results]
    jains = [cell.jain for cell in results]
    mos = [m for cell in results for m in cell.member_mos]
    delays = [s.delay.median * 1e3 for s in summaries]
    return FleetPoint(
        ues=ues,
        cells=len(results),
        jain_mean=_finite_mean(jains),
        jain_min=float(min(jains)),
        mos_mean=_finite_mean(mos),
        rate_mean_mbps=_finite_mean([s.throughput.mean / 1e6 for s in summaries]),
        delay_median_ms=float(np.median(delays)) if delays else float("nan"),
        freeze_mean=_finite_mean([s.freeze_ratio for s in summaries]),
    )


def fleet_sweep(
    scenario_name: str,
    calls: Sequence[int] = (1, 2, 4, 8),
    cells: int = 1,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    meter: bool = False,
    batch: bool = False,
    heartbeat_path: Optional[str] = None,
    **kwargs,
) -> FleetSweepResult:
    """Run the capacity sweep; cells shard across the process pool.

    ``kwargs`` pass through to :func:`fleet_tasks` (scheme, transport,
    duration, warmup, seed, background_ues, background_load, prb_budget,
    rotate_profiles).  Results are grouped back per calls-per-cell value
    in task order, so the output is independent of ``jobs``.

    ``batch=True`` runs the same seed schedule on the batched engine's
    cell blocks (:func:`repro.sim.batch.run_batched_cells`): whole
    blocks shard across the pool instead of single cells, the scenario
    is coerced onto the lockstep grid (:func:`lockstep_scenario`), the
    ``fleet.*`` registry is metered **live** inside the engine's tick
    loop (per-cell meters, including the batched-engine ``batch.*`` and
    ``fleet.cell_prb_exhausted`` counters), and user-profile rotation is
    unsupported (profiles are an event-engine feature).  Serial and
    sharded batch sweeps remain byte-equal; batch and event sweeps are
    statistically comparable, not bitwise (different engines).

    ``heartbeat_path`` (batch path only) streams each block's
    tick-by-tick cohort progress into a run-ledger heartbeat file while
    the sweep runs.  On either path ``progress(done, total, result)``
    counts cells: a finished block advances ``done`` by its cell count.
    """
    calls = list(calls)
    if batch:
        if kwargs.pop("rotate_profiles", False):
            raise ValueError(
                "--rotate-profiles requires the event engine (user "
                "profiles are not part of the lockstep uplink profile)"
            )
        tasks = fleet_batch_tasks(
            scenario_name,
            calls,
            cells=cells,
            jobs=jobs,
            meter=meter,
            heartbeat_path=heartbeat_path,
            **kwargs,
        )
        blocks = run_tasks(
            tasks,
            jobs=jobs,
            progress=per_item_progress(progress, [len(t.seeds) for t in tasks]),
            planned=True,
        )
        results = [cell for block in blocks for cell in block]
    else:
        tasks = fleet_tasks(
            scenario_name, calls, cells=cells, meter=meter, **kwargs
        )
        results = run_tasks(tasks, jobs=jobs, progress=progress)
    grouped: List[List[CellResult]] = [
        results[point_index * cells : (point_index + 1) * cells]
        for point_index in range(len(calls))
    ]
    points = [_aggregate(ues, group) for ues, group in zip(calls, grouped)]
    fleet = None
    if meter:
        fleet = merged_meter(results, workers=resolve_jobs(jobs))
    return FleetSweepResult(points=points, cells=grouped, meter=fleet)


def deterministic_registry_dict(meter: SessionMeter) -> dict:
    """Registry snapshot with every nondeterministic family removed.

    Counters and histograms are pure functions of the simulation, so
    serial and sharded sweeps produce identical values; spans are wall
    clock and the ``fleet.workers``/straggler gauges depend on the job
    count, so they are excluded.  The CI ``fleet-smoke`` leg diffs two
    of these snapshots byte-for-byte.
    """
    snapshot = meter.as_dict()
    return {
        "counters": dict(sorted(snapshot["counters"].items())),
        "histograms": snapshot["histograms"],
    }
