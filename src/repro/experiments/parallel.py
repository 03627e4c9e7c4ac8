"""Process-parallel execution of independent telephony sessions.

Every session of an experiment grid is an isolated discrete-event
simulation with its own seed, so the (user × repetition × condition)
fan-out is embarrassingly parallel.  This module runs task descriptions
(:class:`SessionTask`, :class:`CellTask`, and the lockstep
:class:`CellBlockTask` and :class:`CohortTask`) across one
``ProcessPoolExecutor`` and returns results **in task order**, which —
together with the unchanged per-session seed derivation — makes
parallel runs bit-identical to serial ones.

Worker count resolution (first match wins):

1. an explicit ``jobs=`` argument,
2. :func:`set_default_jobs` (the CLI's ``--jobs`` flag sets this),
3. the ``REPRO_JOBS`` environment variable,
4. serial execution (1).

Even with workers granted, :func:`run_tasks` runs serially when a pool
cannot win: single-core machines and task lists shorter than the worker
count (see the function docstring — documented in docs/PERFORMANCE.md).
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from contextvars import Context, ContextVar
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.meter import SessionMeter
from repro.telephony.session import SessionResult

#: Signature of the ``run_tasks`` progress callback:
#: ``progress(done, total, result)`` after each finished task.
ProgressCallback = Callable[[int, int, SessionResult], None]

#: The running job's cancel probe as a lockstep tick callback
#: ``probe(tick, ticks, sessions)``, set by
#: :func:`repro.service.jobs.execute_job`.  A lockstep task run in the
#: calling process polls it at its tick loop's progress stride, so a
#: one-task sweep can stop before its last tick; pooled tasks run in an
#: empty context and are probed per finished task as before.
TICK_PROBE: ContextVar = ContextVar("TICK_PROBE", default=None)

#: Process-wide default set by ``set_default_jobs`` (e.g. from --jobs).
_DEFAULT_JOBS: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (None = unset)."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the effective worker count (always >= 1)."""
    if jobs is None:
        jobs = _DEFAULT_JOBS
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs is None:
        return 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def balanced_cuts(weights: Sequence[int], blocks: int) -> List[Tuple[int, int]]:
    """Cut a sequence into at most ``blocks`` contiguous ``(start, stop)``
    runs balanced by positive ``weights``.

    A cut falls after the item whose running total first reaches each of
    the ``blocks - 1`` interior quantiles of the total, so every run is
    non-empty and input order is kept.  Both lockstep planners use it:
    ``fleet --batch`` weighs cells by member count, ``metrics --batch``
    weighs every session 1.

    >>> balanced_cuts([1] * 5, 2)
    [(0, 3), (3, 5)]
    >>> balanced_cuts([2, 2, 4, 4, 8], 3)
    [(0, 3), (3, 5)]
    """
    blocks = max(1, min(blocks, len(weights)))
    total = sum(weights)
    bounds = [0]
    running = 0
    for index, weight in enumerate(weights[:-1]):
        running += weight
        if running * blocks >= total * len(bounds):
            bounds.append(index + 1)
    bounds.append(len(weights))
    return [(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]


@dataclass(frozen=True)
class SessionTask:
    """Everything a worker process needs to run one session.

    Carries only plain values (the profile by name, the scenario by
    registry key), so the task pickles cheaply and the worker rebuilds
    the full config itself — identical to what the serial path builds.
    """

    scenario_name: str
    scheme: str
    transport: str
    duration: float
    warmup: float
    seed: int
    profile_name: str
    #: Attach a per-session :class:`repro.obs.SessionMeter`; its registry
    #: comes back on ``SessionResult.meter`` and merges into the fleet
    #: view via :func:`merged_meter`.
    meter: bool = False

    def run(self) -> SessionResult:
        """Build the session config and run it (current process)."""
        from repro.roi.users import profile_by_name
        from repro.telephony.session import TelephonySession
        from repro.traces.scenarios import scenario

        config = scenario(
            self.scenario_name,
            scheme=self.scheme,
            transport=self.transport,
            duration=self.duration,
            seed=self.seed,
        )
        session = TelephonySession(
            config, profile=profile_by_name(self.profile_name), meter=self.meter
        )
        return session.run(self.duration, warmup=self.warmup)


@dataclass(frozen=True)
class CellTask:
    """Everything a worker process needs to run one shared cell.

    The fleet analogue of :class:`SessionTask`: one task is one
    :class:`repro.telephony.fleet.CellSession` of ``ues`` callers, so a
    city-scale sweep shards *cells* across the process pool — members of
    one cell must share a clock and cannot be split.  Like
    :class:`SessionTask` it carries only plain values and the worker
    rebuilds the configs, keeping sharded results bit-identical to
    serial ones.
    """

    scenario_name: str
    scheme: str
    transport: str
    duration: float
    warmup: float
    #: Base seed of the cell; member ``i`` runs at ``seed + 1000*i``.
    seed: int
    ues: int
    background_ues: int = 0
    background_load: float = 0.0
    prb_budget: int = 50
    #: Rotate the named user profiles across members (member ``i`` gets
    #: ``USER_PROFILES[i % len]``); False runs identical callers.
    rotate_profiles: bool = False
    meter: bool = False

    def run(self):
        """Build the cell and run it (current process) → ``CellResult``."""
        from repro.config import FleetConfig
        from repro.roi.users import USER_PROFILES
        from repro.telephony.fleet import CellSession, member_configs
        from repro.traces.scenarios import scenario

        base = scenario(
            self.scenario_name,
            scheme=self.scheme,
            transport=self.transport,
            duration=self.duration,
            seed=self.seed,
        )
        profiles = None
        if self.rotate_profiles:
            profiles = [
                USER_PROFILES[index % len(USER_PROFILES)]
                for index in range(self.ues)
            ]
        fleet = FleetConfig(
            ues=self.ues,
            prb_budget=self.prb_budget,
            background_ues=self.background_ues,
            background_load=self.background_load,
            seed=self.seed,
        )
        cell = CellSession(
            member_configs(base, self.ues),
            profiles=profiles,
            fleet=fleet,
            meter=self.meter,
        )
        return cell.run(self.duration, warmup=self.warmup)


@dataclass(frozen=True)
class CellBlockTask:
    """Everything a worker process needs to run one *batched cell block*.

    The ``--batch`` sharding unit: one task is one
    :func:`repro.sim.batch.run_batched_cells` block advancing a
    contiguous run of a sweep's cells (in seed order, possibly spanning
    several calls-per-cell points, so member counts may differ) in
    lockstep.  Cells never couple with each other, so how a sweep's
    cells are partitioned into blocks changes wall clock only — the
    flattened per-cell results (and hence the merged registries) are
    byte-equal for any partition, including the serial one-block case.
    ``run()`` returns a list of :class:`repro.telephony.fleet.CellResult`
    in seed order.
    """

    scenario_name: str
    scheme: str
    transport: str
    duration: float
    warmup: float
    #: Base seed of each cell in the block; member ``i`` of a cell runs
    #: at ``cell_seed + 1000*i``.
    seeds: tuple
    #: Member count of each cell, parallel to ``seeds``.
    ues: tuple
    background_ues: int = 0
    background_load: float = 0.0
    prb_budget: int = 50
    #: Attach live per-cell engine meters (``fleet.*`` + ``batch.*``
    #: counters accumulated inside the tick loop; see
    #: :func:`repro.sim.batch.run_batched_cells`).
    meter: bool = False
    #: Run-ledger heartbeat file: the block streams cohort-progress
    #: records into it from inside the tick loop (worker-safe appends;
    #: :func:`repro.obs.ledger.cohort_heartbeat_callback`).
    heartbeat_path: Optional[str] = None

    def run(self) -> List:
        from repro.config import FleetConfig
        from repro.experiments.fleet import lockstep_scenario
        from repro.sim.batch import run_batched_cells
        from repro.telephony.fleet import member_configs

        cells = []
        fleets = []
        for seed, ues in zip(self.seeds, self.ues):
            base = lockstep_scenario(
                self.scenario_name,
                scheme=self.scheme,
                transport=self.transport,
                duration=self.duration,
                seed=seed,
            )
            cells.append(member_configs(base, ues))
            fleets.append(
                FleetConfig(
                    ues=ues,
                    prb_budget=self.prb_budget,
                    background_ues=self.background_ues,
                    background_load=self.background_load,
                    seed=seed,
                )
            )
        return run_batched_cells(
            cells,
            fleets=fleets,
            duration=self.duration,
            warmup=self.warmup,
            meter=self.meter,
            progress=_tick_progress(
                self.heartbeat_path, self.seeds[0] if self.seeds else 0
            ),
        )


class CohortOutcome:
    """One finished lockstep cohort: its results and its engine meter.

    Shaped like a result object (a ``meter`` attribute plus the result
    list) so :meth:`repro.obs.ledger.RunLedger.progress` can absorb the
    cohort's engine meter into the live registry as each cohort lands.
    """

    __slots__ = ("results", "meter")

    def __init__(self, results: List[SessionResult], meter: SessionMeter):
        self.results = results
        self.meter = meter


@dataclass(frozen=True)
class CohortTask:
    """Everything a worker process needs to run one lockstep cohort.

    The ``metrics --batch`` sharding unit, planned by
    :func:`repro.experiments.batch.run_cohorts`: a signature-homogeneous
    run of a sweep's configs advanced through
    :func:`repro.sim.batch.run_batched`, or, when ``scalar`` is set (a
    group below the crossover), session by session through the scalar
    lockstep reference.  The two engines are bit-identical.  ``run()``
    returns a :class:`CohortOutcome` whose meter carries the cohort's
    ``batch.*`` counters and ``batch.run`` spans.
    """

    configs: tuple
    warmup: float = 0.0
    scalar: bool = False
    #: Run-ledger heartbeat file the cohort streams progress records
    #: into from inside its tick loop
    #: (:func:`repro.obs.ledger.cohort_heartbeat_callback`).
    heartbeat_path: Optional[str] = None
    #: Cohort label carried by those records (its plan position).
    label: int = 0

    def run(self) -> CohortOutcome:
        progress = _tick_progress(self.heartbeat_path, self.label)
        meter = SessionMeter()
        if not self.scalar:
            from repro.sim.batch import run_batched

            results = run_batched(
                self.configs, warmup=self.warmup, meter=meter, progress=progress
            )
            return CohortOutcome(results, meter)
        from repro.telephony.uplink import run_uplink_session

        meter.inc("batch.scalar_fallbacks", float(len(self.configs)))
        results = []
        for index, config in enumerate(self.configs):
            results.append(run_uplink_session(config, warmup=self.warmup))
            if progress is not None:
                # Scalar cohorts have no shared tick loop; report whole
                # sessions instead (tick stays monotone per stream).
                progress(index + 1, len(self.configs), len(self.configs))
        return CohortOutcome(results, meter)


def _tick_progress(heartbeat_path: Optional[str], label):
    """A lockstep task's tick-loop callback: heartbeat records into
    ``heartbeat_path`` (when set), then the job's :data:`TICK_PROBE`
    (when set); None when there is neither."""
    callbacks = []
    if heartbeat_path is not None:
        from repro.obs.ledger import cohort_heartbeat_callback

        callbacks.append(cohort_heartbeat_callback(heartbeat_path, label=label))
    probe = TICK_PROBE.get()
    if probe is not None:
        callbacks.append(probe)
    if len(callbacks) < 2:
        return callbacks[0] if callbacks else None

    def _progress(tick: int, ticks: int, sessions: int) -> None:
        for callback in callbacks:
            callback(tick, ticks, sessions)

    return _progress


def per_item_progress(
    progress: Optional[ProgressCallback], sizes: Sequence[int]
) -> Optional[ProgressCallback]:
    """Re-count a per-task ``progress`` callback in the tasks' items.

    Task ``i`` of a lockstep sweep carries ``sizes[i]`` sessions (a
    cohort) or cells (a cell block); the returned callback reports
    ``done``/``total`` in those items, so a sweep of one 256-session
    cohort ends at ``256/256`` rather than ``1/1``.  The result passes
    through unchanged.
    """
    if progress is None:
        return None
    ends = list(itertools.accumulate(sizes))
    total = ends[-1] if ends else 0

    def _progress(done: int, _tasks: int, result) -> None:
        progress(ends[done - 1], total, result)

    return _progress


def _run_task(task):
    # An empty context: a pooled task never sees the caller's TICK_PROBE.
    return Context().run(task.run)


def run_tasks(
    tasks: Sequence,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    planned: bool = False,
) -> List:
    """Run tasks, fanning across processes; results are in task order.

    Tasks are anything with a picklable ``.run()``: per-session
    :class:`SessionTask`, per-cell :class:`CellTask` (whole cells are
    the sharding unit for fleet sweeps), and the lockstep
    :class:`CellBlockTask` (``fleet --batch``) and :class:`CohortTask`
    (``metrics --batch``).  This is the only process pool of the
    package.

    Falls back to serial execution — no pool spin-up, no pickling —
    whenever a pool cannot win: one effective worker or at most one
    task, a single-core machine (workers would time-slice one CPU and
    pay IPC on top, measured as a 0.95× "speedup"), or a task list
    shorter than the worker count (the pool's fixed cost is amortised
    over too few sessions).  ``planned=True`` says the tasks were
    already cut for ``jobs`` workers (the cell blocks of
    :func:`repro.experiments.fleet.fleet_batch_tasks`, the cohorts of
    :func:`repro.experiments.batch.run_cohorts`): then any multi-task
    list runs on ``min(workers, len(tasks))`` processes, since running
    the blocks one after another would only add tick loops.  Results
    are bit-identical either way; only wall clock changes.

    ``progress`` is invoked as ``progress(done, total, result)`` after
    every finished task, in task order, from the calling process —
    long sweeps can report per-worker health without touching results.
    If it raises (the job service cancels this way), the error reaches
    the caller only after the pool has shut down, so no worker process
    outlives the call.
    """
    tasks = list(tasks)
    workers = resolve_jobs(jobs)
    if planned:
        workers = min(workers, len(tasks))
        serial = workers <= 1
    else:
        serial = (
            workers <= 1
            or len(tasks) <= 1
            or (os.cpu_count() or 1) == 1
            or len(tasks) < workers
        )
    total = len(tasks)
    results: List = []
    if serial:
        for task in tasks:
            result = task.run()
            results.append(result)
            if progress is not None:
                progress(len(results), total, result)
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # One task per chunk: results stream back in task order, and a
        # worker never holds more than the one result it is sending.
        for result in pool.map(_run_task, tasks, chunksize=1):
            results.append(result)
            if progress is not None:
                progress(len(results), total, result)
    return results


def merged_meter(
    results: Sequence,
    workers: int = 1,
    cache_counters: Optional[dict] = None,
) -> SessionMeter:
    """Fold per-session (or per-cell) meters into one fleet registry.

    Accepts anything with a ``.meter`` attribute — ``SessionResult`` or
    ``CellResult`` (whose meter already carries its members' totals).

    Counters and histogram buckets sum elementwise, spans accumulate, so
    the merged view of a parallel sweep equals the serial one exactly
    (merge order is task order, and every operation is commutative
    addition).  On top of the per-session metrics the fleet meter carries:

    - ``fleet.sessions`` — sessions that contributed a meter,
    - ``fleet.workers`` — the worker count used for the sweep,
    - ``fleet.straggler_s`` / ``fleet.straggler_index`` — wall-clock of
      the slowest session (its ``session.run`` span) and its task index,
    - ``cache.*`` counters when a ``cache_counters`` snapshot from
      :func:`repro.experiments.cache.counters` is supplied.
    """
    fleet = SessionMeter()
    straggler_s = 0.0
    straggler_index = -1
    sessions = 0
    for index, result in enumerate(results):
        meter = getattr(result, "meter", None)
        if meter is None:
            continue
        fleet.merge(meter)
        sessions += 1
        run_span = meter.spans.get("session.run")
        if run_span is not None and run_span.max_s > straggler_s:
            straggler_s = run_span.max_s
            straggler_index = index
    fleet.inc("fleet.sessions", sessions)
    fleet.set_gauge("fleet.workers", workers)
    if straggler_index >= 0:
        fleet.set_gauge("fleet.straggler_s", straggler_s)
        fleet.set_gauge("fleet.straggler_index", straggler_index)
    if cache_counters:
        for name, value in cache_counters.items():
            if value:
                fleet.inc(f"cache.{name}", value)
    return fleet
