"""Job specs, the shared execution path, and the thread-pool registry.

A **job** is one CLI-equivalent invocation expressed as a JSON spec::

    {"kind": "fleet", "calls": [1, 2], "duration": 8.0, ...}

Each job kind is declared once, as a frozen dataclass (:class:`MetricsSpec`,
:class:`FleetSpec`, :class:`PerfSpec`) whose fields carry their type,
default, choices, bounds and help text.  Everything else is derived from
that declaration: the ``repro360 metrics``/``fleet``/``perf`` flags
(:mod:`repro.cli`), the checks :func:`normalise_spec` applies to outside
input, and the read-only :data:`SPEC_DEFAULTS`.  So a spec and its CLI
flag spelling are interchangeable by construction.  :func:`job_key`
hashes the canonical spec through
:func:`repro.experiments.cache.payload_key` — two submissions of the
same work share one key, and the key lives under the cache's code-salt
directory, so a simulator change invalidates every remembered result
automatically.

:func:`execute_job` is the **single execution path**: ``repro360
metrics``/``fleet``/``perf`` call it directly, and the service's worker
threads call the very same function — which is why a job submitted over
HTTP produces byte-identical registries and summaries to the same
invocation typed at a terminal.  It never prints, never exits; it
returns a :class:`JobOutcome` and raises on failure.

:class:`JobRegistry` is the queue: submissions dedup against queued and
running jobs by key, completed payloads persist through the
content-addressed cache (so identical resubmissions — even across a
server restart — complete instantly with ``cache_hit=true``), every
executed job runs under a :class:`repro.obs.ledger.RunLedger` in the
registry's run root, and cancellation propagates into the sweep between
tasks through its progress callback (:func:`_guard`), and within a
lockstep task run in-process at its tick loop's progress stride.
"""

import dataclasses
import itertools
import json
import math
import operator
import threading
import time
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SCHEMES, TRANSPORTS
from repro.experiments import cache
from repro.experiments.parallel import TICK_PROBE, resolve_jobs
from repro.obs.ledger import (
    RunLedger,
    atomic_write_text,
    gc_runs,
    list_runs,
    new_run_id,
    read_manifest,
)
from repro.obs.meter import SessionMeter
from repro.roi.users import USER_PROFILES
from repro.traces.scenarios import SCENARIOS

#: Name of the job's result artifact inside its run directory: the
#: JSON payload (CLI-equivalent output + deterministic registry) that a
#: recovered or cache-hit job serves without re-running anything.
RESULT_NAME = "result.json"

#: The bounds a spec field may declare: keyword -> (test, symbol).
_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
}


def _spec_field(default, help=None, choices=None, **bounds):
    """One job-spec field: its default, CLI help, choices and ``_BOUNDS``.

    The field's annotation is its type.  This module does not use
    postponed annotations, so ``field.type`` is the type object that
    :func:`normalise_spec` and the CLI flag generator dispatch on.
    """
    return dataclasses.field(
        default=default,
        metadata={"help": help, "choices": choices, "bounds": bounds},
    )


@dataclasses.dataclass(frozen=True)
class _SweepSpec:
    """The fields every session-sweep kind (metrics, fleet) shares."""

    scenario: str = _spec_field("cellular", choices=tuple(sorted(SCENARIOS)))
    scheme: str = _spec_field("poi360", choices=SCHEMES)
    transport: str = _spec_field("fbcc", choices=TRANSPORTS)
    duration: float = _spec_field(30.0, gt=0.0)
    seed: int = _spec_field(1)


@dataclasses.dataclass(frozen=True)
class MetricsSpec(_SweepSpec):
    """``repro360 metrics``: a metered sweep of independent sessions."""

    warmup: float = _spec_field(0.0, ge=0.0)
    profile: str = _spec_field(
        "user2-typical",
        help="user profile applied to every session (see repro.roi.users)",
        choices=tuple(profile.name for profile in USER_PROFILES),
    )
    sessions: int = _spec_field(
        1, help="number of sessions to run (seeds seed..seed+N-1)", ge=1
    )
    batch: bool = _spec_field(
        False,
        help="run the sweep as lockstep cohorts on the batched engine "
        "(poi360/fbcc only; scenario coerced to the 1 ms grid; registry "
        "comes from the engine's live cohort meters)",
    )


@dataclasses.dataclass(frozen=True)
class FleetSpec(_SweepSpec):
    """``repro360 fleet``: calls-per-cell vs. QoE on shared cells."""

    warmup: float = _spec_field(5.0, ge=0.0)
    calls: Tuple[int, ...] = _spec_field(
        (1, 2, 4, 8), help="calls-per-cell values to sweep", ge=1
    )
    cells: int = _spec_field(
        1, help="independent cells per calls-per-cell value", ge=1
    )
    prb_budget: int = _spec_field(
        50,
        help="PRBs one cell can grant per 1 ms subframe (smaller models a "
        "narrower carrier)",
        ge=1,
    )
    background_ues: int = _spec_field(
        0, help="scheduled background UEs sharing each cell", ge=0
    )
    background_load: float = _spec_field(
        0.2,
        help="long-run load fraction of the background population (only "
        "with --background-ues > 0)",
        ge=0.0,
        le=1.0,
    )
    rotate_profiles: bool = _spec_field(
        False,
        help="rotate the named user profiles across a cell's members "
        "(default: identical callers; incompatible with --batch)",
    )
    batch: bool = _spec_field(
        False,
        help="run the sweep on the batched cell engine (poi360/fbcc only; "
        "whole cell blocks per lockstep tick; scenario coerced to the "
        "1 ms grid at 25 fps — see docs/FLEET.md)",
    )


@dataclasses.dataclass(frozen=True)
class PerfSpec:
    """``repro360 perf``: the perf microbenchmark record."""

    duration: float = _spec_field(
        30.0, help="per-session duration (s) for the micro-grid legs", gt=0.0
    )
    warmup: float = _spec_field(10.0, ge=0.0)
    batch: bool = _spec_field(
        False,
        help="also bench the batched lockstep engine (cohort throughput "
        "vs the serial engine)",
    )
    fleet_batch: bool = _spec_field(
        False,
        help="also bench the batched shared-cell engine (C cells x N "
        "members per tick vs the scalar cell reference)",
    )


#: The spec class of each job kind — one per CLI experiment subcommand.
SPEC_CLASSES = {"metrics": MetricsSpec, "fleet": FleetSpec, "perf": PerfSpec}

#: Job kinds the service runs.
JOB_KINDS = tuple(SPEC_CLASSES)


class JobCancelled(RuntimeError):
    """A job was cancelled before or during execution."""


class JobOutcome:
    """What one executed job produced.

    ``payload`` is the JSON-safe, CLI-equivalent result (the ``fleet
    --json`` document, the ``metrics`` sweep header fields, the perf
    record); ``registry`` is the deterministic counters+histograms
    registry (``fleet --metrics-output`` byte-for-byte) when the kind
    has one; ``meter`` is the full fleet meter for rendering (spans and
    gauges included — wall-clock, not deterministic).
    """

    __slots__ = ("payload", "registry", "meter")

    def __init__(self, payload: dict, registry: Optional[dict] = None, meter=None):
        self.payload = payload
        self.registry = registry
        self.meter = meter


def _number(name: str, value, integral: bool):
    """A finite JSON number as a float, or as an int when ``integral``.

    Booleans are not numbers, and an integral field takes ``2.0`` as 2
    but refuses ``2.7``.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or (integral and value != int(value))
    ):
        kind = "an integer" if integral else "a finite number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def _check_field(field: dataclasses.Field, value):
    """Coerce and check one spec value against its field declaration."""
    name, meta = field.name, field.metadata
    if field.type is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
        return value
    if field.type is str:
        if value not in meta["choices"]:
            raise ValueError(
                f"unknown {name} {value!r}; known: {', '.join(meta['choices'])}"
            )
        return value
    if field.type in (int, float):
        value = _number(name, value, integral=field.type is int)
    else:  # Tuple[int, ...]: a list, one integer, or the CLI's "1,2,4"
        if isinstance(value, str):
            try:
                value = [int(item) for item in value.split(",") if item.strip()]
            except ValueError:
                raise ValueError(f"{name} must be integers, got {value!r}") from None
        elif not isinstance(value, (list, tuple)):
            value = [value]
        value = [_number(name, item, integral=True) for item in value]
        if not value:
            raise ValueError(f"{name} must not be empty")
    for bound, limit in meta["bounds"].items():
        test, symbol = _BOUNDS[bound]
        for item in value if isinstance(value, list) else [value]:
            if not test(item, limit):
                raise ValueError(f"{name} must be {symbol} {limit:g}, got {item!r}")
    return value


def normalise_spec(spec: dict) -> dict:
    """Validate a job spec and merge its kind's defaults; raises ValueError.

    Returns a canonical dict (sorted keys, coerced value types) so that
    :func:`job_key` hashes spelling-independent content: ``{"duration":
    8}`` and ``{"duration": 8.0}`` are the same job.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"job spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown job kind {kind!r}; known: {', '.join(JOB_KINDS)}")
    fields = dataclasses.fields(SPEC_CLASSES[kind])
    known = sorted(field.name for field in fields)
    unknown = sorted(set(spec) - set(known) - {"kind"})
    if unknown:
        raise ValueError(
            f"unknown {kind} spec field(s): {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    values = {
        field.name: _check_field(field, spec.get(field.name, field.default))
        for field in fields
    }

    if values.get("transport") == "fbcc" and values.get("scenario") == "wireline":
        raise ValueError("FBCC needs the LTE diagnostic interface")
    if "scheme" in values and values["batch"]:
        from repro.telephony.uplink import LOCKSTEP_MODEL

        pair = (values["scheme"], values["transport"])
        if pair != LOCKSTEP_MODEL:
            raise ValueError(
                "batch runs model only scheme={} transport={}; got scheme={} "
                "transport={}".format(*LOCKSTEP_MODEL, *pair)
            )
    if values.get("rotate_profiles") and values["batch"]:
        raise ValueError(
            "rotate_profiles requires the event engine (drop it or drop batch)"
        )
    default_profile = MetricsSpec.profile
    if values["batch"] and values.get("profile", default_profile) != default_profile:
        # The batched sweep builds its configs without a user profile.
        raise ValueError(
            f"profile {values['profile']!r} requires the event engine "
            "(batch runs apply no user profile; drop it or drop batch)"
        )
    canonical = {"kind": kind}
    canonical.update(sorted(values.items()))
    return canonical


#: Per-kind canonical defaults, derived from the spec classes (read-only).
SPEC_DEFAULTS = MappingProxyType(
    {
        kind: MappingProxyType(
            {k: v for k, v in normalise_spec({"kind": kind}).items() if k != "kind"}
        )
        for kind in JOB_KINDS
    }
)


def job_key(spec: dict) -> str:
    """Content-addressed key of a (normalised) job spec."""
    return cache.payload_key(normalise_spec(spec))


def _guard(progress, cancel):
    """Chain a cancel probe into a ``(done, total, result)`` callback.

    The probe runs after every finished task of a metrics or fleet
    sweep; once it returns True the sweep raises :class:`JobCancelled`
    from the calling process, and ``run_tasks`` shuts its pool down on
    the way out.  ``_guard(None, cancel)`` is also the sweep's
    :data:`~repro.experiments.parallel.TICK_PROBE`: it has the tick-loop
    signature ``(tick, ticks, sessions)``, so a lockstep task run in
    this process checks ``cancel`` at every progress stride too.
    """
    if cancel is None:
        return progress

    def _wrapped(done: int, total: int, result) -> None:
        if cancel():
            raise JobCancelled(f"cancelled at {done}/{total}")
        if progress is not None:
            progress(done, total, result)

    return _wrapped


def _sweep_progress(kind, workers, ledger, progress, cancel):
    """A sweep's ``(progress, heartbeat_path)``: the ledger (when open)
    absorbs each finished task, then the cancel probe, then ``progress``;
    the heartbeat path is None without a ledger."""
    guarded = _guard(progress, cancel)
    if ledger is None:
        return guarded, None
    effective = ledger.progress(kind=kind, workers=workers, inner=guarded)
    return effective, str(ledger.heartbeat_path)


def _cache_delta(before: Dict[str, int]) -> Dict[str, int]:
    """This job's share of the process-cumulative cache counters.

    A fresh CLI process sees its own counters directly; a long-lived
    server must difference them per job or every job after the first
    would re-report its predecessors' hits.  In a fresh process the
    delta equals the cumulative value, so the CLI path is unchanged.
    """
    after = cache.counters()
    return {name: after[name] - before.get(name, 0) for name in after}


def execute_job(
    spec: dict,
    jobs: Optional[int] = None,
    ledger: Optional[RunLedger] = None,
    progress: Optional[Callable[[int, int, object], None]] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> JobOutcome:
    """Run one normalised job spec — the CLI's and the server's shared path.

    ``jobs`` is the worker-process count (the CLI's ``--jobs``), not
    part of the spec: it changes wall-clock, never results, so the same
    key may legitimately run with different pool sizes.  ``ledger``
    streams run telemetry; ``progress`` has ``run_tasks`` semantics
    (lockstep sweeps count sessions or cells, not cohorts or blocks), and
    ``cancel`` is a nullary probe checked between tasks (and, in an
    in-process lockstep task, every ``DEFAULT_PROGRESS_TICKS`` ticks),
    surfacing as :class:`JobCancelled`.
    """
    spec = normalise_spec(spec)
    kind = spec["kind"]
    workers = resolve_jobs(jobs)
    cache_before = cache.counters()

    if kind == "perf":
        return _execute_perf(spec, jobs, ledger, cancel)
    token = TICK_PROBE.set(None if cancel is None else _guard(None, cancel))
    try:
        if kind == "metrics":
            return _execute_metrics(
                spec, jobs, workers, ledger, progress, cancel, cache_before
            )
        return _execute_fleet(spec, jobs, workers, ledger, progress, cancel)
    finally:
        TICK_PROBE.reset(token)


def _execute_metrics(
    spec, jobs, workers, ledger, progress, cancel, cache_before
) -> JobOutcome:
    from repro.experiments.fleet import deterministic_registry_dict
    from repro.experiments.parallel import SessionTask, merged_meter, run_tasks

    effective, heartbeat = _sweep_progress(
        "session", workers, ledger, progress, cancel
    )
    if spec["batch"]:
        from repro.experiments.fleet import lockstep_scenario

        configs = [
            lockstep_scenario(
                spec["scenario"],
                scheme=spec["scheme"],
                transport=spec["transport"],
                duration=spec["duration"],
                seed=spec["seed"] + index,
            )
            for index in range(spec["sessions"])
        ]
        _, fleet = batch_metrics_sweep(
            configs,
            warmup=spec["warmup"],
            jobs=jobs,
            progress=effective,
            heartbeat_path=heartbeat,
            cache_counters=_cache_delta(cache_before),
        )
    else:
        tasks = [
            SessionTask(
                scenario_name=spec["scenario"],
                scheme=spec["scheme"],
                transport=spec["transport"],
                duration=spec["duration"],
                warmup=spec["warmup"],
                seed=spec["seed"] + index,
                profile_name=spec["profile"],
                meter=True,
            )
            for index in range(spec["sessions"])
        ]
        results = run_tasks(tasks, jobs=jobs, progress=effective)
        fleet = merged_meter(
            results, workers=workers, cache_counters=_cache_delta(cache_before)
        )
    payload = {
        "kind": "metrics",
        "scenario": spec["scenario"],
        "scheme": spec["scheme"],
        "transport": spec["transport"],
        "sessions": spec["sessions"],
        "workers": workers,
        "registry": deterministic_registry_dict(fleet),
    }
    return JobOutcome(payload, registry=payload["registry"], meter=fleet)


def batch_metrics_sweep(
    configs,
    warmup: float = 0.0,
    jobs: Optional[int] = None,
    progress=None,
    heartbeat_path: Optional[str] = None,
    cache_counters: Optional[Dict[str, int]] = None,
):
    """The ``metrics --batch`` sweep over explicit lockstep configs.

    Runs ``configs`` through :func:`~repro.experiments.batch.run_cohorts`
    and returns ``(results, fleet)``: results in input order and the
    fleet meter the job reports (the cohorts' engine meters, the
    ``fleet.*`` sweep facts and any ``cache_counters``).  Its
    :func:`~repro.experiments.fleet.deterministic_registry_dict` does
    not depend on ``jobs`` (``tools/check_batch_determinism.py``).
    """
    from repro.experiments.batch import run_cohorts
    from repro.experiments.parallel import merged_meter

    results, engine = run_cohorts(
        configs,
        warmup=warmup,
        jobs=jobs,
        progress=progress,
        heartbeat_path=heartbeat_path,
    )
    fleet = merged_meter(
        results, workers=resolve_jobs(jobs), cache_counters=cache_counters
    )
    fleet.merge(engine)
    # Batched sessions carry no per-session meters (the engine meter is
    # cohort-level), so count them here instead.
    fleet.inc("fleet.sessions", float(len(results)))
    return results, fleet


def _execute_fleet(spec, jobs, workers, ledger, progress, cancel) -> JobOutcome:
    from repro.experiments.fleet import deterministic_registry_dict, fleet_sweep

    effective, heartbeat = _sweep_progress("cell", workers, ledger, progress, cancel)
    sweep = fleet_sweep(
        spec["scenario"],
        calls=spec["calls"],
        cells=spec["cells"],
        scheme=spec["scheme"],
        transport=spec["transport"],
        duration=spec["duration"],
        warmup=spec["warmup"],
        seed=spec["seed"],
        background_ues=spec["background_ues"],
        background_load=spec["background_load"],
        prb_budget=spec["prb_budget"],
        rotate_profiles=spec["rotate_profiles"],
        jobs=jobs,
        meter=True,
        batch=spec["batch"],
        progress=effective,
        heartbeat_path=heartbeat,
    )
    # The exact document ``repro360 fleet --json`` prints — key order
    # included, so a byte diff against the CLI passes by construction.
    payload = {
        "scenario": spec["scenario"],
        "scheme": spec["scheme"],
        "transport": spec["transport"],
        "cells": spec["cells"],
        "points": [point.to_dict() for point in sweep.points],
        "cell_jains": [
            [round(cell.jain, 6) for cell in group] for group in sweep.cells
        ],
    }
    registry = deterministic_registry_dict(sweep.meter)
    return JobOutcome(payload, registry=registry, meter=sweep.meter)


def _execute_perf(spec, jobs, ledger, cancel) -> JobOutcome:
    from repro.experiments.perf import run_perf_bench

    if cancel is not None and cancel():
        raise JobCancelled("cancelled before the first leg")
    record = run_perf_bench(
        duration=spec["duration"],
        warmup=spec["warmup"],
        jobs=jobs,
        batch=spec["batch"],
        fleet_batch=spec["fleet_batch"],
        ledger=ledger,
    )
    return JobOutcome(record)


# ----------------------------------------------------------------------
# The job registry (queue + worker threads + telemetry)
# ----------------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a submission can still dedup against / a cancel can still hit.
ACTIVE_STATES = (QUEUED, RUNNING)


class Job:
    """One job record (mutable; guarded by the registry lock)."""

    def __init__(self, job_id: str, spec: dict, key: str):
        self.id = job_id
        self.spec = spec
        self.kind = spec["kind"]
        self.key = key
        self.state = QUEUED
        self.cache_hit = False
        self.submitted_wall = time.time()
        self.started_wall: Optional[float] = None
        self.ended_wall: Optional[float] = None
        self.done = 0
        self.total: Optional[int] = None
        self.run_dir: Optional[str] = None
        self.error: Optional[str] = None
        self.result: Optional[dict] = None
        self.cancel_event = threading.Event()
        self.finished = threading.Event()
        self.ledger: Optional[RunLedger] = None
        self._registry_meter: Optional[SessionMeter] = None

    def eta_s(self) -> Optional[float]:
        if (
            self.state != RUNNING
            or self.started_wall is None
            or not self.total
            or self.done <= 0
        ):
            return None
        elapsed = time.time() - self.started_wall
        return elapsed * (self.total - self.done) / self.done

    def to_dict(self, include_result: bool = False) -> dict:
        row = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "key": self.key,
            "cache_hit": self.cache_hit,
            "spec": self.spec,
            "submitted_wall": round(self.submitted_wall, 3),
            "started_wall": (
                None if self.started_wall is None else round(self.started_wall, 3)
            ),
            "ended_wall": (
                None if self.ended_wall is None else round(self.ended_wall, 3)
            ),
            "done": self.done,
            "total": self.total,
            "run_dir": self.run_dir,
            "error": self.error,
        }
        eta = self.eta_s()
        row["eta_s"] = None if eta is None else round(eta, 3)
        if include_result:
            row["result"] = self.result
        return row


class JobRegistry:
    """The service's job queue: worker threads over :func:`execute_job`.

    ``root`` is the run root every job's ledger lives under; ``workers``
    is the number of concurrent jobs (each job may additionally fan its
    tasks across ``jobs`` worker *processes* — threads queue jobs,
    processes run sessions).  All public methods are thread-safe.
    """

    def __init__(
        self,
        root,
        workers: int = 2,
        jobs: Optional[int] = None,
        recover: bool = True,
    ):
        self.root = Path(root)
        self.jobs = jobs
        self._t0 = time.time()
        self._lock = threading.RLock()
        self._meter = SessionMeter()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._ids = itertools.count(1)
        self._queue: List[str] = []
        self._available = threading.Condition(self._lock)
        self._closed = False
        if recover:
            self._recover()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-job-worker-{index}", daemon=True
            )
            for index in range(max(1, int(workers)))
        ]
        for thread in self._workers:
            thread.start()

    # ---------------------------------------------------------- submit

    def submit(self, spec: dict) -> Job:
        """Queue a job (or attach to / replay an identical one).

        Dedup ladder, all under one lock:

        1. an **active** job (queued/running) with the same key — the
           submission attaches to it (``service.jobs_deduped``);
        2. a **completed** job with the same key, in memory or persisted
           in the payload cache — a new job record completes instantly
           with ``cache_hit=true`` (``service.jobs_cache_hits``);
        3. otherwise a fresh job enters the queue.
        """
        spec = normalise_spec(spec)
        key = cache.payload_key(spec)
        with self._lock:
            if self._closed:
                raise RuntimeError("registry is closed")
            for job_id in reversed(self._order):
                other = self._jobs[job_id]
                if other.key == key and other.state in ACTIVE_STATES:
                    self._meter.inc("service.jobs_deduped")
                    return other
            replay: Optional[dict] = None
            for job_id in reversed(self._order):
                other = self._jobs[job_id]
                if other.key == key and other.state == DONE and other.result:
                    replay = other.result
                    break
            if replay is None:
                replay = cache.load_payload(key)
            job = Job(self._new_id(), spec, key)
            self._meter.inc("service.jobs_submitted")
            if replay is not None:
                job.state = DONE
                job.cache_hit = True
                job.result = replay
                job.run_dir = replay.get("run_dir")
                job.started_wall = job.ended_wall = job.submitted_wall
                job.total = job.done = 0
                job.finished.set()
                self._meter.inc("service.jobs_cache_hits")
                self._register(job)
                return job
            self._register(job)
            self._queue.append(job.id)
            self._available.notify()
            return job

    def _new_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._order.append(job.id)

    # ----------------------------------------------------------- query

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still active."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state not in ACTIVE_STATES:
                return False
            job.cancel_event.set()
            if job.state == QUEUED:
                # The worker will observe the event when it dequeues the
                # job and seal it as cancelled without running anything.
                self._available.notify_all()
            return True

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until a job reaches a terminal state (tests, clients)."""
        job = self.get(job_id)
        if job is None:
            return None
        job.finished.wait(timeout)
        return job

    # ---------------------------------------------------------- workers

    def _worker(self) -> None:
        while True:
            with self._available:
                while not self._queue and not self._closed:
                    self._available.wait()
                if self._closed and not self._queue:
                    return
                job = self._jobs[self._queue.pop(0)]
                wait_s = max(0.0, time.time() - job.submitted_wall)
                self._meter.observe("service.queue_wait_s", wait_s)
                if job.cancel_event.is_set():
                    job.state = CANCELLED
                    job.ended_wall = time.time()
                    self._meter.inc("service.jobs_cancelled")
                    job.finished.set()
                    continue
                job.state = RUNNING
                job.started_wall = time.time()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        ledger = RunLedger.open(
            job.kind,
            config={
                "spec": job.spec,
                "service": {"job": job.id, "key": job.key},
            },
            root=self.root,
            run_id=f"{new_run_id(job.kind)}-{job.id}",
        )
        with self._lock:
            job.ledger = ledger
            job.run_dir = str(ledger.run_dir)

        def _progress(done: int, total: int, _result) -> None:
            with self._lock:
                job.done = done
                job.total = total

        def _cancelled() -> bool:
            return job.cancel_event.is_set()

        # _LockedLedger serialises live-meter mutation (absorb from this
        # thread) with /metrics scrapes through the registry lock, so a
        # scrape never iterates a dict the sweep is resizing.
        try:
            outcome = execute_job(
                job.spec,
                jobs=self.jobs,
                ledger=_LockedLedger(ledger, self._lock),
                progress=_progress,
                cancel=_cancelled,
            )
        except JobCancelled as error:
            ledger.finish("cancelled", error=str(error))
            with self._lock:
                job.state = CANCELLED
                job.error = str(error)
                job.ended_wall = time.time()
                self._meter.inc("service.jobs_cancelled")
                job.finished.set()
            return
        except Exception as error:  # noqa: BLE001 - jobs must not kill workers
            if not ledger.finished:
                ledger.finish("error", error=repr(error))
            with self._lock:
                job.state = FAILED
                job.error = repr(error)
                job.ended_wall = time.time()
                self._meter.inc("service.jobs_failed")
                job.finished.set()
            return

        result = {
            "payload": outcome.payload,
            "registry": outcome.registry,
            "run_dir": str(ledger.run_dir),
        }
        atomic_write_text(
            ledger.run_dir / RESULT_NAME, json.dumps(result, indent=1) + "\n"
        )
        ledger.write_cache_stats(cache.stats())
        ledger.finish("ok", meter=outcome.meter)
        cache.store_payload(job.key, result)
        with self._lock:
            job.state = DONE
            job.result = result
            job.ended_wall = time.time()
            self._meter.inc("service.jobs_completed")
            job.finished.set()

    # --------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Re-register jobs from sealed run directories after a restart.

        Any run whose manifest config carries the ``service`` stamp was
        one of ours; its terminal status maps back onto a job state, and
        a ``result.json`` artifact restores the payload, so ``GET
        /jobs`` shows history and resubmissions replay instantly even
        when the payload cache was cleared.
        """
        highest = 0
        for info in list_runs(self.root):
            try:
                manifest = read_manifest(info.run_dir)
            except (OSError, json.JSONDecodeError):
                continue
            config = manifest.get("config") or {}
            stamp = config.get("service")
            if not isinstance(stamp, dict) or "job" not in stamp:
                continue
            spec = config.get("spec")
            try:
                spec = normalise_spec(spec)
            except ValueError:
                continue
            job = Job(str(stamp["job"]), spec, str(stamp.get("key", "")))
            try:
                highest = max(highest, int(job.id.rsplit("-", 1)[-1]))
            except ValueError:
                pass
            job.state = {
                "ok": DONE,
                "cancelled": CANCELLED,
                "error": FAILED,
            }.get(manifest.get("status"), FAILED)
            job.run_dir = str(info.run_dir)
            job.submitted_wall = float(manifest.get("started_wall", 0.0))
            job.started_wall = job.submitted_wall
            job.ended_wall = manifest.get("ended_wall")
            job.error = manifest.get("error")
            result_path = info.run_dir / RESULT_NAME
            if job.state == DONE and result_path.exists():
                try:
                    job.result = json.loads(result_path.read_text())
                except (OSError, ValueError):
                    job.result = None
            job.finished.set()
            if job.id not in self._jobs:
                self._register(job)
        self._ids = itertools.count(highest + 1)

    # -------------------------------------------------------- telemetry

    def count_request(self) -> None:
        """Meter one served HTTP request (called by the handler)."""
        with self._lock:
            self._meter.inc("service.requests")

    def service_meter(self) -> SessionMeter:
        """The service's own counters/histograms plus queue gauges."""
        meter = SessionMeter()
        with self._lock:
            meter.merge(self._meter)
            queued = sum(1 for j in self._jobs.values() if j.state == QUEUED)
            running = sum(1 for j in self._jobs.values() if j.state == RUNNING)
        meter.set_gauge("service.jobs_queued", float(queued))
        meter.set_gauge("service.jobs_running", float(running))
        meter.set_gauge("service.uptime_s", time.time() - self._t0)
        return meter

    def service_registry(self) -> SessionMeter:
        """The ``/metrics`` registry: service meter + every job's registry.

        Running jobs contribute their ledger's live registry (growing
        while the sweep runs); completed jobs contribute their sealed
        ``registry.json``, loaded lazily once and cached on the record.
        """
        meter = self.service_meter()
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
            for job in jobs:
                if job.state == RUNNING and job.ledger is not None:
                    meter.merge(job.ledger.live)
        for job in jobs:
            if job.state != DONE or job.cache_hit or job.run_dir is None:
                continue
            if job._registry_meter is None:
                from repro.obs.ledger import load_registry

                try:
                    job._registry_meter = load_registry(job.run_dir)
                except (OSError, ValueError, json.JSONDecodeError):
                    continue
            meter.merge(job._registry_meter)
        return meter

    # --------------------------------------------------------------- gc

    def gc(self, keep_days: float, dry_run: bool = False) -> List[str]:
        """Prune sealed run dirs older than ``keep_days`` (see gc_runs)."""
        removed, _kept = gc_runs(self.root, keep_days=keep_days, dry_run=dry_run)
        if removed and not dry_run:
            with self._lock:
                self._meter.inc("service.runs_gc_removed", float(len(removed)))
        return [str(info.run_dir) for info in removed]

    # ------------------------------------------------------------ close

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work and join idle workers (running jobs finish)."""
        with self._lock:
            self._closed = True
            self._available.notify_all()
        for thread in self._workers:
            thread.join(timeout)


class _LockedLedger:
    """A ledger proxy serialising live-meter mutation with scrapes.

    Only the methods the execution path touches are proxied; ``progress``
    wraps the real callback so ``absorb``/``heartbeat``/``snapshot`` run
    under the registry lock, and attribute access falls through for
    everything else (``heartbeat_path``, ``run_dir``, ``live``...).
    """

    def __init__(self, ledger: RunLedger, lock: threading.RLock):
        self._ledger = ledger
        self._lock = lock

    def progress(self, kind: str = "session", workers: int = 1, inner=None):
        real = self._ledger.progress(kind=kind, workers=workers, inner=inner)

        def _locked(done: int, total: int, result) -> None:
            with self._lock:
                real(done, total, result)

        return _locked

    def __getattr__(self, name):
        return getattr(self._ledger, name)
