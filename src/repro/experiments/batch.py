"""Lockstep-cohort execution of experiment sweeps.

The batched engine (:mod:`repro.sim.batch`) advances a *homogeneous*
cohort of sessions on the shared 1 ms grid — homogeneous meaning every
session shares the same tick cadences (channel/cell/diag/frame/encode/
pacer intervals, BSR depth, …; see
:meth:`repro.telephony.uplink.UplinkProfile.signature`).  A sweep grid
is rarely homogeneous as a whole, but its conditions usually are: the
parameters being swept (RSS, speed, cell load, seeds, target buffers)
are exactly the ones a cohort may vary per session.

:func:`run_cohorts` is the bridge.  :func:`plan_cohorts` groups a flat
config list by lockstep signature and duration and cuts each group into
at most one contiguous cohort per worker (the
:func:`repro.experiments.parallel.balanced_cuts` that ``fleet --batch``
uses for its cell blocks), never below the scalar crossover
(:data:`DEFAULT_SCALAR_CROSSOVER`) unless the group itself is that
small, so whether a session runs batched or scalar depends on its group
alone, never on the worker count.  Each cohort is a
:class:`repro.experiments.parallel.CohortTask` in the shared
:func:`repro.experiments.parallel.run_tasks` pool, and results come
back **in input order**.  With one worker a sweep of one signature is
one cohort: every session shares one tick loop, which pays each tick's
fixed numpy dispatch once.

Per-session RNG streams make the plan invisible in the results: any cut
gives byte-identical sessions.  Configs the lockstep grid cannot
express (scheme/transport labels other than
:data:`repro.telephony.uplink.LOCKSTEP_MODEL`, non-LTE access, explicit
competitor UEs, the sweet-spot learner, off-grid cadences) are reported
by :func:`repro.telephony.uplink.batch_unsupported_reason`;
:func:`run_cohorts` raises on them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SessionConfig
from repro.experiments.parallel import (
    CohortTask,
    ProgressCallback,
    balanced_cuts,
    per_item_progress,
    resolve_jobs,
    run_tasks,
)
from repro.obs.meter import SessionMeter
from repro.telephony.session import SessionResult
from repro.telephony.uplink import UplinkProfile, batch_unsupported_reason


#: Cohort size below which the scalar lockstep engine beats the batched
#: one.  Against the integer-tick scalar engine, batched speedups
#: measure about 0.35× at cohort 8, 0.87× at 32 and 1.44× at 64 (the
#: per-tick array dispatch overhead dominates until enough sessions
#: amortise it); log-interpolating 32 and 64 puts break-even at 34-41
#: over five runs, median 38.  Cohorts below it run each session through
#: the scalar engine; the engines are bit-identical, so this changes
#: wall clock only.
DEFAULT_SCALAR_CROSSOVER = 38


def plan_cohorts(
    configs: Sequence[SessionConfig],
    jobs: Optional[int] = None,
    min_cohort: int = DEFAULT_SCALAR_CROSSOVER,
) -> List[List[int]]:
    """Group config positions into lockstep cohorts, one per worker.

    Returns lists of indices into ``configs``; every index appears in
    exactly one cohort and each cohort is signature-homogeneous (same
    tick cadences and duration).  Each group is cut into at most
    ``resolve_jobs(jobs)`` contiguous cohorts balanced by session count,
    none smaller than ``min_cohort`` unless the group itself is.  Input
    order is preserved inside each cohort, so seeds and RNG streams are
    untouched by the cut.
    """
    groups: Dict[Tuple, List[int]] = {}
    for position, config in enumerate(configs):
        key = (UplinkProfile.from_config(config).signature(), config.duration)
        groups.setdefault(key, []).append(position)
    workers = resolve_jobs(jobs)
    cohorts: List[List[int]] = []
    for indices in groups.values():
        blocks = min(workers, max(1, len(indices) // max(1, min_cohort)))
        for start, stop in balanced_cuts([1] * len(indices), blocks):
            cohorts.append(indices[start:stop])
    return cohorts


def run_cohorts(
    configs: Sequence[SessionConfig],
    warmup: float = 0.0,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    heartbeat_path: Optional[str] = None,
) -> Tuple[List[SessionResult], SessionMeter]:
    """Run every config as lockstep cohorts; results in input order.

    One :class:`~repro.experiments.parallel.CohortTask` per
    :func:`plan_cohorts` cohort runs through ``run_tasks(planned=True)``,
    so a plan of several cohorts runs on ``min(jobs, cohorts)``
    processes; cohorts below :data:`DEFAULT_SCALAR_CROSSOVER` run on
    the scalar engine.  Returns ``(results, meter)``: the meter folds
    every cohort's ``batch.*`` counters (plan-independent) and
    ``batch.run`` spans in cohort order, plus the plan's cohort count as
    the ``batch.cohorts`` gauge (like ``fleet.workers``, it depends on
    ``jobs`` and stays out of deterministic snapshots).  ``progress`` is
    called per finished cohort as ``progress(sessions_done, sessions,
    CohortOutcome)`` — :meth:`repro.obs.ledger.RunLedger.progress` plugs
    in directly — and ``heartbeat_path`` streams in-worker cohort
    records into a run ledger's heartbeat file.  Raises ``ValueError``
    on a config the lockstep grid cannot express.
    """
    configs = list(configs)
    for position, config in enumerate(configs):
        reason = batch_unsupported_reason(config)
        if reason is not None:
            raise ValueError(f"config {position} cannot run in lockstep: {reason}")
    cohorts = plan_cohorts(configs, jobs, DEFAULT_SCALAR_CROSSOVER)
    tasks = [
        CohortTask(
            configs=tuple(configs[i] for i in cohort),
            warmup=warmup,
            scalar=len(cohort) < DEFAULT_SCALAR_CROSSOVER,
            heartbeat_path=heartbeat_path,
            label=label,
        )
        for label, cohort in enumerate(cohorts)
    ]
    outcomes = run_tasks(
        tasks,
        jobs=jobs,
        progress=per_item_progress(progress, [len(c) for c in cohorts]),
        planned=True,
    )
    results: List[Optional[SessionResult]] = [None] * len(configs)
    meter = SessionMeter()
    for cohort, outcome in zip(cohorts, outcomes):
        meter.merge(outcome.meter)
        for position, result in zip(cohort, outcome.results):
            results[position] = result
    meter.set_gauge("batch.cohorts", float(len(cohorts)))
    return results, meter
