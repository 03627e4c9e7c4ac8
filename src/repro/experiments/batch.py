"""Lockstep-cohort execution of experiment sweeps.

The batched engine (:mod:`repro.sim.batch`) advances a *homogeneous*
cohort of sessions on the shared 1 ms grid — homogeneous meaning every
session shares the same tick cadences (channel/cell/diag/frame/encode/
pacer intervals, BSR depth, …; see
:meth:`repro.telephony.uplink.UplinkProfile.signature`).  A sweep grid
is rarely homogeneous as a whole, but its conditions usually are: the
parameters being swept (RSS, speed, cell load, seeds, target buffers)
are exactly the ones a cohort may vary per session.

:class:`BatchRunner` is the bridge.  :func:`plan_cohorts` groups a flat
config list by lockstep signature and duration, then cuts each group
into at most one contiguous cohort per worker, balanced by session
count (:func:`repro.experiments.parallel.balanced_cuts`, the same cut
``fleet --batch`` uses for its cell blocks).  A group is never cut into
cohorts smaller than the scalar crossover
(:data:`DEFAULT_SCALAR_CROSSOVER`) unless the group itself is that
small, so whether a session runs batched or scalar depends on its group
alone, never on the worker count.  Each cohort runs through
:func:`repro.sim.batch.run_batched` (or, below the crossover, the
scalar lockstep engine), and results come back **in input order**.
With one worker a sweep of one signature is one cohort: every session
shares one tick loop, which pays each tick's fixed numpy dispatch once.
Cohorts are the unit of process-pool fan-out, so the runner composes
with the pool (:mod:`repro.experiments.parallel`).

Per-session RNG streams make the plan invisible in the results: any cut
gives byte-identical sessions.  Configs the lockstep grid cannot
express (scheme/transport labels other than
:data:`repro.telephony.uplink.LOCKSTEP_MODEL`, non-LTE access, explicit
competitor UEs, the sweet-spot learner, off-grid cadences) are reported
by :func:`repro.telephony.uplink.batch_unsupported_reason`; the runner
raises on them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SessionConfig
from repro.experiments.parallel import balanced_cuts, resolve_jobs
from repro.telephony.session import SessionResult
from repro.telephony.uplink import UplinkProfile, batch_unsupported_reason


#: Cohort size below which the scalar lockstep engine beats the batched
#: one.  Against the integer-tick scalar engine, batched speedups
#: measure about 0.35× at cohort 8, 0.87× at 32 and 1.44× at 64 (the
#: per-tick array dispatch overhead dominates until enough sessions
#: amortise it); log-interpolating 32 and 64 puts break-even at 34-41
#: over five runs, median 38.
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


def _run_cohort(payload):
    """Worker entry point: run one cohort (pickles across processes).

    ``payload`` is ``(mode, configs, warmup, metered, heartbeat_path,
    label)`` — ``"batched"`` advances the cohort through
    :func:`repro.sim.batch.run_batched`, ``"scalar"`` runs each session
    through the scalar lockstep reference (the small-cohort fast path;
    bit-identical results either way).  Returns ``(results, meter)``;
    ``meter`` is the cohort's engine :class:`~repro.obs.SessionMeter`
    (or None when unmetered) and pickles back to the parent.  When
    ``heartbeat_path`` is set the cohort streams progress records into
    that run-ledger file from inside the tick loop
    (:func:`repro.obs.ledger.cohort_heartbeat_callback`).
    """
    mode, configs, warmup, metered, heartbeat_path, label = payload
    progress = None
    if heartbeat_path is not None:
        from repro.obs.ledger import cohort_heartbeat_callback

        progress = cohort_heartbeat_callback(heartbeat_path, label=label)
    if mode == "scalar":
        from repro.telephony.uplink import run_uplink_session

        meter = None
        if metered:
            from repro.obs.meter import SessionMeter

            meter = SessionMeter()
            meter.inc("batch.scalar_fallbacks", float(len(configs)))
        results = []
        for index, config in enumerate(configs):
            results.append(run_uplink_session(config, warmup=warmup))
            if progress is not None:
                # Scalar cohorts have no shared tick loop; report whole
                # sessions instead (tick stays monotone per stream).
                progress(index + 1, len(configs), len(configs))
        return results, meter
    from repro.sim.batch import run_batched

    meter = None
    if metered:
        from repro.obs.meter import SessionMeter

        meter = SessionMeter()
    results = run_batched(configs, warmup=warmup, meter=meter, progress=progress)
    return results, meter


class CohortOutcome:
    """One finished cohort, as handed to a ``progress`` callback.

    Shaped like a result object (a ``meter`` attribute plus the result
    list) so :meth:`repro.obs.ledger.RunLedger.progress` can absorb the
    cohort's engine meter into the live registry as each cohort lands.
    """

    __slots__ = ("results", "meter")

    def __init__(self, results: List[SessionResult], meter):
        self.results = results
        self.meter = meter


class BatchRunner:
    """Run a sweep's sessions as lockstep cohorts, optionally pooled.

    Parameters
    ----------
    jobs:
        Process-pool width, resolved exactly like
        :func:`repro.experiments.parallel.resolve_jobs`.  It also sets
        the plan: each signature group becomes at most ``jobs`` cohorts
        (:func:`plan_cohorts`), so one worker advances a whole group in
        one tick loop.  A plan of several cohorts runs on a pool of
        ``min(jobs, cohorts)`` processes, even on one core, so the
        runner uses exactly the workers the plan was cut for; with one
        worker or one cohort it stays serial.
    scalar_crossover:
        Cohorts smaller than this run each session through the *scalar*
        lockstep engine instead of the batched one — below the measured
        break-even (~38 sessions, see :data:`DEFAULT_SCALAR_CROSSOVER`)
        the array dispatch overhead makes batching a slowdown.  The plan
        never cuts a group below it, so only groups that small run
        scalar.  The two engines are bit-identical, so this changes wall
        clock only.  Pass ``0`` to always batch.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        scalar_crossover: int = DEFAULT_SCALAR_CROSSOVER,
    ):
        self.jobs = jobs
        self.scalar_crossover = scalar_crossover

    def run(
        self, configs: Sequence[SessionConfig], warmup: float = 0.0
    ) -> List[SessionResult]:
        """Run every config; results come back in input order."""
        results, _ = self._execute(configs, warmup, metered=False)
        return results

    def run_metered(
        self,
        configs: Sequence[SessionConfig],
        warmup: float = 0.0,
        progress=None,
        heartbeat_path=None,
    ):
        """Like :meth:`run`, plus a merged cohort-level engine meter.

        Returns ``(results, meter)``: results in input order and one
        :class:`~repro.obs.SessionMeter` folding every cohort's engine
        counters (``batch.sessions``/``batch.subframes``/
        ``batch.scalar_fallbacks``, which do not depend on the plan) and
        ``batch.run`` spans, merged in deterministic cohort order, plus
        the plan's cohort count as the ``batch.cohorts`` gauge (like
        ``fleet.workers``, it depends on ``jobs`` and so stays out of
        deterministic snapshots).  ``progress`` is
        called per finished cohort as ``progress(done, total,
        CohortOutcome)`` — :meth:`repro.obs.ledger.RunLedger.progress`
        plugs in directly — and ``heartbeat_path`` streams in-worker
        cohort records into a run ledger's heartbeat file.  Metering is
        strictly read-only: results are byte-identical to :meth:`run`.
        """
        from repro.obs.meter import SessionMeter

        results, meters = self._execute(
            configs,
            warmup,
            metered=True,
            progress=progress,
            heartbeat_path=heartbeat_path,
        )
        merged = SessionMeter()
        for meter in meters:
            merged.merge(meter)
        merged.set_gauge("batch.cohorts", float(len(meters)))
        return results, merged

    def _execute(
        self,
        configs: Sequence[SessionConfig],
        warmup: float,
        metered: bool,
        progress=None,
        heartbeat_path=None,
    ):
        configs = list(configs)
        for position, config in enumerate(configs):
            reason = batch_unsupported_reason(config)
            if reason is not None:
                raise ValueError(
                    f"config {position} cannot run in lockstep: {reason}"
                )
        cohorts = plan_cohorts(configs, self.jobs, self.scalar_crossover)
        heartbeat = None if heartbeat_path is None else str(heartbeat_path)
        payloads = [
            (
                "scalar" if len(cohort) < self.scalar_crossover else "batched",
                [configs[i] for i in cohort],
                warmup,
                metered,
                heartbeat,
                label,
            )
            for label, cohort in enumerate(cohorts)
        ]
        results: List[Optional[SessionResult]] = [None] * len(configs)
        meters = []
        # The plan already sized its cohorts for this many workers, so
        # any multi-cohort plan runs pooled: running its cohorts one
        # after another would only add tick loops.
        workers = min(resolve_jobs(self.jobs), len(payloads))
        serial = workers <= 1
        if serial:
            outcomes = map(_run_cohort, payloads)
        else:
            pool = ProcessPoolExecutor(max_workers=workers)
            outcomes = pool.map(_run_cohort, payloads)
        cohort_results = []
        for done, (batch, meter) in enumerate(outcomes, start=1):
            cohort_results.append(batch)
            meters.append(meter)
            if progress is not None:
                progress(done, len(payloads), CohortOutcome(batch, meter))
        if not serial:
            pool.shutdown()
        for cohort, batch in zip(cohorts, cohort_results):
            for position, result in zip(cohort, batch):
                results[position] = result
        return results, meters

