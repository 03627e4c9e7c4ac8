"""Lockstep-cohort execution of experiment sweeps.

The batched engine (:mod:`repro.sim.batch`) advances a *homogeneous*
cohort of sessions on the shared 1 ms grid — homogeneous meaning every
session shares the same tick cadences (channel/cell/diag/frame/encode/
pacer intervals, BSR depth, …; see
:meth:`repro.telephony.uplink.UplinkProfile.signature`).  A sweep grid
is rarely homogeneous as a whole, but its conditions usually are: the
parameters being swept (RSS, speed, cell load, seeds, target buffers)
are exactly the ones a cohort may vary per session.

:class:`BatchRunner` is the bridge: it groups a flat config list by
lockstep signature, slices each group into cohorts of at most
``max_cohort`` sessions, runs each cohort through
:func:`repro.sim.batch.run_batched`, and returns results **in input
order**.  Cohorts — not sessions — are the unit of process-pool
fan-out, so the runner *composes with* the existing pool
(:mod:`repro.experiments.parallel`): workers each advance a whole
cohort in lockstep, multiplying the two speedups.

Configs the lockstep grid cannot express (scheme/transport labels
other than :data:`repro.telephony.uplink.LOCKSTEP_MODEL`, non-LTE
access, explicit competitor UEs, the sweet-spot learner, off-grid
cadences) are reported by
:func:`repro.telephony.uplink.batch_unsupported_reason`; the runner
raises on them.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SessionConfig
from repro.experiments.parallel import resolve_jobs
from repro.telephony.session import SessionResult
from repro.telephony.uplink import UplinkProfile, batch_unsupported_reason


def plan_cohorts(
    configs: Sequence[SessionConfig], max_cohort: int = 64
) -> List[List[int]]:
    """Group config positions into lockstep cohorts.

    Returns lists of indices into ``configs``; every index appears in
    exactly one cohort, each cohort is signature-homogeneous (same tick
    cadences and duration) and at most ``max_cohort`` long.  Input
    order is preserved inside each cohort, so seeds and RNG streams are
    untouched by the slicing.
    """
    if max_cohort < 1:
        raise ValueError("max_cohort must be >= 1")
    groups: Dict[Tuple, List[int]] = {}
    for position, config in enumerate(configs):
        key = (UplinkProfile.from_config(config).signature(), config.duration)
        groups.setdefault(key, []).append(position)
    cohorts: List[List[int]] = []
    for indices in groups.values():
        for start in range(0, len(indices), max_cohort):
            cohorts.append(indices[start : start + max_cohort])
    return cohorts


#: Cohort size below which the scalar lockstep engine beats the batched
#: one.  Against the integer-tick scalar engine, batched speedups
#: measure about 0.35× at cohort 8, 0.87× at 32 and 1.44× at 64 (the
#: per-tick array dispatch overhead dominates until enough sessions
#: amortise it); log-interpolating 32 and 64 puts break-even at 34-41
#: over five runs, median 38.
DEFAULT_SCALAR_CROSSOVER = 38


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
    max_cohort:
        Upper bound on sessions advanced together.  Larger cohorts
        amortise the per-tick vector dispatch over more sessions (the
        dominant win); the default suits sweep-sized groups.
    jobs:
        Process-pool width for cohort fan-out, resolved exactly like
        :func:`repro.experiments.parallel.resolve_jobs`.  Cohorts are
        the fan-out unit; with one cohort (or one core) the runner
        stays serial.
    scalar_crossover:
        Cohorts smaller than this run each session through the *scalar*
        lockstep engine instead of the batched one — below the measured
        break-even (~38 sessions, see :data:`DEFAULT_SCALAR_CROSSOVER`)
        the array dispatch overhead makes batching a slowdown.  The two
        engines are bit-identical, so this changes wall clock only.
        Pass ``0`` to always batch.
    """

    def __init__(
        self,
        max_cohort: int = 64,
        jobs: Optional[int] = None,
        scalar_crossover: int = DEFAULT_SCALAR_CROSSOVER,
    ):
        self.max_cohort = max_cohort
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
        counters (``batch.cohorts``/``batch.sessions``/
        ``batch.subframes``/``batch.scalar_fallbacks``) and ``batch.run``
        spans, merged in deterministic cohort order.  ``progress`` is
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
            if meter is not None:
                merged.merge(meter)
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
        cohorts = plan_cohorts(configs, self.max_cohort)
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
        workers = resolve_jobs(self.jobs)
        serial = (
            workers <= 1
            or len(payloads) <= 1
            or (os.cpu_count() or 1) == 1
            or len(payloads) < workers
        )
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


def run_batched_sessions(
    configs: Sequence[SessionConfig],
    warmup: float = 0.0,
    max_cohort: int = 64,
    jobs: Optional[int] = None,
    scalar_crossover: int = DEFAULT_SCALAR_CROSSOVER,
) -> List[SessionResult]:
    """One-call convenience wrapper around :class:`BatchRunner`."""
    return BatchRunner(
        max_cohort=max_cohort, jobs=jobs, scalar_crossover=scalar_crossover
    ).run(configs, warmup)
