"""The metric catalogue and fixed-bucket histogram state.

Where the trace bus (``repro.obs.bus``) records *individual* events for
one session, the meter (``repro.obs.meter``) aggregates: counters,
gauges, fixed-bucket histograms and wall-clock spans, every name keyed
by the typed :data:`METRIC_CATALOGUE` — the same single-source-of-truth
pattern as ``EVENT_CATALOGUE``.  Docs, exporters and the
``tools/check_metrics.py`` drift gate all read this one table.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple


class MetricSpec(NamedTuple):
    """Catalogue entry for one metric name."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram" | "span"
    subsystem: str
    unit: str
    site: str
    description: str
    #: Upper bucket bounds (histograms only); an implicit +Inf bucket
    #: always follows the last bound.
    buckets: Tuple[float, ...] = ()


#: The four kinds the meter understands; a span is wall-clock stage
#: timing, kept out of simulation state and deterministic snapshots.
METRIC_KINDS = ("counter", "gauge", "histogram", "span")

_SPECS = (
    # ------------------------------------------------------------- session
    MetricSpec(
        "session.runs", "counter", "session", "",
        "repro.telephony.session.TelephonySession.run",
        "Sessions run to completion.",
    ),
    # -------------------------------------------------------------- engine
    MetricSpec(
        "sim.runs", "counter", "engine", "",
        "repro.sim.engine.Simulation.run",
        "Event-loop drains (one per Simulation.run call).",
    ),
    MetricSpec(
        "sim.events", "counter", "engine", "",
        "repro.sim.engine.Simulation.run",
        "Events dispatched by the simulation loop.",
    ),
    # ----------------------------------------------------------------- lte
    MetricSpec(
        "lte.subframes", "counter", "lte", "",
        "repro.telephony.session.TelephonySession._finish",
        "Active (non-idle-skipped) 1 ms uplink subframes processed.",
    ),
    MetricSpec(
        "lte.drops", "counter", "lte", "",
        "repro.lte.ue.UeUplink.send",
        "RTP packets the modem dropped at firmware-buffer capacity.",
    ),
    MetricSpec(
        "lte.diag_batches", "counter", "lte", "",
        "repro.lte.diagnostics.DiagMonitor._deliver",
        "40 ms diagnostic batches delivered to subscribers.",
    ),
    MetricSpec(
        "lte.cqi", "histogram", "lte", "",
        "repro.lte.ue.UeUplink._channel_update",
        "Distribution of the 50 Hz channel-quality indicator.",
        buckets=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 15.0),
    ),
    # ---------------------------------------------------------------- fbcc
    MetricSpec(
        "fbcc.ticks", "counter", "fbcc", "",
        "repro.rate_control.fbcc.controller.FbccTransport.on_diag",
        "Diagnostic batches consumed by the FBCC controller (25 Hz).",
    ),
    MetricSpec(
        "fbcc.congestion_events", "counter", "fbcc", "",
        "repro.rate_control.fbcc.controller.FbccTransport.on_diag",
        "Eq. (3) uplink-congestion detections.",
    ),
    MetricSpec(
        "fbcc.video_rate_mbps", "histogram", "fbcc", "Mbps",
        "repro.rate_control.fbcc.controller.FbccTransport.on_diag",
        "Distribution of the Eq. (6) encoding rate Rv, sampled per tick.",
        buckets=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0),
    ),
    # ----------------------------------------------------------------- gcc
    MetricSpec(
        "gcc.updates", "counter", "gcc", "",
        "repro.rate_control.gcc.controller.GccSenderControl.on_feedback",
        "REMB / receiver-report rate updates processed by the GCC sender.",
    ),
    # --------------------------------------------------------- compression
    MetricSpec(
        "compression.mode_switches", "counter", "compression", "",
        "repro.compression.poi360.AdaptiveCompression._note_switch",
        "Effective compression-mode changes (Eq. 1-2 feedback or rate cap).",
    ),
    MetricSpec(
        "compression.desired_index", "histogram", "compression", "",
        "repro.compression.poi360.AdaptiveCompression.update_mismatch",
        "Distribution of the M-selected desired mode index (0 = crop).",
        buckets=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
    ),
    # ----------------------------------------------------------- telephony
    MetricSpec(
        "sender.frames", "counter", "telephony", "",
        "repro.telephony.sender.PanoramicSender._on_capture",
        "Frames captured, compressed and encoded by the sender.",
    ),
    MetricSpec(
        "sender.frame_kbits", "histogram", "telephony", "kbit",
        "repro.telephony.sender.PanoramicSender._on_capture",
        "Distribution of encoded frame sizes.",
        buckets=(10.0, 25.0, 50.0, 100.0, 150.0, 200.0, 300.0, 500.0),
    ),
    MetricSpec(
        "receiver.frames", "counter", "telephony", "",
        "repro.telephony.receiver.PanoramicReceiver._display",
        "Frames displayed by the viewer.",
    ),
    MetricSpec(
        "receiver.freezes", "counter", "telephony", "",
        "repro.telephony.receiver.PanoramicReceiver._display",
        "Displayed frames whose delay exceeded the freeze threshold.",
    ),
    MetricSpec(
        "receiver.nacks", "counter", "telephony", "",
        "repro.telephony.receiver.PanoramicReceiver._send_nack",
        "NACK messages sent by the viewer.",
    ),
    MetricSpec(
        "receiver.delay_s", "histogram", "telephony", "s",
        "repro.telephony.receiver.PanoramicReceiver._display",
        "Distribution of capture-to-display frame delay.",
        buckets=(0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0),
    ),
    MetricSpec(
        "receiver.psnr_db", "histogram", "telephony", "dB",
        "repro.telephony.receiver.PanoramicReceiver._replay",
        "Distribution of ROI-region PSNR per displayed frame.",
        buckets=(24.0, 28.0, 30.0, 32.0, 34.0, 36.0, 38.0, 40.0, 44.0),
    ),
    MetricSpec(
        "receiver.mismatch_s", "histogram", "telephony", "s",
        "repro.telephony.receiver.PanoramicReceiver._display",
        "Distribution of the Eq. (2) per-frame mismatch time M.",
        buckets=(0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
    ),
    # --------------------------------------------------------------- cache
    MetricSpec(
        "cache.entry_hits", "counter", "cache", "",
        "repro.experiments.cache.load",
        "Persistent-cache condition entries served from disk.",
    ),
    MetricSpec(
        "cache.entry_misses", "counter", "cache", "",
        "repro.experiments.cache.load",
        "Persistent-cache lookups that had to simulate.",
    ),
    MetricSpec(
        "cache.session_hits", "counter", "cache", "",
        "repro.experiments.cache.load",
        "Individual session results served from the persistent cache.",
    ),
    MetricSpec(
        "cache.sessions_stored", "counter", "cache", "",
        "repro.experiments.cache.store",
        "Individual session results persisted after a miss.",
    ),
    # --------------------------------------------------------------- fleet
    MetricSpec(
        "fleet.sessions", "counter", "fleet", "",
        "repro.experiments.parallel.merged_meter",
        "Per-session registries merged into this fleet registry.",
    ),
    MetricSpec(
        "fleet.workers", "gauge", "fleet", "",
        "repro.experiments.parallel.merged_meter",
        "Worker processes the merged sweep fanned across.",
    ),
    MetricSpec(
        "fleet.straggler_s", "gauge", "fleet", "s",
        "repro.experiments.parallel.merged_meter",
        "Wall-clock seconds of the slowest merged session.",
    ),
    MetricSpec(
        "fleet.straggler_index", "gauge", "fleet", "",
        "repro.experiments.parallel.merged_meter",
        "Task-order index of the slowest merged session.",
    ),
    MetricSpec(
        "fleet.cells", "counter", "fleet", "",
        "repro.telephony.fleet.cell_result",
        "Shared-cell sessions run to completion.",
    ),
    MetricSpec(
        "fleet.cell_members", "histogram", "fleet", "",
        "repro.telephony.fleet.cell_result",
        "Distribution of POI360 callers per shared cell.",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    ),
    MetricSpec(
        "fleet.cell_jain", "histogram", "fleet", "",
        "repro.telephony.fleet.cell_result",
        "Jain fairness of post-warmup uplink grant bytes across a "
        "cell's members.",
        buckets=(0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0),
    ),
    MetricSpec(
        "fleet.member_mos", "histogram", "fleet", "",
        "repro.telephony.fleet.cell_result",
        "Distribution of the per-caller expected MOS (Table 1 bands "
        "scored 1-5).",
        buckets=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
    ),
    MetricSpec(
        "fleet.member_rate_mbps", "histogram", "fleet", "Mbps",
        "repro.telephony.fleet.cell_result",
        "Distribution of per-caller mean received throughput.",
        buckets=(0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0),
    ),
    MetricSpec(
        "fleet.cell_prb_exhausted", "counter", "fleet", "",
        "repro.sim.batch.BatchedSimulation._subframe",
        "Subframes a batched cell ended with its PRB budget exhausted "
        "(fewer than one grantable PRB left).",
    ),
    # --------------------------------------------------------------- batch
    MetricSpec(
        "batch.cohorts", "gauge", "batch", "",
        "repro.experiments.batch.run_cohorts",
        "Cohorts the lockstep sweep was planned into (batched and scalar); "
        "depends on the worker count, like fleet.workers.",
    ),
    MetricSpec(
        "batch.sessions", "counter", "batch", "",
        "repro.sim.batch.BatchedSimulation.run / repro.sim.batch.run_batched_cells",
        "Sessions advanced by the batched lockstep engines (the same "
        "for any plan: groups below the crossover always run scalar).",
    ),
    MetricSpec(
        "batch.subframes", "counter", "batch", "",
        "repro.sim.batch.BatchedSimulation.run / repro.sim.batch.run_batched_cells",
        "Session-subframes ticked by the batched engines "
        "(sessions x 1 ms grid ticks).",
    ),
    MetricSpec(
        "batch.scalar_fallbacks", "counter", "batch", "",
        "repro.experiments.parallel.CohortTask.run",
        "Sessions of signature groups smaller than the batching "
        "crossover, run on the scalar engine.",
    ),
    # ------------------------------------------------------------- service
    MetricSpec(
        "service.jobs_submitted", "counter", "service", "",
        "repro.service.jobs.JobRegistry.submit",
        "Job records created by the service (fresh runs and instant "
        "cache-hit completions).",
    ),
    MetricSpec(
        "service.jobs_deduped", "counter", "service", "",
        "repro.service.jobs.JobRegistry.submit",
        "Submissions attached to an already queued or running job with "
        "the same content-addressed key.",
    ),
    MetricSpec(
        "service.jobs_cache_hits", "counter", "service", "",
        "repro.service.jobs.JobRegistry.submit",
        "Jobs completed instantly from the content-addressed payload "
        "cache (identical spec, identical code salt).",
    ),
    MetricSpec(
        "service.jobs_completed", "counter", "service", "",
        "repro.service.jobs.JobRegistry._run_job",
        "Jobs run to a sealed ok ledger by a worker thread.",
    ),
    MetricSpec(
        "service.jobs_failed", "counter", "service", "",
        "repro.service.jobs.JobRegistry._run_job",
        "Jobs whose execution raised (ledger sealed with status error).",
    ),
    MetricSpec(
        "service.jobs_cancelled", "counter", "service", "",
        "repro.service.jobs.JobRegistry._run_job",
        "Jobs cancelled before or during execution.",
    ),
    MetricSpec(
        "service.requests", "counter", "service", "",
        "repro.service.server.ServiceHandler",
        "HTTP requests served by the job-queue server.",
    ),
    MetricSpec(
        "service.runs_gc_removed", "counter", "service", "",
        "repro.service.jobs.JobRegistry.gc",
        "Sealed run directories pruned by the service's artifact GC.",
    ),
    MetricSpec(
        "service.queue_wait_s", "histogram", "service", "s",
        "repro.service.jobs.JobRegistry._run_job",
        "Distribution of submit-to-start queue wait per executed job.",
        buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0),
    ),
    MetricSpec(
        "service.jobs_queued", "gauge", "service", "",
        "repro.service.jobs.JobRegistry.service_registry",
        "Jobs waiting in the queue at scrape time.",
    ),
    MetricSpec(
        "service.jobs_running", "gauge", "service", "",
        "repro.service.jobs.JobRegistry.service_registry",
        "Jobs executing on worker threads at scrape time.",
    ),
    MetricSpec(
        "service.uptime_s", "gauge", "service", "s",
        "repro.service.jobs.JobRegistry.service_registry",
        "Wall-clock seconds since the job registry was created.",
    ),
    # --------------------------------------------------------------- spans
    MetricSpec(
        "session.run", "span", "session", "s",
        "repro.telephony.session.TelephonySession.run",
        "One whole session run (wall clock; drives straggler reporting).",
    ),
    MetricSpec(
        "sender.encode", "span", "telephony", "s",
        "repro.telephony.sender.PanoramicSender._on_capture",
        "Compress + encode + packetise one captured frame.",
    ),
    MetricSpec(
        "rate_control.tick", "span", "rate_control", "s",
        "repro.rate_control.fbcc.controller.FbccTransport.on_diag / "
        "repro.rate_control.gcc.controller.GccSenderControl.on_feedback",
        "One rate-control decision: an FBCC diag tick or a GCC "
        "REMB/receiver-report update.",
    ),
    MetricSpec(
        "receiver.display", "span", "telephony", "s",
        "repro.telephony.receiver.PanoramicReceiver._display",
        "Render + measure one displayed frame (PSNR, mismatch, delay).",
    ),
    MetricSpec(
        "fleet.cell_run", "span", "fleet", "s",
        "repro.telephony.fleet.CellSession.run",
        "One whole shared-cell run: every member session, one clock.",
    ),
    MetricSpec(
        "batch.run", "span", "batch", "s",
        "repro.sim.batch.BatchedSimulation.run",
        "One batched lockstep cohort: every session, one 1 ms grid.",
    ),
    MetricSpec(
        "batch.cell_run", "span", "batch", "s",
        "repro.sim.batch.BatchedSimulation.run",
        "One batched cell block: C cells x N members, one 1 ms grid.",
    ),
)

#: Name → spec for every metric the stack can record.
METRIC_CATALOGUE: Dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}

#: Stable ordering for docs and exporters.
METRIC_NAMES: Tuple[str, ...] = tuple(spec.name for spec in _SPECS)


class Histogram:
    """Fixed-bucket histogram state (non-cumulative per-bucket counts).

    ``buckets`` are upper bounds; ``counts`` has one slot per bound plus
    a trailing overflow (+Inf) slot.  ``sum``/``count`` keep exact
    totals so the mean survives any bucketing.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # le-semantics: the first bucket whose bound >= value.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Counts as OpenMetrics cumulative le-buckets (incl. +Inf)."""
        out: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets "
                f"({self.buckets} vs {other.buckets})"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.sum += other.sum
        self.count += other.count

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def catalogue_names(kinds: Optional[Iterable[str]] = None) -> Tuple[str, ...]:
    """Catalogue metric names, optionally filtered by kind."""
    if kinds is None:
        return METRIC_NAMES
    wanted = set(kinds)
    return tuple(
        name for name in METRIC_NAMES if METRIC_CATALOGUE[name].kind in wanted
    )
