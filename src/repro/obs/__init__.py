"""Structured session observability: traces, the meter, run ledgers.

Two catalogue-driven layers share one design (typed spec tuples, off
is ``None``, hot paths guarded by one ``is not None`` test):

* **traces** — :class:`TraceBus` + ``EVENT_CATALOGUE`` (per-event log),
* **the meter** — :class:`SessionMeter` + ``METRIC_CATALOGUE``
  (counters, gauges, fixed-bucket histograms and wall-clock stage
  spans, one registry per session or fleet).

A third layer builds on the meter per *run* instead of per session:
**ledgers** — :class:`RunLedger` (``repro.obs.ledger``) gives a sweep a
run directory with a manifest, a heartbeat JSONL stream and periodic
OpenMetrics snapshots of the live fleet registry.

See ``docs/OBSERVABILITY.md`` for the event/metric/span reference and
worked examples, and ``docs/ARCHITECTURE.md`` for where each subsystem
emits.
"""

from repro.obs.bus import DEFAULT_CAPACITY, TraceBus, TraceEvent
from repro.obs.events import EVENT_CATALOGUE, EVENT_NAMES, EventSpec, subsystem_of
from repro.obs.ledger import (
    DEFAULT_RUN_ROOT,
    HEARTBEAT_KINDS,
    LEDGER_VERSION,
    RUN_DIR_ENV,
    RunLedger,
    cohort_heartbeat_callback,
    latest_snapshot,
    load_registry,
    read_heartbeats,
    read_manifest,
    resolve_run_root,
    snapshot_paths,
)
from repro.obs.meter import SessionMeter, SpanStats
from repro.obs.metrics import (
    METRIC_CATALOGUE,
    METRIC_KINDS,
    METRIC_NAMES,
    Histogram,
    MetricSpec,
    catalogue_names,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "TraceBus",
    "TraceEvent",
    "EVENT_CATALOGUE",
    "EVENT_NAMES",
    "EventSpec",
    "subsystem_of",
    "METRIC_CATALOGUE",
    "METRIC_KINDS",
    "METRIC_NAMES",
    "Histogram",
    "MetricSpec",
    "catalogue_names",
    "SpanStats",
    "SessionMeter",
    "DEFAULT_RUN_ROOT",
    "HEARTBEAT_KINDS",
    "LEDGER_VERSION",
    "RUN_DIR_ENV",
    "RunLedger",
    "cohort_heartbeat_callback",
    "latest_snapshot",
    "load_registry",
    "read_heartbeats",
    "read_manifest",
    "resolve_run_root",
    "snapshot_paths",
]
