"""The meter: one catalogue-checked registry per session (or fleet).

A :class:`SessionMeter` holds counters, gauges, fixed-bucket histograms
and wall-clock span statistics, every name checked against the one
``METRIC_CATALOGUE`` (``repro.obs.metrics``) on first use — a typo'd
``inc`` raises instead of silently creating a new series, which is what
keeps docs, exporters and the ``tools/check_metrics.py`` drift gate
honest.

Components hold a single ``meter`` collaborator, and off is ``None`` —
the same convention as the trace bus — so hot call sites guard with one
identity test and make no call when metering is off::

    if self._meter is not None:
        self._meter.inc("receiver.frames")

Span-timed methods bracket their body with a begin/end pair (one
identity test at each end)::

    meter = self._meter
    t0 = meter.span_start() if meter is not None else 0.0
    ...  # stage body
    if meter is not None:
        meter.span_end("receiver.display", t0)

Determinism contract: a meter only ever *reads* component state and
writes into its own dictionaries.  It never touches an RNG stream,
never schedules simulation events, and never feeds anything back into
the simulation, so a metered session is byte-identical to a plain one
(asserted down to per-stream RNG bit-generator states in
``tests/test_obs.py``).  Counter, gauge and histogram values are pure
functions of the simulation, hence bit-identical across serial/parallel
runs; only spans read :func:`time.perf_counter`, and that wall clock
never enters simulation state or deterministic snapshots.

A meter is plain data (dicts and floats), so it pickles cleanly inside
a :class:`repro.telephony.session.SessionResult`, and per-worker meters
from a parallel sweep merge into one fleet meter with exact totals
(``repro.experiments.parallel.merged_meter``).

>>> meter = SessionMeter()
>>> meter.inc("receiver.frames")
>>> meter.inc("receiver.frames", 2)
>>> meter.counters["receiver.frames"]
3.0
>>> meter.observe("receiver.delay_s", 0.18)
>>> meter.histogram("receiver.delay_s").count
1
>>> meter.span_end("session.run", meter.span_start())
>>> meter.spans["session.run"].count
1
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from repro.obs.metrics import METRIC_CATALOGUE, Histogram, MetricSpec, catalogue_names

#: Span name → catalogue position: spans export in catalogue order.
_SPAN_RANK = {name: rank for rank, name in enumerate(catalogue_names(["span"]))}


def _spec_of(name: str, kind: str) -> MetricSpec:
    spec = METRIC_CATALOGUE.get(name)
    if spec is None:
        raise KeyError(
            f"unknown metric {name!r}: not in METRIC_CATALOGUE "
            f"(repro.obs.metrics)"
        )
    if spec.kind != kind:
        raise ValueError(f"metric {name!r} is a {spec.kind}, not a {kind}")
    return spec


class SpanStats:
    """Accumulated wall-clock statistics of one span name."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def record(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total_s += other.total_s
        if other.min_s < self.min_s:
            self.min_s = other.min_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class SessionMeter:
    """Catalogue-checked counters, gauges, histograms and spans."""

    def __init__(self):
        #: Exact counter totals, name → value.
        self.counters: Dict[str, float] = {}
        #: Last-written gauge values, name → value.
        self.gauges: Dict[str, float] = {}
        #: Name → fixed-bucket histogram state.
        self.histograms: Dict[str, Histogram] = {}
        #: Name → accumulated wall-clock span statistics.
        self.spans: Dict[str, SpanStats] = {}

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a catalogue counter."""
        counters = self.counters
        if name not in counters:
            _spec_of(name, "counter")
            counters[name] = 0.0
        counters[name] += amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set a catalogue gauge to ``value`` (last write wins on merge)."""
        if name not in self.gauges:
            _spec_of(name, "gauge")
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a catalogue histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(_spec_of(name, "histogram").buckets)
            self.histograms[name] = hist
        hist.observe(value)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram's state, or None if never observed."""
        return self.histograms.get(name)

    def span_start(self) -> float:
        """Wall-clock anchor for a begin/end span pair."""
        return perf_counter()

    def span_end(self, name: str, t0: float) -> None:
        """Record ``now - t0`` into a catalogue span."""
        elapsed_s = perf_counter() - t0
        stats = self.spans.get(name)
        if stats is None:
            _spec_of(name, "span")
            stats = self.spans[name] = SpanStats()
        stats.record(elapsed_s)

    def merge(self, other: "SessionMeter") -> None:
        """Fold another meter (e.g. one worker's) into this one: counters,
        buckets and spans accumulate, gauges overwrite."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            self.histograms.setdefault(name, Histogram(hist.buckets)).merge(hist)
        for name, stats in other.spans.items():
            self.spans.setdefault(name, SpanStats()).merge(stats)

    def counters_by_subsystem(self) -> Dict[str, Dict[str, float]]:
        """Counter table grouped by the catalogue's subsystem labels."""
        grouped: Dict[str, Dict[str, float]] = {}
        for name, value in sorted(self.counters.items()):
            spec = METRIC_CATALOGUE.get(name)
            subsystem = spec.subsystem if spec else "other"
            grouped.setdefault(subsystem, {})[name] = value
        return grouped

    def as_dict(self) -> dict:
        """JSON-safe snapshot; spans in catalogue order, then extras."""
        spans = sorted(
            self.spans, key=lambda name: (_SPAN_RANK.get(name, len(_SPAN_RANK)), name)
        )
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.as_dict() for name, hist in sorted(self.histograms.items())
            },
            "spans": {name: self.spans[name].as_dict() for name in spans},
        }
