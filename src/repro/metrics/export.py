"""Session-trace export/import (JSON, JSONL and CSV).

The paper's measurement system dumps per-frame records for offline
comparison (§5); these helpers do the same for simulated sessions so
results can be analysed outside Python (spreadsheets, gnuplot, R) and
archived alongside EXPERIMENTS.md.

Three families live here:

- the **per-frame log** exporters (``write_json`` / ``write_frames_csv``)
  over :class:`repro.metrics.summary.SessionLog`;
- the **structured event trace** exporters
  (``write_trace_jsonl`` / ``read_trace_jsonl`` / ``write_trace_csv`` /
  ``read_trace_csv`` and the ``dump_trace_*`` handle writers) over a :class:`repro.obs.TraceBus` — one JSON
  object per line with reserved keys ``t`` (simulated time) and
  ``event`` (catalogue name), every other key an event field;
- the **metrics** exporters (``metrics_to_dict`` /
  ``write_metrics_json`` / ``meter_from_dict`` /
  ``metrics_to_openmetrics`` / ``write_metrics_openmetrics`` /
  ``read_openmetrics``) over a :class:`repro.obs.SessionMeter` — JSON
  snapshots for tooling and the OpenMetrics/Prometheus text exposition
  format for scrapers (with a catalogue-driven parser so a ``/metrics``
  scrape round-trips back into a meter), validated by
  ``tools/check_metrics.py``.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.metrics.summary import SessionLog, SessionSummary
from repro.obs.bus import TraceEvent
from repro.obs.metrics import METRIC_CATALOGUE, MetricSpec

PathLike = Union[str, Path]

#: Format version written into every export.
EXPORT_VERSION = 1


def summary_to_dict(summary: SessionSummary) -> dict:
    """Full (JSON-safe) dict of a session summary."""
    return {
        "scheme": summary.scheme,
        "transport": summary.transport,
        "duration_s": summary.duration,
        "delay": {
            "mean_s": summary.delay.mean,
            "median_s": summary.delay.median,
            "p90_s": summary.delay.p90,
            "p99_s": summary.delay.p99,
            "count": summary.delay.count,
        },
        "freeze_ratio": summary.freeze_ratio,
        "quality": {
            "mean_psnr_db": summary.quality.mean_psnr,
            "std_psnr_db": summary.quality.std_psnr,
            "mos_pdf": summary.quality.mos_pdf,
        },
        "stability_level_std_mean": summary.stability_mean,
        "stability_psnr_std_mean": summary.quality_stability_mean,
        "throughput_bps": {
            "mean": summary.throughput.mean,
            "std": summary.throughput.std,
        },
        "mean_mismatch_s": summary.mean_mismatch,
        "frames_displayed": summary.frames_displayed,
        "frames_lost": summary.frames_lost,
        "mode_switches": summary.mode_switches,
        "congestion_events": summary.congestion_events,
        "sent_rate_mean_bps": summary.sent_rate_mean,
    }


def log_to_dict(log: SessionLog) -> dict:
    """JSON-safe dict of the raw per-frame log."""
    return {
        "version": EXPORT_VERSION,
        "start_time_s": log.start_time,
        "frame_delays_s": list(log.frame_delays),
        "roi_psnrs_db": list(log.roi_psnrs),
        "display_times_s": list(log.display_times),
        "roi_levels": [[t, level] for t, level in log.roi_levels],
        "mismatches_s": list(log.mismatches),
        "buffer_levels": [[t, level] for t, level in log.buffer_levels],
        "diag_seconds": [[rate, level] for rate, level in log.diag_seconds],
        "rate_trace": [[t, rv, rrtp] for t, rv, rrtp in log.rate_trace],
        "counters": {
            "frames_sent": log.frames_sent,
            "frames_displayed": log.frames_displayed,
            "frames_lost": log.frames_lost,
            "packets_lost": log.packets_lost,
            "mode_switches": log.mode_switches,
            "congestion_events": log.congestion_events,
            "sent_bits": log.sent_bits,
        },
    }


def log_from_dict(data: dict) -> SessionLog:
    """Rebuild a :class:`SessionLog` from :func:`log_to_dict` output."""
    if data.get("version") != EXPORT_VERSION:
        raise ValueError(f"unsupported export version: {data.get('version')!r}")
    log = SessionLog()
    log.start_time = data["start_time_s"]
    log.frame_delays.extend(data["frame_delays_s"])
    log.roi_psnrs.extend(data["roi_psnrs_db"])
    log.display_times.extend(data["display_times_s"])
    log.roi_levels.extend((t, level) for t, level in data["roi_levels"])
    log.mismatches.extend(data["mismatches_s"])
    log.buffer_levels.extend((t, level) for t, level in data["buffer_levels"])
    log.diag_seconds.extend((rate, level) for rate, level in data["diag_seconds"])
    log.rate_trace.extend(tuple(row) for row in data["rate_trace"])
    counters = data["counters"]
    log.frames_sent = counters["frames_sent"]
    log.frames_displayed = counters["frames_displayed"]
    log.frames_lost = counters["frames_lost"]
    log.packets_lost = counters["packets_lost"]
    log.mode_switches = counters["mode_switches"]
    log.congestion_events = counters["congestion_events"]
    log.sent_bits = counters["sent_bits"]
    return log


def write_json(path: PathLike, log: SessionLog, summary: SessionSummary) -> None:
    """Write one session (raw log + summary) as a JSON file."""
    payload = {"summary": summary_to_dict(summary), "log": log_to_dict(log)}
    Path(path).write_text(json.dumps(payload, indent=1))


def read_json(path: PathLike) -> SessionLog:
    """Load the raw log back from a :func:`write_json` file."""
    payload = json.loads(Path(path).read_text())
    return log_from_dict(payload["log"])


def trace_to_dicts(events: Iterable[TraceEvent]) -> Iterator[dict]:
    """One JSON-safe dict per event: ``{"t": ..., "event": ..., **fields}``."""
    for event in events:
        row = {"t": event.time, "event": event.name}
        row.update(event.fields)
        yield row


def trace_from_dicts(rows: Iterable[dict]) -> List[TraceEvent]:
    """Rebuild :class:`TraceEvent` tuples from :func:`trace_to_dicts` rows."""
    events = []
    for row in rows:
        fields = {k: v for k, v in row.items() if k not in ("t", "event")}
        events.append(TraceEvent(float(row["t"]), str(row["event"]), fields))
    return events


def dump_trace_jsonl(handle: IO[str], events: Iterable[TraceEvent]) -> int:
    """Stream events as JSON Lines to an open text handle (e.g. stdout)."""
    count = 0
    for row in trace_to_dicts(events):
        handle.write(json.dumps(row, separators=(",", ":")))
        handle.write("\n")
        count += 1
    return count


def write_trace_jsonl(path: PathLike, events: Iterable[TraceEvent]) -> int:
    """Write events as JSON Lines; returns the number of lines written.

    ``events`` is any event iterable — ``bus.events`` for a full dump or
    ``bus.select(...)`` for a filtered one.
    """
    with open(path, "w") as handle:
        return dump_trace_jsonl(handle, events)


def read_trace_jsonl(path: PathLike) -> List[TraceEvent]:
    """Load a :func:`write_trace_jsonl` file back into events."""
    with open(path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return trace_from_dicts(rows)


def dump_trace_csv(handle: IO[str], events: Iterable[TraceEvent]) -> int:
    """Stream events as CSV to an open text handle; returns the row count.

    The column set is ``t, event`` plus the union of every field name
    seen (alphabetical).  Events missing a column leave it empty — mixing
    event types in one file stays loadable by spreadsheet tools.
    """
    rows = list(trace_to_dicts(events))
    field_names = sorted({k for row in rows for k in row} - {"t", "event"})
    writer = csv.DictWriter(
        handle, fieldnames=["t", "event"] + field_names, extrasaction="ignore"
    )
    writer.writeheader()
    writer.writerows(rows)
    return len(rows)


def write_trace_csv(path: PathLike, events: Iterable[TraceEvent]) -> int:
    """Write events as CSV (:func:`dump_trace_csv`); returns the row count."""
    with open(path, "w", newline="") as handle:
        return dump_trace_csv(handle, events)


def _coerce_cell(text: str):
    """Undo CSV stringification: int if it parses, else float, else str."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_trace_csv(path: PathLike) -> List[TraceEvent]:
    """Load a :func:`write_trace_csv` file back into events.

    Empty cells (columns another event type owns) are dropped, and cell
    values are coerced int → float → str, so a JSONL → CSV → load chain
    preserves event order, field sets and numeric values exactly
    (``str(float)`` round-trips in Python).
    """
    events: List[TraceEvent] = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            fields = {
                key: _coerce_cell(value)
                for key, value in row.items()
                if key not in ("t", "event") and value != ""
            }
            events.append(TraceEvent(float(row["t"]), row["event"], fields))
    return events


# ----------------------------------------------------------------------
# Metrics registry exporters (JSON + OpenMetrics text format)
# ----------------------------------------------------------------------


def metrics_to_dict(meter) -> dict:
    """JSON-safe snapshot of a :class:`repro.obs.SessionMeter`."""
    payload = {"version": EXPORT_VERSION}
    payload.update(meter.as_dict())
    return payload


def write_metrics_json(path: PathLike, meter) -> None:
    """Write a meter snapshot as an indented JSON file."""
    Path(path).write_text(json.dumps(metrics_to_dict(meter), indent=1) + "\n")


def meter_from_dict(payload: dict):
    """Rebuild a :class:`repro.obs.SessionMeter` from a snapshot dict.

    Inverse of :func:`metrics_to_dict`, used to reload a run ledger's
    final ``registry.json`` artifact (``repro360 metrics --from-run``).
    Counter/gauge/histogram state round-trips exactly — counter and
    gauge values keep their JSON type (``merged_meter`` writes the
    ``fleet.workers`` gauge as an int), so re-exporting a reloaded
    registry reproduces the file byte for byte; span statistics
    round-trip their accumulators (count, total, min, max).
    """
    from repro.obs.meter import SessionMeter, SpanStats
    from repro.obs.metrics import Histogram

    version = payload.get("version")
    if version != EXPORT_VERSION:
        raise ValueError(f"unsupported export version: {version!r}")
    meter = SessionMeter()
    meter.counters.update(payload.get("counters", {}))
    meter.gauges.update(payload.get("gauges", {}))
    for name, data in payload.get("histograms", {}).items():
        hist = Histogram(tuple(data["buckets"]))
        hist.counts = [int(count) for count in data["counts"]]
        hist.sum = float(data["sum"])
        hist.count = int(data["count"])
        meter.histograms[name] = hist
    for name, data in payload.get("spans", {}).items():
        stats = SpanStats()
        stats.count = int(data["count"])
        stats.total_s = float(data["total_s"])
        stats.min_s = float(data["min_s"]) if stats.count else float("inf")
        stats.max_s = float(data["max_s"])
        meter.spans[name] = stats
    return meter


def openmetrics_family(name: str, unit: str = "") -> str:
    """Map a catalogue metric/span name to its OpenMetrics family name.

    ``.`` becomes ``_``, the ``repro_`` namespace prefix is added, and a
    trailing ``_s`` of seconds-valued metrics is spelled out as
    ``_seconds`` (the Prometheus base-unit convention).
    """
    family = "repro_" + name.replace(".", "_")
    if unit == "s" and family.endswith("_s"):
        family = family[:-2] + "_seconds"
    return family


def _om_number(value: float) -> str:
    """Render a sample value the OpenMetrics way (integers without .0)."""
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _om_spec(name: str) -> Optional[MetricSpec]:
    return METRIC_CATALOGUE.get(name)


def _span_family(name: str) -> str:
    """Spans export as ``repro_span_<name>_seconds`` summaries."""
    return openmetrics_family("span." + name) + "_seconds"


def metrics_to_openmetrics(meter) -> str:
    """Render a meter in the OpenMetrics text exposition format.

    Counters become ``<family>_total``, gauges bare samples, histograms
    cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``,
    and wall-clock spans summary families (``_sum``/``_count`` in
    seconds).  The output ends with ``# EOF`` and parses cleanly in
    ``tools/check_metrics.py``.
    """
    lines: List[str] = []

    def _head(family: str, kind: str, help_text: str) -> None:
        lines.append(f"# TYPE {family} {kind}")
        if help_text:
            lines.append(f"# HELP {family} {help_text}")

    for name in sorted(meter.counters):
        spec = _om_spec(name)
        family = openmetrics_family(name, spec.unit if spec else "")
        _head(family, "counter", spec.description if spec else "")
        lines.append(f"{family}_total {_om_number(meter.counters[name])}")
    for name in sorted(meter.gauges):
        spec = _om_spec(name)
        family = openmetrics_family(name, spec.unit if spec else "")
        _head(family, "gauge", spec.description if spec else "")
        lines.append(f"{family} {_om_number(meter.gauges[name])}")
    for name, hist in sorted(meter.histograms.items()):
        spec = _om_spec(name)
        family = openmetrics_family(name, spec.unit if spec else "")
        _head(family, "histogram", spec.description if spec else "")
        cumulative = hist.cumulative()
        for bound, running in zip(hist.buckets, cumulative):
            lines.append(
                f'{family}_bucket{{le="{_om_number(bound)}"}} {running}'
            )
        lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative[-1]}')
        lines.append(f"{family}_sum {_om_number(hist.sum)}")
        lines.append(f"{family}_count {hist.count}")
    for name, stats in meter.as_dict()["spans"].items():
        spec = _om_spec(name)
        family = _span_family(name)
        _head(family, "summary", spec.description if spec else "")
        lines.append(f"{family}_sum {repr(float(stats['total_s']))}")
        lines.append(f"{family}_count {stats['count']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_metrics_openmetrics(path: PathLike, meter) -> None:
    """Write a meter in the OpenMetrics text format."""
    Path(path).write_text(metrics_to_openmetrics(meter))


def _om_reverse_table() -> dict:
    """Family name -> catalogue spec for every catalogue entry, built
    from the same family mapping the exporter uses so the two can never
    drift."""
    table = {}
    for name, spec in METRIC_CATALOGUE.items():
        if spec.kind == "span":
            table[_span_family(name)] = spec
        else:
            table[openmetrics_family(name, spec.unit)] = spec
    return table


def _om_parse_sample(line: str):
    """Split one exposition sample line into (name, le_label, value_text).

    ``le_label`` is the ``le="..."`` value for histogram bucket samples,
    else None.  The exporter never emits other labels, so anything else
    inside ``{}`` is a parse error.
    """
    name, _, rest = line.partition(" ")
    label = None
    if "{" in name:
        name, _, label_part = name.partition("{")
        label_part = label_part.rstrip("}")
        if not label_part.startswith('le="') or not label_part.endswith('"'):
            raise ValueError(f"unsupported label set: {line!r}")
        label = label_part[len('le="'):-1]
    value_text = rest.split()[0] if rest.split() else ""
    if not value_text:
        raise ValueError(f"sample line without a value: {line!r}")
    return name, label, value_text


def read_openmetrics(text: str, strict: bool = True):
    """Parse :func:`metrics_to_openmetrics` output back into a meter.

    The inverse of the exporter for everything the text format can
    carry: counters, gauges and histograms round-trip **exactly** (a
    parse → re-export cycle is byte-identical); spans round-trip their
    ``sum``/``count`` accumulators but lose ``min_s``/``max_s``, which
    the summary exposition does not encode (re-export is still
    byte-identical, since only ``_sum``/``_count`` are emitted).

    Family names resolve through the catalogue — the same
    :func:`openmetrics_family` mapping the exporter uses.  An unknown
    family raises :class:`ValueError` under ``strict`` (the default) and
    is skipped otherwise, so a scrape from a newer server can still be
    loaded by an older client with ``strict=False``.
    """
    from repro.obs.meter import SessionMeter, SpanStats
    from repro.obs.metrics import Histogram

    table = _om_reverse_table()
    meter = SessionMeter()
    types: dict = {}
    # family -> {"bounds": [...], "cumulative": [...], "sum": x, "count": n}
    partial: dict = {}
    saw_eof = False

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if saw_eof:
            raise ValueError(f"content after # EOF: {line!r}")
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                types[parts[2]] = parts[3].split()[0] if len(parts) > 3 else ""
            continue
        sample, le_label, value_text = _om_parse_sample(line)

        # Resolve the owning family: exact match first (gauges), then
        # the exporter's suffixes, longest first so ``_bucket`` does not
        # shadow a hypothetical metric ending in "bucket".
        family, suffix = None, ""
        if sample in types:
            family, suffix = sample, ""
        else:
            for candidate in ("_bucket", "_total", "_count", "_sum"):
                if sample.endswith(candidate) and sample[: -len(candidate)] in types:
                    family, suffix = sample[: -len(candidate)], candidate
                    break
        if family is None:
            raise ValueError(f"sample before its # TYPE line: {line!r}")
        spec = table.get(family)
        if spec is None:
            if strict:
                raise ValueError(f"family not in the catalogue: {family!r}")
            continue
        name = spec.name
        kind = types[family]

        if kind == "counter":
            meter.counters[name] = float(value_text)
        elif kind == "gauge":
            meter.gauges[name] = float(value_text)
        elif kind == "histogram":
            state = partial.setdefault(
                family, {"bounds": [], "cumulative": [], "sum": 0.0, "count": 0}
            )
            if suffix == "_bucket":
                if le_label != "+Inf":
                    state["bounds"].append(float(le_label))
                state["cumulative"].append(int(float(value_text)))
            elif suffix == "_sum":
                state["sum"] = float(value_text)
            elif suffix == "_count":
                state["count"] = int(float(value_text))
        elif kind == "summary" and spec.kind == "span":
            stats = meter.spans.setdefault(name, SpanStats())
            if suffix == "_sum":
                stats.total_s = float(value_text)
            elif suffix == "_count":
                stats.count = int(float(value_text))
                stats.min_s = 0.0 if stats.count else float("inf")
                stats.max_s = 0.0
        else:
            raise ValueError(f"unsupported family kind {kind!r} for {family!r}")

    if not saw_eof:
        raise ValueError("exposition does not end with # EOF")

    for family, state in partial.items():
        name = table[family].name
        hist = Histogram(tuple(state["bounds"]))
        previous = 0
        counts = []
        for running in state["cumulative"]:
            counts.append(running - previous)
            previous = running
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram {family!r} has {len(counts)} buckets, "
                f"expected {len(hist.counts)}"
            )
        hist.counts = counts
        hist.sum = state["sum"]
        hist.count = state["count"]
        meter.histograms[name] = hist
    return meter


def write_frames_csv(path: PathLike, log: SessionLog) -> int:
    """Write one row per displayed frame; returns the row count.

    Columns: display time, frame delay, ROI PSNR, displayed ROI level,
    frame-level mismatch — the §5 per-frame measurement record.
    """
    rows = zip(
        log.display_times,
        log.frame_delays,
        log.roi_psnrs,
        (level for _, level in log.roi_levels),
        log.mismatches,
    )
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["display_time_s", "frame_delay_s", "roi_psnr_db", "roi_level", "mismatch_s"]
        )
        for row in rows:
            writer.writerow([f"{value:.6f}" for value in row])
            count += 1
    return count
