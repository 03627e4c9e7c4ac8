"""Trace export/import."""

import json

import numpy as np
import pytest

from repro.metrics import export
from repro.metrics.summary import SessionLog, SessionSummary


def _log():
    log = SessionLog()
    log.start_time = 5.0
    arrivals = []
    for index in range(30):
        t = 5.0 + index / 30.0
        log.frame_delays.append(0.25)
        log.roi_psnrs.append(36.0)
        log.display_times.append(t)
        log.roi_levels.append((t, 1.1))
        log.mismatches.append(0.3)
        arrivals.append((t, 1200.0))
    log.arrivals = np.array(arrivals)
    log.buffer_levels.append((5.0, 4096.0))
    log.diag_seconds.append((2.5e6, 6000.0))
    log.rate_trace.append((5.0, 2e6, 5e6))
    log.frames_sent = 31
    log.frames_displayed = 30
    log.sent_bits = 2.4e6
    return log


def _summary(log):
    return SessionSummary.from_log(log, "poi360", "fbcc", duration=1.0)


def test_log_roundtrip_via_dict():
    log = _log()
    restored = export.log_from_dict(export.log_to_dict(log))
    assert restored.frame_delays == log.frame_delays
    assert restored.roi_levels == log.roi_levels
    assert restored.frames_sent == log.frames_sent
    assert restored.sent_bits == log.sent_bits


def test_version_checked():
    data = export.log_to_dict(_log())
    data["version"] = 99
    with pytest.raises(ValueError):
        export.log_from_dict(data)


def test_json_file_roundtrip(tmp_path):
    log = _log()
    path = tmp_path / "session.json"
    export.write_json(path, log, _summary(log))
    restored = export.read_json(path)
    assert restored.frames_displayed == 30
    payload = json.loads(path.read_text())
    assert payload["summary"]["scheme"] == "poi360"
    assert payload["summary"]["quality"]["mean_psnr_db"] == pytest.approx(36.0)


def test_frames_csv(tmp_path):
    path = tmp_path / "frames.csv"
    rows = export.write_frames_csv(path, _log())
    assert rows == 30
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("display_time_s,")
    assert len(lines) == 31


def test_summary_dict_is_json_safe():
    payload = export.summary_to_dict(_summary(_log()))
    json.dumps(payload)  # must not raise
    assert payload["freeze_ratio"] == 0.0


def test_trace_jsonl_to_csv_round_trip(tmp_path):
    """JSONL -> load -> CSV -> load preserves order, fields and counts."""
    from repro.traces.scenarios import scenario
    from repro.telephony.session import run_session

    config = scenario(
        "cellular", scheme="poi360", transport="fbcc", duration=3.0, seed=1
    )
    events = list(run_session(config, warmup=0.0, trace=True).trace.events)
    assert events

    jsonl = tmp_path / "trace.jsonl"
    assert export.write_trace_jsonl(jsonl, events) == len(events)
    loaded = export.read_trace_jsonl(jsonl)
    assert loaded == events

    csv_path = tmp_path / "trace.csv"
    assert export.write_trace_csv(csv_path, loaded) == len(events)
    from_csv = export.read_trace_csv(csv_path)
    assert len(from_csv) == len(events)
    for original, restored in zip(events, from_csv):
        assert restored.time == original.time
        assert restored.name == original.name
        # CSV stringifies values; numeric fields must coerce back exactly.
        assert set(restored.fields) == set(original.fields), original.name
        for key, value in original.fields.items():
            if isinstance(value, (int, float)):
                assert restored.fields[key] == value, (original.name, key)


# ----------------------------------------------------------------------
# OpenMetrics round trip (read_openmetrics)
# ----------------------------------------------------------------------


def _metered_fixture():
    from repro.obs.meter import SessionMeter

    meter = SessionMeter()
    meter.inc("session.runs", 3)
    meter.inc("fbcc.ticks", 7)
    meter.set_gauge("service.uptime_s", 12.5)
    for value in (0.004, 0.02, 0.3, 9.0):
        meter.observe("service.queue_wait_s", value)
    for value in (0.04, 0.08, 0.25):
        meter.observe("receiver.delay_s", value)
    t0 = meter.span_start()
    meter.span_end("session.run", t0)
    return meter


def test_read_openmetrics_round_trip_is_byte_identical():
    meter = _metered_fixture()
    text = export.metrics_to_openmetrics(meter)
    parsed = export.read_openmetrics(text)
    assert export.metrics_to_openmetrics(parsed) == text


def test_read_openmetrics_reconstructs_values():
    meter = _metered_fixture()
    parsed = export.read_openmetrics(export.metrics_to_openmetrics(meter))
    assert parsed.counters["session.runs"] == 3.0
    assert parsed.gauges["service.uptime_s"] == 12.5
    histogram = parsed.histogram("service.queue_wait_s")
    original = meter.histogram("service.queue_wait_s")
    assert histogram.buckets == original.buckets
    assert histogram.counts == original.counts  # de-cumulated per bucket
    assert histogram.sum == original.sum
    assert histogram.count == original.count
    # Spans come back as summaries: sum/count survive, min/max do not.
    assert parsed.spans["session.run"].count == 1


def test_read_openmetrics_requires_eof():
    meter = _metered_fixture()
    text = export.metrics_to_openmetrics(meter)
    with pytest.raises(ValueError, match="EOF"):
        export.read_openmetrics(text.replace("# EOF\n", ""))
    with pytest.raises(ValueError):
        export.read_openmetrics(text + "repro_session_runs_total 1\n")


def test_read_openmetrics_unknown_family_strict_vs_lenient():
    meter = _metered_fixture()
    text = export.metrics_to_openmetrics(meter)
    rogue = text.replace(
        "# EOF", "# TYPE rogue_widgets counter\nrogue_widgets_total 4\n# EOF"
    )
    with pytest.raises(ValueError, match="rogue_widgets"):
        export.read_openmetrics(rogue)
    parsed = export.read_openmetrics(rogue, strict=False)
    assert parsed.counters["session.runs"] == 3.0
    assert "rogue_widgets" not in str(parsed.counters)


def test_read_openmetrics_accepts_live_scrape(tmp_path):
    """A real registry artifact survives export -> parse -> re-export."""
    from repro.telephony.session import run_session
    from repro.traces.scenarios import scenario

    config = scenario(
        "cellular", scheme="poi360", transport="fbcc", duration=3.0, seed=1
    )
    result = run_session(config, warmup=0.5, meter=True)
    text = export.metrics_to_openmetrics(result.meter)
    parsed = export.read_openmetrics(text)
    assert export.metrics_to_openmetrics(parsed) == text


# ----------------------------------------------------------------------
# Pinned on-disk formats
# ----------------------------------------------------------------------

# A ``write_metrics_json`` document and a ``metrics_to_openmetrics`` text
# of the same meter (two each of counters, gauges, histograms and spans),
# kept as literal bytes: loading and re-exporting must give these bytes
# back.  A round trip of fresh output alone cannot catch a format drift.
PINNED_METRICS_JSON = """\
{
 "version": 1,
 "counters": {
  "session.runs": 3.0,
  "batch.sessions": 40.0
 },
 "gauges": {
  "batch.cohorts": 2.0,
  "service.uptime_s": 12.5
 },
 "histograms": {
  "fbcc.video_rate_mbps": {
   "buckets": [
    0.5,
    1.0,
    2.0,
    3.0,
    4.0,
    5.0,
    6.0,
    8.0,
    10.0
   ],
   "counts": [
    0,
    0,
    0,
    1,
    0,
    0,
    0,
    0,
    0,
    0
   ],
   "sum": 2.5,
   "count": 1
  },
  "receiver.delay_s": {
   "buckets": [
    0.05,
    0.1,
    0.15,
    0.2,
    0.3,
    0.5,
    0.75,
    1.0,
    1.5,
    2.0
   ],
   "counts": [
    1,
    1,
    0,
    0,
    1,
    0,
    0,
    0,
    0,
    0,
    1
   ],
   "sum": 3.37,
   "count": 4
  }
 },
 "spans": {
  "session.run": {
   "count": 2,
   "total_s": 0.75,
   "mean_s": 0.375,
   "min_s": 0.25,
   "max_s": 0.5
  },
  "batch.run": {
   "count": 1,
   "total_s": 0.125,
   "mean_s": 0.125,
   "min_s": 0.125,
   "max_s": 0.125
  }
 }
}
"""

PINNED_OPENMETRICS = """\
# TYPE repro_batch_sessions counter
# HELP repro_batch_sessions Sessions advanced by the batched lockstep engines (the same for any plan: groups below the crossover always run scalar).
repro_batch_sessions_total 40
# TYPE repro_session_runs counter
# HELP repro_session_runs Sessions run to completion.
repro_session_runs_total 3
# TYPE repro_batch_cohorts gauge
# HELP repro_batch_cohorts Cohorts the lockstep sweep was planned into (batched and scalar); depends on the worker count, like fleet.workers.
repro_batch_cohorts 2
# TYPE repro_service_uptime_seconds gauge
# HELP repro_service_uptime_seconds Wall-clock seconds since the job registry was created.
repro_service_uptime_seconds 12.5
# TYPE repro_fbcc_video_rate_mbps histogram
# HELP repro_fbcc_video_rate_mbps Distribution of the Eq. (6) encoding rate Rv, sampled per tick.
repro_fbcc_video_rate_mbps_bucket{le="0.5"} 0
repro_fbcc_video_rate_mbps_bucket{le="1"} 0
repro_fbcc_video_rate_mbps_bucket{le="2"} 0
repro_fbcc_video_rate_mbps_bucket{le="3"} 1
repro_fbcc_video_rate_mbps_bucket{le="4"} 1
repro_fbcc_video_rate_mbps_bucket{le="5"} 1
repro_fbcc_video_rate_mbps_bucket{le="6"} 1
repro_fbcc_video_rate_mbps_bucket{le="8"} 1
repro_fbcc_video_rate_mbps_bucket{le="10"} 1
repro_fbcc_video_rate_mbps_bucket{le="+Inf"} 1
repro_fbcc_video_rate_mbps_sum 2.5
repro_fbcc_video_rate_mbps_count 1
# TYPE repro_receiver_delay_seconds histogram
# HELP repro_receiver_delay_seconds Distribution of capture-to-display frame delay.
repro_receiver_delay_seconds_bucket{le="0.05"} 1
repro_receiver_delay_seconds_bucket{le="0.1"} 2
repro_receiver_delay_seconds_bucket{le="0.15"} 2
repro_receiver_delay_seconds_bucket{le="0.2"} 2
repro_receiver_delay_seconds_bucket{le="0.3"} 3
repro_receiver_delay_seconds_bucket{le="0.5"} 3
repro_receiver_delay_seconds_bucket{le="0.75"} 3
repro_receiver_delay_seconds_bucket{le="1"} 3
repro_receiver_delay_seconds_bucket{le="1.5"} 3
repro_receiver_delay_seconds_bucket{le="2"} 3
repro_receiver_delay_seconds_bucket{le="+Inf"} 4
repro_receiver_delay_seconds_sum 3.37
repro_receiver_delay_seconds_count 4
# TYPE repro_span_session_run_seconds summary
# HELP repro_span_session_run_seconds One whole session run (wall clock; drives straggler reporting).
repro_span_session_run_seconds_sum 0.75
repro_span_session_run_seconds_count 2
# TYPE repro_span_batch_run_seconds summary
# HELP repro_span_batch_run_seconds One batched lockstep cohort: every session, one 1 ms grid.
repro_span_batch_run_seconds_sum 0.125
repro_span_batch_run_seconds_count 1
# EOF
"""


def test_pinned_metrics_json_round_trips_byte_for_byte(tmp_path):
    meter = export.meter_from_dict(json.loads(PINNED_METRICS_JSON))
    export.write_metrics_json(tmp_path / "registry.json", meter)
    assert (tmp_path / "registry.json").read_text() == PINNED_METRICS_JSON
    assert export.metrics_to_openmetrics(meter) == PINNED_OPENMETRICS


def test_pinned_openmetrics_round_trips_byte_for_byte(tmp_path):
    meter = export.read_openmetrics(PINNED_OPENMETRICS)
    export.write_metrics_openmetrics(tmp_path / "metrics.om", meter)
    assert (tmp_path / "metrics.om").read_text() == PINNED_OPENMETRICS
    assert meter.counters == {"batch.sessions": 40.0, "session.runs": 3.0}
    assert meter.gauges == {"batch.cohorts": 2.0, "service.uptime_s": 12.5}
    delay = meter.histogram("receiver.delay_s")
    assert delay.counts == [1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1]
    assert [name for name in meter.spans] == ["session.run", "batch.run"]
    assert meter.spans["session.run"].count == 2
