"""The meter (counters, gauges, histograms, spans), fleet merge and exporters."""

import importlib.util
import json
import pickle
from pathlib import Path

import pytest

from repro.experiments import cache
from repro.experiments.parallel import SessionTask, merged_meter, run_tasks
from repro.experiments.runner import ExperimentSettings, clear_cache, run_sessions
from repro.metrics.export import (
    metrics_to_dict,
    metrics_to_openmetrics,
    openmetrics_family,
    write_metrics_json,
    write_metrics_openmetrics,
)
from repro.obs import (
    METRIC_CATALOGUE,
    Histogram,
    SessionMeter,
    SpanStats,
    catalogue_names,
)
from repro.telephony.session import run_session
from repro.traces.scenarios import scenario


def _load_check_metrics():
    path = Path(__file__).resolve().parent.parent / "tools" / "check_metrics.py"
    spec = importlib.util.spec_from_file_location("check_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_metrics = _load_check_metrics()


def _short_cellular(**overrides):
    return scenario(
        "cellular", scheme="poi360", transport="fbcc", duration=5.0, seed=1, **overrides
    )


@pytest.fixture(scope="module")
def metered_result():
    return run_session(_short_cellular(), warmup=0.0, meter=True)


# ----------------------------------------------------------------------
# Histogram mechanics
# ----------------------------------------------------------------------


def test_histogram_le_bucketing_and_overflow():
    hist = Histogram((1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 2.0, 3.0, 9.0):
        hist.observe(value)
    # le-semantics: a sample on a bound lands in that bound's bucket.
    assert hist.counts == [2, 2, 1, 1]
    assert hist.count == 6
    assert hist.sum == pytest.approx(17.0)
    assert hist.cumulative() == [2, 4, 5, 6]


def test_histogram_merge_is_elementwise():
    a = Histogram((1.0, 2.0))
    b = Histogram((1.0, 2.0))
    a.observe(0.5)
    b.observe(1.5)
    b.observe(5.0)
    a.merge(b)
    assert a.counts == [1, 1, 1]
    assert a.count == 3
    assert a.sum == pytest.approx(7.0)


def test_histogram_merge_rejects_different_buckets():
    with pytest.raises(ValueError):
        Histogram((1.0,)).merge(Histogram((2.0,)))


# ----------------------------------------------------------------------
# Registry validation and merge
# ----------------------------------------------------------------------


def test_registry_rejects_unknown_and_wrong_kind():
    registry = SessionMeter()
    with pytest.raises(KeyError):
        registry.inc("no.such.metric")
    with pytest.raises(KeyError):
        registry.observe("no.such.metric", 1.0)
    with pytest.raises(ValueError):
        registry.inc("fleet.workers")  # gauge, not counter
    with pytest.raises(ValueError):
        registry.observe("receiver.frames", 1.0)  # counter, not histogram
    with pytest.raises(ValueError):
        registry.set_gauge("receiver.frames", 1.0)
    with pytest.raises(ValueError):
        registry.inc("session.run")  # span, not counter
    with pytest.raises(ValueError):
        registry.span_end("session.runs", 0.0)  # counter, not span


def test_registry_merge_sums_counters_and_buckets():
    a, b = SessionMeter(), SessionMeter()
    a.inc("receiver.frames", 3)
    b.inc("receiver.frames", 4)
    b.inc("receiver.nacks", 2)
    a.observe("receiver.delay_s", 0.12)
    b.observe("receiver.delay_s", 0.9)
    a.set_gauge("fleet.workers", 2)
    b.set_gauge("fleet.workers", 8)
    a.merge(b)
    assert a.counters["receiver.frames"] == 7
    assert a.counters["receiver.nacks"] == 2
    assert a.gauges["fleet.workers"] == 8  # last write wins
    hist = a.histogram("receiver.delay_s")
    assert hist.count == 2
    assert hist.sum == pytest.approx(1.02)


def test_counters_by_subsystem_uses_catalogue_labels():
    registry = SessionMeter()
    registry.inc("receiver.frames")
    registry.inc("lte.drops", 5)
    grouped = registry.counters_by_subsystem()
    assert grouped["telephony"]["receiver.frames"] == 1
    assert grouped["lte"]["lte.drops"] == 5


def test_catalogue_names_filters_by_kind():
    gauges = catalogue_names(["gauge"])
    assert "fleet.workers" in gauges
    assert "receiver.frames" not in gauges
    spans = catalogue_names(["span"])
    assert "session.run" in spans and "session.runs" not in spans
    assert catalogue_names() == tuple(METRIC_CATALOGUE)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def _record(meter, name, elapsed_s):
    """Fold an exact span sample (``span_end`` reads the wall clock)."""
    meter.spans.setdefault(name, SpanStats()).record(elapsed_s)


def test_span_profiler_accumulates_and_validates():
    meter = SessionMeter()
    _record(meter, "sender.encode", 0.002)
    _record(meter, "sender.encode", 0.004)
    stats = meter.spans["sender.encode"]
    assert stats.count == 2
    assert stats.total_s == pytest.approx(0.006)
    assert stats.mean_s == pytest.approx(0.003)
    assert stats.min_s == pytest.approx(0.002)
    assert stats.max_s == pytest.approx(0.004)
    meter.span_end("sender.encode", meter.span_start())
    assert stats.count == 3
    with pytest.raises(KeyError):
        meter.span_end("no.such.span", meter.span_start())


def test_span_merge_folds_extrema():
    a, b = SessionMeter(), SessionMeter()
    _record(a, "sender.encode", 0.001)
    _record(b, "sender.encode", 0.010)
    _record(b, "rate_control.tick", 0.002)
    a.merge(b)
    assert a.spans["sender.encode"].count == 2
    assert a.spans["sender.encode"].max_s == pytest.approx(0.010)
    assert a.spans["sender.encode"].min_s == pytest.approx(0.001)
    assert set(a.as_dict()["spans"]) == {"sender.encode", "rate_control.tick"}


def test_session_meter_as_dict_is_json_safe():
    meter = SessionMeter()
    meter.inc("receiver.frames")
    meter.observe("receiver.delay_s", 0.2)
    _record(meter, "session.run", 1.5)
    payload = meter.as_dict()
    json.dumps(payload)  # must not raise
    assert payload["counters"]["receiver.frames"] == 1
    assert payload["spans"]["session.run"]["count"] == 1


# ----------------------------------------------------------------------
# Session metering
# ----------------------------------------------------------------------


def test_metered_session_counts_match_log(metered_result):
    counters = metered_result.meter.counters
    log = metered_result.log
    assert counters["sender.frames"] == log.frames_sent
    assert counters["receiver.frames"] == log.frames_displayed
    assert counters["session.runs"] == 1
    assert counters["lte.subframes"] > 1000
    delay_hist = metered_result.meter.histogram("receiver.delay_s")
    assert delay_hist.count == log.frames_displayed
    assert delay_hist.sum == pytest.approx(sum(log.frame_delays))


def test_metered_session_records_every_span(metered_result):
    recorded = set(metered_result.meter.spans)
    # fleet.* spans only fire in shared-cell runs (tests/test_fleet.py);
    # batch.* spans only in batched-engine runs (tests/test_batch*.py).
    solo_spans = {
        name
        for name in catalogue_names(["span"])
        if not name.startswith(("fleet.", "batch."))
    }
    assert recorded == solo_spans
    assert metered_result.meter.spans["session.run"].count == 1


def test_metered_result_pickles(metered_result):
    clone = pickle.loads(pickle.dumps(metered_result))
    assert clone.meter.counters == metered_result.meter.counters
    assert (
        clone.meter.spans["session.run"].count
        == metered_result.meter.spans["session.run"].count
    )


# ----------------------------------------------------------------------
# Fleet merge: parallel == serial
# ----------------------------------------------------------------------


def _tiny_tasks():
    return [
        SessionTask(
            scenario_name="cellular",
            scheme="poi360",
            transport="fbcc",
            duration=4.0,
            warmup=1.0,
            seed=1 + index,
            profile_name="user2-typical",
            meter=True,
        )
        for index in range(2)
    ]


def test_fleet_merge_parallel_equals_serial():
    serial = run_tasks(_tiny_tasks(), jobs=1)
    parallel = run_tasks(_tiny_tasks(), jobs=2)
    fleet_serial = merged_meter(serial, workers=1)
    fleet_parallel = merged_meter(parallel, workers=2)
    # Metric values are pure functions of the simulation, so the merged
    # registries agree exactly; only span wall-clock differs.
    assert fleet_serial.counters.keys() == fleet_parallel.counters.keys()
    for name, value in fleet_serial.counters.items():
        assert fleet_parallel.counters[name] == value, name
    for name, hist in fleet_serial.histograms.items():
        other = fleet_parallel.histogram(name)
        assert other.counts == hist.counts, name
        assert other.sum == pytest.approx(hist.sum), name
    assert fleet_serial.counters["fleet.sessions"] == 2
    assert fleet_parallel.gauges["fleet.workers"] == 2
    assert fleet_parallel.gauges["fleet.straggler_index"] in (0, 1)
    assert fleet_parallel.gauges["fleet.straggler_s"] > 0.0


def test_progress_callback_runs_in_task_order():
    seen = []
    run_tasks(_tiny_tasks(), jobs=1, progress=lambda done, total, _r: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


def test_merged_meter_folds_cache_counters():
    fleet = merged_meter([], workers=1, cache_counters={"entry_hits": 3, "entry_misses": 0})
    assert fleet.counters["cache.entry_hits"] == 3
    assert "cache.entry_misses" not in fleet.counters  # zeros elided


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def test_openmetrics_family_mangling():
    assert openmetrics_family("receiver.frames") == "repro_receiver_frames"
    assert openmetrics_family("receiver.delay_s", "s") == "repro_receiver_delay_seconds"
    assert openmetrics_family("fbcc.video_rate_mbps", "Mbps") == "repro_fbcc_video_rate_mbps"


def test_openmetrics_export_passes_drift_gate(metered_result, tmp_path):
    fleet = merged_meter([metered_result], workers=1)
    text = metrics_to_openmetrics(fleet)
    assert text.endswith("# EOF\n")
    problems = check_metrics.check(text)
    assert problems == []
    path = tmp_path / "metrics.txt"
    write_metrics_openmetrics(path, fleet)
    assert path.read_text() == text


def test_drift_gate_flags_unknown_family_and_broken_buckets():
    bad = (
        "# TYPE repro_not_in_catalogue counter\n"
        "repro_not_in_catalogue_total 1\n"
        "# EOF\n"
    )
    problems = check_metrics.check(bad)
    assert any("catalogue drift" in p for p in problems)
    torn = (
        "# TYPE repro_receiver_delay_seconds histogram\n"
        'repro_receiver_delay_seconds_bucket{le="0.1"} 5\n'
        'repro_receiver_delay_seconds_bucket{le="+Inf"} 3\n'
        "repro_receiver_delay_seconds_sum 1.0\n"
        "repro_receiver_delay_seconds_count 3\n"
        "# EOF\n"
    )
    problems = check_metrics.check(torn)
    assert any("not cumulative" in p for p in problems)


def test_metrics_json_round_trip(metered_result, tmp_path):
    fleet = merged_meter([metered_result], workers=1)
    path = tmp_path / "metrics.json"
    write_metrics_json(path, fleet)
    payload = json.loads(path.read_text())
    assert payload == metrics_to_dict(fleet)
    assert payload["counters"]["session.runs"] == 1
    assert payload["spans"]["session.run"]["count"] == 1


# ----------------------------------------------------------------------
# Cache counters
# ----------------------------------------------------------------------


@pytest.fixture
def _fresh_cache(tmp_path):
    clear_cache()
    cache.set_cache_dir(tmp_path / "cache")
    cache.set_cache_enabled(True)
    cache.reset_counters()
    yield
    cache.reset_counters()
    cache.set_cache_enabled(None)
    cache.set_cache_dir(None)
    clear_cache()


TINY = ExperimentSettings(duration=8.0, warmup=4.0, repetitions=1, num_users=1)


def test_cache_counters_track_miss_store_hit(_fresh_cache):
    run_sessions("cellular", "poi360", "gcc", TINY)
    first = cache.counters()
    assert first["entry_misses"] == 1
    assert first["sessions_stored"] == 1
    assert first["entry_hits"] == 0
    clear_cache()  # drop L1 so the next run reads the disk entry
    run_sessions("cellular", "poi360", "gcc", TINY)
    second = cache.counters()
    assert second["entry_hits"] == 1
    assert second["session_hits"] == 1
    # The persistent mirror accumulates the same totals.
    lifetime = cache.persistent_counters()
    assert lifetime["entry_hits"] >= 1
    assert lifetime["sessions_stored"] >= 1


def test_disabled_cache_counts_nothing(_fresh_cache):
    cache.set_cache_enabled(False)
    run_sessions("cellular", "poi360", "gcc", TINY)
    assert cache.counters() == {name: 0 for name in cache.COUNTER_NAMES}
