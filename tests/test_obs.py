"""Tests for the ``repro.obs`` trace bus and its session wiring."""

import dataclasses
import importlib
import io
import json
import os
import pickle
import sys

import pytest

import repro.obs
from repro import TraceBus, TraceEvent, run_cell, run_session
from repro.metrics import export
from repro.metrics.export import log_to_dict, summary_to_dict
from repro.obs import (
    EVENT_CATALOGUE,
    EVENT_NAMES,
    METRIC_CATALOGUE,
    METRIC_KINDS,
    METRIC_NAMES,
    subsystem_of,
)
from repro.sim.batch import run_batched
from repro.telephony.session import TelephonySession
from repro.traces.scenarios import scenario


def _short_cellular(**overrides):
    return scenario(
        "cellular", scheme="poi360", transport="fbcc", duration=5.0, seed=1, **overrides
    )


@pytest.fixture(scope="module")
def traced_result():
    return run_session(_short_cellular(), warmup=0.0, trace=True)


# ----------------------------------------------------------------------
# Bus mechanics
# ----------------------------------------------------------------------


def test_trace_bus_records_and_counts():
    bus = TraceBus(clock=lambda: 2.5)
    assert len(bus) == 0
    bus.emit("mode_switch", to_index=3)
    bus.emit("mode_switch", to_index=4)
    bus.emit("fw_buffer", level=10.0, tbs=0.0)
    assert len(bus) == 3
    assert bus.counters == {"mode_switch": 2, "fw_buffer": 1}
    event = bus.events[0]
    assert event == TraceEvent(2.5, "mode_switch", {"to_index": 3})


def test_ring_eviction_keeps_exact_counters():
    bus = TraceBus(capacity=4)
    for i in range(10):
        bus.emit("e", i=i)
    assert len(bus) == 4
    assert bus.dropped == 6
    assert bus.counters["e"] == 10
    # The ring keeps the most recent events.
    assert [event.fields["i"] for event in bus.events] == [6, 7, 8, 9]


def test_select_filters_by_name_and_window():
    times = iter([0.0, 1.0, 2.0, 3.0])
    bus = TraceBus(clock=lambda: next(times))
    bus.emit("a")
    bus.emit("b")
    bus.emit("a")
    bus.emit("b")
    assert [e.time for e in bus.select(names="a")] == [0.0, 2.0]
    assert [e.name for e in bus.select(since=1.0, until=2.0)] == ["b", "a"]
    assert [e.name for e in bus.select(names=["a", "b"], since=3.0)] == ["b"]


def test_series_extracts_aligned_lists():
    times = iter([0.1, 0.2, 0.3])
    bus = TraceBus(clock=lambda: next(times))
    bus.emit("fw_buffer", level=1.0, tbs=0.0)
    bus.emit("other")
    bus.emit("fw_buffer", level=2.0, tbs=5.0)
    t, v = bus.series("fw_buffer", "level")
    assert t == [0.1, 0.3]
    assert v == [1.0, 2.0]


def test_bus_pickles_without_its_clock():
    bus = TraceBus(clock=lambda: 1.0)
    bus.emit("a", x=1)
    clone = pickle.loads(pickle.dumps(bus))
    assert clone.events == bus.events
    assert clone.counters == bus.counters
    clone.emit("b")  # the restored default clock must work
    assert clone.events[-1].time == 0.0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        TraceBus(capacity=0)


def test_subsystem_of_falls_back_to_prefix():
    assert subsystem_of("fw_buffer") == "lte"
    assert subsystem_of("fbcc.congestion") == "fbcc"
    assert subsystem_of("custom.thing") == "custom"
    assert subsystem_of("bare_name") == "other"


# ----------------------------------------------------------------------
# Session wiring
# ----------------------------------------------------------------------


def test_disabled_session_has_no_trace():
    session = TelephonySession(_short_cellular())
    assert session.trace is None
    assert session.sim.trace is None
    result = session.run(duration=1.0)
    assert result.trace is None


def test_traced_session_returns_its_bus(traced_result):
    bus = traced_result.trace
    assert isinstance(bus, TraceBus)
    assert len(bus) > 0
    # Every emitted name is in the catalogue (docs/tooling contract).
    assert set(bus.counters) <= set(EVENT_CATALOGUE)


def test_required_events_present(traced_result):
    counters = traced_result.trace.counters
    assert counters.get("mode_switch", 0) >= 1
    assert counters.get("fbcc.congestion", 0) >= 1
    assert counters.get("fw_buffer", 0) >= 1000  # per-subframe
    assert counters.get("diag.batch", 0) >= 100
    assert counters.get("sender.frame", 0) >= 100
    assert counters.get("receiver.frame", 0) >= 50
    assert counters["session.start"] == 1


def test_event_ordering_matches_sim_time(traced_result):
    events = traced_result.trace.events
    times = [event.time for event in events]
    assert times == sorted(times)
    assert times[0] >= 0.0
    assert times[-1] <= 5.0 + 1e-9


def test_fw_buffer_series_is_per_subframe(traced_result):
    times, levels = traced_result.trace.series("fw_buffer", "level")
    assert len(times) == traced_result.trace.counters["fw_buffer"]
    # Ticks sit on the 1 ms subframe grid.
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert min(deltas) >= 0.001 - 1e-9


def test_tracing_changes_no_metric_and_no_rng_draw():
    config = _short_cellular()
    plain = TelephonySession(config)
    traced = TelephonySession(config, trace=True)
    result_plain = plain.run(duration=3.0, warmup=1.0)
    result_traced = traced.run(duration=3.0, warmup=1.0)
    untraced = json.dumps(summary_to_dict(result_plain.summary), sort_keys=True)
    with_trace = json.dumps(summary_to_dict(result_traced.summary), sort_keys=True)
    assert untraced == with_trace
    assert json.dumps(log_to_dict(result_plain.log), sort_keys=True) == json.dumps(
        log_to_dict(result_traced.log), sort_keys=True
    )
    # Every RNG stream must sit at exactly the same point: tracing may
    # not consume (or add) a single draw anywhere in the stack.
    for name in ("forward", "reverse", "content", "encoder", "head", "receiver"):
        state_plain = plain.rng.stream(name).bit_generator.state
        state_traced = traced.rng.stream(name).bit_generator.state
        assert state_plain == state_traced, f"stream {name!r} diverged"


def test_metering_changes_no_metric_and_no_rng_draw():
    config = _short_cellular()
    plain = TelephonySession(config)
    metered = TelephonySession(config, meter=True)
    result_plain = plain.run(duration=3.0, warmup=1.0)
    result_metered = metered.run(duration=3.0, warmup=1.0)
    assert json.dumps(
        summary_to_dict(result_plain.summary), sort_keys=True
    ) == json.dumps(summary_to_dict(result_metered.summary), sort_keys=True)
    assert json.dumps(log_to_dict(result_plain.log), sort_keys=True) == json.dumps(
        log_to_dict(result_metered.log), sort_keys=True
    )
    # Metering may not consume (or add) a single RNG draw anywhere.
    for name in ("forward", "reverse", "content", "encoder", "head", "receiver"):
        state_plain = plain.rng.stream(name).bit_generator.state
        state_metered = metered.rng.stream(name).bit_generator.state
        assert state_plain == state_metered, f"stream {name!r} diverged"
    # The metered run actually recorded activity.
    counters = result_metered.meter.counters
    assert counters["session.runs"] == 1
    assert counters["sender.frames"] > 0


def test_unmetered_session_uses_null_meter():
    session = TelephonySession(_short_cellular())
    assert session.meter is None
    assert session.sim.meter is None
    result = session.run(duration=1.0)
    assert result.meter is None


def test_warmup_event_emitted():
    result = run_session(_short_cellular(), duration=2.0, warmup=1.0, trace=True)
    marks = list(result.trace.select(names="session.warmup_done"))
    assert len(marks) == 1
    assert marks[0].time == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Off makes no calls
# ----------------------------------------------------------------------


def _obs_calls(run) -> int:
    """Python-level calls into ``repro/obs/`` made while ``run()`` runs."""
    obs_dir = os.path.dirname(repro.obs.__file__) + os.sep
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(obs_dir):
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _short_lockstep(seed):
    config = _short_cellular()
    return dataclasses.replace(
        config, seed=seed, video=dataclasses.replace(config.video, fps=25.0)
    )


OFF_RUNS = {
    "run_session": lambda: run_session(_short_cellular(), duration=2.0),
    "run_cell": lambda: run_cell(_short_cellular(), ues=2, duration=2.0),
    "run_batched": lambda: run_batched(
        [_short_lockstep(1), _short_lockstep(2)], duration=2.0
    ),
}


@pytest.mark.parametrize("name", sorted(OFF_RUNS))
def test_off_run_makes_no_obs_calls(name):
    assert _obs_calls(OFF_RUNS[name]) == 0


def test_obs_call_probe_sees_a_metered_run():
    # The probe is live: the same short session, metered, calls in.
    calls = _obs_calls(lambda: run_session(_short_cellular(), duration=2.0, meter=True))
    assert calls > 1000


# ----------------------------------------------------------------------
# Export round-trips
# ----------------------------------------------------------------------


def test_trace_jsonl_round_trip(tmp_path, traced_result):
    bus = traced_result.trace
    path = tmp_path / "trace.jsonl"
    written = export.write_trace_jsonl(path, bus.events)
    assert written == len(bus)
    loaded = export.read_trace_jsonl(path)
    assert loaded == list(bus.events)


def test_trace_csv_has_union_columns(tmp_path):
    bus = TraceBus(clock=lambda: 0.5)
    bus.emit("a", x=1)
    bus.emit("b", y=2.5)
    path = tmp_path / "trace.csv"
    assert export.write_trace_csv(path, bus.events) == 2
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,event,x,y"
    assert lines[1] == "0.5,a,1,"
    assert lines[2] == "0.5,b,,2.5"


def test_dump_trace_jsonl_streams_to_handle():
    bus = TraceBus(clock=lambda: 1.25)
    bus.emit("mode_switch", to_index=2)
    sink = io.StringIO()
    assert export.dump_trace_jsonl(sink, bus.events) == 1
    row = json.loads(sink.getvalue())
    assert row == {"t": 1.25, "event": "mode_switch", "to_index": 2}


# ----------------------------------------------------------------------
# Catalogue / docs contract
# ----------------------------------------------------------------------


def test_catalogue_is_complete_and_consistent():
    assert set(EVENT_NAMES) == set(EVENT_CATALOGUE)
    for name, spec in EVENT_CATALOGUE.items():
        assert spec.name == name
        assert spec.subsystem
        assert spec.site.startswith("repro.")
        assert spec.description


def test_observability_doc_mentions_every_event(repo_root=None):
    from pathlib import Path

    doc = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
    text = doc.read_text()
    missing = [name for name in EVENT_NAMES if f"`{name}`" not in text]
    assert not missing, f"docs/OBSERVABILITY.md is missing events: {missing}"


def test_traced_fields_match_catalogue(traced_result):
    for event in traced_result.trace.events:
        spec = EVENT_CATALOGUE[event.name]
        assert set(event.fields) == set(spec.fields), event.name


def test_metric_catalogue_is_complete_and_consistent():
    assert set(METRIC_NAMES) == set(METRIC_CATALOGUE)
    for name, spec in METRIC_CATALOGUE.items():
        assert spec.name == name
        assert spec.kind in METRIC_KINDS
        assert spec.subsystem
        assert spec.site.startswith("repro.")
        assert spec.description
        if spec.kind == "histogram":
            bounds = list(spec.buckets)
            assert bounds, f"{name}: histogram without buckets"
            assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
        else:
            assert spec.buckets == (), f"{name}: buckets on a {spec.kind}"


def test_span_catalogue_is_complete_and_consistent():
    spans = [spec for spec in METRIC_CATALOGUE.values() if spec.kind == "span"]
    assert spans
    for spec in spans:
        assert spec.unit == "s", f"{spec.name}: spans are wall-clock seconds"


def _resolve_site(site):
    """Import the longest module prefix of ``site`` and look the rest up
    as attributes; raises if the site names nothing."""
    parts = site.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return target
    raise ImportError(site)


def test_every_catalogue_site_resolves():
    sites = [
        site
        for spec in (*METRIC_CATALOGUE.values(), *EVENT_CATALOGUE.values())
        for site in spec.site.split(" / ")
    ]
    unresolved = []
    for site in sites:
        try:
            _resolve_site(site)
        except (ImportError, AttributeError):
            unresolved.append(site)
    assert not unresolved, f"catalogue sites that name nothing: {unresolved}"


def test_observability_doc_mentions_every_metric_and_span():
    from pathlib import Path

    doc = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
    text = doc.read_text()
    missing = [
        name
        for name in METRIC_NAMES
        if f"`{name}`" not in text
    ]
    assert not missing, f"docs/OBSERVABILITY.md is missing metrics/spans: {missing}"
