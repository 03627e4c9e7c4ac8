"""MobileInsight-style diag monitor."""

import pytest

from repro.lte.diagnostics import DiagMonitor, DiagRecord
from repro.sim.engine import Simulation


def test_records_delivered_in_batches():
    sim = Simulation()
    monitor = DiagMonitor(sim, interval=0.040)
    batches = []
    monitor.subscribe(batches.append)
    sim.every(0.001, lambda: monitor.record(buffer_bytes=100.0, tbs_bytes=50.0))
    sim.run(0.2)
    assert len(batches) >= 4
    assert all(35 <= len(batch) <= 45 for batch in batches)


def test_empty_interval_delivers_nothing():
    sim = Simulation()
    monitor = DiagMonitor(sim, interval=0.040)
    batches = []
    monitor.subscribe(batches.append)
    sim.run(0.5)
    assert batches == []


def test_multiple_subscribers_get_same_batch():
    sim = Simulation()
    monitor = DiagMonitor(sim, interval=0.040)
    seen_a, seen_b = [], []
    monitor.subscribe(seen_a.append)
    monitor.subscribe(seen_b.append)
    monitor.record(1.0, 2.0)
    sim.run(0.1)
    assert len(seen_a) == len(seen_b) == 1
    assert seen_a[0] is seen_b[0]


def test_record_fields():
    sim = Simulation()
    monitor = DiagMonitor(sim, interval=0.040)
    batches = []
    monitor.subscribe(batches.append)
    sim.schedule(0.005, monitor.record, 1234.0, 567.0)
    sim.run(0.1)
    record = batches[0][0]
    assert isinstance(record, DiagRecord)
    assert record.time == pytest.approx(0.005)
    assert record.buffer_bytes == 1234.0
    assert record.tbs_bytes == 567.0


def test_batch_trace_sums_left_to_right():
    """A compensated sum (``sum()`` from Python 3.12 on) reads a mean of
    1/3 and a TBS of 1 here."""
    from repro.obs.bus import TraceBus

    sim = Simulation()
    bus = TraceBus(clock=lambda: sim.now)
    monitor = DiagMonitor(sim, interval=0.040, trace=bus)
    for value in (1e16, 1.0, -1e16):
        monitor.record(buffer_bytes=value, tbs_bytes=value)
    sim.run(0.05)
    (event,) = bus.select(names="diag.batch")
    assert event.fields == {"n": 3, "mean_level": 0.0, "tbs_bytes": 0.0}
