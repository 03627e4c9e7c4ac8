"""Session wiring internals: diag aggregation, counter baselines."""

import pytest

from repro.telephony.session import TelephonySession
from repro.traces.scenarios import cellular
from repro.units import BITS_PER_BYTE


def test_diag_seconds_aggregation_matches_ue():
    config = cellular(scheme="poi360", transport="gcc", duration=30.0, seed=13)
    session = TelephonySession(config)
    result = session.run(30.0)
    seconds = result.log.diag_seconds
    assert 25 <= len(seconds) <= 31
    total_from_seconds = sum(rate for rate, _ in seconds) / BITS_PER_BYTE
    # The per-second TBS sums reconstruct the UE's byte counter
    # (boundary seconds may differ slightly).
    assert total_from_seconds == pytest.approx(session.forward.ue.bytes_sent, rel=0.1)
    # Buffer means are physical levels.
    assert all(0.0 <= level <= config.lte.firmware_buffer_cap for _, level in seconds)


def test_warmup_baselines_subtract_prior_losses():
    config = cellular(scheme="pyramid", transport="gcc", duration=30.0, seed=2)
    session = TelephonySession(config)
    result = session.run(30.0, warmup=15.0)
    # Warm-up losses (the startup floor transient) are excluded: the
    # measured counters cannot be negative and cannot exceed the
    # cumulative totals.
    assert 0 <= result.log.frames_lost <= session.sender.pacer.dropped_frames
    assert 0 <= result.log.packets_lost


def test_rate_trace_sampled_periodically():
    config = cellular(scheme="poi360", transport="fbcc", duration=20.0, seed=5)
    result = TelephonySession(config).run(20.0)
    trace = result.log.rate_trace
    assert len(trace) == pytest.approx(100, abs=3)  # every 0.2 s
    times = [t for t, _, _ in trace]
    assert all(b > a for a, b in zip(times, times[1:]))
    # FBCC's pacing rate tracks at or above its floor relative to Rv.
    for _, rv, rrtp in trace[10:]:
        assert rrtp >= 0.0 and rv >= 0.0


def test_summary_freeze_threshold_respected():
    import dataclasses

    config = cellular(scheme="poi360", transport="gcc", duration=15.0, seed=3)
    strict = dataclasses.replace(config, freeze_threshold=0.05)
    lenient = dataclasses.replace(config, freeze_threshold=5.0)
    strict_result = TelephonySession(strict).run(15.0)
    lenient_result = TelephonySession(lenient).run(15.0)
    assert strict_result.summary.freeze_ratio >= lenient_result.summary.freeze_ratio
    assert lenient_result.summary.freeze_ratio == 0.0


def test_session_components_exposed():
    config = cellular(scheme="poi360", transport="fbcc", duration=5.0, seed=1)
    session = TelephonySession(config)
    assert session.forward.ue is not None
    assert session.scheme.name == "poi360"
    assert session.transport.name == "fbcc"
    assert session.grid.num_tiles == 96
    assert session.head is not None


def test_diag_second_sums_left_to_right():
    """A compensated sum (``sum()`` from Python 3.12 on) reads a mean
    buffer level of 1/3 and 8 TBS bits here."""
    from repro.lte.diagnostics import DiagRecord

    config = cellular(scheme="poi360", transport="gcc", duration=5.0, seed=13)
    session = TelephonySession(config)
    session._diag_second_start = -1.0  # this batch closes the second
    session._on_diag_batch([DiagRecord(0.0, v, v) for v in (1e16, 1.0, -1e16)])
    assert session.log.diag_seconds == [(0.0, 0.0)]
