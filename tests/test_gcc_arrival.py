"""GCC packet grouping and trendline estimation."""

import pytest

from repro.rate_control.gcc.arrival import InterGroupFilter, TrendlineEstimator


def test_packets_within_burst_grouped():
    filt = InterGroupFilter(burst_interval=0.005)
    assert filt.on_packet(0.000, 0.050, 1200) is None
    assert filt.on_packet(0.003, 0.052, 1200) is None  # same send burst
    # New group: previous completes, but there is no earlier group to
    # difference against yet.
    assert filt.on_packet(0.010, 0.060, 1200) is None
    result = filt.on_packet(0.020, 0.070, 1200)
    assert result is not None


def test_delay_delta_zero_for_constant_latency():
    filt = InterGroupFilter(burst_interval=0.005)
    deltas = []
    for index in range(10):
        send = index * 0.010
        result = filt.on_packet(send, send + 0.050, 1200)
        if result:
            deltas.append(result[0])
    assert all(abs(d) < 1e-9 for d in deltas)


def test_delay_delta_positive_when_queue_builds():
    filt = InterGroupFilter(burst_interval=0.005)
    deltas = []
    for index in range(10):
        send = index * 0.010
        arrival = send + 0.050 + index * 0.004  # 4 ms extra queue per group
        result = filt.on_packet(send, arrival, 1200)
        if result:
            deltas.append(result[0])
    assert all(d == pytest.approx(0.004) for d in deltas)


def test_arrival_burst_merged_into_group():
    """Packets draining back-to-back after a scheduler idle gap must not
    register as a delay spike (WebRTC's BelongsToBurst)."""
    filt = InterGroupFilter(burst_interval=0.005)
    filt.on_packet(0.000, 0.050, 1200)
    # Sent 20 ms later but arriving 1 ms later: queued behind the first
    # during an idle gap, drained in a burst.
    assert filt.on_packet(0.020, 0.051, 1200) is None


def test_trendline_zero_for_flat_delays():
    trend = TrendlineEstimator(window=20, gain=4.0)
    values = [trend.update(0.0, t * 0.01) for t in range(1, 40)]
    assert abs(values[-1]) < 1e-9


def test_trendline_positive_for_growing_delay():
    trend = TrendlineEstimator(window=20, gain=4.0)
    value = 0.0
    for t in range(1, 60):
        value = trend.update(0.002, t * 0.01)
    assert value > 1.0


def test_trendline_negative_for_draining_queue():
    trend = TrendlineEstimator(window=20, gain=4.0)
    value = 0.0
    for t in range(1, 60):
        value = trend.update(-0.002, t * 0.01)
    assert value < -1.0


def test_slope_sums_left_to_right():
    """Running sums: ``sum()`` over floats is compensated from Python
    3.12 on, and ``math.fsum`` moments give -2.0000000000000004 here."""
    trend = TrendlineEstimator(window=20, gain=4.0)
    trend._points.extend([(0.1, 0.7), (0.2, 0.1), (0.3, 0.3)])
    assert trend._slope() == -2.0
