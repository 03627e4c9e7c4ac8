"""SessionLog / SessionSummary aggregation."""

import numpy as np
import pytest

from repro.metrics.summary import SessionLog, SessionSummary


def _populated_log():
    log = SessionLog()
    log.start_time = 10.0
    arrivals = []
    for index in range(120):
        t = 10.0 + index / 30.0
        log.frame_delays.append(0.3 + 0.001 * index)
        log.roi_psnrs.append(35.0 + (index % 5))
        log.display_times.append(t)
        log.roi_levels.append((t, 1.0 + 0.1 * (index % 3)))
        arrivals.append((t, 1200.0))
        log.mismatches.append(0.3)
    log.arrivals = np.array(arrivals)
    log.frames_sent = 130
    log.frames_displayed = 120
    log.sent_bits = 4e6
    return log


def test_summary_from_log():
    summary = SessionSummary.from_log(_populated_log(), "poi360", "fbcc", duration=4.0)
    assert summary.scheme == "poi360"
    assert summary.delay.count == 120
    assert summary.freeze_ratio == 0.0
    assert 34.0 < summary.quality.mean_psnr < 41.0
    assert summary.mean_mismatch == pytest.approx(0.3)
    assert summary.sent_rate_mean == pytest.approx(1e6)
    assert summary.stability_stds
    assert summary.quality_stds


def test_throughput_series_shifted_by_start_time():
    summary = SessionSummary.from_log(_populated_log(), "poi360", "gcc", duration=4.0)
    # 30 packets of 1200 B per second = 288 kbps in every bucket.
    assert summary.throughput.mean == pytest.approx(288_000.0, rel=0.1)
    assert summary.throughput.std < 0.5 * summary.throughput.mean


def test_lost_frames_raise_freeze_ratio():
    log = _populated_log()
    log.frames_lost = 40
    summary = SessionSummary.from_log(log, "poi360", "gcc", duration=4.0)
    assert summary.freeze_ratio == pytest.approx(40 / 160)


def test_reset_clears_everything():
    log = _populated_log()
    log.reset()
    assert not log.frame_delays
    assert log.arrivals.shape == (0, 2)
    assert log.frames_sent == 0
    assert log.sent_bits == 0.0


def test_to_dict_round_values():
    summary = SessionSummary.from_log(_populated_log(), "poi360", "gcc", duration=4.0)
    table = summary.to_dict()
    assert table["scheme"] == "poi360"
    assert isinstance(table["median_delay_ms"], float)


def test_empty_log_summary():
    summary = SessionSummary.from_log(SessionLog(), "conduit", "gcc", duration=4.0)
    assert np.isnan(summary.quality.mean_psnr)
    assert summary.freeze_ratio == 0.0
    assert np.isnan(summary.stability_mean)
    assert np.isnan(summary.quality_stability_mean)
