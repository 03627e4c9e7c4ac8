"""FBCC windowed-TBS bandwidth estimator — Eq. (4)."""

import pytest

from repro.rate_control.fbcc.bandwidth import TbsBandwidthEstimator


def test_empty_estimator_reports_zero():
    assert TbsBandwidthEstimator(500).rate_bps == 0.0


def test_rate_matches_constant_tbs():
    estimator = TbsBandwidthEstimator(100)
    for _ in range(100):
        estimator.on_tbs(250.0)  # 250 B per 1 ms subframe
    assert estimator.rate_bps == pytest.approx(250 * 8 * 1000)


def test_partial_window_uses_actual_length():
    estimator = TbsBandwidthEstimator(1000)
    for _ in range(10):
        estimator.on_tbs(125.0)
    assert estimator.rate_bps == pytest.approx(125 * 8 * 1000)


def test_window_slides():
    estimator = TbsBandwidthEstimator(10)
    for _ in range(10):
        estimator.on_tbs(100.0)
    for _ in range(10):
        estimator.on_tbs(500.0)
    assert estimator.rate_bps == pytest.approx(500 * 8 * 1000)


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        TbsBandwidthEstimator(0)
