"""FBCC congestion detector — Eq. (3)."""

import pytest

from repro.config import FbccConfig
from repro.rate_control.fbcc.detector import (
    CongestionDetector,
    GAMMA_CAP,
    HARD_OVERUSE_LEVEL,
)
from repro.units import kbytes


def _feed_levels(detector, levels, start=0.0):
    fired = []
    for index, level in enumerate(levels):
        fired.append(detector.on_report_level(level))
    return fired


def test_no_detection_on_flat_buffer():
    detector = CongestionDetector(FbccConfig())
    fired = _feed_levels(detector, [kbytes(5)] * 40)
    assert not any(fired)


def test_detects_sustained_growth_above_gamma():
    detector = CongestionDetector(FbccConfig())
    _feed_levels(detector, [kbytes(1)] * 20)  # settle Γ low
    growth = [kbytes(1) + i * 1500 for i in range(1, 15)]
    fired = _feed_levels(detector, growth)
    assert any(fired)
    assert detector.detections >= 1


def test_growth_below_gamma_ignored():
    detector = CongestionDetector(FbccConfig())
    _feed_levels(detector, [kbytes(14)] * 300)  # Γ learns a high level
    small_growth = [kbytes(0.5) + i * 200 for i in range(12)]
    fired = _feed_levels(detector, small_growth)
    assert not any(fired)


def test_tiny_net_growth_ignored():
    detector = CongestionDetector(FbccConfig())
    _feed_levels(detector, [kbytes(0.1)] * 20)
    # Slowly creeping level: ~1 KB net over K reports, < MIN_NET_GROWTH.
    wiggle = [kbytes(0.1) + i * 100 for i in range(12)]
    fired = _feed_levels(detector, wiggle)
    assert not any(fired)


def test_hard_overuse_triggers_immediately():
    detector = CongestionDetector(FbccConfig())
    detector.on_report_level(kbytes(1))
    assert detector.on_report_level(HARD_OVERUSE_LEVEL + 1)
    assert detector.detections == 1


def test_redetection_requires_fresh_run():
    detector = CongestionDetector(FbccConfig())
    _feed_levels(detector, [kbytes(1)] * 20)
    growth = [kbytes(1) + i * 1500 for i in range(1, 15)]
    _feed_levels(detector, growth)
    first = detector.detections
    assert first >= 1
    # A flat hold right after must not refire.
    _feed_levels(detector, [growth[-1]] * 5)
    assert detector.detections == first


def test_hot_state_refires_quickly():
    detector = CongestionDetector(FbccConfig())
    _feed_levels(detector, [kbytes(1)] * 20)
    growth = [kbytes(1) + i * 1500 for i in range(1, 15)]
    _feed_levels(detector, growth)
    first = detector.detections
    # Renewed growth only 4 reports long — shorter than K=10 — refires
    # because the detector is hot.
    renewed = [growth[-1] + i * 1500 for i in range(1, 5)]
    _feed_levels(detector, renewed)
    assert detector.detections > first


def test_gamma_tracks_average_and_caps():
    detector = CongestionDetector(FbccConfig())
    _feed_levels(detector, [kbytes(4)] * 2000)
    assert 0 < detector.gamma <= kbytes(4) + 1
    _feed_levels(detector, [kbytes(60)] * 60_000)
    assert detector.gamma == pytest.approx(GAMMA_CAP)
