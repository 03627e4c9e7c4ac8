"""FBCC encoding-rate control (Eq. 6) and RTP sweet-spot control (Eq. 7)."""

import pytest

from repro.config import FbccConfig
from repro.rate_control.fbcc.encoding import EncodingRateControl
from repro.rate_control.fbcc.rtp import RtpRateControl, SweetSpotLearner
from repro.units import kbytes, mbps


class TestEncodingRateControl:
    def _control(self, gcc_rate=mbps(3.0), rtt=0.3, config=None):
        return EncodingRateControl(
            config or FbccConfig(), gcc_rate=lambda: gcc_rate, rtt=lambda: rtt
        )

    def test_follows_gcc_without_congestion(self):
        control = self._control()
        assert control.rate(10.0) == pytest.approx(mbps(3.0))
        assert not control.holding(10.0)

    def test_congestion_pins_rate_to_phy(self):
        config = FbccConfig()
        control = self._control(config=config)
        control.on_congestion(mbps(2.0), now=10.0)
        assert control.holding(10.1)
        assert control.rate(10.1) == pytest.approx(
            mbps(2.0) * config.phy_rate_margin
        )

    def test_hold_lasts_two_rtts(self):
        control = self._control(rtt=0.3)
        control.on_congestion(mbps(2.0), now=10.0)
        assert control.holding(10.0 + 2 * 0.3 - 0.01)
        assert not control.holding(10.0 + 2 * 0.3 + 0.01)
        assert control.rate(11.0) == pytest.approx(mbps(3.0))

    def test_redetection_extends_hold(self):
        control = self._control(rtt=0.3)
        control.on_congestion(mbps(2.0), now=10.0)
        control.on_congestion(mbps(1.5), now=10.5)
        assert control.holding(11.0)
        assert control.congestion_events == 2


class TestRtpRateControl:
    def test_low_buffer_raises_rate(self):
        control = RtpRateControl(FbccConfig(), initial_rate=mbps(2.0), interval=0.04)
        rate = control.on_level(kbytes(2), tbs_rate_bps=mbps(2.0))
        # Eq. 7: + (10 KB - 2 KB)/40 ms in bytes/s → +1.6 Mbps.
        assert rate == pytest.approx(mbps(2.0) + (kbytes(8) / 0.04) * 8, rel=0.01)

    def test_high_buffer_lowers_rate_to_floor(self):
        config = FbccConfig()
        video_rate = mbps(2.0)
        control = RtpRateControl(
            config, initial_rate=mbps(8.0), interval=0.04, video_rate=lambda: video_rate
        )
        rate = control.on_level(kbytes(40), tbs_rate_bps=mbps(2.0))
        assert rate == pytest.approx(
            RtpRateControl.VIDEO_RATE_FLOOR * video_rate
        )

    def test_rate_clamped_to_bounds(self):
        config = FbccConfig()
        control = RtpRateControl(config, initial_rate=config.rtp_max_rate, interval=0.04)
        rate = control.on_level(0.0, tbs_rate_bps=0.0)
        assert rate == config.rtp_max_rate

    def test_configured_target_used(self):
        config = FbccConfig(target_buffer=kbytes(12))
        control = RtpRateControl(config, initial_rate=mbps(1.0), interval=0.04)
        assert control.target_buffer == kbytes(12)


class TestSweetSpotLearner:
    def test_default_until_enough_bins(self):
        learner = SweetSpotLearner()
        assert learner.target(default=1234.0) == 1234.0

    def test_learns_knee(self):
        learner = SweetSpotLearner()
        # Linear-then-saturating profile: plateau from ~8 KB on.
        for level_kb, rate in ((1, 0.5), (3, 1.5), (5, 2.5), (8, 3.0), (12, 3.1), (20, 3.0)):
            for _ in range(50):
                learner.observe(kbytes(level_kb), mbps(rate))
        target = learner.target(default=0.0)
        assert kbytes(6) < target < kbytes(14)

    def test_learner_enabled_when_target_none(self):
        config = FbccConfig(target_buffer=None)
        control = RtpRateControl(config, initial_rate=mbps(1.0), interval=0.04)
        assert control.target_buffer == RtpRateControl.DEFAULT_TARGET
