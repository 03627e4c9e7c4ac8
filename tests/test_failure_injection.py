"""Failure injection: the stack must degrade gracefully, not collapse.

These tests reach into a running session's processes to force faults —
radio outages, feedback-channel loss, load spikes — and verify recovery
behaviour.
"""

import numpy as np
import pytest

from repro.telephony.session import TelephonySession
from repro.traces.scenarios import cellular


def _session(transport="fbcc", seed=19, duration=60.0):
    config = cellular(scheme="poi360", transport=transport, duration=duration, seed=seed)
    return TelephonySession(config)


def test_radio_outage_recovers():
    session = _session()
    sim = session.sim
    channel = session.forward.ue.channel

    # Force a 2-second radio outage at t=20.
    sim.schedule(20.0, lambda: setattr(channel, "outage_until", 22.0))
    result = session.run(60.0, warmup=10.0)

    times = np.array(result.log.display_times)
    # Frames flowed after the outage ended...
    assert (times > 25.0).sum() > 400
    # ... and the tail of the session is healthy again (frame_delays is
    # chronological; the last quarter post-dates the outage by far).
    delays = np.array(result.log.frame_delays)
    assert np.median(delays[-len(delays) // 4 :]) < 0.8


def test_outage_drives_congestion_detection():
    session = _session()
    sim = session.sim
    channel = session.forward.ue.channel
    sim.schedule(20.0, lambda: setattr(channel, "outage_until", 21.5))
    session.run(40.0)
    # The firmware buffer filled during the outage; FBCC must have fired.
    assert session.transport.encoding.congestion_events >= 1


def test_feedback_loss_degrades_gracefully():
    session = _session(transport="gcc", seed=23)
    # 30% of feedback messages (ROI, M, REMB, RR) vanish.
    session.reverse._link.loss = 0.30
    result = session.run(50.0, warmup=10.0)
    assert result.summary.frames_displayed > 700
    assert result.summary.quality.mean_psnr > 25.0
    # The sender still learned the viewer's ROI at least sometimes.
    assert session.sender.roi_knowledge is not None


def test_total_feedback_blackout_freezes_adaptation_not_video():
    session = _session(transport="gcc", seed=29)
    session.reverse._link.loss = 1.0
    result = session.run(30.0)
    # Media still flows (GCC sender just keeps its last rates)...
    assert result.summary.frames_displayed > 300
    # ... but the sender's ROI knowledge never left its initial value.
    assert session.sender.roi_knowledge == (0, session.grid.tiles_y // 2)


def test_load_spike_throttles_rate():
    session = _session(seed=31)
    sim = session.sim
    cell = session.forward.ue.cell
    rates = []

    def spike():
        cell._background = 0.8
        cell._deviation = 0.0

    sim.schedule(30.0, spike)
    sim.every(1.0, lambda: rates.append((sim.now, session.transport.video_rate)))
    session.run(60.0)
    before = np.mean([r for t, r in rates if 20.0 < t <= 30.0])
    after = np.mean([r for t, r in rates if 50.0 < t <= 60.0])
    assert after < before


def test_receiver_survives_duplicate_packets():
    session = _session(transport="gcc", seed=37)
    receiver = session.receiver
    original = receiver.on_media_packet

    def duplicate(packet):
        original(packet)
        original(packet)  # replay every packet

    session.forward.set_receiver(duplicate)
    result = session.run(20.0)
    assert result.summary.frames_displayed > 300
