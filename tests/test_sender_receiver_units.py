"""Targeted unit tests for the sender/receiver pipelines."""

from types import SimpleNamespace

import pytest

from repro.net.packet import Packet
from repro.telephony.session import TelephonySession
from repro.traces.scenarios import cellular, wireline


def _media(seq, rtx=False):
    """A media packet of a frame too large to complete, so receiving it
    runs the sequence tracker and frame assembly but never a display."""
    frame = SimpleNamespace(frame_id=0, capture_time=0.0)
    payload = {"seq": seq, "frame": frame, "frame_seq": seq, "frame_packets": 1000}
    if rtx:
        payload["rtx"] = True
    return Packet(kind="video", size_bytes=100, created=0.0, payload=payload)


@pytest.fixture
def session():
    config = cellular(scheme="poi360", transport="gcc", duration=10.0, seed=17)
    return TelephonySession(config)


class TestSender:
    def test_roi_feedback_updates_knowledge_and_mode(self, session):
        sender = session.sender
        packet = Packet(
            kind="feedback",
            size_bytes=80,
            created=0.0,
            payload={"message": {"type": "roi", "roi": (7, 3), "mismatch": 1.9}},
        )
        sender.on_feedback(packet)
        assert sender.roi_knowledge == (7, 3)
        assert session.scheme._desired_index == 8  # M=1.9 → conservative

    def test_transport_feedback_routed(self, session):
        packet = Packet(
            kind="feedback",
            size_bytes=80,
            created=0.0,
            payload={"message": {"type": "remb", "rate": 500_000.0}},
        )
        session.sender.on_feedback(packet)
        assert session.transport.video_rate == pytest.approx(500_000.0)

    def test_nack_for_unknown_seq_ignored(self, session):
        packet = Packet(
            kind="feedback",
            size_bytes=80,
            created=0.0,
            payload={"message": {"type": "nack", "seqs": [12345]}},
        )
        session.sender.on_feedback(packet)  # must not raise

    def test_retransmit_serves_recent_media(self, session):
        session.sim.run(3.0)
        sender = session.sender
        assert sender._history, "no media sent yet"
        seq = max(sender._history)
        before = len(sender.pacer._retransmits)
        sender._retransmit(seq)
        assert len(sender.pacer._retransmits) == before + 1
        rtx = sender.pacer._retransmits[-1]
        assert rtx.payload["rtx"] and rtx.payload["seq"] == seq

    def test_retransmit_skips_stale_media(self, session):
        session.sim.run(3.0)
        sender = session.sender
        seq = min(sender._history)
        # Age the packet far past the staleness bound.
        sender._history[seq].created = session.sim.now - 5.0
        before = len(sender.pacer._retransmits)
        sender._retransmit(seq)
        assert len(sender.pacer._retransmits) == before


class TestReceiver:
    def test_superseded_frames_not_displayed(self, session):
        session.sim.run(5.0)
        receiver = session.receiver
        displayed_before = session.log.frames_displayed
        delays_before = len(session.log.frame_delays)
        # Re-display an old frame: delay recorded, display rejected.
        old_capture = session.log.display_times[0] - 1.0 if session.log.display_times else 0.0
        import numpy as np
        from repro.video.frame import EncodedFrame

        stale = EncodedFrame(
            frame_id=999_999,
            capture_time=old_capture,
            send_start=old_capture,
            matrix=np.ones((12, 8)),
            sender_roi=(0, 4),
            size_bits=8000.0,
            bpp=0.05,
            pixel_ratio=0.5,
        )
        receiver._display(stale)
        assert len(session.log.frame_delays) == delays_before + 1
        assert session.log.frames_displayed == displayed_before

    def test_duplicate_nacks_not_sent_per_packet(self, session):
        receiver = session.receiver
        sent_feedback = []
        receiver._feedback = sent_feedback.append
        receiver._accept_media(_media(0), 0.0)
        receiver._accept_media(_media(5), 0.0)
        nacks = [m for m in sent_feedback if m["type"] == "nack"]
        assert len(nacks) == 1
        assert nacks[0]["seqs"] == [1, 2, 3, 4]
        # The same gap is not re-NACKed on the next packet.
        receiver._accept_media(_media(6), 0.0)
        assert len([m for m in sent_feedback if m["type"] == "nack"]) == 1

    def test_rtx_clears_missing(self, session):
        receiver = session.receiver
        receiver._feedback = lambda m: None
        receiver._accept_media(_media(0), 0.0)
        receiver._accept_media(_media(2), 0.0)
        assert 1 in receiver._missing
        receiver._accept_media(_media(1, rtx=True), 0.0)
        assert 1 not in receiver._missing

    def test_playout_clamped(self, session):
        receiver = session.receiver
        receiver._jitter = 10.0  # absurd jitter estimate
        assert receiver.playout_delay == session.config.video.playout_max
        receiver._jitter = 0.0
        assert receiver.playout_delay == session.config.video.playout_min

    def test_frame_delay_estimate_is_median(self, session):
        receiver = session.receiver
        for value in (0.1, 0.2, 0.3, 5.0, 5.0):  # outliers
            receiver._recent_delays.append(value)
        assert receiver.frame_delay_estimate == pytest.approx(0.3)


class TestWirelineSession:
    def test_wireline_has_no_diag(self):
        config = wireline(scheme="poi360", transport="gcc", duration=5.0, seed=2)
        session = TelephonySession(config)
        assert session.forward.ue is None
        result = session.run(5.0)
        assert result.log.diag_seconds == []
