"""Send-side BWE (transport-wide CC) variant."""

import pytest

from repro.config import GccConfig
from repro.net.packet import Packet
from repro.rate_control.gcc.sendside import (
    SendSideBwe,
    SendSideGccTransport,
    TwccFeedbackGenerator,
)
from repro.sim.engine import Simulation
from repro.units import mbps


def _media(seq, sent, size=1200.0, rtx=False):
    payload = {"seq": seq, "sent": sent}
    if rtx:
        payload["rtx"] = True
    return Packet(kind="video", size_bytes=size, created=sent, payload=payload)


def test_feedback_generator_batches_packets():
    sim = Simulation()
    messages = []
    generator = TwccFeedbackGenerator(sim, GccConfig(), messages.append)
    for index in range(30):
        sim.run(0.01)
        generator.on_media_packet(_media(index, sim.now - 0.05))
    sim.run(0.2)
    batches = [m for m in messages if m["type"] == "twcc"]
    assert batches
    total = sum(len(m["packets"]) for m in batches)
    assert total == 30
    sent, arrival, size = batches[0]["packets"][0]
    assert arrival - sent == pytest.approx(0.05, abs=0.001)


def test_rtx_excluded_from_reports():
    sim = Simulation()
    messages = []
    generator = TwccFeedbackGenerator(sim, GccConfig(), messages.append)
    generator.on_media_packet(_media(0, 0.0, rtx=True))
    sim.run(0.3)
    assert not [m for m in messages if m["type"] == "twcc"]


def test_loss_reports_emitted():
    sim = Simulation()
    messages = []
    generator = TwccFeedbackGenerator(sim, GccConfig(), messages.append)
    generator.on_media_packet(_media(0, 0.0))
    generator.on_media_packet(_media(4, 0.01))  # 3 lost
    sim.run(1.1)
    reports = [m for m in messages if m["type"] == "rr"]
    assert reports and reports[0]["loss"] == pytest.approx(0.6, abs=0.01)


def test_bwe_grows_on_clean_path():
    sim = Simulation()
    bwe = SendSideBwe(GccConfig())
    early = None
    for index in range(1500):
        sim.run(0.004)
        bwe.on_packet_report(sim.now - 0.05, sim.now, 1200.0, sim.now)
        if index == 200:
            early = bwe.rate
    # Flat delays → no decreases, monotone probing upward.
    assert bwe.aimd.decreases == 0
    assert bwe.rate > early


def test_bwe_cuts_on_growing_delay():
    sim = Simulation()
    bwe = SendSideBwe(GccConfig())
    for index in range(300):
        sim.run(0.004)
        bwe.on_packet_report(sim.now - 0.05, sim.now, 1200.0, sim.now)
    assert bwe.aimd.decreases == 0
    for index in range(300):
        sim.run(0.004)
        # Queue builds: each packet 1.5 ms later than the last.
        bwe.on_packet_report(sim.now - 0.05 - index * 0.0015, sim.now, 1200.0, sim.now)
    assert bwe.aimd.decreases >= 1


def test_transport_combines_loss_and_delay():
    transport = SendSideGccTransport(GccConfig())
    transport.on_feedback({"type": "rr", "loss": 0.5}, now=1.0)
    assert transport.video_rate < GccConfig().start_rate
    assert transport.pacing_rate == pytest.approx(
        transport.video_rate * GccConfig().pacing_factor
    )


def test_end_to_end_session_with_sendside_gcc():
    from repro.telephony.session import TelephonySession
    from repro.traces.scenarios import cellular

    config = cellular(scheme="poi360", transport="gcc_ss", duration=30.0, seed=9)
    session = TelephonySession(config)
    result = session.run(30.0, warmup=10.0)
    assert result.summary.frames_displayed > 400
    assert result.summary.throughput.mean > 0.3e6
    assert session.transport.sender.rtt.samples > 0


def test_acked_rate_sums_left_to_right():
    """A compensated sum (``sum()`` from Python 3.12 on) reads 1 byte here."""
    bwe = SendSideBwe(GccConfig())
    bwe._acked = [(0.0, 1e16), (0.1, 1.0), (0.2, -1e16)]
    assert bwe.acked_rate(window=0.5) == 0.0
