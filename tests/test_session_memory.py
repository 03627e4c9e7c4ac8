"""What an event-engine session keeps alive: the sender's RTX history
holds only packets a NACK can still retransmit, so a finished session
leaves few packets for the cycle collector (docs/PERFORMANCE.md,
"Memory: the RTX history and dead sessions")."""

import gc

import pytest

from repro.net.packet import Packet
from repro.telephony.sender import RTX_MAX_AGE, PanoramicSender
from repro.telephony.session import TelephonySession
from repro.traces.scenarios import cellular, wireline

SESSION_S = 20.0

#: A finished session's packets left for the cycle collector.  With the
#: old count-only history (4,096 packets) this session left 1,474 of
#: them; the age-bounded one leaves 84.
MAX_DEAD_PACKETS = 500


@pytest.mark.parametrize(
    "config",
    [
        cellular(scheme="poi360", transport="fbcc", duration=SESSION_S, seed=1),
        wireline(scheme="pyramid", transport="gcc", duration=SESSION_S, seed=1),
    ],
    ids=["cellular-poi360-fbcc", "wireline-pyramid-gcc"],
)
def test_history_holds_nothing_a_nack_would_refuse(config, monkeypatch):
    record_sent = PanoramicSender._record_sent
    checked = []

    def checked_record_sent(sender, packet):
        record_sent(sender, packet)
        payload = packet.payload
        if payload.get("rtx") or payload.get("fec"):
            return
        if checked:
            assert packet.created >= checked[-1]
        checked.append(packet.created)
        history = sender._history
        if history:
            # Consecutive sequence numbers with capture times that never
            # decrease: the first entry is the oldest packet kept.
            first = next(iter(history))
            assert len(history) == payload["seq"] - first + 1
            assert sender._sim.now - history[first].created <= RTX_MAX_AGE

    monkeypatch.setattr(PanoramicSender, "_record_sent", checked_record_sent)
    TelephonySession(config).run(SESSION_S)
    assert len(checked) > 1000


def test_a_finished_session_leaves_few_packets_to_the_cycle_collector():
    gc.collect()
    config = cellular(scheme="poi360", transport="fbcc", duration=SESSION_S, seed=1)
    TelephonySession(config).run(SESSION_S)
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        packets = sum(isinstance(obj, Packet) for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert 0 < packets < MAX_DEAD_PACKETS
