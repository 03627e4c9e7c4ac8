"""Send-side bandwidth estimation (transport-wide CC).

The paper's prototype modifies 2017-era WebRTC, whose delay-based
estimator ran at the *receiver* and fed REMB messages back.  Modern
WebRTC moved the whole estimator to the sender: the receiver only
echoes per-packet arrival times (transport-wide feedback), and the
sender runs grouping/trendline/AIMD locally — one config knob instead
of a remote code path, and the sender can react the moment feedback
lands rather than waiting for the receiver's decision.

This variant exists to measure how much of FBCC's advantage survives
against a newer baseline (``benchmarks/test_ablation_sendside.py``).
Select it with ``SessionConfig.transport = "gcc_ss"``.  It runs the GCC
core of :mod:`repro.rate_control.gcc.controller` at the sender.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import GccConfig
from repro.net.packet import Packet
from repro.rate_control.gcc.controller import (
    DelayBasedEstimator,
    FeedbackSender,
    GccTransport,
    ViewerFeedback,
)
from repro.sim.engine import Simulation
from repro.units import BITS_PER_BYTE

#: Transport-wide feedback cadence (WebRTC sends every 50-250 ms).
FEEDBACK_INTERVAL = 0.1


class TwccFeedbackGenerator(ViewerFeedback):
    """Viewer side: echo (send time, arrival, size) for every packet."""

    def __init__(self, sim: Simulation, config: GccConfig, send_feedback: FeedbackSender):
        super().__init__(sim, config, send_feedback, FEEDBACK_INTERVAL)
        self._pending: List[Tuple[float, float, float]] = []

    def on_media_packet(self, packet: Packet) -> None:
        sent = self._on_arrival(packet)
        if not packet.payload.get("rtx"):
            self._pending.append((sent, self._sim.now, packet.size_bytes))

    def _send_delay_feedback(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        message = {"type": "twcc", "packets": batch}
        message.update(self._echo_fields())
        self._send_feedback(message)


class SendSideBwe(DelayBasedEstimator):
    """The delay-based estimator run at the sender over echoed timings,
    with the acknowledged throughput as its incoming rate."""

    def __init__(self, config: GccConfig):
        super().__init__(config)
        self._acked: List[Tuple[float, float]] = []

    def on_packet_report(
        self, sent: float, arrival: float, size_bytes: float, now: float
    ) -> None:
        """Feed one echoed packet, reported to the sender at ``now``."""
        self._acked.append((arrival, size_bytes))
        self.on_packet(sent, arrival, size_bytes, now, self.acked_rate)

    def acked_rate(self, window: float = 0.5) -> float:
        """Acknowledged throughput over the last ``window`` seconds."""
        if not self._acked:
            return 0.0
        horizon = self._acked[-1][0] - window
        self._acked = [(t, s) for t, s in self._acked if t >= horizon]
        acked = 0.0  # a running sum, not compensated sum() (design rule 4)
        for _, size in self._acked:
            acked += size
        return acked * BITS_PER_BYTE / window


class SendSideGccTransport(GccTransport):
    """GCC with sender-local estimation over transport-wide feedback."""

    name = "gcc_ss"

    def __init__(self, config: GccConfig):
        super().__init__(config, estimator=SendSideBwe(config))
