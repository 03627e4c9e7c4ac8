"""GCC receiver- and sender-side controllers and the GCC transport.

The receiver runs the delay-based estimation on incoming media packets
and returns its remote-rate estimate to the sender as REMB messages
(periodically, plus immediately after every decrease).  The sender
combines REMB with its loss-based rate; the GCC transport then sets the
paper's Fig. 9 model rates to ``Rrtp = Rv = R_gcc`` — WebRTC's default
behaviour that POI360's §3.3 analysis criticises.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.config import GccConfig
from repro.net.packet import Packet
from repro.rate_control.base import RttEstimator, TransportController
from repro.rate_control.gcc.aimd import AimdRateControl
from repro.rate_control.gcc.arrival import InterGroupFilter, TrendlineEstimator
from repro.rate_control.gcc.loss import LossBasedControl
from repro.rate_control.gcc.overuse import OveruseDetector
from repro.sim.engine import Simulation
from repro.units import BITS_PER_BYTE

FeedbackSender = Callable[[Dict[str, Any]], None]

#: Sliding window for the incoming-rate measurement (s).
RATE_WINDOW = 0.5


class GccReceiver:
    """Viewer-side delay-based estimation + feedback generation."""

    def __init__(self, sim: Simulation, config: GccConfig, send_feedback: FeedbackSender):
        self._sim = sim
        self._config = config
        self._send_feedback = send_feedback
        self._filter = InterGroupFilter(config.burst_interval)
        self._trendline = TrendlineEstimator(config.trendline_window, config.trendline_gain)
        self._detector = OveruseDetector(config)
        self.aimd = AimdRateControl(config)
        self._window: Deque[Tuple[float, float]] = deque()
        self._window_bytes = 0.0
        self._last_echo: Optional[Tuple[float, float]] = None
        self._max_seq: Optional[int] = None
        self._expected = 0
        self._received = 0
        self._last_remb_rate: Optional[float] = None
        sim.every(config.feedback_interval, self._send_remb)
        sim.every(config.loss_interval, self._send_receiver_report)

    def on_media_packet(self, packet: Packet) -> None:
        """Feed one arrived RTP packet into the estimator."""
        now = self._sim.now
        sent = packet.payload.get("sent", packet.created)
        self._last_echo = (sent, now)
        self._track_rate(now, packet.size_bytes)
        self._track_loss(packet)
        if packet.payload.get("rtx"):
            return  # retransmissions carry stale send times
        result = self._filter.on_packet(sent, now, packet.size_bytes)
        if result is None:
            return
        delta, arrival = result
        trend = self._trendline.update(delta, arrival)
        state = self._detector.update(trend, now)
        before = self.aimd.rate
        rate = self.aimd.update(state, self.incoming_rate(), now)
        if rate < before * 0.97:
            self._send_remb()  # immediate feedback on decrease

    def incoming_rate(self) -> float:
        """Received media rate over the last half second (bps)."""
        self._evict(self._sim.now)
        return self._window_bytes * BITS_PER_BYTE / RATE_WINDOW

    def _track_rate(self, now: float, size_bytes: float) -> None:
        self._window.append((now, size_bytes))
        self._window_bytes += size_bytes
        self._evict(now)

    def _evict(self, now: float) -> None:
        horizon = now - RATE_WINDOW
        while self._window and self._window[0][0] < horizon:
            _, size = self._window.popleft()
            self._window_bytes -= size

    def _track_loss(self, packet: Packet) -> None:
        seq = packet.payload.get("seq")
        if seq is None or packet.payload.get("rtx"):
            # Retransmissions ride a separate stream in WebRTC (RTX
            # ssrc); counting them here would mask real loss.
            return
        if self._max_seq is None:
            self._max_seq = seq
            self._expected += 1
        elif seq > self._max_seq:
            self._expected += seq - self._max_seq
            self._max_seq = seq
        self._received += 1

    def _echo_fields(self) -> Dict[str, Any]:
        if self._last_echo is None:
            return {}
        sent, received_at = self._last_echo
        return {"echo_send": sent, "echo_hold": self._sim.now - received_at}

    def _send_remb(self) -> None:
        if abs(self.aimd.rate - (self._last_remb_rate or -1.0)) < 1.0:
            pass  # REMB repeats are cheap; always send for robustness
        self._last_remb_rate = self.aimd.rate
        message = {"type": "remb", "rate": self.aimd.rate}
        message.update(self._echo_fields())
        self._send_feedback(message)

    def _send_receiver_report(self) -> None:
        loss = 0.0
        if self._expected > 0:
            loss = max(0.0, 1.0 - self._received / self._expected)
        self._expected = 0
        self._received = 0
        message = {"type": "rr", "loss": loss}
        message.update(self._echo_fields())
        self._send_feedback(message)


class GccSenderControl:
    """Sender-side GCC: loss-based rate ∧ delay-based REMB, plus RTT."""

    def __init__(self, config: GccConfig, trace=None, meter=None):
        self._config = config
        self._loss_based = LossBasedControl(config)
        self._remb: Optional[float] = None
        self.rtt = RttEstimator()
        self._trace = trace
        self._meter = meter

    def on_feedback(self, message: Dict[str, Any], now: float) -> None:
        meter = self._meter
        t0 = meter.span_start() if meter is not None else 0.0
        if "echo_send" in message:
            self.rtt.on_echo(message["echo_send"], message.get("echo_hold", 0.0), now)
        kind = message.get("type")
        if kind == "remb":
            self._remb = message["rate"]
        elif kind == "rr":
            self._loss_based.on_receiver_report(message["loss"])
        if kind in ("remb", "rr"):
            if self._trace is not None:
                self._trace.emit("gcc.rate", rate_bps=self.rate, kind=kind)
            if meter is not None:
                meter.inc("gcc.updates")
                meter.span_end("rate_control.tick", t0)

    @property
    def rate(self) -> float:
        """R_gcc: min(loss-based, delay-based REMB), bps."""
        rate = self._loss_based.rate
        if self._remb is not None:
            rate = min(rate, self._remb)
        return max(self._config.min_rate, rate)


class GccTransport(TransportController):
    """WebRTC default: encoder and pacer both follow R_gcc (§3.3)."""

    name = "gcc"

    def __init__(self, config: GccConfig, trace=None, meter=None):
        self._config = config
        self.sender = GccSenderControl(config, trace=trace, meter=meter)

    @property
    def video_rate(self) -> float:
        return self.sender.rate

    @property
    def pacing_rate(self) -> float:
        return self.sender.rate * self._config.pacing_factor

    def on_feedback(self, message: Dict[str, Any], now: float) -> None:
        self.sender.on_feedback(message, now)
