"""The GCC core, shared by both GCC flavours, and receiver-side GCC.

The core is the delay-based pipeline (:class:`DelayBasedEstimator`),
the viewer's loss and echo feedback (:class:`ViewerFeedback`) and the
sender (:class:`GccSenderControl`).  Here the receiver runs the
estimator and returns its rate to the sender as REMB messages
(periodically, plus immediately after every decrease);
:mod:`repro.rate_control.gcc.sendside` runs it at the sender.  The GCC
transport sets the paper's Fig. 9 model rates to ``Rrtp = Rv = R_gcc``
— WebRTC's default behaviour that POI360's §3.3 analysis criticises.
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


class DelayBasedEstimator:
    """Inter-group filter → trendline → overuse detector → AIMD.

    Each user keeps its own incoming-rate measure and passes it as a
    callable, read only when a packet group completes.
    """

    def __init__(self, config: GccConfig):
        self._filter = InterGroupFilter(config.burst_interval)
        self._trendline = TrendlineEstimator(config.trendline_window, config.trendline_gain)
        self._detector = OveruseDetector(config)
        self.aimd = AimdRateControl(config)

    @property
    def rate(self) -> float:
        """The delay-based rate estimate (bps)."""
        return self.aimd.rate

    def on_packet(
        self, sent: float, arrival: float, size_bytes: float, now: float,
        incoming_rate: Callable[[], float],
    ) -> None:
        """Feed one packet's send and arrival times, processed at ``now``."""
        result = self._filter.on_packet(sent, arrival, size_bytes)
        if result is None:
            return
        delta, group_arrival = result
        trend = self._trendline.update(delta, group_arrival)
        state = self._detector.update(trend, now)
        self.aimd.update(state, incoming_rate(), now)


class ViewerFeedback:
    """Viewer-side feedback common to both GCC flavours.

    Counts sequence-number loss for the periodic receiver reports and
    echoes the last media packet's send time in every message.  A
    flavour sends its delay-based feedback from
    :meth:`_send_delay_feedback`, whose timer is scheduled before the
    receiver-report timer: that order decides which same-time feedback
    goes first.
    """

    def __init__(
        self, sim: Simulation, config: GccConfig, send_feedback: FeedbackSender,
        feedback_interval: float,
    ):
        self._sim = sim
        self._send_feedback = send_feedback
        self._last_echo: Optional[Tuple[float, float]] = None
        self._max_seq: Optional[int] = None
        self._expected = 0
        self._received = 0
        sim.every(feedback_interval, self._send_delay_feedback)
        sim.every(config.loss_interval, self._send_receiver_report)

    def _on_arrival(self, packet: Packet) -> Optional[float]:
        """Note ``packet``'s echo and sequence number; returns its send
        time, or None for a retransmission (its send time is stale)."""
        payload = packet.payload
        sent = payload.get("sent", packet.created)
        self._last_echo = (sent, self._sim._now)
        if payload.get("rtx"):
            # Retransmissions ride a separate stream in WebRTC (RTX
            # ssrc); counting them here would mask real loss.
            return None
        seq = payload.get("seq")
        if seq is not None:
            max_seq = self._max_seq
            if max_seq is None:
                self._max_seq = seq
                self._expected += 1
            elif seq > max_seq:
                self._expected += seq - max_seq
                self._max_seq = seq
            self._received += 1
        return sent

    def _echo_fields(self) -> Dict[str, Any]:
        if self._last_echo is None:
            return {}
        sent, received_at = self._last_echo
        return {"echo_send": sent, "echo_hold": self._sim.now - received_at}

    def _send_delay_feedback(self) -> None:
        raise NotImplementedError

    def _send_receiver_report(self) -> None:
        loss = 0.0
        if self._expected > 0:
            loss = max(0.0, 1.0 - self._received / self._expected)
        self._expected = 0
        self._received = 0
        message = {"type": "rr", "loss": loss}
        message.update(self._echo_fields())
        self._send_feedback(message)


class GccReceiver(ViewerFeedback):
    """Viewer-side delay-based estimation + REMB feedback."""

    def __init__(self, sim: Simulation, config: GccConfig, send_feedback: FeedbackSender):
        super().__init__(sim, config, send_feedback, config.feedback_interval)
        self.estimator = DelayBasedEstimator(config)
        self._window: Deque[Tuple[float, float]] = deque()
        self._window_bytes = 0.0

    def on_media_packet(self, packet: Packet) -> None:
        """Feed one arrived RTP packet into the estimator."""
        now = self._sim._now
        sent = self._on_arrival(packet)
        size = packet.size_bytes
        self._window.append((now, size))
        self._window_bytes += size
        self._evict(now)
        if sent is None:
            return  # retransmissions carry stale send times
        estimator = self.estimator
        aimd = estimator.aimd
        before = aimd.rate
        estimator.on_packet(sent, now, size, now, self.incoming_rate)
        if aimd.rate < before * 0.97:
            self._send_delay_feedback()  # immediate REMB on decrease

    def incoming_rate(self) -> float:
        """Received media rate over the last half second (bps)."""
        self._evict(self._sim._now)
        return self._window_bytes * BITS_PER_BYTE / RATE_WINDOW

    def _evict(self, now: float) -> None:
        window = self._window
        horizon = now - RATE_WINDOW
        while window and window[0][0] < horizon:
            self._window_bytes -= window.popleft()[1]

    def _send_delay_feedback(self) -> None:
        message = {"type": "remb", "rate": self.estimator.rate}
        message.update(self._echo_fields())
        self._send_feedback(message)


class GccSenderControl:
    """Sender-side GCC: loss-based rate ∧ delay-based rate, plus RTT.

    The delay-based rate comes from the last REMB (none before the
    first), or, given a local ``estimator`` fed by transport-wide
    ``twcc`` reports, from that estimator from the start.
    """

    def __init__(self, config: GccConfig, trace=None, meter=None, estimator=None):
        self._config = config
        self._loss_based = LossBasedControl(config)
        self.rtt = RttEstimator()
        self._trace = trace
        self._meter = meter
        self.estimator = estimator
        self._delay_rate = None if estimator is None else estimator.rate

    def on_feedback(self, message: Dict[str, Any], now: float) -> None:
        meter = self._meter
        t0 = meter.span_start() if meter is not None else 0.0
        if "echo_send" in message:
            self.rtt.on_echo(message["echo_send"], message.get("echo_hold", 0.0), now)
        kind = message.get("type")
        if kind == "remb":
            self._delay_rate = message["rate"]
        elif kind == "twcc":
            for sent, arrival, size in message["packets"]:
                self.estimator.on_packet_report(sent, arrival, size, now)
            self._delay_rate = self.estimator.rate
        elif kind == "rr":
            self._loss_based.on_receiver_report(message["loss"])
        else:
            return
        if self._trace is not None:
            self._trace.emit("gcc.rate", rate_bps=self.rate, kind=kind)
        if meter is not None:
            meter.inc("gcc.updates")
            meter.span_end("rate_control.tick", t0)

    @property
    def rate(self) -> float:
        """R_gcc: min(loss-based, delay-based), bps."""
        rate = self._loss_based.rate
        delay_rate = self._delay_rate
        # min() and max() spelled as the comparisons they make.
        if delay_rate is not None and delay_rate < rate:
            rate = delay_rate
        floor = self._config.min_rate
        return rate if rate > floor else floor


class GccTransport(TransportController):
    """WebRTC default: encoder and pacer both follow R_gcc (§3.3)."""

    name = "gcc"

    def __init__(self, config: GccConfig, trace=None, meter=None, estimator=None):
        self._config = config
        self.sender = GccSenderControl(config, trace, meter, estimator)

    @property
    def video_rate(self) -> float:
        return self.sender.rate

    @property
    def pacing_rate(self) -> float:
        return self.sender.rate * self._config.pacing_factor

    def on_feedback(self, message: Dict[str, Any], now: float) -> None:
        self.sender.on_feedback(message, now)
