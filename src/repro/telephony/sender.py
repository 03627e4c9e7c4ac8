"""POI360 sender pipeline (left half of Fig. 7).

Per captured frame: build the compression matrix from the current ROI
knowledge (adaptive mode under POI360), encode against the transport's
target bitrate, embed the colored-block timestamp, packetise into RTP
packets and hand them to the pacer.  Feedback from the viewer updates
the ROI knowledge, the mismatch-driven compression mode, the transport
(REMB / receiver reports) and serves NACK retransmissions.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.compression.base import CompressionScheme
from repro.config import SessionConfig
from repro.metrics.summary import SessionLog
from repro.net.packet import Packet
from repro.net.path import ForwardPath
from repro.rate_control.base import TransportController
from repro.rate_control.pacer import PacedSender
from repro.sim.engine import Simulation
from repro.video.capture import VideoSource
from repro.video.encoder import FrameEncoder
from repro.video.frame import EncodedFrame, TileGrid

#: Retransmission history depth (packets).
HISTORY_DEPTH = 4096

#: Media older than this (s) is superseded: NACKs for it are refused.
RTX_MAX_AGE = 0.8

#: Cadence of the Rv/Rrtp trace sampling (s).
RATE_SAMPLE_INTERVAL = 0.2


class PanoramicSender:
    """Capture → compress → encode → packetise → pace."""

    def __init__(
        self,
        sim: Simulation,
        config: SessionConfig,
        scheme: CompressionScheme,
        transport: TransportController,
        forward: ForwardPath,
        encoder: FrameEncoder,
        grid: TileGrid,
        log: SessionLog,
        trace=None,
        meter=None,
    ):
        self._sim = sim
        self._trace = trace
        self._meter = meter
        self._config = config
        self._scheme = scheme
        self._transport = transport
        self._forward = forward
        self._encoder = encoder
        self._grid = grid
        self._log = log
        self.pacer = PacedSender(
            sim,
            forward.send,
            lambda: transport.pacing_rate,
            payload_size=config.video.rtp_payload,
            on_sent=self._record_sent,
        )
        #: Sender's (possibly stale) knowledge of the viewer ROI, r_s.
        self.roi_knowledge: Tuple[int, int] = (0, grid.tiles_y // 2)
        #: Sent media packets by sequence number: at most the last
        #: HISTORY_DEPTH, none older than RTX_MAX_AGE.
        self._history: Dict[int, Packet] = {}
        #: Sequence number of the oldest packet in the history.
        self._oldest = 0
        if config.fec.enabled:
            from repro.rate_control.fec import FecEncoder

            self.fec = FecEncoder(
                config.fec.group_size, send_parity=self.pacer.enqueue_retransmit
            )
        else:
            self.fec = None
        self._source = VideoSource(sim, config.video, self._on_capture)
        sim.every(RATE_SAMPLE_INTERVAL, self._sample_rates)

    def _on_capture(self, index: int, now: float) -> None:
        meter = self._meter
        t0 = meter.span_start() if meter is not None else 0.0
        target_rate = self._transport.video_rate
        if self.fec is not None:
            # Cede the parity overhead: media + FEC must fit the target.
            target_rate /= 1.0 + self.fec.overhead_ratio
        self._scheme.fit_to_rate(target_rate, self._encoder.floor_rate)
        matrix = self._scheme.matrix(self.roi_knowledge)
        # The colored-block timestamp encodes capture_time (= now); the
        # viewer's decoder derives the blocks from it.
        frame = self._encoder.encode(matrix, self.roi_knowledge, target_rate, now)
        self._log.frames_sent += 1
        self._log.sent_bits += frame.size_bits
        if self._trace is not None:
            self._trace.emit(
                "sender.frame", target_rate_bps=target_rate, size_bits=frame.size_bits
            )
        if meter is not None:
            meter.inc("sender.frames")
            meter.observe("sender.frame_kbits", frame.size_bits / 1e3)
            meter.span_end("sender.encode", t0)
        self._sim.schedule(self._config.video.encode_latency, self._emit_frame, frame)

    def _emit_frame(self, frame: EncodedFrame) -> None:
        self.pacer.enqueue_frame(frame)

    def _record_sent(self, packet: Packet) -> None:
        """Keep sent packets for NACK retransmission (RTX history)."""
        if packet.payload.get("rtx") or packet.payload.get("fec"):
            return
        seq = packet.payload["seq"]
        history = self._history
        history[seq] = packet
        # Media sequence numbers are consecutive and their capture times
        # never decrease, so both bounds evict from the oldest upward,
        # this packet included.  An aged packet goes at once: any later
        # lookup at t >= now also finds t - created > RTX_MAX_AGE, so
        # _retransmit refuses it.
        now = self._sim._now
        oldest = self._oldest
        while oldest <= seq and (
            oldest <= seq - HISTORY_DEPTH
            or now - history[oldest].created > RTX_MAX_AGE
        ):
            del history[oldest]
            oldest += 1
        self._oldest = oldest
        if self.fec is not None:
            self.fec.on_media(packet)

    def on_feedback(self, packet: Packet) -> None:
        """Entry point for viewer → sender data-channel messages."""
        message = packet.payload.get("message", {})
        kind = message.get("type")
        if kind == "roi":
            self.roi_knowledge = tuple(message["roi"])
            self._scheme.update_mismatch(message["mismatch"])
        elif kind == "nack":
            for seq in message["seqs"]:
                self._retransmit(seq)
        else:
            self._transport.on_feedback(message, self._sim.now)

    def _retransmit(self, seq: int) -> None:
        original = self._history.get(seq)
        if original is None:
            return  # aged out of the history; the frame will be lost
        if self._sim.now - original.created > RTX_MAX_AGE:
            return  # stale media is superseded; do not waste uplink on it
        payload = {k: v for k, v in original.payload.items() if k != "sent"}
        payload["rtx"] = True
        copy = Packet(
            kind="video",
            size_bytes=original.size_bytes,
            created=original.created,
            payload=payload,
        )
        self.pacer.enqueue_retransmit(copy)

    def _sample_rates(self) -> None:
        self._log.rate_trace.append(
            (self._sim.now, self._transport.video_rate, self._transport.pacing_rate)
        )
        self._log.buffer_levels.append(
            (self._sim.now, self._forward.access_backlog_bytes)
        )
