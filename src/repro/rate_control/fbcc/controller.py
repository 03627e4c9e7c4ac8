"""The combined FBCC transport (§4.3).

Wires the Eq. (3) detector, Eq. (4)/(5) bandwidth estimator, Eq. (6)
encoding-rate control and Eq. (7) RTP-rate control to the diagnostic
interface, while keeping a full legacy GCC sender underneath for the
"congestion elsewhere" fallback and the RTT estimate.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.config import FbccConfig, GccConfig
from repro.lte.diagnostics import DiagRecord
from repro.rate_control.base import TransportController
from repro.rate_control.fbcc.bandwidth import TbsBandwidthEstimator
from repro.rate_control.fbcc.detector import CongestionDetector
from repro.rate_control.fbcc.encoding import EncodingRateControl
from repro.rate_control.fbcc.rtp import RtpRateControl
from repro.rate_control.gcc.controller import GccSenderControl
from repro.sim.engine import Simulation


class FbccTransport(TransportController):
    """POI360's firmware-buffer-aware congestion control."""

    name = "fbcc"

    def __init__(
        self,
        sim: Simulation,
        fbcc_config: FbccConfig,
        gcc_config: GccConfig,
        diag_interval: float,
        trace=None,
        meter=None,
    ):
        self._sim = sim
        self._config = fbcc_config
        self._trace = trace
        self._meter = meter
        self.gcc = GccSenderControl(gcc_config, trace=trace, meter=meter)
        self.detector = CongestionDetector(fbcc_config)
        self.bandwidth = TbsBandwidthEstimator(fbcc_config.tbs_window_subframes)
        self.encoding = EncodingRateControl(
            fbcc_config, gcc_rate=lambda: self.gcc.rate, rtt=lambda: self.gcc.rtt.rtt
        )
        self.rtp = RtpRateControl(
            fbcc_config,
            initial_rate=gcc_config.start_rate,
            interval=diag_interval,
            video_rate=lambda: self.video_rate,
        )

    @property
    def video_rate(self) -> float:
        """R_v per Eq. (6)."""
        return self.encoding.rate(self._sim.now)

    @property
    def pacing_rate(self) -> float:
        """R_rtp per Eq. (7)."""
        return self.rtp.rate

    def on_feedback(self, message: Dict[str, Any], now: float) -> None:
        self.gcc.on_feedback(message, now)

    def on_diag(self, batch: List[DiagRecord]) -> None:
        """Consume one 40 ms diagnostic batch from the modem."""
        meter = self._meter
        t0 = meter.span_start() if meter is not None else 0.0
        self.bandwidth.on_batch(batch)
        congested = self.detector.on_batch(batch)
        if congested:
            self.encoding.on_congestion(self.bandwidth.rate_bps, self._sim.now)
            if self._trace is not None:
                self._trace.emit(
                    "fbcc.congestion",
                    phy_rate_bps=self.bandwidth.rate_bps,
                    held_rate_bps=self.encoding.held_rate,
                    gamma_bytes=self.detector.gamma,
                )
        self.rtp.on_batch(batch, self.bandwidth.rate_bps)
        if self._trace is not None:
            self._trace.emit(
                "fbcc.rate",
                video_rate_bps=self.video_rate,
                rtp_rate_bps=self.rtp.rate,
                bw_est_bps=self.bandwidth.rate_bps,
                target_buffer_bytes=self.rtp.target_buffer,
            )
        if meter is not None:
            meter.inc("fbcc.ticks")
            if congested:
                meter.inc("fbcc.congestion_events")
            meter.observe("fbcc.video_rate_mbps", self.video_rate / 1e6)
            meter.span_end("rate_control.tick", t0)
