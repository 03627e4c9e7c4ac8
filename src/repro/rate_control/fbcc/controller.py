"""The FBCC report loop and the combined FBCC transport (§4.3).

:class:`FbccLoop` wires the Eq. (3) detector, Eq. (4)/(5) bandwidth
estimator, Eq. (6) encoding-rate control and Eq. (7) RTP-rate control
to the diagnostic reports.  The event engine's :class:`FbccTransport`
and the scalar lockstep :class:`~repro.telephony.uplink.UplinkSession`
both run it; the transport keeps a full legacy GCC sender underneath for
the "congestion elsewhere" fallback and the RTT estimate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.config import FbccConfig, GccConfig
from repro.lte.diagnostics import DiagRecord
from repro.rate_control.base import TransportController
from repro.rate_control.fbcc.bandwidth import TbsBandwidthEstimator
from repro.rate_control.fbcc.detector import CongestionDetector
from repro.rate_control.fbcc.encoding import EncodingRateControl
from repro.rate_control.fbcc.rtp import RtpRateControl
from repro.rate_control.gcc.controller import GccSenderControl
from repro.sim.engine import Simulation


class FbccLoop:
    """The four FBCC stages over one stream of diag reports.

    Each subframe's TBS goes to :attr:`bandwidth`; each report's mean and
    last firmware-buffer levels go to :meth:`on_report`.  Outside an
    Eq. (6) hold the encoder follows ``fallback_rate()``, and ``rtt()``
    sizes the hold.
    """

    def __init__(
        self, config: FbccConfig, diag_interval: float, start_rate: float,
        fallback_rate: Callable[[], float], rtt: Callable[[], float],
    ):
        self.detector = CongestionDetector(config, report_interval=diag_interval)
        self.bandwidth = TbsBandwidthEstimator(config.tbs_window_subframes)
        self.encoding = EncodingRateControl(config, gcc_rate=fallback_rate, rtt=rtt)
        self.rtp = RtpRateControl(
            config, start_rate, diag_interval,
            video_rate=lambda: self.encoding.rate(self._report_time),
        )
        #: Time of the last report (read by the Eq. (7) floor).
        self._report_time = 0.0

    def on_report(self, mean_level: float, last_level: float, now: float) -> bool:
        """Apply one report at ``now``; True when Eq. (3) fired."""
        self._report_time = now
        congested = self.detector.on_report_level(mean_level)
        phy_rate = self.bandwidth.rate_bps
        if congested:
            self.encoding.on_congestion(phy_rate, now)
        self.rtp.on_level(last_level, phy_rate)
        return congested


class FbccTransport(FbccLoop, TransportController):
    """POI360's firmware-buffer-aware congestion control: the FBCC loop
    over a legacy GCC fallback, plus its trace and meter emits."""

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
        self._trace = trace
        self._meter = meter
        self.gcc = GccSenderControl(gcc_config, trace=trace, meter=meter)
        super().__init__(
            fbcc_config, diag_interval, gcc_config.start_rate,
            fallback_rate=lambda: self.gcc.rate, rtt=lambda: self.gcc.rtt.rtt,
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
        """Consume one (non-empty) 40 ms diagnostic batch from the modem."""
        meter = self._meter
        t0 = meter.span_start() if meter is not None else 0.0
        level_sum = self.bandwidth.on_batch(batch)
        congested = self.on_report(
            level_sum / len(batch), batch[-1].buffer_bytes, self._sim.now
        )
        if congested and self._trace is not None:
            self._trace.emit(
                "fbcc.congestion",
                phy_rate_bps=self.bandwidth.rate_bps,
                held_rate_bps=self.encoding.held_rate,
                gamma_bytes=self.detector.gamma,
            )
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
