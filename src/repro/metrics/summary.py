"""Aggregate per-session summary combining every §6 metric."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.metrics.delay import DelayStats
from repro.metrics.freeze import freeze_ratio
from repro.metrics.quality import QualityStats
from repro.metrics.stability import stability_series
from repro.metrics.throughput import ThroughputStats, per_second_series


def _no_arrivals() -> np.ndarray:
    """An empty ``SessionLog.arrivals``."""
    return np.empty((0, 2))


@dataclass
class SessionLog:
    """Raw measurements collected while a session runs."""

    #: Per displayed frame: capture-to-display delay (s).
    frame_delays: List[float] = field(default_factory=list)
    #: Per displayed frame: (display time, ROI-region PSNR in dB).
    roi_psnrs: List[float] = field(default_factory=list)
    #: Display times matching ``roi_psnrs`` (for windowed stability).
    display_times: List[float] = field(default_factory=list)
    #: (display time, compression level at the viewer's ROI centre).
    roi_levels: List[Tuple[float, float]] = field(default_factory=list)
    #: ``(m, 2)`` float64 array of the ``(arrival time, bytes)`` rows
    #: of received media packets, in arrival order, 16 bytes a row.
    #: Every engine stages rows while it runs and sets this once, at the
    #: end of the run: the event viewer and the scalar lockstep engine
    #: from a flat ``array("d")`` (see ``PanoramicReceiver.finish`` and
    #: ``UplinkSession._finalise``), the batched engine as a view into
    #: one shared array (``BatchedSimulation._materialise_arrivals``).
    #: The lockstep engines log a packet when they drain it, stamped
    #: with its arrival time, and keep only those due by the last tick.
    arrivals: np.ndarray = field(default_factory=_no_arrivals)
    #: Frame-level mismatch time samples (s).
    mismatches: List[float] = field(default_factory=list)
    #: (time, firmware buffer level bytes) samples at the sender.
    buffer_levels: List[Tuple[float, float]] = field(default_factory=list)
    #: (per-second sum of uplink TBS in bps, mean buffer level bytes).
    diag_seconds: List[Tuple[float, float]] = field(default_factory=list)
    #: (time, Rv target bps, Rrtp bps) samples at the sender.
    rate_trace: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Simulated time at which measurement began (end of warm-up).
    start_time: float = 0.0
    frames_sent: int = 0
    frames_displayed: int = 0
    frames_lost: int = 0
    packets_lost: int = 0
    mode_switches: int = 0
    congestion_events: int = 0
    sent_bits: float = 0.0

    def reset(self) -> None:
        """Discard everything collected so far (end of a warm-up phase)."""
        self.frame_delays.clear()
        self.roi_psnrs.clear()
        self.display_times.clear()
        self.roi_levels.clear()
        self.arrivals = _no_arrivals()
        self.mismatches.clear()
        self.buffer_levels.clear()
        self.diag_seconds.clear()
        self.rate_trace.clear()
        self.frames_sent = 0
        self.frames_displayed = 0
        self.frames_lost = 0
        self.packets_lost = 0
        self.mode_switches = 0
        self.congestion_events = 0
        self.sent_bits = 0.0


@dataclass(frozen=True)
class SessionSummary:
    """Everything the paper's figures need, from one session."""

    scheme: str
    transport: str
    duration: float
    delay: DelayStats
    freeze_ratio: float
    quality: QualityStats
    #: 2 s-window stds of the displayed ROI compression level (Fig. 12).
    stability_stds: Tuple[float, ...]
    #: 2 s-window stds of the displayed ROI-region PSNR — the
    #: quality-domain view of the same short-term stability.
    quality_stds: Tuple[float, ...]
    throughput: ThroughputStats
    mean_mismatch: float
    frames_displayed: int
    frames_lost: int
    mode_switches: int
    congestion_events: int
    sent_rate_mean: float

    @property
    def stability_mean(self) -> float:
        """Mean of the 2 s-window compression-level stds."""
        if not self.stability_stds:
            return float("nan")
        return float(np.mean(self.stability_stds))

    @property
    def quality_stability_mean(self) -> float:
        """Mean of the 2 s-window ROI-PSNR stds (dB)."""
        if not self.quality_stds:
            return float("nan")
        return float(np.mean(self.quality_stds))

    @staticmethod
    def from_log(
        log: SessionLog,
        scheme: str,
        transport: str,
        duration: float,
        freeze_threshold: float = 0.6,
    ) -> "SessionSummary":
        # (t - start, size) rows, shifted as one vector op: the
        # elementwise float64 subtraction matches the scalar one, and
        # ``size - 0.0`` is ``size``.
        arrivals = log.arrivals - (log.start_time, 0.0)
        series = per_second_series(arrivals, duration)
        return SessionSummary(
            scheme=scheme,
            transport=transport,
            duration=duration,
            delay=DelayStats.from_samples(log.frame_delays),
            freeze_ratio=freeze_ratio(
                log.frame_delays, freeze_threshold, log.frames_lost
            ),
            quality=QualityStats.from_samples(log.roi_psnrs),
            stability_stds=tuple(stability_series(log.roi_levels)),
            quality_stds=tuple(
                stability_series(
                    np.column_stack((log.display_times, log.roi_psnrs))
                    if log.display_times
                    else []
                )
            ),
            throughput=ThroughputStats.from_series(series, keep_series=False),
            mean_mismatch=(
                float(np.mean(log.mismatches)) if log.mismatches else float("nan")
            ),
            frames_displayed=log.frames_displayed,
            frames_lost=log.frames_lost,
            mode_switches=log.mode_switches,
            congestion_events=log.congestion_events,
            sent_rate_mean=log.sent_bits / duration if duration > 0 else float("nan"),
        )

    def to_dict(self) -> Dict[str, float]:
        """Flat dict for table printing."""
        return {
            "scheme": self.scheme,
            "transport": self.transport,
            "mean_psnr_db": round(self.quality.mean_psnr, 2),
            "median_delay_ms": round(self.delay.median * 1e3, 1),
            "freeze_ratio": round(self.freeze_ratio, 4),
            "stability_std": round(self.stability_mean, 3),
            "throughput_mbps": round(self.throughput.mean / 1e6, 3),
            "throughput_std_mbps": round(self.throughput.std / 1e6, 3),
            "mos_good_or_better": round(
                self.quality.fraction("good") + self.quality.fraction("excellent"), 3
            ),
        }
