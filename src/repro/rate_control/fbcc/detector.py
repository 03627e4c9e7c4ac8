"""Uplink congestion detector — Eq. (3) of §4.3.1.

Congestion is declared when the firmware-buffer level (i) increases for
K consecutive reports and (ii) exceeds its long-term average Γ (an
online EWMA).  Δt in Eq. (3) is the *report interval* of the buffer
occupancy from the chipset — 40 ms on the paper's test device (§4.3.2)
— so K = 10 means roughly 400 ms of sustained growth: long enough to
ride out the radio scheduler's burst-and-idle service pattern, and
still several times faster than an end-to-end RTT-based detection over
a bufferbloated cellular path.

Each report is summarised by the mean level over its per-subframe
records, which is robust to where inside the 40 ms window a paced frame
burst lands.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.config import FbccConfig

#: Level changes smaller than this (bytes) count as "not increasing".
LEVEL_EPSILON = 64.0

#: Fraction of the K inter-report deltas that must be increases: the
#: radio scheduler's bursty service makes a few non-monotone reports
#: inevitable even during steady overload.
INCREASE_FRACTION = 0.7

#: Net growth across the K-report window must exceed this many bytes
#: (a couple of MTUs) to count as sustained overload.
MIN_NET_GROWTH = 3000.0

#: Γ is capped near the scheduling knee: a long spell in the overuse
#: region must not teach the detector that congestion is normal.
GAMMA_CAP = 16 * 1024.0

#: A buffer level this far past the knee is congestion by itself — no
#: need to wait for a full K-report growth run.
HARD_OVERUSE_LEVEL = 28 * 1024.0

#: After a detection the detector stays "hot" for this many reports
#: (~3 s): renewed growth re-triggers after only HOT_RUN reports, so a
#: persistent fade is tracked with short rate-spike gaps instead of a
#: full K-report blind window (the Eq. (6) hold expires into a still-
#: congested uplink otherwise).
HOT_REPORTS = 75
HOT_RUN = 3


class CongestionDetector:
    """Stateful Eq. (3) evaluation over 40 ms diag reports."""

    def __init__(self, config: FbccConfig, report_interval: float = 0.040):
        self._config = config
        self._levels: Deque[float] = deque(maxlen=config.k_consecutive + 1)
        self._gamma: Optional[float] = None
        self._alpha = report_interval / config.gamma_time_constant
        self._hot_left = 0
        self.detections = 0

    @property
    def gamma(self) -> float:
        """Long-term average buffer level Γ (bytes, capped at the knee)."""
        if self._gamma is None:
            return 0.0
        return min(GAMMA_CAP, self._gamma)

    def on_report_level(self, level: float) -> bool:
        """Feed one report's buffer level; True when Eq. (3) fires."""
        if self._gamma is None:
            self._gamma = level
        else:
            self._gamma += self._alpha * (level - self._gamma)
        self._levels.append(level)
        self._hot_left = max(0, self._hot_left - 1)
        if level > HARD_OVERUSE_LEVEL and level > self.gamma:
            return self._fire(level)
        run_needed = HOT_RUN if self._hot_left > 0 else self._config.k_consecutive
        if len(self._levels) <= run_needed:
            return False
        if level <= self.gamma:
            return False
        window = list(self._levels)[-(run_needed + 1):]
        deltas = [later - earlier for earlier, later in zip(window, window[1:])]
        increases = sum(1 for d in deltas if d > LEVEL_EPSILON)
        net_growth = window[-1] - window[0]
        min_growth = MIN_NET_GROWTH * run_needed / self._config.k_consecutive
        if increases >= INCREASE_FRACTION * len(deltas) and net_growth > min_growth:
            return self._fire(level)
        return False

    def _fire(self, level: float) -> bool:
        self.detections += 1
        self._hot_left = HOT_REPORTS
        # Require a fresh growth run before firing again.
        self._levels.clear()
        self._levels.append(level)
        return True
