"""Windowed-TBS uplink bandwidth estimator — Eq. (4)/(5) of §4.3.1.

``R_phy = (Σ_w TBS_w) / W`` over a window of W one-millisecond
subframes.  While the uplink is saturated (congestion detected), this
throughput *is* the available uplink bandwidth, which is what FBCC cuts
the encoder to.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.units import BITS_PER_BYTE

#: Subframe length (s).
SUBFRAME = 1e-3


class TbsBandwidthEstimator:
    """Running Σ TBS over the last W subframes."""

    def __init__(self, window_subframes: int):
        if window_subframes <= 0:
            raise ValueError("window must be positive")
        self._window = window_subframes
        self._tbs: Deque[float] = deque(maxlen=window_subframes)
        self._sum = 0.0

    def on_tbs(self, tbs_bytes: float) -> None:
        """Feed one subframe's TBS (bytes)."""
        if len(self._tbs) == self._window:
            self._sum -= self._tbs[0]
        self._tbs.append(tbs_bytes)
        self._sum += tbs_bytes

    def on_batch(self, batch) -> float:
        """Feed a diag batch's TBS record by record, as :meth:`on_tbs`
        would, and return the batch's buffer-level sum.

        Both are running sums, left to right, never ``sum()`` (design
        rule 4).
        """
        tbs = self._tbs
        window = self._window
        total = self._sum
        level_sum = 0.0
        for _, level, tbs_bytes in batch:
            if len(tbs) == window:
                total -= tbs[0]
            tbs.append(tbs_bytes)
            total += tbs_bytes
            level_sum += level
        self._sum = total
        return level_sum

    @property
    def rate_bps(self) -> float:
        """Eq. (4): PHY throughput over the window (bps)."""
        if not self._tbs:
            return 0.0
        return self._sum * BITS_PER_BYTE / (len(self._tbs) * SUBFRAME)
