"""Encoding-bitrate control — Eq. (6) of §4.3.1.

On an uplink congestion detection at t*, the video encoding bitrate is
pinned to the PHY-measured uplink bandwidth (Eq. 5) for two RTTs — long
enough that GCC's delayed reaction to the same event cannot cause a
second, redundant rate cut — and otherwise follows the legacy GCC rate,
which keeps handling congestion elsewhere on the path.

The PHY rate is frozen at its detection-time value: Eq. (5) only equals
the available bandwidth while the uplink is saturated, and holding the
cap causes the buffer to drain, after which the live TBS sum would
under-report the bandwidth.
"""

from __future__ import annotations

from typing import Callable

from repro.config import FbccConfig


class EncodingRateControl:
    """R_v(t) per Eq. (6)."""

    def __init__(self, config: FbccConfig, gcc_rate: Callable[[], float], rtt: Callable[[], float]):
        self._config = config
        self._gcc_rate = gcc_rate
        self._rtt = rtt
        self._hold_until = float("-inf")
        #: The pinned rate of the most recent Eq. (6) hold (bps).
        self.held_rate = 0.0
        self.congestion_events = 0

    def on_congestion(self, phy_rate_bps: float, now: float) -> None:
        """Congestion detected at ``now`` with measured PHY rate (Eq. 5)."""
        self.held_rate = phy_rate_bps * self._config.phy_rate_margin
        self._hold_until = now + self._config.hold_rtts * self._rtt()
        self.congestion_events += 1

    def holding(self, now: float) -> bool:
        """True while the Eq. (6) first branch is active."""
        return now <= self._hold_until

    def rate(self, now: float) -> float:
        """Current target encoding bitrate R_v (bps)."""
        if self.holding(now):
            return self.held_rate
        return self._gcc_rate()
