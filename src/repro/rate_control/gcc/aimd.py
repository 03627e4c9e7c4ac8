"""AIMD remote-rate controller (receiver side of GCC).

State machine: overuse → Decrease, underuse → Hold, normal → Increase.
Increase is multiplicative (≈8%/s) far from the estimated link capacity
and additive (about one packet per response time) near it; Decrease sets
the rate to β times the *measured incoming rate* and records a link
capacity estimate.  This probe-up / sharp-cut shape is what produces
GCC's characteristic throughput sawtooth (paper Fig. 16a).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.config import GccConfig


class AimdRateControl:
    """Remote bandwidth estimate updated per overuse-detector output."""

    def __init__(self, config: GccConfig):
        self._config = config
        self.rate = config.start_rate
        self.state = "hold"
        self._last_update: Optional[float] = None
        self._last_decrease: float = float("-inf")
        #: Link-capacity estimate built from rates seen at decrease time.
        self._capacity_mean: Optional[float] = None
        self._capacity_var = 0.0
        self.decreases = 0
        #: Minimum spacing between multiplicative decreases — one rate
        #: cut per expected response interval, as in WebRTC's AIMD.
        self.response_interval = 0.25

    def update(self, detector_state: str, incoming_rate: float, now: float) -> float:
        """Advance the state machine and return the new target rate."""
        if detector_state == "overuse":
            self.state = "decrease"
        elif detector_state == "underuse":
            self.state = "hold"
        else:
            self.state = "increase"

        dt = 0.0
        if self._last_update is not None:
            dt = min(1.0, now - self._last_update)
        self._last_update = now

        if self.state == "decrease":
            if now - self._last_decrease >= self.response_interval:
                self.rate = min(
                    self.rate,
                    self._config.beta * max(incoming_rate, self._config.min_rate),
                )
                self._update_capacity(incoming_rate)
                self.decreases += 1
                self._last_decrease = now
            # One decrease per response interval; park in hold until the
            # detector returns to normal.
            self.state = "hold"
        elif self.state == "increase":
            if self._near_capacity(incoming_rate):
                self.rate += self._additive_increase_per_second() * dt
            else:
                self.rate *= math.pow(1.0 + self._config.eta_per_second, dt)

        # Never run away from what is actually getting through.
        if incoming_rate > 0.0:
            self.rate = min(self.rate, 1.5 * incoming_rate + 10_000.0)
        self.rate = min(self._config.max_rate, max(self._config.min_rate, self.rate))
        return self.rate

    def _update_capacity(self, incoming_rate: float) -> None:
        if self._capacity_mean is None:
            self._capacity_mean = incoming_rate
            self._capacity_var = (0.15 * incoming_rate) ** 2
            return
        alpha = 0.05
        delta = incoming_rate - self._capacity_mean
        self._capacity_mean += alpha * delta
        self._capacity_var = (1 - alpha) * (self._capacity_var + alpha * delta * delta)

    def _near_capacity(self, incoming_rate: float) -> bool:
        if self._capacity_mean is None:
            return False
        spread = 3.0 * math.sqrt(max(self._capacity_var, 1.0))
        return abs(incoming_rate - self._capacity_mean) <= spread

    def _additive_increase_per_second(self) -> float:
        #: ~one avg packet per response time (assume 1200 B, 200 ms).
        response_time = 0.2
        return max(
            1_000.0, self._config.additive_packets * 1200.0 * 8.0 / response_time
        )
