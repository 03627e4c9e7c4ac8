"""Packet grouping and delay-gradient (trendline) estimation.

GCC groups packets sent within a short burst interval, computes the
inter-group delay variation ``d(i) = Δarrival - Δsend``, and estimates
the queuing-delay *trend* as the least-squares slope of the smoothed
accumulated delay over a sliding window of groups.  A positive trend
means queues are building somewhere on the path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple


@dataclass
class _Group:
    first_send: float
    last_send: float
    last_arrival: float
    size_bytes: float


class InterGroupFilter:
    """Groups packets by send time and emits inter-group deltas.

    Mirrors WebRTC's ``InterArrival``: a packet joins the current group
    either when it was *sent* within the burst interval of the group's
    first packet, or when it *arrives* in a burst — back-to-back with
    the group's last packet while having queued behind it (negative
    propagation delta).  The latter absorbs the radio scheduler's
    serve-in-bursts pattern that would otherwise read as huge delay
    gradients.
    """

    def __init__(self, burst_interval: float):
        self._burst_interval = burst_interval
        self._current: Optional[_Group] = None
        self._previous: Optional[_Group] = None

    def _belongs_to_burst(self, send_time: float, arrival_time: float) -> bool:
        assert self._current is not None
        arrival_delta = arrival_time - self._current.last_arrival
        propagation_delta = arrival_delta - (send_time - self._current.last_send)
        return arrival_delta <= self._burst_interval and propagation_delta < 0

    def on_packet(
        self, send_time: float, arrival_time: float, size_bytes: float
    ) -> Optional[Tuple[float, float]]:
        """Feed one packet; returns (delay_delta, arrival_time) when a
        group completes, else None."""
        if self._current is None:
            self._current = _Group(send_time, send_time, arrival_time, size_bytes)
            return None
        in_send_burst = send_time - self._current.first_send <= self._burst_interval
        if in_send_burst or self._belongs_to_burst(send_time, arrival_time):
            self._current.last_send = max(self._current.last_send, send_time)
            self._current.last_arrival = max(self._current.last_arrival, arrival_time)
            self._current.size_bytes += size_bytes
            return None
        completed = self._current
        self._current = _Group(send_time, send_time, arrival_time, size_bytes)
        if self._previous is None:
            self._previous = completed
            return None
        delta_send = completed.last_send - self._previous.last_send
        delta_arrival = completed.last_arrival - self._previous.last_arrival
        self._previous = completed
        return (delta_arrival - delta_send, completed.last_arrival)


class TrendlineEstimator:
    """Least-squares slope of smoothed accumulated delay vs time."""

    #: Smoothing coefficient of the accumulated delay.
    SMOOTHING = 0.9
    #: The modified trend multiplies the slope by min(samples, CAP) * gain.
    SAMPLE_CAP = 60

    def __init__(self, window: int, gain: float):
        self._window = window
        self._gain = gain
        self._accumulated = 0.0
        self._smoothed = 0.0
        self._first_arrival: Optional[float] = None
        self._points: Deque[Tuple[float, float]] = deque(maxlen=window)
        self._num_deltas = 0

    def update(self, delay_delta: float, arrival_time: float) -> float:
        """Feed one inter-group delta; returns the modified trend (s)."""
        if self._first_arrival is None:
            self._first_arrival = arrival_time
        self._num_deltas += 1
        self._accumulated += delay_delta
        self._smoothed = (
            self.SMOOTHING * self._smoothed
            + (1.0 - self.SMOOTHING) * self._accumulated
        )
        self._points.append((arrival_time - self._first_arrival, self._smoothed))
        slope = self._slope()
        scale = min(self._num_deltas, self.SAMPLE_CAP) * self._gain
        return slope * scale

    def _slope(self) -> float:
        n = len(self._points)
        if n < 2:
            return 0.0
        # Left-to-right running sums (design rule 4): ``sum()`` over
        # floats is compensated from Python 3.12 on.
        sum_x = 0.0
        sum_y = 0.0
        for x, y in self._points:
            sum_x += x
            sum_y += y
        mean_x = sum_x / n
        mean_y = sum_y / n
        num = 0.0
        den = 0.0
        for x, y in self._points:
            dx = x - mean_x
            num += dx * (y - mean_y)
            den += dx ** 2
        if den == 0.0:
            return 0.0
        return num / den
