"""Packet grouping and delay-gradient (trendline) estimation.

GCC groups packets sent within a short burst interval, computes the
inter-group delay variation ``d(i) = Δarrival - Δsend``, and estimates
the queuing-delay *trend* as the least-squares slope of the smoothed
accumulated delay over a sliding window of groups.  A positive trend
means queues are building somewhere on the path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class InterGroupFilter:
    """Groups packets by send time and emits inter-group deltas.

    Mirrors WebRTC's ``InterArrival``: a packet joins the current group
    either when it was *sent* within the burst interval of the group's
    first packet, or when it *arrives* in a burst — back-to-back with
    the group's last packet while having queued behind it (negative
    propagation delta).  The latter absorbs the radio scheduler's
    serve-in-bursts pattern that would otherwise read as huge delay
    gradients.

    A group is its first send time and its latest send and arrival
    times, kept in attributes for the current and the previous group.
    """

    def __init__(self, burst_interval: float):
        self._burst_interval = burst_interval
        #: The current group's first send time; None before any packet.
        self._first_send: Optional[float] = None
        self._last_send = 0.0
        self._last_arrival = 0.0
        #: The previous group's last send time; None before one completes.
        self._prev_send: Optional[float] = None
        self._prev_arrival = 0.0

    def on_packet(
        self, send_time: float, arrival_time: float, size_bytes: float
    ) -> Optional[Tuple[float, float]]:
        """Feed one packet; returns (delay_delta, arrival_time) when a
        group completes, else None."""
        first_send = self._first_send
        if first_send is None:
            self._first_send = self._last_send = send_time
            self._last_arrival = arrival_time
            return None
        burst = self._burst_interval
        last_send = self._last_send
        last_arrival = self._last_arrival
        arrival_delta = arrival_time - last_arrival
        if send_time - first_send <= burst or (
            arrival_delta <= burst and arrival_delta - (send_time - last_send) < 0
        ):
            # max() spelled as the comparison it makes.
            if send_time > last_send:
                self._last_send = send_time
            if arrival_time > last_arrival:
                self._last_arrival = arrival_time
            return None
        prev_send = self._prev_send
        prev_arrival = self._prev_arrival
        self._prev_send = last_send
        self._prev_arrival = last_arrival
        self._first_send = self._last_send = send_time
        self._last_arrival = arrival_time
        if prev_send is None:
            return None
        delta_send = last_send - prev_send
        delta_arrival = last_arrival - prev_arrival
        return (delta_arrival - delta_send, last_arrival)


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
