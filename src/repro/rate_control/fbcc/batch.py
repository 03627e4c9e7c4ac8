"""FBCC pieces for the lockstep engines (:mod:`repro.sim.batch`).

Two kinds of code live here:

- :class:`FallbackRamp` — the *shared scalar* rate controller that
  stands in for GCC in the lockstep uplink profile.  The full GCC
  trendline estimator is event-driven and receiver-clocked; the profile
  replaces it with a deliberately simple AIMD ramp driven by the same
  40 ms diag batches FBCC already consumes, so both engines see one
  rate-control code path per session.
- ``*Array`` mirrors of the per-batch FBCC state machines
  (:class:`~repro.rate_control.fbcc.detector.CongestionDetector`,
  :class:`~repro.rate_control.fbcc.bandwidth.TbsBandwidthEstimator`,
  :class:`~repro.rate_control.fbcc.encoding.EncodingRateControl`,
  :class:`~repro.rate_control.fbcc.rtp.RtpRateControl`).  Each mirror
  performs the **same float64 operations in the same order** as the
  scalar class it twins, so a cohort-of-1 batched run is bit-identical
  to the scalar reference (see tests/test_batch.py).
"""

from __future__ import annotations

import numpy as np

from repro.rate_control.fbcc.detector import (
    GAMMA_CAP,
    HARD_OVERUSE_LEVEL,
    HOT_REPORTS,
    HOT_RUN,
    INCREASE_FRACTION,
    LEVEL_EPSILON,
    MIN_NET_GROWTH,
)
from repro.rate_control.fbcc.rtp import RtpRateControl
from repro.units import BITS_PER_BYTE


class FallbackRamp:
    """Diag-clocked AIMD fallback rate for the lockstep uplink profile.

    Per 40 ms diag batch: a modem packet drop multiplies the rate by
    ``beta``; a congestion detection clamps it under the Eq. (6) held
    PHY rate; an uneventful batch grows it multiplicatively.  Both
    lockstep engines use these exact update rules (the batched engine
    mirrors them with masked array ops in the same order).
    """

    __slots__ = ("rate", "_min", "_max", "_beta", "_growth")

    def __init__(
        self,
        start_rate: float,
        min_rate: float,
        max_rate: float,
        beta: float,
        growth: float,
    ):
        self.rate = start_rate
        self._min = min_rate
        self._max = max_rate
        self._beta = beta
        self._growth = growth

    def on_batch(self, drops_delta: int, congested: bool, held_rate: float) -> None:
        if drops_delta > 0:
            self.rate = max(self._min, self.rate * self._beta)
        if congested:
            self.rate = max(self._min, min(self.rate, held_rate))
        elif drops_delta == 0:
            self.rate = min(self._max, self.rate * self._growth)


class RampArray:
    """``(n_sessions,)`` vectorised twin of :class:`FallbackRamp`."""

    def __init__(self, start, min_rate, max_rate, beta, growth):
        self.rate = start.copy()
        self._min = min_rate
        self._max = max_rate
        self._beta = beta
        self._growth = growth

    def on_batch(
        self, drops_delta: np.ndarray, congested: np.ndarray, held: np.ndarray
    ) -> None:
        rate = self.rate
        dropped = drops_delta > 0
        if dropped.any():
            rate[dropped] = np.maximum(self._min, rate * self._beta)[dropped]
        if congested.any():
            rate[congested] = np.maximum(self._min, np.minimum(rate, held))[congested]
        grow = ~congested & (drops_delta == 0)
        if grow.any():
            rate[grow] = np.minimum(self._max, rate * self._growth)[grow]


class DetectorArray:
    """Vectorised twin of :class:`CongestionDetector`.

    The level history is kept right-aligned in a ``(n, K+1)`` window —
    every report shifts left and writes column ``-1`` — so the Eq. (3)
    run check always reads the trailing columns and a post-detection
    "clear to one entry" is just ``hlen = 1``.  ``K`` (and the diag
    cadence driving ``alpha``'s numerator) must be cohort-homogeneous;
    ``gamma_time_constant`` may vary per session.
    """

    def __init__(self, n: int, k_consecutive: int, alphas: np.ndarray):
        self._k = k_consecutive
        self._alpha = alphas
        self._hist = np.zeros((n, k_consecutive + 1))
        self._hlen = np.zeros(n, dtype=np.int64)
        self._gamma = np.zeros(n)
        self._initialised = False
        self._hot_left = np.zeros(n, dtype=np.int64)
        self.detections = np.zeros(n, dtype=np.int64)

    def on_report_level(self, level: np.ndarray) -> np.ndarray:
        if not self._initialised:
            self._gamma = level.copy()
            self._initialised = True
        else:
            self._gamma = self._gamma + self._alpha * (level - self._gamma)
        hist = self._hist
        hist[:, :-1] = hist[:, 1:]
        hist[:, -1] = level
        self._hlen = np.minimum(self._hlen + 1, self._k + 1)
        self._hot_left = np.maximum(0, self._hot_left - 1)
        gamma_capped = np.minimum(GAMMA_CAP, self._gamma)
        fired = (level > HARD_OVERUSE_LEVEL) & (level > gamma_capped)
        run_needed = np.where(self._hot_left > 0, HOT_RUN, self._k)
        eligible = (
            ~fired & (self._hlen > run_needed) & (level > gamma_capped)
        )
        if eligible.any():
            deltas = hist[:, 1:] - hist[:, :-1]
            for run in (HOT_RUN, self._k):
                check = eligible & (run_needed == run)
                if not check.any():
                    continue
                increases = (deltas[:, -run:] > LEVEL_EPSILON).sum(axis=1)
                net_growth = hist[:, -1] - hist[:, -(run + 1)]
                min_growth = MIN_NET_GROWTH * run / self._k
                cond = (increases >= INCREASE_FRACTION * run) & (
                    net_growth > min_growth
                )
                fired = fired | (check & cond)
        if fired.any():
            self.detections[fired] += 1
            self._hot_left[fired] = HOT_REPORTS
            self._hlen[fired] = 1
        return fired


class TbsWindowArray:
    """Vectorised twin of :class:`TbsBandwidthEstimator`.

    Fed one TBS per subframe, as the scalar lockstep session feeds
    :meth:`TbsBandwidthEstimator.on_tbs`, so the running sums are
    float-identical.
    """

    def __init__(self, n: int, window: int):
        self._window = window
        self._ring = np.zeros((n, window))
        self._sum = np.zeros(n)
        self._len = 0
        self._pos = 0

    def on_record(self, tbs: np.ndarray) -> None:
        if self._len == self._window:
            pos = self._pos
            self._sum -= self._ring[:, pos]
            self._ring[:, pos] = tbs
            self._sum += tbs
            self._pos = pos + 1 if pos + 1 < self._window else 0
        else:
            self._ring[:, self._len] = tbs
            self._sum += tbs
            self._len += 1

    def rate_bps(self) -> np.ndarray:
        if self._len == 0:
            return np.zeros_like(self._sum)
        return self._sum * BITS_PER_BYTE / (self._len * 1e-3)


class EncodingHoldArray:
    """Vectorised twin of :class:`EncodingRateControl` (Eq. 6)."""

    def __init__(self, n: int, margins: np.ndarray, hold_deltas: np.ndarray):
        self._margin = margins
        self._hold_delta = hold_deltas
        self.held = np.zeros(n)
        self._hold_until = np.full(n, float("-inf"))
        self.congestion_events = np.zeros(n, dtype=np.int64)

    def on_congestion(self, idx: np.ndarray, phy_rates: np.ndarray, now: float) -> None:
        self.held[idx] = phy_rates * self._margin[idx]
        self._hold_until[idx] = now + self._hold_delta[idx]
        self.congestion_events[idx] += 1

    def rate(self, now: float, fallback: np.ndarray) -> np.ndarray:
        return np.where(now <= self._hold_until, self.held, fallback)


class RtpRateArray:
    """Vectorised twin of :class:`RtpRateControl` (Eq. 7).

    Only the fixed-``target_buffer`` mode is supported — the online
    sweet-spot learner is history-dependent in a way the batched engine
    does not replicate (``batch_unsupported_reason`` gates on it).
    """

    def __init__(
        self,
        initial: np.ndarray,
        targets: np.ndarray,
        interval: float,
        min_rates: np.ndarray,
        max_rates: np.ndarray,
    ):
        self.rate = initial.copy()
        self._target = targets
        self._interval = interval
        self._min = min_rates
        self._max = max_rates

    def on_batch(self, last_level: np.ndarray, video_rate: np.ndarray) -> None:
        correction = (self._target - last_level) / self._interval * BITS_PER_BYTE
        self.rate = self.rate + correction
        floor = np.maximum(self._min, RtpRateControl.VIDEO_RATE_FLOOR * video_rate)
        self.rate = np.minimum(self._max, np.maximum(floor, self.rate))
