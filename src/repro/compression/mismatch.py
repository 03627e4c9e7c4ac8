"""Client-side ROI-mismatch-time (M) measurement — Eq. (2) of §4.2.

M captures how long the sender and viewer hold inconsistent ROI
knowledge.  The client measures it per displayed frame by watching the
compression level at its *actual* ROI centre:

- if that level is still ``l_min`` the ROI is consistent, and M is just
  the one-way frame delay ``dv`` (any future change would take at least
  that long to show up);
- otherwise the viewer is looking at a not-yet-updated region: M is the
  time since the ROI change was detected (``t - t0``), floored at ``dv``.

Frame-level values are averaged over a sliding window and fed back to
the sender each frame interval.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class MismatchEstimator:
    """Sliding-window average of the frame-level mismatch time."""

    def __init__(self, window_s: float, l_min: float = 1.0, tolerance: float = 1e-6):
        self._window = window_s
        self._l_min = l_min
        self._tolerance = tolerance
        self._samples: Deque[Tuple[float, float]] = deque()
        self._roi_change_time: Optional[float] = None
        self._last_roi: Optional[Tuple[int, int]] = None

    def observe_roi(self, roi: Tuple[int, int], now: float) -> None:
        """Track the viewer's ROI; a change starts the mismatch clock."""
        if self._last_roi is not None and roi != self._last_roi:
            if self._roi_change_time is None:
                self._roi_change_time = now
        self._last_roi = roi

    def observe_frame(
        self,
        displayed_level: float,
        frame_delay: float,
        now: float,
        converged_level: Optional[float] = None,
    ) -> float:
        """Record one displayed frame; returns its frame-level M.

        ``displayed_level`` is the compression level shown in the
        viewer's ROI; ``converged_level`` is what that level would be if
        the sender's ROI knowledge were current (the client can compute
        it because the sender embeds its compression mode in the frame,
        §5).  When omitted, the Eq. (2) literal ``l_min`` check is used.
        """
        reference = self._l_min if converged_level is None else converged_level
        converged = displayed_level <= reference * 1.05 + self._tolerance
        if converged:
            # Quality in the (possibly new) ROI has converged: stop the
            # clock and fall back to the frame-delay floor.
            self._roi_change_time = None
            mismatch = frame_delay
        elif self._roi_change_time is not None:
            mismatch = max(now - self._roi_change_time, frame_delay)
        else:
            # Looking at a compressed region without a recorded ROI
            # change (e.g. session start): count from now.
            self._roi_change_time = now
            mismatch = frame_delay
        self._samples.append((now, mismatch))
        self._evict(now)
        return mismatch

    def _evict(self, now: float) -> None:
        horizon = now - self._window
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def average(self) -> float:
        """Sliding-window average M (0 when no samples yet)."""
        if not self._samples:
            return 0.0
        # A left-to-right running sum, not sum(), which compensates
        # float sums from Python 3.12 on.
        total = 0.0
        for _, m in self._samples:
            total += m
        return total / len(self._samples)
