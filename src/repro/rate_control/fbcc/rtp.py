"""Cellular-link-informed RTP rate control — Eq. (7) of §4.3.2.

Because the LTE proportional-fair scheduler serves a UE faster when its
firmware buffer is fuller (Fig. 5), leaving the buffer empty wastes
grantable bandwidth (Fig. 6).  FBCC therefore steers the RTP sending
rate so the buffer sits at a "sweet spot" B*: every diag interval Dp,

    R_rtp(t) = R_rtp(t - Dp) + (B* - B(t)) / Dp          (Eq. 7)

(the correction term is bytes/s and is converted to bps).  We apply the
update symmetrically — above B* the same formula *reduces* the rate —
but never below a floor proportional to the current video encoding
bitrate: pacing slower than the encoder would merely relocate the
overload into the application-layer queue where neither the modem's
diag reports nor the Eq. (3) detector can see it (the queuing-location
argument the paper makes at the end of §4.3.1, applied in reverse).

``SweetSpotLearner`` implements the paper's remark that B* "can be
learnt from previous transmissions": it bins (buffer level → observed
TBS rate) and places B* just past the smallest level that achieves the
plateau throughput.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import FbccConfig
from repro.units import BITS_PER_BYTE


class SweetSpotLearner:
    """Online (buffer level → throughput) profile and B* placement."""

    #: Bin width for buffer levels (bytes).
    BIN_BYTES = 1024.0
    #: Number of bins tracked (covers 0..64 KB).
    NUM_BINS = 64
    #: A level "achieves the plateau" at this fraction of the max rate.
    PLATEAU_FRACTION = 0.90
    #: Safety factor past the knee.
    MARGIN = 1.2
    #: EWMA weight for per-bin rate updates.
    ALPHA = 0.05

    def __init__(self) -> None:
        self._rates: List[Optional[float]] = [None] * self.NUM_BINS

    def observe(self, buffer_bytes: float, tbs_rate_bps: float) -> None:
        index = min(self.NUM_BINS - 1, int(buffer_bytes / self.BIN_BYTES))
        current = self._rates[index]
        if current is None:
            self._rates[index] = tbs_rate_bps
        else:
            self._rates[index] = current + self.ALPHA * (tbs_rate_bps - current)

    def target(self, default: float) -> float:
        """Learned B* (bytes); ``default`` until enough bins are filled."""
        known = [(i, r) for i, r in enumerate(self._rates) if r is not None]
        if len(known) < 4:
            return default
        peak = max(r for _, r in known)
        for index, rate in known:
            if rate >= self.PLATEAU_FRACTION * peak:
                return (index + 0.5) * self.BIN_BYTES * self.MARGIN
        return default


class RtpRateControl:
    """Eq. (7) sweet-spot steering of the RTP sending rate."""

    #: Fallback B* when neither config nor learner provides one (bytes).
    DEFAULT_TARGET = 10 * 1024.0

    #: R_rtp never drops below this multiple of the encoding bitrate, so
    #: overload always surfaces in the (observable) firmware buffer.
    VIDEO_RATE_FLOOR = 1.2

    def __init__(
        self,
        config: FbccConfig,
        initial_rate: float,
        interval: float,
        video_rate=None,
    ):
        self._config = config
        self._interval = interval
        self.rate = initial_rate
        self._video_rate = video_rate or (lambda: 0.0)
        self._learner = SweetSpotLearner() if config.target_buffer is None else None

    @property
    def target_buffer(self) -> float:
        """Current B* (bytes)."""
        if self._config.target_buffer is not None:
            return self._config.target_buffer
        assert self._learner is not None
        return self._learner.target(self.DEFAULT_TARGET)

    def on_level(self, level: float, tbs_rate_bps: float) -> float:
        """Apply Eq. (7) to a report's last buffer level (bytes); returns
        the new R_rtp."""
        if self._learner is not None:
            self._learner.observe(level, tbs_rate_bps)
        correction = (self.target_buffer - level) / self._interval * BITS_PER_BYTE
        self.rate += correction
        floor = max(
            self._config.rtp_min_rate, self.VIDEO_RATE_FLOOR * self._video_rate()
        )
        self.rate = min(self._config.rtp_max_rate, max(floor, self.rate))
        return self.rate
