"""POI360's adaptive spatial compression (§4.2 — the core contribution).

The viewer feeds back the sliding-window average of the ROI mismatch
time M each frame interval; the sender switches to the mode whose
aggressiveness fits the current end-to-end ROI-update responsiveness:
small M → F1 (C=1.8, crop-like traffic savings), large M → F8 (C=1.1,
smooth quality profile that keeps the new ROI watchable while stale).

Two forces pick the *effective* mode:

- the **desired** mode follows M (Eq. 2 feedback) with a small
  hysteresis so M hovering at a bucket boundary does not flap the mode
  (every switch costs intra-refresh bits at the encoder);
- a **rate cap** from the uplink: a conservative mode carries more
  compressed pixels than the encoder's max-quantiser floor can fit in a
  starving uplink, so the sender clamps to the most conservative mode
  that still fits — down to a crop-like emergency mode below F1 when
  even F1 does not ("POI360 can switch to more aggressive compression
  modes than Conduit under bad network condition", §6.1.1).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compression.base import CompressionScheme
from repro.compression.modes import Mode, ModeFamily
from repro.config import CompressionConfig
from repro.video.frame import TileGrid


class AdaptiveCompression(CompressionScheme):
    """Mode-switching ROI compression driven by the M feedback."""

    name = "poi360"

    #: A switch requires M to sit this fraction of a bucket past the
    #: boundary.
    HYSTERESIS = 0.15

    #: A mode fits the uplink when its encoder bits floor stays below
    #: this fraction of the target rate.
    RATE_FIT_MARGIN = 0.85

    def __init__(
        self, config: CompressionConfig, grid: TileGrid, trace=None, meter=None
    ):
        self._config = config
        self._grid = grid
        self._trace = trace
        self._meter = meter
        self._family = ModeFamily(config)
        #: Start conservative until the first M feedback arrives.
        self._desired_index = len(self._family)
        #: Most conservative mode index the uplink currently sustains
        #: (0 = only the emergency crop fits).
        self._cap_index = len(self._family)
        self._last_effective = self._effective_index()
        self._floor_cache: dict = {}
        self.mode_switches = 0
        self.rate_clamp_events = 0

    def _effective_index(self) -> int:
        return min(self._desired_index, self._cap_index)

    @property
    def current_mode(self) -> Mode:
        index = self._effective_index()
        if index == 0:
            return self._family.emergency_mode()
        return self._family[index]

    def _note_switch(self) -> None:
        effective = self._effective_index()
        if effective != self._last_effective:
            self.mode_switches += 1
            if self._trace is not None:
                self._trace.emit(
                    "mode_switch",
                    from_index=self._last_effective,
                    to_index=effective,
                    desired_index=self._desired_index,
                    cap_index=self._cap_index,
                )
            if self._meter is not None:
                self._meter.inc("compression.mode_switches")
            self._last_effective = effective

    def update_mismatch(self, mismatch_s: float) -> None:
        bucket = self._config.mode_bucket
        margin = self.HYSTERESIS * bucket
        current = self._desired_index
        target = self._family.mode_for_mismatch(mismatch_s).index
        if target > current:
            # Moving conservative: require M clearly past the boundary.
            target = max(
                current, self._family.mode_for_mismatch(mismatch_s - margin).index
            )
        elif target < current:
            # Moving aggressive: require M clearly below the boundary.
            target = min(
                current, self._family.mode_for_mismatch(mismatch_s + margin).index
            )
        self._desired_index = target
        if self._trace is not None:
            self._trace.emit("mode.mismatch", m_s=mismatch_s, desired_index=target)
        if self._meter is not None:
            self._meter.observe("compression.desired_index", target)
        self._note_switch()

    def fit_to_rate(self, rate_bps: float, floor_rate) -> None:
        """Recompute the rate cap: the most conservative fitting mode."""
        reference_roi = (0, self._grid.tiles_y // 2)
        cap = 0
        for index in range(len(self._family), 0, -1):
            floor = self._floor_cache.get(index)
            if floor is None:
                matrix = self._family[index].matrix(self._grid, reference_roi)
                floor = floor_rate(matrix)
                self._floor_cache[index] = floor
            if floor <= self.RATE_FIT_MARGIN * rate_bps:
                cap = index
                break
        if cap < min(self._desired_index, len(self._family)) and cap < self._cap_index:
            self.rate_clamp_events += 1
        self._cap_index = cap
        self._note_switch()

    def matrix(self, sender_roi: Tuple[int, int]) -> np.ndarray:
        return self.current_mode.matrix(self._grid, sender_roi)
