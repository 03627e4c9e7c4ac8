"""360-degree frame geometry and the encoded-frame record.

A raw 360° frame is an equirectangular projection split into a
``tiles_x x tiles_y`` grid (12x8 in the paper's prototype, §5).  The
x-axis wraps (yaw is periodic); the y-axis does not.  Tile distances —
the ``(i - i*, j - j*)`` of Eq. (1) — are therefore cyclic in x and
plain absolute in y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


@dataclass(frozen=True)
class TileGrid:
    """Geometry of the tile grid over an equirectangular frame."""

    width: int
    height: int
    tiles_x: int
    tiles_y: int

    def __post_init__(self) -> None:
        if self.width % self.tiles_x or self.height % self.tiles_y:
            raise ValueError("frame dimensions must be divisible by tile counts")

    @property
    def tile_width(self) -> int:
        return self.width // self.tiles_x

    @property
    def tile_height(self) -> int:
        return self.height // self.tiles_y

    @property
    def tile_pixels(self) -> int:
        """Pixels per (uncompressed) tile."""
        return self.tile_width * self.tile_height

    @property
    def total_pixels(self) -> int:
        return self.width * self.height

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    def tiles(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all (i, j) tile coordinates."""
        for i in range(self.tiles_x):
            for j in range(self.tiles_y):
                yield (i, j)

    def dx(self, i: int, i_star: int) -> int:
        """Cyclic x-distance between tile columns (yaw wraps)."""
        raw = abs(i - i_star) % self.tiles_x
        return min(raw, self.tiles_x - raw)

    def dy(self, j: int, j_star: int) -> int:
        """Absolute y-distance between tile rows (pitch does not wrap)."""
        return abs(j - j_star)

    def tile_of_angles(self, yaw_deg: float, pitch_deg: float) -> Tuple[int, int]:
        """Tile containing a gaze direction (yaw in degrees, pitch in
        [-90, 90] with 0 = horizon)."""
        yaw = yaw_deg % 360.0
        i = int(yaw / 360.0 * self.tiles_x) % self.tiles_x
        fraction = (min(90.0, max(-90.0, pitch_deg)) + 90.0) / 180.0
        j = min(self.tiles_y - 1, int(fraction * self.tiles_y))
        return (i, j)

    def degrees_per_tile(self) -> Tuple[float, float]:
        """Angular span of one tile (x span, y span) in degrees."""
        return (360.0 / self.tiles_x, 180.0 / self.tiles_y)


@dataclass
class EncodedFrame:
    """One spatially-compressed, encoded 360° frame in flight.

    ``matrix`` is the compression matrix L (level per tile) the sender
    used; the receiver unfolds the frame with it (the prototype embeds
    the mode inside the frame, §5).  ``bpp`` is the bits spent per
    *compressed* pixel — the quantity the R-D model turns into encoded
    PSNR.
    """

    frame_id: int
    capture_time: float
    send_start: float
    matrix: np.ndarray
    sender_roi: Tuple[int, int]
    size_bits: float
    bpp: float
    pixel_ratio: float
    keyframe: bool = False

    @property
    def size_bytes(self) -> float:
        return self.size_bits / 8.0
