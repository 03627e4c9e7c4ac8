"""Colored-block frame timestamping — the §5 measurement system.

The prototype embeds the sending timestamp inside each video frame as a
row of colored square blocks: each decimal digit of the millisecond
timestamp maps to one of 10 colors spread uniformly through RGB space.
The receiver averages the pixels in each block and maps back to the
nearest palette color.  We reproduce that pipeline, including the pixel
averaging noise and the NTP clock offset between the two endpoints.

The viewer decodes through :class:`TimestampDecoder`, which skips the
nearest-palette search whenever the noise provably cannot move any block
off its color; :func:`decode_timestamp` stays the reference and the
fallback.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

RgbBlock = Tuple[int, int, int]

#: Ten colors with wide mutual separation in the RGB cube, digit 0-9.
PALETTE: Tuple[RgbBlock, ...] = (
    (0, 0, 0),
    (255, 0, 0),
    (0, 255, 0),
    (0, 0, 255),
    (255, 255, 0),
    (255, 0, 255),
    (0, 255, 255),
    (255, 255, 255),
    (128, 128, 128),
    (255, 128, 0),
)

#: Digits encoded (ms resolution, wraps every ~28 hours).
NUM_DIGITS = 8

_MODULUS = 10**NUM_DIGITS

#: Palette as a float array, shaped for broadcasting against a batch of
#: observed blocks: (1, 10, 3).
_PALETTE_F = np.asarray(PALETTE, dtype=float)[np.newaxis, :, :]

#: Codec + block-averaging noise on the received colors (std, per channel).
PIXEL_NOISE_STD = 6.0

#: Half the palette's minimum pairwise separation is 127 / 2 = 63.5
#: (between (255, 128, 0) and its neighbours (255, 0, 0) and
#: (255, 255, 0)): a block whose noise is shorter than that stays
#: strictly nearest its own color.  The test is on the squared length,
#: against 63.5² = 4032.25 less a quarter, a margin (about 0.5 in squared
#: distance at the boundary) far above the rounding of these sums.
_EXACT_NOISE_SQ = 4032.0

#: Frames of noise :class:`TimestampDecoder` draws at a time.
DECODE_BLOCK = 64


def encode_timestamp(time_s: float) -> Tuple[RgbBlock, ...]:
    """Encode a timestamp (seconds) as colored blocks, ms resolution.

    >>> encode_timestamp(0.042)[-1]
    (0, 255, 0)
    """
    total_ms = int(round(time_s * 1000.0)) % _MODULUS
    digits = [(total_ms // 10**power) % 10 for power in range(NUM_DIGITS - 1, -1, -1)]
    return tuple(PALETTE[d] for d in digits)


def decode_timestamp(
    blocks: Sequence[RgbBlock],
    rng: Optional[np.random.Generator] = None,
    pixel_noise_std: float = PIXEL_NOISE_STD,
) -> float:
    """Decode colored blocks back to seconds (nearest-palette match).

    ``pixel_noise_std`` models codec + averaging noise on the received
    block colors; the palette's wide separation makes decoding robust
    far beyond realistic noise levels.
    """
    observed = np.asarray(blocks, dtype=float)
    if observed.size == 0:
        return 0.0
    if rng is not None and pixel_noise_std > 0.0:
        # One batched draw; numpy fills the array in C order, so the
        # values (and the generator state afterwards) are identical to
        # one size-3 draw per block.
        observed = observed + rng.normal(
            0.0, pixel_noise_std, size=observed.shape
        )
    distances = ((_PALETTE_F - observed[:, np.newaxis, :]) ** 2).sum(axis=2)
    total = 0
    for digit in distances.argmin(axis=1):
        total = total * 10 + int(digit)
    return total / 1000.0


class TimestampDecoder:
    """The viewer's decode of each displayed frame's blocks.

    Pixel noise (:data:`PIXEL_NOISE_STD`) is drawn from ``rng`` for
    :data:`DECODE_BLOCK` frames at a time; numpy fills arrays in C
    order, so frame ``k`` gets the values one ``(NUM_DIGITS, 3)`` draw
    per frame would give.  The generator runs
    up to a block ahead, so it must have no other consumer.  When every
    block's noise is shorter than half the palette's minimum separation
    (:data:`_EXACT_NOISE_SQ`), nearest-palette decoding returns the
    encoded millisecond, so it is computed arithmetically; any other
    frame runs :func:`decode_timestamp` on its noisy blocks.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._noise: Optional[np.ndarray] = None
        self._exact: List[bool] = []
        self._next = 0

    def decode(self, time_s: float) -> float:
        """Decoded send time (s) of a frame whose blocks encode ``time_s``."""
        k = self._next
        if k == len(self._exact):
            noise = self._rng.normal(
                0.0, PIXEL_NOISE_STD, size=(DECODE_BLOCK, NUM_DIGITS, 3)
            )
            self._noise = noise
            self._exact = (
                (noise * noise).sum(axis=2).max(axis=1) < _EXACT_NOISE_SQ
            ).tolist()
            k = 0
        self._next = k + 1
        if self._exact[k]:
            return (round(time_s * 1000.0) % _MODULUS) / 1000.0
        observed = np.asarray(encode_timestamp(time_s), dtype=float) + self._noise[k]
        return decode_timestamp(observed)
