"""Synthetic 360-degree content model.

Stands in for the paper's five real 4K test videos (one per user, §6):
each tile has a base texture/motion complexity drawn once per video,
plus a slow temporal modulation (scene activity moving around the
panorama).  Complexity scales the bits a tile needs for a given quality
in :func:`repro.video.quality.psnr_from_bpp`.
"""

from __future__ import annotations

import math

import numpy as np

import repro.video.quality as quality
from repro.video.frame import TileGrid

#: Spread of per-tile base complexity (lognormal sigma).
BASE_SIGMA = 0.25

#: Amplitude and period of the travelling activity wave.
WAVE_AMPLITUDE = 0.20
WAVE_PERIOD = 25.0

_TWO_PI = 2.0 * math.pi


class ContentModel:
    """Per-tile, time-varying content complexity (mean ≈ 1)."""

    def __init__(self, grid: TileGrid, rng: np.random.Generator):
        self._grid = grid
        base = np.exp(rng.normal(0.0, BASE_SIGMA, size=(grid.tiles_x, grid.tiles_y)))
        self._base = base / base.mean()
        self._phase = rng.uniform(0.0, 2.0 * math.pi)
        #: Row means of the base field — ``mean_complexity`` only needs
        #: the per-column aggregate because the wave is constant in j.
        self._base_row_mean = self._base.mean(axis=1)
        #: Precomputed ``i / tiles_x`` spatial phase of the wave.
        self._i_frac = np.arange(grid.tiles_x) / grid.tiles_x

    def complexity(self, i: int, j: int, t: float) -> float:
        """Complexity of tile (i, j) at time ``t``.

        The wave term goes through the ``np.sin`` ufunc (not
        ``math.sin``) so the scalar value is bit-identical to one
        element of :meth:`complexity_tiles`.
        """
        wave = 1.0 + WAVE_AMPLITUDE * float(
            np.sin(_TWO_PI * (t / WAVE_PERIOD + i / self._grid.tiles_x) + self._phase)
        )
        return float(self._base[i, j] * wave)

    def complexity_tiles(self, i: np.ndarray, j: np.ndarray, t) -> np.ndarray:
        """Complexity of the tiles ``(i[k], j[k])`` at time ``t``.

        The vectorised twin of :meth:`complexity` — bit-identical
        element-wise, and the gather the receiver's ROI quality kernel
        runs on.  ``t`` is a time or an array of times broadcasting
        against ``i`` (a ``(F, 1)`` column for ``(F, n)`` crops, one
        capture time per frame).
        """
        i = np.asarray(i)
        if quality.reference_kernels():
            i, j, t = np.broadcast_arrays(i, np.asarray(j), np.asarray(t, dtype=float))
            return np.array(
                [
                    self.complexity(int(a), int(b), float(c))
                    for a, b, c in zip(i.ravel(), j.ravel(), t.ravel())
                ]
            ).reshape(i.shape)
        wave = 1.0 + WAVE_AMPLITUDE * np.sin(
            _TWO_PI * (t / WAVE_PERIOD + i / self._grid.tiles_x) + self._phase
        )
        return self._base[i, j] * wave

    def complexity_map(self, t: float) -> np.ndarray:
        """Complexity of every tile at time ``t`` (tiles_x × tiles_y)."""
        i = np.arange(self._grid.tiles_x)[:, None]
        wave = 1.0 + WAVE_AMPLITUDE * np.sin(
            _TWO_PI * (t / WAVE_PERIOD + i / self._grid.tiles_x) + self._phase
        )
        return self._base * wave

    def mean_complexity(self, t: float) -> float:
        """Frame-average complexity at time ``t``.

        Uses the precomputed base row means: the wave only varies along
        i, so the full-map reduction collapses to ``tiles_x`` terms and
        one dot product — the encoder calls this every frame.
        """
        wave = 1.0 + WAVE_AMPLITUDE * np.sin(
            _TWO_PI * (t / WAVE_PERIOD + self._i_frac) + self._phase
        )
        return float(self._base_row_mean @ wave) / self._grid.tiles_x
