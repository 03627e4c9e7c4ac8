"""Rate-distortion and perceptual-quality models.

Two distortion sources are modelled and combined in the MSE domain:

1. **Encoding distortion** — a logarithmic R-D curve: PSNR grows by a
   fixed number of dB per doubling of bits-per-pixel, anchored at the
   full-quality operating point of the paper's 12.65 Mbps test video.
2. **Spatial downscale distortion** — a tile compressed to level ``l``
   (area shrunk ``l``-fold, Eq. 1) and upscaled for display loses high
   frequencies: its PSNR cost is logarithmic in ``l``.

MOS bands follow the paper's Table 1 (the PSNR→MOS mapping of Sen et
al., SIGCOMM'10).

The per-tile helpers exist twice: as scalars (the reference
implementation) and as ``*_array`` kernels operating on whole tile
arrays at once.  Both route their transcendentals through the same
numpy ufuncs, so a kernel output is **bit-identical** to mapping its
scalar twin over the array — the property tests in
``tests/test_kernels.py`` enforce element-wise equality, and
:func:`set_reference_kernels` makes every kernel fall back to the
scalar loop for end-to-end A/B runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import VideoConfig

#: Table 1 of the paper: (band name, inclusive lower PSNR bound).
MOS_BANDS: Tuple[Tuple[str, float], ...] = (
    ("excellent", 37.0),
    ("good", 31.0),
    ("fair", 25.0),
    ("poor", 20.0),
    ("bad", float("-inf")),
)

#: Order used when reporting MOS PDFs (worst → best, as in Fig. 11c/d).
MOS_ORDER: Tuple[str, ...] = ("bad", "poor", "fair", "good", "excellent")

_PEAK_SQUARED = 255.0 * 255.0

#: When true, every ``*_array`` kernel (here and in
#: :mod:`repro.video.content`) loops its scalar reference instead of
#: vectorising — the "before" leg of the kernel microbenchmarks and of
#: the byte-identical pre/post session test.
_REFERENCE_KERNELS = False


def set_reference_kernels(enabled: bool) -> bool:
    """Force (or release) the scalar reference path; returns the old flag."""
    global _REFERENCE_KERNELS
    previous = _REFERENCE_KERNELS
    _REFERENCE_KERNELS = bool(enabled)
    return previous


def reference_kernels() -> bool:
    """Whether the scalar reference path is currently forced."""
    return _REFERENCE_KERNELS


def _log2(x: float) -> float:
    """``log2`` via the numpy ufunc so scalar and array paths agree
    bit-for-bit (``math.log2`` differs from ``np.log2`` in the last ulp
    on SIMD builds)."""
    return float(np.log2(x))


def _log10(x: float) -> float:
    return float(np.log10(x))


def _pow10(x: float) -> float:
    return float(np.power(10.0, x))


def mse_from_psnr(psnr_db: float) -> float:
    """Mean squared error corresponding to a PSNR (8-bit peak)."""
    return _PEAK_SQUARED / _pow10(psnr_db / 10.0)


def psnr_from_mse(mse: float) -> float:
    """PSNR (dB) for a mean squared error (8-bit peak)."""
    if mse <= 0.0:
        return float("inf")
    return 10.0 * _log10(_PEAK_SQUARED / mse)


#: Per-config memo for the hot R-D helpers, keyed by object identity —
#: hashing a frozen dataclass on every per-tile call costs more than the
#: arithmetic it saves.  The entry keeps a strong reference to the
#: config so its id cannot be recycled; the memo is bounded (FIFO
#: eviction past ``_CONFIG_MEMO_MAX``) so long sweeps over many configs
#: cannot leak them.
_CONFIG_MEMO: dict = {}
_CONFIG_MEMO_MAX = 16


def _config_memo(config: VideoConfig) -> tuple:
    entry = _CONFIG_MEMO.get(id(config))
    if entry is None or entry[0] is not config:
        bits_per_frame = config.full_quality_bitrate / config.fps
        anchor = bits_per_frame / (config.width * config.height)
        entry = (config, anchor, {})
        while len(_CONFIG_MEMO) >= _CONFIG_MEMO_MAX:
            _CONFIG_MEMO.pop(next(iter(_CONFIG_MEMO)))
        _CONFIG_MEMO[id(config)] = entry
    return entry


def anchor_bpp(config: VideoConfig) -> float:
    """Bits-per-pixel of the full-quality encoded stream."""
    return _config_memo(config)[1]


def psnr_from_bpp(bpp: float, config: VideoConfig, complexity: float = 1.0) -> float:
    """Encoded PSNR for ``bpp`` bits per pixel of ``complexity``-hard content.

    ``complexity`` scales the bits needed for a given quality: a tile
    twice as complex needs twice the bits for the same PSNR.
    """
    if bpp <= 0.0:
        return config.psnr_floor
    effective = bpp / max(1e-9, complexity)
    psnr = config.rd_anchor_psnr + config.rd_db_per_octave * _log2(
        effective / anchor_bpp(config)
    )
    return min(config.psnr_ceiling, max(config.psnr_floor, psnr))


def scale_psnr(level: float, config: VideoConfig) -> float:
    """PSNR cost of downscaling a tile to compression level ``level``.

    Level 1 (no downscale) is lossless — returned as +inf so that the
    MSE-domain combination adds nothing.  Levels come from the small
    per-mode set, so the value is memoised per config.
    """
    cache = _config_memo(config)[2]
    value = cache.get(level)
    if value is None:
        if level <= 1.0:
            value = float("inf")
        else:
            value = config.scale_anchor_psnr - config.scale_db_per_octave * _log2(level)
        cache[level] = value
    return value


def combine_psnr_mse(*psnrs: float) -> float:
    """Combine independent distortion stages by adding their MSEs."""
    total = 0.0
    for psnr in psnrs:
        if psnr != float("inf"):
            total += mse_from_psnr(psnr)
    return psnr_from_mse(total)


def displayed_tile_psnr(
    bpp: float, level: float, config: VideoConfig, complexity: float = 1.0
) -> float:
    """PSNR of a displayed tile: encoding ⊕ downscale distortion.

    ``bpp`` is bits per *compressed* pixel for the tile, ``level`` its
    compression level in the frame's matrix.
    """
    encoded = psnr_from_bpp(bpp, config, complexity)
    return combine_psnr_mse(encoded, scale_psnr(level, config))


# ----------------------------------------------------------------------
# Array kernels (bit-identical to mapping the scalar twins)
# ----------------------------------------------------------------------


def mse_from_psnr_array(psnr_db: np.ndarray) -> np.ndarray:
    """:func:`mse_from_psnr` over an array (+inf PSNR → 0 MSE)."""
    psnr_db = np.asarray(psnr_db, dtype=float)
    if _REFERENCE_KERNELS:
        return np.array([mse_from_psnr(p) for p in psnr_db.ravel()]).reshape(
            psnr_db.shape
        )
    return _PEAK_SQUARED / np.power(10.0, psnr_db / 10.0)


def psnr_from_mse_array(mse: np.ndarray) -> np.ndarray:
    """:func:`psnr_from_mse` over an array (MSE ≤ 0 → +inf)."""
    mse = np.asarray(mse, dtype=float)
    if _REFERENCE_KERNELS:
        return np.array([psnr_from_mse(m) for m in mse.ravel()]).reshape(mse.shape)
    # where-safe input instead of errstate: the context manager costs
    # more than the whole 9-tile kernel on the per-frame path.
    safe = np.where(mse <= 0.0, 1.0, mse)
    psnr = 10.0 * np.log10(_PEAK_SQUARED / safe)
    return np.where(mse <= 0.0, np.inf, psnr)


def psnr_from_bpp_array(
    bpp, config: VideoConfig, complexity=1.0
) -> np.ndarray:
    """:func:`psnr_from_bpp` over arrays (``bpp``/``complexity`` broadcast)."""
    if _REFERENCE_KERNELS:
        bpp, complexity = np.broadcast_arrays(
            np.asarray(bpp, dtype=float), np.asarray(complexity, dtype=float)
        )
        return np.array(
            [
                psnr_from_bpp(b, config, c)
                for b, c in zip(bpp.ravel(), complexity.ravel())
            ]
        ).reshape(bpp.shape)
    bpp = np.asarray(bpp, dtype=float)
    complexity = np.asarray(complexity, dtype=float)
    effective = bpp / np.maximum(1e-9, complexity)
    # where-safe input keeps log2 off zero/negative operands (errstate
    # is too slow for the per-frame path); masked lanes are overwritten.
    safe = np.where(bpp <= 0.0, 1.0, effective)
    psnr = config.rd_anchor_psnr + config.rd_db_per_octave * np.log2(
        safe / anchor_bpp(config)
    )
    clamped = np.minimum(config.psnr_ceiling, np.maximum(config.psnr_floor, psnr))
    return np.where(bpp <= 0.0, config.psnr_floor, clamped)


def scale_psnr_array(levels, config: VideoConfig) -> np.ndarray:
    """:func:`scale_psnr` over a level array (level ≤ 1 → +inf)."""
    levels = np.asarray(levels, dtype=float)
    if _REFERENCE_KERNELS:
        return np.array([scale_psnr(l, config) for l in levels.ravel()]).reshape(
            levels.shape
        )
    safe = np.where(levels <= 1.0, 2.0, levels)
    psnr = config.scale_anchor_psnr - config.scale_db_per_octave * np.log2(safe)
    return np.where(levels <= 1.0, np.inf, psnr)


def displayed_tile_psnr_array(
    bpp, levels, config: VideoConfig, complexity=1.0
) -> np.ndarray:
    """:func:`displayed_tile_psnr` over whole tile arrays.

    The hot receiver-side kernel: one call covers every tile of the ROI
    measurement crop instead of ~9 scalar calls per displayed frame.
    """
    levels = np.asarray(levels, dtype=float)
    if _REFERENCE_KERNELS:
        bpp_b, levels_b, complexity_b = np.broadcast_arrays(
            np.asarray(bpp, dtype=float), levels, np.asarray(complexity, dtype=float)
        )
        return np.array(
            [
                displayed_tile_psnr(b, l, config, c)
                for b, l, c in zip(bpp_b.ravel(), levels_b.ravel(), complexity_b.ravel())
            ]
        ).reshape(levels_b.shape)
    encoded = psnr_from_bpp_array(bpp, config, complexity)
    total_mse = mse_from_psnr_array(encoded) + mse_from_psnr_array(
        scale_psnr_array(levels, config)
    )
    return psnr_from_mse_array(total_mse)


def mos_band(psnr_db: float) -> str:
    """Map a frame PSNR to the paper's Table 1 MOS band.

    >>> mos_band(40.0)
    'excellent'
    >>> mos_band(18.0)
    'bad'
    """
    for name, lower in MOS_BANDS:
        if psnr_db > lower:
            return name
    return "bad"


#: Numeric score of each Table 1 band on the standard 1-5 MOS scale.
MOS_SCORES = {name: float(score) for score, name in enumerate(MOS_ORDER, start=1)}


def mos_score(pdf) -> float:
    """Expected MOS (1-5) of a band PDF like ``QualityStats.mos_pdf``.

    Bands are scored ``bad=1 … excellent=5``; missing bands count as
    probability zero, so a partial PDF still scores.

    >>> mos_score({"good": 0.5, "excellent": 0.5})
    4.5
    >>> mos_score({"bad": 1.0})
    1.0
    >>> mos_score({})
    nan
    """
    total = 0.0
    weight = 0.0
    for name, fraction in pdf.items():
        total += MOS_SCORES[name] * fraction
        weight += fraction
    if weight <= 0.0:
        return float("nan")
    return total / weight
