"""ROI-based spatial compression: POI360's adaptive scheme and baselines."""

from repro.compression.base import CompressionScheme
from repro.compression.conduit import ConduitCompression
from repro.compression.matrix import build_mode_matrix, fov_tile_offsets, roi_region_tiles
from repro.compression.mismatch import MismatchEstimator
from repro.compression.modes import ModeFamily
from repro.compression.poi360 import AdaptiveCompression
from repro.compression.pyramid import PyramidCompression

__all__ = [
    "CompressionScheme",
    "ConduitCompression",
    "PyramidCompression",
    "AdaptiveCompression",
    "ModeFamily",
    "MismatchEstimator",
    "build_mode_matrix",
    "fov_tile_offsets",
    "roi_region_tiles",
]


def make_scheme(name, config, grid, viewer, trace=None, meter=None):
    """Factory mapping a scheme name to its implementation.

    Parameters mirror what every scheme needs: the
    :class:`repro.config.CompressionConfig`, the tile grid, and the
    viewer config (for FoV-sized regions).  ``trace`` is an optional
    :class:`repro.obs.TraceBus` and ``meter`` an optional
    :class:`repro.obs.SessionMeter`; only the adaptive scheme emits
    (``mode_switch`` / ``mode.mismatch`` events,
    ``compression.*`` metrics).
    """
    name = name.lower()
    if name == "poi360":
        return AdaptiveCompression(config, grid, trace=trace, meter=meter)
    if name == "conduit":
        return ConduitCompression(config, grid, viewer)
    if name == "pyramid":
        return PyramidCompression(config, grid)
    if name == "pyramid_geo":
        from repro.compression.pyramid_geo import GeometricPyramidCompression

        return GeometricPyramidCompression(config, grid)
    raise ValueError(f"unknown compression scheme: {name!r}")
