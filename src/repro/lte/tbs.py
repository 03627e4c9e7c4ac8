"""CQI / MCS / transport-block-size mappings.

A thin, honest slice of 3GPP TS 36.213: the CQI table's spectral
efficiencies (Table 7.2.3-1) translate a channel quality indicator into
bytes per physical resource block (PRB) per 1 ms subframe.  The RSS→CQI
mapping is an empirical linear fit calibrated so the paper's three field
locations (-115 / -82 / -73 dBm) land on CQIs that give the uplink
bandwidths its Fig. 17c/d behaviour implies (≈1 / ≈4 / ≈5.5 Mbps).
"""

from __future__ import annotations

import numpy as np

#: Spectral efficiency (information bits per resource element) for CQI
#: indices 1..15, per 3GPP TS 36.213 Table 7.2.3-1.
CQI_EFFICIENCY = (
    0.1523,
    0.2344,
    0.3770,
    0.6016,
    0.8770,
    1.1758,
    1.4766,
    1.9141,
    2.4063,
    2.7305,
    3.3223,
    3.9023,
    4.5234,
    5.1152,
    5.5547,
)

#: Resource elements per PRB per subframe usable for PUSCH data after
#: reference-signal and control overhead.
USABLE_RES_PER_PRB = 150

#: Calibrated RSS→CQI linear fit: ``cqi = RSS_CQI_BASE + (rss - RSS_CQI_ANCHOR)
#: / RSS_DB_PER_CQI`` (then rounded and clamped to [1, 15]).
RSS_CQI_ANCHOR = -115.0
RSS_CQI_BASE = 5.0
RSS_DB_PER_CQI = 5.25


#: ``bytes_per_prb`` for CQI 1..15, precomputed once (the mapping sits
#: on the per-subframe grant path).
_BYTES_PER_PRB = tuple(
    efficiency * USABLE_RES_PER_PRB / 8.0 for efficiency in CQI_EFFICIENCY
)


def efficiency_for_cqi(cqi: int) -> float:
    """Spectral efficiency (bits per resource element) for a CQI index.

    CQI 0 means "out of range" (e.g. during a handover outage) and maps
    to zero efficiency.
    """
    if cqi <= 0:
        return 0.0
    index = min(int(cqi), len(CQI_EFFICIENCY)) - 1
    return CQI_EFFICIENCY[index]


def bytes_per_prb(cqi: int) -> float:
    """Payload bytes one PRB carries in one subframe at the given CQI."""
    if cqi <= 0:
        return 0.0
    return _BYTES_PER_PRB[min(int(cqi), len(_BYTES_PER_PRB)) - 1]


def cqi_from_rss(rss_dbm: float) -> int:
    """Map an instantaneous RSS (dBm) to a CQI index in [1, 15].

    >>> cqi_from_rss(-115)
    5
    >>> cqi_from_rss(-73)
    13
    """
    cqi = RSS_CQI_BASE + (rss_dbm - RSS_CQI_ANCHOR) / RSS_DB_PER_CQI
    return int(max(1, min(15, round(cqi))))


def transport_block_bytes(cqi: int, prbs: int) -> float:
    """Transport block size (bytes) for ``prbs`` resource blocks at ``cqi``."""
    if prbs <= 0:
        return 0.0
    return bytes_per_prb(cqi) * prbs


# ----------------------------------------------------------------------
# Array twins (batched lockstep engine, repro.sim.batch)
# ----------------------------------------------------------------------

#: ``bytes_per_prb`` indexed directly by CQI 0..15 — index 0 (handover
#: outage) maps to 0.0, so a clipped gather replaces the scalar branch.
BYTES_PER_PRB_TABLE = np.array((0.0,) + _BYTES_PER_PRB, dtype=np.float64)


def cqi_from_rss_array(rss_dbm: np.ndarray) -> np.ndarray:
    """:func:`cqi_from_rss` over an array of RSS values.

    Pure affine arithmetic plus half-even rounding, so every element is
    bit-identical to the scalar mapping (``round`` and ``np.rint`` both
    round half to even).
    """
    cqi = RSS_CQI_BASE + (rss_dbm - RSS_CQI_ANCHOR) / RSS_DB_PER_CQI
    return np.clip(np.rint(cqi), 1, 15).astype(np.int64)
