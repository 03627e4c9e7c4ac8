"""Packet types flowing through the simulated network."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_packet_ids = itertools.count()


@dataclass
class Packet:
    """A network packet (RTP media or data-channel feedback).

    ``payload`` carries structured simulation metadata in place of real
    bytes — e.g. the frame id and sequence number for RTP video, or the
    viewer's ROI / mismatch report for feedback messages.
    """

    kind: str
    size_bytes: float
    created: float
    payload: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=_packet_ids.__next__)
    #: Filled in on delivery by the path.
    arrived: Optional[float] = None

    def age(self, now: float) -> float:
        """Time since the packet was created."""
        return now - self.created
