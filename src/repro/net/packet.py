"""Packet types flowing through the simulated network."""

from __future__ import annotations

from typing import Any, Dict, Optional


class Packet:
    """A network packet (RTP media or data-channel feedback).

    ``payload`` carries structured simulation metadata in place of real
    bytes — e.g. the frame id and sequence number for RTP video, or the
    viewer's ROI / mismatch report for feedback messages.
    """

    __slots__ = ("kind", "size_bytes", "created", "payload", "arrived")

    def __init__(
        self,
        kind: str,
        size_bytes: float,
        created: float,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.size_bytes = size_bytes
        self.created = created
        self.payload = {} if payload is None else payload
        #: Filled in on delivery by the path.
        self.arrived: Optional[float] = None
