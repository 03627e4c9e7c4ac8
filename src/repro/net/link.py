"""Generic link models for the non-LTE parts of the path.

Two flavours:

- :class:`StochasticLink` — a latency/jitter/loss stage with no explicit
  queue, used for the Internet core + the viewer's downlink and for the
  light feedback path (their queueing is negligible next to the sender's
  uplink, which the LTE substrate models in full).
- :class:`RateLimitedLink` — a FIFO with finite service rate and a byte
  cap, used for the campus wireline access in the paper's baseline.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.net.packet import Packet
from repro.sim.engine import Simulation
from repro.units import BITS_PER_BYTE

PacketSink = Callable[[Packet], None]


class StochasticLink:
    """Delay + jitter + random loss; delivery order is preserved."""

    def __init__(
        self,
        sim: Simulation,
        rng: np.random.Generator,
        delay: float,
        jitter_std: float = 0.0,
        loss: float = 0.0,
        sink: Optional[PacketSink] = None,
    ):
        self._sim = sim
        self._rng = rng
        self.delay = delay
        self.jitter_std = jitter_std
        self.loss = loss
        self._sink = sink
        self._last_arrival = 0.0
        self.delivered = 0
        self.lost = 0

    def set_sink(self, sink: PacketSink) -> None:
        self._sink = sink

    def deliver(self, packet: Packet) -> None:
        """Send ``packet`` across the link."""
        if self.loss > 0.0 and self._rng.random() < self.loss:
            self.lost += 1
            return
        jitter = self._rng.normal(0.0, self.jitter_std) if self.jitter_std else 0.0
        # max(delay / 4, delay + jitter), as the comparison max() makes.
        transit = self.delay + jitter
        floor = self.delay * 0.25
        arrival = self._sim._now + (transit if transit > floor else floor)
        # Keep FIFO order: a late packet delays the ones behind it.
        if self._last_arrival > arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        self.delivered += 1
        self._sim.at(arrival, self._arrive, packet)

    def _arrive(self, packet: Packet) -> None:
        packet.arrived = self._sim._now
        if self._sink is not None:
            self._sink(packet)


class RateLimitedLink:
    """FIFO link with finite service rate, propagation delay and a cap."""

    def __init__(
        self,
        sim: Simulation,
        rng: np.random.Generator,
        rate_bps: float,
        delay: float,
        jitter_std: float = 0.0,
        queue_cap_bytes: float = 256_000.0,
        sink: Optional[PacketSink] = None,
    ):
        self._sim = sim
        self._rng = rng
        self.rate_bps = rate_bps
        self.delay = delay
        self.jitter_std = jitter_std
        self.queue_cap_bytes = queue_cap_bytes
        self._sink = sink
        self._busy_until = 0.0
        self._queued_bytes = 0.0
        self.dropped = 0

    def set_sink(self, sink: PacketSink) -> None:
        self._sink = sink

    @property
    def queued_bytes(self) -> float:
        """Bytes currently waiting for or in serialization."""
        return self._queued_bytes

    def deliver(self, packet: Packet) -> None:
        """Enqueue ``packet``; drops it when the queue cap is exceeded."""
        if self._queued_bytes + packet.size_bytes > self.queue_cap_bytes:
            self.dropped += 1
            return
        serialization = packet.size_bytes * BITS_PER_BYTE / self.rate_bps
        now = self._sim._now
        start = self._busy_until if self._busy_until > now else now
        self._busy_until = start + serialization
        self._queued_bytes += packet.size_bytes
        jitter = self._rng.normal(0.0, self.jitter_std) if self.jitter_std else 0.0
        transit = self.delay + jitter
        floor = self.delay * 0.25
        arrival = self._busy_until + (transit if transit > floor else floor)
        self._sim.at(arrival, self._arrive, packet)

    def _arrive(self, packet: Packet) -> None:
        self._queued_bytes -= packet.size_bytes
        packet.arrived = self._sim._now
        if self._sink is not None:
            self._sink(packet)
