"""The viewer's LTE downlink: eNodeB queue + bursty service.

The paper's cellular experiments put *both* endpoints on LTE: the
sender's uplink is the bottleneck, but the receiving phone's downlink
still shapes the arrival process — deep basestation buffers
(bufferbloat, the reason end-to-end delay metrics go blind, §4.3.1),
serve-in-bursts scheduling, and channel-dependent capacity.

This is a lighter model than the uplink's (no BSR loop — the eNodeB
sees its own queue directly): a FIFO with a hard cap, drained every
1 ms subframe when the burst process schedules our flow, at the
CQI-dependent transport block size.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.config import DownlinkConfig
from repro.lte.cell import UPDATE_INTERVAL as CELL_UPDATE_INTERVAL
from repro.lte.cell import CellLoadProcess
from repro.lte.channel import ChannelProcess
from repro.lte.firmware_buffer import FirmwareBuffer
from repro.lte.tbs import transport_block_bytes
from repro.net.packet import Packet
from repro.sim.blocks import CallDraws
from repro.sim.engine import Simulation
from repro.units import LTE_SUBFRAME

PacketSink = Callable[[Packet], None]


class EnbDownlink:
    """Basestation → viewer's phone downlink hop."""

    def __init__(
        self,
        sim: Simulation,
        config: DownlinkConfig,
        rng: np.random.Generator,
        sink: Optional[PacketSink] = None,
    ):
        self._sim = sim
        self._config = config
        self._rng = rng
        self._sink = sink
        draws = CallDraws(rng)
        channel = self.channel = ChannelProcess(config.channel, draws)
        sim.every(config.channel.update_interval, lambda: channel.update(sim.now))
        self.cell = CellLoadProcess(config.cell, draws)
        sim.every(CELL_UPDATE_INTERVAL, self.cell.update)
        self.queue = FirmwareBuffer(config.queue_cap_bytes)
        self._burst_left = 0
        self._idle_left = 0
        self.bytes_served = 0.0
        # An empty-queue subframe is a pure no-op (no RNG draw, no burst
        # advance), so the process pauses while idle and deliver() wakes it.
        self._tick = sim.every_while(LTE_SUBFRAME, self._subframe)

    def set_sink(self, sink: PacketSink) -> None:
        self._sink = sink

    def deliver(self, packet: Packet) -> None:
        """Enqueue a packet arriving from the core network."""
        self.queue.push(packet)
        if self._tick.paused:
            self._tick.wake()

    @property
    def queued_bytes(self) -> float:
        return self.queue.level

    @property
    def dropped_packets(self) -> int:
        return self.queue.dropped_packets

    def _in_service_burst(self, duty: float) -> bool:
        if self._burst_left > 0:
            self._burst_left -= 1
            return True
        if self._idle_left > 0:
            self._idle_left -= 1
            return False
        duty = min(1.0, max(1e-3, duty))
        mean_burst = self._config.burst_subframes
        burst = 1 + int(-mean_burst * np.log(max(1e-12, self._rng.random())))
        idle = min(
            self._config.max_idle_subframes,
            int(round(burst * (1.0 - duty) / duty)),
        )
        self._burst_left = burst - 1
        self._idle_left = idle
        return True

    def _subframe(self) -> bool:
        queue = self.queue
        if queue.level <= 0.0:
            return False
        cqi = self.channel.cqi(self._sim.now)
        if cqi <= 0:
            return True
        load = self.cell.load
        duty = self._config.p_max * (1.0 - load)
        if not self._in_service_burst(duty):
            return True
        capacity = transport_block_bytes(cqi, self._config.prb_quota)
        fading = float(np.exp(self._rng.normal(0.0, 0.1)))
        before = queue.level
        completed = queue.drain(capacity * fading)
        self.bytes_served += before - queue.level
        if self._sink is not None:
            for packet in completed:
                self._sim.schedule(self._config.radio_latency, self._arrive, packet)
        return True

    def _arrive(self, packet: Packet) -> None:
        packet.arrived = self._sim.now
        if self._sink is not None:
            self._sink(packet)
