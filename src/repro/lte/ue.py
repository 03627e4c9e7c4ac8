"""The sender's UE uplink: firmware buffer + grants + diag logging.

Runs one callback per 1 ms LTE subframe: asks the eNodeB scheduler for a
grant (based on the *delayed* buffer state the basestation knows via
BSR), drains the firmware buffer accordingly, hands completed packets to
the network after the radio latency, and logs the subframe into the
diagnostic monitor.

The scheduler is asked for a grant only while the reported backlog is
positive and the channel is outside a handover outage, so when the
firmware buffer is empty *and* every BSR slot still in flight reports
zero, a subframe is pure bookkeeping: no RNG draw, no burst-state
change, and the only side effect is an all-zero diag record.  The
uplink therefore pauses its subframe process
(:meth:`Simulation.every_while`) until the next ``send``, and backfills
the zero records lazily — per-batch observables and the RNG stream are
bit-identical to an always-ticking UE.

The channel, cell-load and scheduler classes are the ones the lockstep
engines run (:mod:`repro.telephony.uplink`); here they are clocked with
``sim.every`` and draw per call from the UE's one generator
(:class:`~repro.sim.blocks.CallDraws`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

import numpy as np

from repro.config import LteConfig
from repro.lte.channel import ChannelProcess
from repro.lte.competitors import make_cell_model
from repro.lte.diagnostics import DiagMonitor
from repro.lte.firmware_buffer import FirmwareBuffer
from repro.lte.scheduler import EnbScheduler
from repro.net.packet import Packet
from repro.sim.blocks import CallDraws
from repro.sim.engine import Simulation
from repro.units import LTE_SUBFRAME

#: Signature of the downstream packet sink.
PacketSink = Callable[[Packet], None]


class UeUplink:
    """Subframe-level uplink pipeline for the video sender's phone."""

    def __init__(
        self,
        sim: Simulation,
        config: LteConfig,
        rng: np.random.Generator,
        sink: Optional[PacketSink] = None,
        trace=None,
        meter=None,
    ):
        self._sim = sim
        self._config = config
        self._trace = trace
        self._meter = meter
        # Channel, cell load and scheduler draw per call from the one
        # shared generator, in call order.
        draws = CallDraws(rng)
        self.channel = ChannelProcess(config.channel, draws)
        sim.every(config.channel.update_interval, self._channel_update)
        self.cell = make_cell_model(sim, config.cell, rng)
        self.scheduler = EnbScheduler(config, draws)
        #: What the grant path reads the cell load from: the UE's own
        #: model, or its shared-cell member view after :meth:`join_cell`.
        self._load_source = self.cell
        #: The member view's ``touch`` after :meth:`join_cell`, else None.
        self._touch = None
        self.buffer = FirmwareBuffer(config.firmware_buffer_cap)
        self.diag = DiagMonitor(sim, config.diag_interval, trace=trace, meter=meter)
        self._sink = sink
        #: Ring of recent buffer levels implementing the BSR delay.
        depth = max(1, int(round(config.bsr_delay / LTE_SUBFRAME)))
        self._bsr_ring: Deque[float] = deque([0.0] * depth, maxlen=depth)
        self.bytes_sent = 0.0
        #: Active subframes ticked; the session folds the total into its
        #: meter once, at finish (``lte.subframes``).
        self.active_subframes = 0
        # Bound-method fast paths for the once-per-millisecond loop.
        self._grant = self.scheduler.grant_for_subframe
        self._record = self.diag.record
        self._tick = sim.every_while(LTE_SUBFRAME, self._subframe)
        self.diag.set_idle_filler(self._fill_idle)

    def set_sink(self, sink: PacketSink) -> None:
        """Attach the downstream path receiving transmitted packets."""
        self._sink = sink

    def join_cell(self, cell):
        """Camp this UE on a shared cell (repro.lte.shared_cell).

        The UE's own cell-load model becomes the member's *background*
        component inside the shared cell; the scheduler is re-pointed at
        the member view so peer contention, PF catch-up weighting and
        the per-subframe PRB budget all apply.  Returns the view.
        """
        self.cell_view = cell.add_member(self.cell, self._sim)
        self._load_source = self.cell_view
        self._touch = self.cell_view.touch
        self.scheduler.attach_cell(self.cell_view)
        return self.cell_view

    def _channel_update(self) -> None:
        channel = self.channel
        channel.update(self._sim._now)
        if self._trace is not None:
            self._trace.emit("lte.cqi", cqi=channel.cqi_value, rss_dbm=channel.rss_dbm)
        if self._meter is not None:
            self._meter.observe("lte.cqi", channel.cqi_value)

    def send(self, packet: Packet) -> bool:
        """Enqueue a paced RTP packet into the firmware buffer."""
        accepted = self.buffer.push(packet)
        if not accepted:
            if self._trace is not None:
                self._trace.emit(
                    "lte.drop", size_bytes=packet.size_bytes, level=self.buffer.level
                )
            if self._meter is not None:
                self._meter.inc("lte.drops")
        if self._tick.paused:
            self._fill_idle(self._sim.now)
            self._tick.wake()
        return accepted

    def _fill_idle(self, until: float) -> None:
        """Backfill all-zero diag records for subframes skipped while idle."""
        tick = self._tick
        if not tick.paused:
            return
        record_at = self.diag.record_at
        while tick.next_time < until:
            record_at(tick.next_time, 0.0, 0.0)
            tick.skip()

    @property
    def buffer_level(self) -> float:
        """Current firmware-buffer occupancy in bytes."""
        return self.buffer.level

    def _subframe(self) -> bool:
        buffer = self.buffer
        ring = self._bsr_ring
        reported = ring[0]
        level = buffer.level
        ring.append(level)
        tbs = 0.0
        channel = self.channel
        # The load is read only past this gate: a shared cell's view
        # decays its share EWMAs lazily on each read.
        if reported > 0.0 and self._sim._now > channel.outage_until:
            scheduler = self.scheduler
            if (
                not scheduler._burst_left
                and scheduler._idle_left
                and channel.cqi_value > 0
            ):
                # The scheduler's idle countdown grants 0 whatever the
                # load, so only count down.  A shared cell still takes
                # this subframe's aggregate snapshot, as the load read
                # would have: its shares keep decaying one subframe at a
                # time (k steps of ``decay`` are not one ``decay**k``).
                scheduler._idle_left -= 1
                if self._touch is not None:
                    self._touch()
            else:
                grant = self._grant(
                    reported, level, channel.cqi_value, self._load_source.load
                )
                if grant > 0.0:
                    completed = buffer.drain(grant)
                    tbs = level - buffer.level
                    self.bytes_sent += tbs
                    if self._sink is not None:
                        schedule = self._sim.schedule
                        latency = self._config.radio_latency
                        sink = self._sink
                        for packet in completed:
                            schedule(latency, sink, packet)
                    level = buffer.level
        self._record(level, tbs)
        if self._trace is not None:
            self._trace.emit("fw_buffer", level=level, tbs=tbs)
        self.active_subframes += 1
        # Keep ticking while any in-flight BSR slot or the buffer itself
        # is non-zero; otherwise pause until the next send() wakes us.
        return bool(level) or any(ring)


# ----------------------------------------------------------------------
# Lockstep twin (batched engine, repro.sim.batch)
# ----------------------------------------------------------------------

class UeUplinkArray:
    """``(n_sessions,)`` vectorised twin of :class:`UeUplink`.

    Owns the per-session channel, cell-load, scheduler and firmware
    buffer arrays, plus the BSR delay ring.  The lockstep engine drives
    the cadenced processes (channel / cell updates) and calls
    :meth:`subframe` once per 1 ms tick; packet delivery latency is the
    engine's job (it knows the whole downstream path).
    """

    def __init__(self, configs, streams):
        from repro.lte.cell import CellLoadArray
        from repro.lte.channel import ChannelArray
        from repro.lte.firmware_buffer import FirmwareBufferArray
        from repro.lte.scheduler import SchedulerArray

        n = len(configs)
        self.channel = ChannelArray([c.channel for c in configs], streams)
        self.cell = CellLoadArray([c.cell for c in configs], streams)
        self.scheduler = SchedulerArray(configs, streams)
        self.buffer = FirmwareBufferArray(
            np.array([c.firmware_buffer_cap for c in configs])
        )
        depths = {
            max(1, int(round(c.bsr_delay / LTE_SUBFRAME))) for c in configs
        }
        if len(depths) != 1:
            raise ValueError("BSR delay must be cohort-homogeneous")
        self._bsr_depth = depths.pop()
        self._bsr_ring = np.zeros((n, self._bsr_depth))
        self._bsr_pos = 0
        self.bytes_sent = np.zeros(n)
        self._zero_tbs = np.zeros(n)

    def subframe(self, now: float, loads=None, cells=None):
        """One 1 ms subframe for every session.

        Returns ``(tbs, sent)`` where ``sent`` is
        :meth:`FirmwareBufferArray.drain_rows`' ``(rows, frames,
        completes, sizes)`` of the packets fully sent, or ``None``, and
        ``tbs`` the per-session bytes granted this subframe (a shared
        zeros array when nobody was served — read-only).
        Post-drain levels are ``self.buffer.level``.

        ``loads``/``cells`` are the shared-cell hooks
        (:meth:`repro.sim.batch.BatchedSimulation.join_cells`): ``loads``
        replaces each session's own cell-load model with its cell-member
        effective load, and ``cells`` (a
        :class:`~repro.lte.shared_cell.SharedCellArray`) routes every
        PRB grant through the per-cell budget claim pass.
        """
        ring = self._bsr_ring
        pos = self._bsr_pos
        reported = ring[:, pos].copy()
        level_before = ring[:, pos]
        np.copyto(level_before, self.buffer.level)
        self._bsr_pos = pos + 1 if pos + 1 < self._bsr_depth else 0
        cqi_positive, cqi = self.channel.cqi_state(now)
        load = self.cell.load if loads is None else loads
        rows, grants = self.scheduler.serve_subframe(
            reported, self.buffer.level, cqi, cqi_positive, load, cells=cells
        )
        if not rows.size:
            return self._zero_tbs, None
        sent = self.buffer.drain_rows(rows, grants)
        tbs = level_before - self.buffer.level
        self.bytes_sent += tbs
        return tbs, sent
