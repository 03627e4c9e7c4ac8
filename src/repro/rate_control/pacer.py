"""RTP packet pacer over a frame-level media queue.

Encoded frames queue at the application layer; the pacer packetises
them into RTP packets as budget allows and hands them to the access hop
(the LTE firmware buffer or the wireline link).  Transport sequence
numbers are assigned **as packets leave** — WebRTC's pacer drops stale
*frames* before packetisation, so a sender-side drop never occupies
sequence space and is invisible to the receiver's loss accounting
(unlike a genuine network loss).

Retransmissions (NACKed packets, which already carry their original
sequence number) jump the queue.  The pacer is the boundary between the
two buffers of the paper's Fig. 9 model: what it does not send waits in
the application layer, what it sends waits in the firmware buffer.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulation
from repro.units import BITS_PER_BYTE, ms
from repro.video.frame import EncodedFrame

PacketSink = Callable[[Packet], None]

#: Pacing tick (WebRTC uses 5 ms).
PACING_TICK = ms(5)

#: Unused budget carries over at most this many ticks' worth (burst cap),
#: but never less than one MTU so low rates still make progress.
BURST_TICKS = 2.0
MIN_BURST_BYTES = 1500.0

#: Media older than this many seconds of queue is dropped from the head
#: (WebRTC's pacer expires stale frames rather than shipping a slideshow).
MAX_QUEUE_SECONDS = 1.0


class FramePacer:
    """Token bucket over a FIFO of frames, packetised as budget allows.

    The pacing arithmetic of both engines: :class:`PacedSender` wraps it
    for the event engine, and :class:`repro.telephony.uplink.UplinkSession`
    clocks it directly every pacing tick.  Frames queue as ``[key,
    remaining_bytes]``; ``key`` is opaque to the pacer (a frame id, or the
    sender's frame record) and handed back with every emitted packet.
    """

    __slots__ = ("_payload", "frames", "budget", "queued_bytes", "dropped_frames")

    def __init__(self, payload_size: int):
        self._payload = payload_size
        self.frames: Deque[list] = deque()
        #: Bytes the bucket may still emit this tick.
        self.budget = 0.0
        #: Media backlog in bytes (unsent parts of the queued frames).
        self.queued_bytes = 0.0
        self.dropped_frames = 0

    def enqueue(self, key, size_bytes: float) -> None:
        self.frames.append([key, size_bytes])
        self.queued_bytes += size_bytes

    def refill(self, rate: float) -> None:
        """Open a pacing tick at ``rate`` (bps): expire stale frames, then
        top up the budget.

        Frames beyond the queue cap are dropped oldest first; the head
        frame may be partially on the wire and must complete (the
        receiver is already assembling it), and stale media is
        superseded anyway.
        """
        rate = max(0.0, rate)
        if rate > 0.0:
            max_bytes = rate * MAX_QUEUE_SECONDS / BITS_PER_BYTE
            frames = self.frames
            while self.queued_bytes > max_bytes and len(frames) > 1:
                item = frames[1]
                del frames[1]
                self.queued_bytes -= item[1]
                self.dropped_frames += 1
        tick_budget = rate * PACING_TICK / BITS_PER_BYTE
        burst_cap = max(MIN_BURST_BYTES, BURST_TICKS * tick_budget)
        self.budget = min(self.budget + tick_budget, burst_cap)

    def drain(self, emit: Callable[[object, float, bool], None]) -> None:
        """Emit packets while the budget covers the next one:
        ``emit(key, size_bytes, is_last_of_frame)``."""
        frames = self.frames
        while frames and self.budget > 0:
            head = frames[0]
            size = min(self._payload, head[1])
            if size > self.budget:
                break
            self.budget -= size
            head[1] -= size
            self.queued_bytes -= size
            last = head[1] <= 0
            if last:
                frames.popleft()
            emit(head[0], size, last)


class _QueuedFrame:
    __slots__ = ("frame", "total_packets", "next_index")

    def __init__(self, frame: EncodedFrame, payload_size: int):
        self.frame = frame
        self.total_packets = max(1, math.ceil(frame.size_bytes / payload_size))
        self.next_index = 0


class PacedSender:
    """Event-engine pacer: a :class:`FramePacer` clocked every
    :data:`PACING_TICK`, plus a retransmit queue and the packetiser."""

    def __init__(
        self,
        sim: Simulation,
        sink: PacketSink,
        rate_fn: Callable[[], float],
        payload_size: int = 1200,
        on_sent: Optional[PacketSink] = None,
    ):
        self._sim = sim
        self._sink = sink
        self._rate_fn = rate_fn
        self._payload_size = payload_size
        self._on_sent = on_sent
        self._pacer = FramePacer(payload_size)
        self._retransmits: Deque[Packet] = deque()
        self._seq = 0
        self.bytes_paced = 0.0
        sim.every(PACING_TICK, self._tick)

    def enqueue_frame(self, frame: EncodedFrame) -> None:
        """Queue a freshly encoded frame for packetisation."""
        self._pacer.enqueue(_QueuedFrame(frame, self._payload_size), frame.size_bytes)

    def enqueue_retransmit(self, packet: Packet) -> None:
        """Queue a retransmission (keeps its original sequence number)."""
        self._retransmits.append(packet)

    @property
    def queued_bytes(self) -> float:
        """Application-layer media backlog in bytes (fresh frames only)."""
        return self._pacer.queued_bytes

    @property
    def queued_frames(self) -> int:
        return len(self._pacer.frames)

    @property
    def dropped_frames(self) -> int:
        return self._pacer.dropped_frames

    @property
    def next_seq(self) -> int:
        return self._seq

    def _send(self, packet: Packet) -> None:
        packet.payload["sent"] = self._sim._now
        self.bytes_paced += packet.size_bytes
        if self._on_sent is not None:
            self._on_sent(packet)
        self._sink(packet)

    def _emit_media(self, item: _QueuedFrame, size: float, last: bool) -> None:
        packet = Packet(
            kind="video",
            size_bytes=size,
            created=item.frame.capture_time,
            payload={
                "frame": item.frame,
                "frame_seq": item.next_index,
                "frame_packets": item.total_packets,
                "seq": self._seq,
            },
        )
        self._seq += 1
        item.next_index += 1
        self._send(packet)

    def _tick(self) -> None:
        pacer = self._pacer
        pacer.refill(self._rate_fn())
        retransmits = self._retransmits
        while retransmits and retransmits[0].size_bytes <= pacer.budget:
            packet = retransmits.popleft()
            pacer.budget -= packet.size_bytes
            self._send(packet)
        pacer.drain(self._emit_media)


# ----------------------------------------------------------------------
# Lockstep twin (batched engine, repro.sim.batch)
# ----------------------------------------------------------------------

import numpy as np

#: Frame slots per session in the batched pacer ring.  The 1 s queue
#: cap bounds the backlog to ~25 frames at the lockstep profile's frame
#: rates; a pathological overflow trips the explicit check.
_FRAME_SLOTS = 128


class PacedSenderArray:
    """``(n_sessions,)`` vectorised twin of :class:`FramePacer`.

    Frames wait in per-session circular rings laid end to end in flat
    1-D columns (session ``s``'s ring is slots ``s * _FRAME_SLOTS`` up
    to the next session's; ``_head`` holds each session's flat head
    slot).  :meth:`tick` replays the scalar token-bucket loop in
    *rounds*, each round emitting at most one packet per session, so
    budgets, remainders and the size-vs-budget break are float-identical
    per session.  Stale-frame expiry is a rare per-session scalar loop
    (it only runs under heavy congestion).
    """

    def __init__(self, payloads: np.ndarray):
        n = payloads.shape[0]
        self._payload = payloads.astype(np.float64)
        self._base = np.arange(n, dtype=np.int64) * _FRAME_SLOTS
        self._fid = np.full(n * _FRAME_SLOTS, -1, dtype=np.int64)
        self._rem = np.zeros(n * _FRAME_SLOTS)
        self._head = self._base.copy()
        self._count = np.zeros(n, dtype=np.int64)
        self._budget = np.zeros(n)
        self._queued = np.zeros(n)
        self.dropped_frames = np.zeros(n, dtype=np.int64)

    def _slot(self, s: int, offset: int) -> int:
        """Flat slot ``offset`` places behind session ``s``'s head."""
        base = s * _FRAME_SLOTS
        return base + (int(self._head[s]) - base + offset) % _FRAME_SLOTS

    def enqueue_all(self, frame_id: int, sizes: np.ndarray) -> None:
        """Every session queues its copy of frame ``frame_id`` (the
        lockstep profile captures frames on a shared cadence)."""
        if (self._count >= _FRAME_SLOTS).any():
            raise RuntimeError("pacer frame ring overflow")
        slots = self._base + (self._head - self._base + self._count) % _FRAME_SLOTS
        self._fid[slots] = frame_id
        self._rem[slots] = sizes
        self._count += 1
        self._queued = self._queued + sizes

    def _expire(self, rate: np.ndarray, max_bytes: np.ndarray) -> None:
        mask = (rate > 0.0) & (self._queued > max_bytes) & (self._count > 1)
        if not mask.any():
            return
        stale = np.nonzero(mask)[0]
        for s in stale.tolist():
            count = int(self._count[s])
            queued = self._queued[s]
            cap = max_bytes[s]
            dropped = 0
            # Frames behind the head are dropped oldest-first; the head
            # may be partially on the wire and must complete.
            while queued > cap and count - dropped > 1:
                queued = queued - self._rem[self._slot(s, 1 + dropped)]
                dropped += 1
            if dropped:
                head = int(self._head[s])
                new_head = self._slot(s, dropped)
                self._fid[new_head] = self._fid[head]
                self._rem[new_head] = self._rem[head]
                self._head[s] = new_head
                self._count[s] = count - dropped
                self._queued[s] = queued
                self.dropped_frames[s] += dropped

    def tick(self, rates: np.ndarray):
        """One pacing tick; returns emission rounds.

        Each round is ``(rows, frame_ids, sizes, last)`` — parallel 1-D
        arrays, one packet per listed session.  Per-session packet
        order across rounds matches the scalar emit loop.
        """
        rate = np.maximum(0.0, rates)
        max_bytes = rate * MAX_QUEUE_SECONDS / BITS_PER_BYTE
        self._expire(rate, max_bytes)
        tick_budget = rate * PACING_TICK / BITS_PER_BYTE
        burst_cap = np.maximum(MIN_BURST_BYTES, BURST_TICKS * tick_budget)
        self._budget = np.minimum(self._budget + tick_budget, burst_cap)
        emissions = []
        live = np.nonzero((self._count > 0) & (self._budget > 0))[0]
        while live.size:
            heads = self._head[live]
            size = np.minimum(self._payload[live], self._rem[heads])
            fits = size <= self._budget[live]
            rows = live[fits]
            if not rows.size:
                break
            heads = heads[fits]
            size = size[fits]
            self._budget[rows] -= size
            remaining = self._rem[heads] - size
            self._rem[heads] = remaining
            self._queued[rows] -= size
            last = remaining <= 0
            if last.any():
                done = rows[last]
                nxt = heads[last] + 1
                # Rings start at multiples of _FRAME_SLOTS: the slot
                # after a ring's last is the next ring's first.
                nxt[nxt % _FRAME_SLOTS == 0] -= _FRAME_SLOTS
                self._head[done] = nxt
                self._count[done] -= 1
            emissions.append((rows, self._fid[heads], size, last))
            live = rows[(self._count[rows] > 0) & (self._budget[rows] > 0)]
        return emissions
