"""The UE's uplink firmware (modem) buffer.

RTP packets paced by the transport layer land here and wait for uplink
grants.  The buffer is drained byte-wise: a grant may carry the tail of
one packet and the head of the next; a packet "departs" when its last
byte is transmitted.  When the hard cap is exceeded the modem drops the
incoming packet (WebRTC's built-in loss handling deals with it
end-to-end, §4).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.net.packet import Packet


class FirmwareBuffer:
    """Byte-accurate FIFO with packet boundaries."""

    def __init__(self, capacity_bytes: float):
        self.capacity_bytes = float(capacity_bytes)
        self._queue: Deque[Tuple[Packet, float]] = deque()
        self._level = 0.0
        self.dropped_packets = 0
        self.dropped_bytes = 0.0

    @property
    def level(self) -> float:
        """Current occupancy in bytes."""
        return self._level

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, packet: Packet) -> bool:
        """Enqueue ``packet``; returns False (and drops it) if over cap."""
        if self._level + packet.size_bytes > self.capacity_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += packet.size_bytes
            return False
        self._queue.append((packet, float(packet.size_bytes)))
        self._level += packet.size_bytes
        return True

    def drain(self, grant_bytes: float) -> List[Packet]:
        """Transmit up to ``grant_bytes``; return packets fully sent now.

        A packet completes when its remainder falls below a sub-byte
        epsilon — floating-point residue must never strand a packet in
        a buffer that reports itself empty (no backlog → no grants).
        """
        completed: List[Packet] = []
        remaining = min(grant_bytes, self._level)
        while remaining > 1e-12 and self._queue:
            packet, left = self._queue[0]
            take = min(left, remaining)
            left -= take
            remaining -= take
            self._level -= take
            if left <= 1e-9:
                self._queue.popleft()
                completed.append(packet)
            else:
                self._queue[0] = (packet, left)
        if not self._queue:
            self._level = 0.0
        return completed


# ----------------------------------------------------------------------
# Lockstep twin (batched engine, repro.sim.batch)
# ----------------------------------------------------------------------

import numpy as np

#: Packet slots per session in the batched ring.  The 64 KiB firmware
#: cap bounds the queue to well under this for any sane packet mix; a
#: pathological all-tiny-packet queue trips the explicit overflow check
#: rather than silently corrupting state.
_RING_SLOTS = 256


class FirmwareBufferArray:
    """``(n_sessions,)`` vectorised twin of :class:`FirmwareBuffer`.

    Packets live in per-session circular rings laid end to end in flat
    1-D columns (session ``s``'s ring is slots ``s * _RING_SLOTS`` up to
    the next session's); ``_head`` holds each session's flat head slot.
    Draining runs in *rounds*, each round retiring at most one packet per
    session, so a multi-packet grant replays exactly the scalar
    head-of-line loop (same ``min``/epsilon arithmetic per packet, in the
    same order).  Packet identity is carried as ``(frame_id, completes)``
    — all the lockstep receiver needs; ``completes`` is whatever flag the
    caller pushed (the engines push "last packet of an undamaged frame").
    """

    def __init__(self, capacities: np.ndarray):
        n = capacities.shape[0]
        self.capacity = capacities
        self._left = np.zeros(n * _RING_SLOTS)
        self._full = np.zeros(n * _RING_SLOTS)
        self._frame = np.full(n * _RING_SLOTS, -1, dtype=np.int64)
        self._completes = np.zeros(n * _RING_SLOTS, dtype=bool)
        self._base = np.arange(n, dtype=np.int64) * _RING_SLOTS
        self._head = self._base.copy()
        self._count = np.zeros(n, dtype=np.int64)
        self.level = np.zeros(n)
        self.dropped_packets = np.zeros(n, dtype=np.int64)
        self.dropped_bytes = np.zeros(n)

    def push(
        self,
        idx: np.ndarray,
        sizes: np.ndarray,
        frames: np.ndarray,
        completes: np.ndarray,
    ) -> np.ndarray:
        """Enqueue one packet per session in ``idx``; returns the
        accepted mask (aligned with ``idx``)."""
        over = self.level[idx] + sizes > self.capacity[idx]
        accepted = ~over
        if over.any():
            drop = idx[over]
            self.dropped_packets[drop] += 1
            self.dropped_bytes[drop] += sizes[over]
            idx, sizes = idx[accepted], sizes[accepted]
            frames, completes = frames[accepted], completes[accepted]
        if idx.size:
            count = self._count[idx]
            if (count >= _RING_SLOTS).any():
                raise RuntimeError("firmware packet ring overflow")
            base = self._base[idx]
            slots = base + (self._head[idx] - base + count) % _RING_SLOTS
            self._left[slots] = sizes
            self._full[slots] = sizes
            self._frame[slots] = frames
            self._completes[slots] = completes
            self._count[idx] = count + 1
            self.level[idx] += sizes
        return accepted

    def drain_rows(self, rows: np.ndarray, grants: np.ndarray):
        """Transmit up to ``grants[i]`` bytes for session ``rows[i]``.

        Returns ``(rows, frames, completes, sizes)`` — parallel 1-D
        arrays, one entry per packet fully sent — or ``None`` when no
        packet completed.  The entries are the drain rounds' pops in
        round order, so each session's packets are in the scalar
        head-of-line order.  Only the listed sessions are touched, so
        the work scales with the served set, not the cohort.
        """
        remaining = np.minimum(grants, self.level[rows])
        # An empty ring has level 0.0, so a live remainder implies a
        # queued packet.
        alive = remaining > 1e-12
        if not alive.all():
            rows = rows[alive]
            remaining = remaining[alive]
        popped = []
        while rows.size:
            heads = self._head[rows]
            left = self._left[heads]
            take = np.minimum(left, remaining)
            np.subtract(left, take, out=left)
            np.subtract(remaining, take, out=remaining)
            self.level[rows] -= take
            # Unconditional write-back: popped slots carry a stale
            # sub-epsilon residue, but push() overwrites slots wholesale.
            self._left[heads] = left
            done = left <= 1e-9
            pop_rows = rows[done]
            if not pop_rows.size:
                # A surviving head means the grant is exhausted (the
                # scalar loop's ``take == remaining`` exit).
                break
            pop_heads = heads[done]
            popped.append((pop_rows, pop_heads))
            nxt = pop_heads + 1
            # Rings start at multiples of _RING_SLOTS: the slot after a
            # ring's last is the next ring's first.
            nxt[nxt % _RING_SLOTS == 0] -= _RING_SLOTS
            self._head[pop_rows] = nxt
            cnt = self._count[pop_rows] - 1
            self._count[pop_rows] = cnt
            emptied = cnt == 0
            if emptied.any():
                self.level[pop_rows[emptied]] = 0.0
            remaining = remaining[done]
            cont = (remaining > 1e-12) & ~emptied
            rows = pop_rows[cont]
            remaining = remaining[cont]
        if not popped:
            return None
        if len(popped) == 1:
            rows, slots = popped[0]
        else:
            rows = np.concatenate([part[0] for part in popped])
            slots = np.concatenate([part[1] for part in popped])
        return rows, self._frame[slots], self._completes[slots], self._full[slots]
