"""A small discrete-event simulation engine.

The engine combines a classic heap-based event queue with convenience
helpers for **periodic processes** (LTE subframes every 1 ms, diag reports
every 40 ms, video frames every 1/30 s, …).  Components never busy-wait:
everything is a scheduled callback, so simulated seconds cost nothing when
nothing happens.

Periodic processes that are idle most of the time (an LTE uplink with an
empty firmware buffer, a downlink with an empty queue) can avoid paying
for their idle ticks with :meth:`Simulation.every_while`: the callback
returns a falsy value to pause itself, and a producer wakes it with
:meth:`PeriodicHandle.wake` — ticks stay on the original time grid, so
the process is indistinguishable from one that ticked all along.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a run
is fully reproducible given the RNG seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple


_heappush = heapq.heappush
_INF = math.inf


def _reject(delay: float) -> None:
    """Raise for a delay :meth:`Simulation.schedule` cannot queue."""
    if delay < 0:
        raise ValueError(f"cannot schedule in the past (delay={delay!r})")
    raise ValueError(f"delay must be finite (delay={delay!r})")


#: Compact the heap only when at least this many cancelled entries are
#: buried in it (avoids rebuilding tiny queues over and over).
_COMPACT_MIN_DEAD = 64


class EventHandle:
    """Handle returned by :meth:`Simulation.schedule`; supports cancel().

    The handle participates in the engine's live-event accounting: the
    owning :class:`Simulation` keeps an O(1) count of queued,
    non-cancelled events, and cancelling a handle immediately removes
    its queued entries from that count (the heap entries themselves are
    dropped lazily).
    """

    __slots__ = ("cancelled", "_sim", "_queued")

    def __init__(self, sim: Optional["Simulation"] = None) -> None:
        self.cancelled = False
        self._sim = sim
        #: Number of entries currently sitting in the owning queue.
        self._queued = 0

    def cancel(self) -> None:
        """Prevent the event from firing (safe to call multiple times)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None and self._queued:
            sim._live -= self._queued
            sim._maybe_compact()


class PeriodicHandle(EventHandle):
    """Handle of an :meth:`Simulation.every_while` periodic process.

    Besides ``cancel()`` it supports event-driven idling:

    - the process *pauses* when its callback returns a falsy value — no
      further ticks are scheduled and the heap stays clean;
    - :meth:`wake` resumes ticking on the original time grid (tick
      times are the same float-accumulated instants the process would
      have ticked at had it never paused);
    - while paused, :attr:`next_time` is the instant of the next
      not-yet-taken tick, and :meth:`skip` marks that tick as consumed
      (used by components that backfill bookkeeping for idle ticks).
    """

    __slots__ = ("period", "next_time", "paused", "_callback", "_args")

    def __init__(
        self,
        sim: "Simulation",
        period: float,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        super().__init__(sim)
        self.period = period
        self.next_time = 0.0
        self.paused = False
        self._callback = callback
        self._args = args

    def _fire(self) -> None:
        if self.cancelled:
            return
        keep = self._callback(*self._args)
        sim = self._sim
        self.next_time = sim._now + self.period
        if self.cancelled:
            return
        if keep:
            self._queued += 1
            sim._live += 1
            _heappush(
                sim._queue, (self.next_time, next(sim._sequence), self, self._fire, ())
            )
        else:
            self.paused = True

    def skip(self) -> None:
        """Consume the next pending tick without running it (paused only)."""
        self.next_time += self.period

    def wake(self) -> None:
        """Resume a paused process at its next on-grid tick.

        Ticks whose instant already passed are silently skipped (the
        process was idle for them); a tick landing exactly on the
        current instant fires within this instant, after the currently
        running callback returns.
        """
        if self.cancelled or not self.paused:
            return
        sim = self._sim
        now = sim._now
        nxt = self.next_time
        period = self.period
        while nxt < now:
            nxt += period
        self.next_time = nxt
        self.paused = False
        sim._push(nxt, self, self._fire, ())


class Simulation:
    """Event-driven simulation clock.

    Example
    -------
    >>> sim = Simulation()
    >>> hits = []
    >>> sim.every(0.010, lambda: hits.append(sim.now))
    <repro.sim.engine.EventHandle object at ...>
    >>> sim.run(0.035)
    >>> len(hits)
    3
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: List[Tuple[float, int, EventHandle, Callable[..., Any], tuple]] = []
        self._sequence = itertools.count()
        self._running = False
        #: Queued entries whose handle is not cancelled (O(1) pending()).
        self._live = 0
        #: Observability bus (``repro.obs``); None unless a session
        #: enables tracing. Only ``run()`` boundaries emit — the
        #: per-event dispatch loop stays untouched.
        self.trace = None
        #: Metrics meter (``repro.obs.meter``); None unless a session
        #: enables metering. ``run()`` selects a counting dispatch loop
        #: only when the meter is live, so the unmetered hot loop is
        #: byte-for-byte the historical one.
        self.meter = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------

    def _push(
        self,
        when: float,
        handle: EventHandle,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        _heappush(self._queue, (when, next(self._sequence), handle, callback, args))
        handle._queued += 1
        self._live += 1

    def _maybe_compact(self) -> None:
        """Drop cancelled entries when they dominate the heap.

        Cancelled events are normally discarded lazily on pop; a
        workload that cancels many far-future events (timeouts, NACK
        timers) would otherwise keep them resident until their deadline.
        """
        dead = len(self._queue) - self._live
        if dead < _COMPACT_MIN_DEAD or dead * 2 < len(self._queue):
            return
        kept = [entry for entry in self._queue if not entry[2].cancelled]
        for entry in self._queue:
            if entry[2].cancelled:
                entry[2]._queued -= 1
        self._queue = kept
        heapq.heapify(self._queue)

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds (>= 0)."""
        # One chained comparison admits every valid delay; NaN fails it.
        if not 0.0 <= delay < _INF:
            _reject(delay)
        handle = EventHandle(self)
        handle._queued = 1
        _heappush(
            self._queue, (self._now + delay, next(self._sequence), handle, callback, args)
        )
        self._live += 1
        return handle

    def at(self, when: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute time ``when``.

        The entry is queued at ``now + (when - now)``, the instant
        :meth:`schedule` gives the same delay.
        """
        now = self._now
        delay = when - now
        if not 0.0 <= delay < _INF:
            _reject(delay)
        handle = EventHandle(self)
        handle._queued = 1
        _heappush(self._queue, (now + delay, next(self._sequence), handle, callback, args))
        self._live += 1
        return handle

    def every(
        self,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        phase: float = 0.0,
    ) -> EventHandle:
        """Run ``callback(*args)`` every ``period`` seconds.

        The first invocation happens at ``now + phase + period`` unless a
        ``phase`` of zero is given, in which case the first invocation is
        one full period from now.  The returned handle cancels the whole
        periodic process.
        """
        if period <= 0:
            raise ValueError(f"period must be positive (period={period!r})")
        handle = EventHandle(self)

        def tick() -> None:
            if handle.cancelled:
                return
            callback(*args)
            if not handle.cancelled:
                handle._queued += 1
                self._live += 1
                _heappush(
                    self._queue,
                    (self._now + period, next(self._sequence), handle, tick, ()),
                )

        self._push(self._now + phase + period, handle, tick, ())
        return handle

    def every_while(
        self,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        phase: float = 0.0,
    ) -> PeriodicHandle:
        """Periodic process with event-driven idling.

        Like :meth:`every`, but the callback's return value steers the
        process: truthy keeps ticking, falsy pauses it until
        :meth:`PeriodicHandle.wake` is called.  While ticking, the
        schedule is identical to :meth:`every` (same float-accumulated
        tick instants); waking resumes on that same grid.
        """
        if period <= 0:
            raise ValueError(f"period must be positive (period={period!r})")
        handle = PeriodicHandle(self, period, callback, args)
        handle.next_time = self._now + phase + period
        self._push(handle.next_time, handle, handle._fire, ())
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, duration: Optional[float] = None) -> None:
        """Process events until the queue is empty or ``duration`` elapses.

        With a ``duration``, the clock always advances to exactly
        ``start + duration`` even if the queue empties earlier.

        Deadline boundary: events scheduled for exactly ``start +
        duration`` **do fire** during this call — including events a
        callback schedules *at* the deadline while the run is draining —
        and the clock ends at exactly the deadline.  Events strictly
        beyond the deadline stay queued for a later ``run()``.
        """
        deadline = math.inf if duration is None else self._now + duration
        if self.trace is not None:
            self.trace.emit("sim.run_begin", deadline=deadline, pending=self._live)
        queue = self._queue
        pop = heapq.heappop
        meter = self.meter
        dispatched = 0
        self._running = True
        try:
            if meter is not None:
                while queue:
                    entry = queue[0]
                    when = entry[0]
                    if when > deadline:
                        break
                    pop(queue)
                    handle = entry[2]
                    handle._queued -= 1
                    if handle.cancelled:
                        continue
                    self._live -= 1
                    self._now = when
                    dispatched += 1
                    entry[3](*entry[4])
            else:
                while queue:
                    entry = queue[0]
                    when = entry[0]
                    if when > deadline:
                        break
                    pop(queue)
                    handle = entry[2]
                    handle._queued -= 1
                    if handle.cancelled:
                        continue
                    self._live -= 1
                    self._now = when
                    entry[3](*entry[4])
        finally:
            self._running = False
        if deadline is not math.inf:
            self._now = deadline
        if meter is not None:
            meter.inc("sim.runs")
            meter.inc("sim.events", dispatched)
        if self.trace is not None:
            self.trace.emit("sim.run_end", pending=self._live)

    def step(self) -> bool:
        """Process a single event; return False when the queue is empty.

        Metering matches :meth:`run`: every dispatched event increments
        the ``sim.events`` counter when a meter is attached.  ``sim.runs``
        still counts only :meth:`run` invocations — single-stepping a
        simulation is not a run, but the events it dispatches are events.
        """
        while self._queue:
            when, _seq, handle, callback, args = heapq.heappop(self._queue)
            handle._queued -= 1
            if handle.cancelled:
                continue
            self._live -= 1
            self._now = when
            if self.meter is not None:
                self.meter.inc("sim.events")
            callback(*args)
            return True
        return False

    def pending(self) -> int:
        """Number of queued (non-cancelled) events — O(1)."""
        return self._live
