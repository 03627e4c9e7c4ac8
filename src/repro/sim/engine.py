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

Both kinds of periodic process are one :class:`PeriodicHandle` whose
heap entries carry no callback: the dispatch loop (:meth:`Simulation.run`
and :meth:`Simulation.step`) calls the handle's callback and re-arms the
next tick itself, so a tick costs no Python frame beyond the callback's.

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
    """Handle of a periodic process (:meth:`Simulation.every` and
    :meth:`Simulation.every_while`).

    Its heap entries carry ``None`` in place of a callback; the dispatch
    loop calls the callback and queues the next tick at
    ``now + period`` (:meth:`Simulation._rearm`).  Besides ``cancel()``
    a *gated* process (``every_while``) supports event-driven idling:

    - the process *pauses* when its callback returns a falsy value — no
      further ticks are scheduled and the heap stays clean;
    - :meth:`wake` resumes ticking on the original time grid (tick
      times are the same float-accumulated instants the process would
      have ticked at had it never paused);
    - while paused, :attr:`next_time` is the instant of the next
      not-yet-taken tick, and :meth:`skip` marks that tick as consumed
      (used by components that backfill bookkeeping for idle ticks).
    """

    __slots__ = ("period", "next_time", "paused", "gated", "_callback", "_args")

    def __init__(
        self,
        sim: "Simulation",
        period: float,
        callback: Callable[..., Any],
        args: tuple,
        gated: bool,
    ) -> None:
        super().__init__(sim)
        self.period = period
        self.next_time = 0.0
        self.paused = False
        #: True for ``every_while``: a falsy callback result pauses.
        self.gated = gated
        self._callback = callback
        self._args = args

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
        sim._push(nxt, self, None, ())


class Simulation:
    """Event-driven simulation clock.

    Example
    -------
    >>> sim = Simulation()
    >>> hits = []
    >>> sim.every(0.010, lambda: hits.append(sim.now))
    <repro.sim.engine.PeriodicHandle object at ...>
    >>> sim.run(0.035)
    >>> len(hits)
    3
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: List[Tuple[float, int, EventHandle, Optional[Callable[..., Any]], tuple]] = []
        self._sequence = itertools.count()
        self._running = False
        #: Queued entries whose handle is not cancelled (O(1) pending()).
        self._live = 0
        #: Observability bus (``repro.obs``); None unless a session
        #: enables tracing. Only ``run()`` boundaries emit — the
        #: per-event dispatch loop stays untouched.
        self.trace = None
        #: Metrics meter (``repro.obs.meter``); None unless a session
        #: enables metering. ``run()`` folds the number of events it
        #: dispatched into it when it returns.
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
        queue = self._queue
        dead = len(queue) - self._live
        if dead < _COMPACT_MIN_DEAD or dead * 2 < len(queue):
            return
        for entry in queue:
            if entry[2].cancelled:
                entry[2]._queued -= 1
        # In place: a running dispatch loop holds this very list.
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)

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
    ) -> PeriodicHandle:
        """Run ``callback(*args)`` every ``period`` seconds.

        The first invocation happens at ``now + phase + period`` unless a
        ``phase`` of zero is given, in which case the first invocation is
        one full period from now.  The returned handle cancels the whole
        periodic process.
        """
        return self._periodic(period, callback, args, phase, gated=False)

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
        return self._periodic(period, callback, args, phase, gated=True)

    def _periodic(
        self, period: float, callback: Callable[..., Any], args: tuple, phase: float,
        gated: bool,
    ) -> PeriodicHandle:
        if period <= 0:
            raise ValueError(f"period must be positive (period={period!r})")
        handle = PeriodicHandle(self, period, callback, args, gated)
        handle.next_time = self._now + phase + period
        self._push(handle.next_time, handle, None, ())
        return handle

    def _rearm(self, handle: PeriodicHandle, keep: Any) -> None:
        """Queue a periodic process's next tick after the one that just
        ran (or pause it).  :meth:`run` does the same inline."""
        if handle.cancelled:
            return
        handle.next_time = nxt = self._now + handle.period
        if keep or not handle.gated:
            self._push(nxt, handle, None, ())
        else:
            handle.paused = True

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
        sequence = self._sequence
        meter = self.meter
        dispatched = 0
        self._running = True
        try:
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
                callback = entry[3]
                if callback is not None:
                    callback(*entry[4])
                    continue
                # A periodic tick: run it, then re-arm (Simulation._rearm).
                keep = handle._callback(*handle._args)
                if handle.cancelled:
                    continue
                handle.next_time = when = when + handle.period
                if keep or not handle.gated:
                    handle._queued += 1
                    self._live += 1
                    _heappush(queue, (when, next(sequence), handle, None, ()))
                else:
                    handle.paused = True
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
            if callback is not None:
                callback(*args)
            else:
                self._rearm(handle, handle._callback(*handle._args))
            return True
        return False

    def pending(self) -> int:
        """Number of queued (non-cancelled) events — O(1)."""
        return self._live
