"""The structured trace bus.

A :class:`TraceBus` is a ring buffer of named, timestamped events plus
an always-complete per-event-name counter table.  Components hold a bus
reference and emit with keyword fields::

    bus.emit("fw_buffer", level=4096.0, tbs=1200.0)

Tracing is **per session** and off by default.  Off is ``None``: a
component built without a bus holds ``trace=None``, so hot call sites
(the LTE subframe loop runs at 1 kHz) guard with one identity test and
make no call at all::

    if self._trace is not None:
        self._trace.emit("fw_buffer", level=level, tbs=tbs)

Emitting never touches an RNG stream and never schedules simulation
events, so enabling tracing cannot change a session's behaviour — the
determinism tests in ``tests/test_obs.py`` assert byte-identical
summaries with tracing on and off.

>>> bus = TraceBus(clock=lambda: 1.5)
>>> bus.emit("mode_switch", to_index=3)
{'to_index': 3}
>>> bus.events[0].name, bus.events[0].fields["to_index"]
('mode_switch', 3)
>>> len(bus)
1
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: Default ring capacity: a 90 s cellular session emits ~100k fw_buffer
#: events, so this keeps a full paper-length run without eviction.
DEFAULT_CAPACITY = 262_144


class TraceEvent(NamedTuple):
    """One named, timestamped observation."""

    #: Simulated time (s) at emission.
    time: float
    #: Event name from the catalogue (``repro.obs.events``).
    name: str
    #: Free-form keyword fields of the emit call.
    fields: Dict[str, Any]


class TraceBus:
    """Ring-buffered event sink with per-name counters.

    ``clock`` is a zero-argument callable returning the current
    simulated time (the session passes the engine's clock).  The ring
    holds the most recent ``capacity`` events; :attr:`counters` and
    :attr:`dropped` keep exact totals even after eviction.

    The bus defines ``__len__`` (retained events), so an empty bus is
    falsy: test a bus reference with ``is not None``, never truthiness.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive (capacity={capacity!r})")
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        #: Exact emit count per event name (eviction-proof).
        self.counters: Dict[str, int] = {}
        #: Events evicted from the ring so far.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __getstate__(self):
        # The clock is typically a closure over the live simulation;
        # drop it so a finished session's bus pickles cleanly (the
        # events already carry their timestamps).
        state = dict(self.__dict__)
        state["_clock"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self._clock is None:
            self._clock = lambda: 0.0

    @property
    def capacity(self) -> int:
        """Ring size (events beyond it evict the oldest)."""
        return self._ring.maxlen or 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the timestamp source (a session binds its sim clock)."""
        self._clock = clock

    def emit(self, name: str, **fields: Any) -> Dict[str, Any]:
        """Record one event at the current simulated time.

        Returns the event's field dict, so a site can fill in a field
        that is only known once the run is over (the viewer's
        ``receiver.frame`` ``psnr_db``).
        """
        ring = self._ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(TraceEvent(self._clock(), name, fields))
        counters = self.counters
        counters[name] = counters.get(name, 0) + 1
        return fields

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """The retained events, oldest first."""
        return tuple(self._ring)

    def select(
        self,
        names=None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[TraceEvent]:
        """Iterate retained events filtered by name set and time window.

        ``names`` may be a single name or an iterable of names;
        ``since``/``until`` are inclusive bounds in simulated seconds.

        >>> bus = TraceBus()
        >>> for name in ("a", "b"):
        ...     fields = bus.emit(name)
        >>> [e.name for e in bus.select(names="a")]
        ['a']
        """
        if names is None:
            wanted = None
        elif isinstance(names, str):
            wanted = {names}
        else:
            wanted = set(names)
        for event in self._ring:
            if wanted is not None and event.name not in wanted:
                continue
            if since is not None and event.time < since:
                continue
            if until is not None and event.time > until:
                continue
            yield event

    def series(self, name: str, field: str) -> Tuple[List[float], List[Any]]:
        """(times, values) of one field across every retained ``name`` event.

        Events missing the field are skipped, so a site that emits the
        field conditionally still yields an aligned pair of lists.
        """
        times: List[float] = []
        values: List[Any] = []
        for event in self._ring:
            if event.name != name:
                continue
            if field not in event.fields:
                continue
            times.append(event.time)
            values.append(event.fields[field])
        return times, values

    def counters_by_subsystem(self) -> Dict[str, Dict[str, int]]:
        """Counter table grouped by the catalogue's subsystem labels."""
        from repro.obs.events import subsystem_of

        grouped: Dict[str, Dict[str, int]] = {}
        for name, count in sorted(self.counters.items()):
            grouped.setdefault(subsystem_of(name), {})[name] = count
        return grouped
