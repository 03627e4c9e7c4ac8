"""MobileInsight-style diagnostic interface.

The paper reads the phone's diag port with a customised real-time log
decoder (§5): the modem logs the uplink firmware-buffer level and the
transport block size **per 1 ms subframe**, and the decoder delivers
these records to the application every 40 ms.  FBCC's Eq. (3) scans the
per-subframe records inside each 40 ms batch, which is what makes it an
order of magnitude more responsive than RTT-based end-to-end feedback.

The UE pauses its subframe process while the uplink is idle (see
:meth:`repro.sim.engine.Simulation.every_while`); the monitor's
*idle filler* hook lets it materialise the all-zero records for the
skipped subframes lazily, right before each batch is delivered, so
subscribers see exactly the record stream an always-ticking UE would
have produced.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional



class DiagRecord(NamedTuple):
    """One per-subframe modem log record."""

    time: float
    buffer_bytes: float
    tbs_bytes: float


#: Builds a :class:`DiagRecord` from its field tuple without the
#: named-tuple constructor's Python frame (once per subframe).
_new_record = tuple.__new__

#: Signature of a diagnostic-batch subscriber.
DiagListener = Callable[[List[DiagRecord]], None]

#: Signature of the idle filler: ``fn(deadline)`` appends records for
#: every skipped subframe strictly before ``deadline``.
IdleFiller = Callable[[float], None]


class DiagMonitor:
    """Collects per-subframe records and delivers them in 40 ms batches."""

    def __init__(self, sim, interval: float, trace=None, meter=None):
        self._sim = sim
        self._pending: List[DiagRecord] = []
        self._listeners: List[DiagListener] = []
        self._idle_filler: Optional[IdleFiller] = None
        self._trace = trace
        self._meter = meter
        sim.every(interval, self._deliver)

    def subscribe(self, listener: DiagListener) -> None:
        """Register a callback receiving each 40 ms batch of records."""
        self._listeners.append(listener)

    def set_idle_filler(self, filler: IdleFiller) -> None:
        """Register the hook that backfills records for skipped subframes."""
        self._idle_filler = filler

    def record(self, buffer_bytes: float, tbs_bytes: float) -> None:
        """Log one subframe's modem state (called by the UE each 1 ms)."""
        # ``_now`` rather than the ``now`` property: this runs once per
        # simulated millisecond.
        self._pending.append(
            _new_record(DiagRecord, (self._sim._now, buffer_bytes, tbs_bytes))
        )

    def record_at(self, time: float, buffer_bytes: float, tbs_bytes: float) -> None:
        """Log a backfilled record carrying an explicit (past) timestamp."""
        self._pending.append(_new_record(DiagRecord, (time, buffer_bytes, tbs_bytes)))

    def _deliver(self) -> None:
        if self._idle_filler is not None:
            self._idle_filler(self._sim._now)
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        if self._trace is not None:
            # Running sums, not compensated sum() (design rule 4).
            level = 0.0
            tbs = 0.0
            for record in batch:
                level += record.buffer_bytes
                tbs += record.tbs_bytes
            self._trace.emit(
                "diag.batch", n=len(batch), mean_level=level / len(batch), tbs_bytes=tbs
            )
        if self._meter is not None:
            self._meter.inc("lte.diag_batches")
        for listener in self._listeners:
            listener(batch)
