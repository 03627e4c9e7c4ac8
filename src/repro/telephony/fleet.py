"""N POI360 callers sharing one LTE cell (docs/FLEET.md).

``run_cell`` is the fleet counterpart of
:func:`repro.telephony.session.run_session`: it wires N full telephony
stacks — each with its own firmware buffer, channel, FBCC/GCC transport,
sender and viewer — onto **one** simulation clock and **one**
:class:`repro.lte.shared_cell.SharedCell`, so the callers' uplinks
contend for the same proportional-fair grants and PRB budget.

Every member keeps its own :class:`repro.sim.rng.RngRegistry` seeded
from its own config, so a member's random streams are independent of
how many neighbours it has; all coupling flows through the shared
cell's load/budget, which keeps the whole construction deterministic
and makes the 1-UE cell reproduce the solo session bit-exactly
(``tests/test_fleet.py``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import FleetConfig, SessionConfig
from repro.lte.competitors import UPDATE_INTERVAL as BACKGROUND_INTERVAL
from repro.lte.shared_cell import SharedCell
from repro.metrics.stats import jain_index
from repro.obs.bus import TraceBus
from repro.obs.meter import SessionMeter
from repro.sim.engine import Simulation
from repro.telephony.session import SessionResult, TelephonySession
from repro.video.quality import mos_score

#: Seed stride between members of one cell — mirrors the per-user
#: stride of ``repro.experiments.runner`` so fleet members look like
#: distinct users of the same condition.
MEMBER_SEED_STRIDE = 1000


def member_configs(base: SessionConfig, ues: int) -> Tuple[SessionConfig, ...]:
    """N member configs from one base: member ``i`` gets seed
    ``base.seed + 1000*i`` (member 0 keeps the base seed, so a 1-UE
    cell is seed-identical to the solo session)."""
    if ues < 1:
        raise ValueError("a cell needs at least one member")
    return tuple(
        dataclasses.replace(base, seed=base.seed + MEMBER_SEED_STRIDE * index)
        for index in range(ues)
    )


@dataclass
class CellResult:
    """Everything one shared-cell run produced.

    ``results`` has one :class:`SessionResult` per member, in attach
    order; ``member_bytes`` are each member's post-warmup uplink grant
    bytes (the allocations Jain fairness is computed over) and
    ``member_mos`` the per-member expected MOS (Table 1 bands scored
    1-5).  ``meter`` is the cell's merged registry — cell-level
    ``fleet.*``/``sim.*`` metrics plus every member's meter folded in —
    when metering was enabled, else ``None``.
    """

    fleet: FleetConfig
    results: List[SessionResult]
    jain: float
    member_bytes: Tuple[float, ...]
    member_mos: Tuple[float, ...]
    meter: Optional[SessionMeter] = None

    @property
    def mean_mos(self) -> float:
        """Mean expected MOS across members (NaN members excluded)."""
        scores = [m for m in self.member_mos if not math.isnan(m)]
        if not scores:
            return float("nan")
        return sum(scores) / len(scores)


def cell_result(
    fleet: FleetConfig,
    results: List[SessionResult],
    member_bytes: Sequence[float],
    meter: Optional[SessionMeter] = None,
) -> CellResult:
    """The :class:`CellResult` of one finished cell, however it was run.

    Computes Jain fairness over ``member_bytes`` and each member's
    expected MOS and, when ``meter`` is given, records the cell's five
    ``fleet.*`` observations into it.
    """
    member_bytes = tuple(member_bytes)
    jain = jain_index(member_bytes)
    member_mos = tuple(mos_score(result.summary.quality.mos_pdf) for result in results)
    if meter is not None:
        meter.inc("fleet.cells")
        meter.observe("fleet.cell_members", float(len(results)))
        meter.observe("fleet.cell_jain", jain)
        for result, mos in zip(results, member_mos):
            if not math.isnan(mos):
                meter.observe("fleet.member_mos", mos)
            rate = result.summary.throughput.mean / 1e6
            if not math.isnan(rate):
                meter.observe("fleet.member_rate_mbps", rate)
    return CellResult(
        fleet=fleet,
        results=results,
        jain=jain,
        member_bytes=member_bytes,
        member_mos=member_mos,
        meter=meter,
    )


class CellSession:
    """One shared cell's worth of telephony sessions, run in lockstep.

    ``configs`` are the member session configs (see
    :func:`member_configs`); ``profiles`` optionally applies one
    :class:`repro.roi.users.UserProfile` per member.  ``fleet``
    parameterises the shared cell itself — PRB budget, PF coupling and
    the scheduled background population.
    """

    def __init__(
        self,
        configs: Sequence[SessionConfig],
        profiles: Optional[Sequence] = None,
        fleet: Optional[FleetConfig] = None,
        trace=False,
        meter=False,
    ):
        if not configs:
            raise ValueError("a cell needs at least one member config")
        if profiles is not None and len(profiles) != len(configs):
            raise ValueError("profiles must match configs one-to-one")
        fleet = fleet if fleet is not None else FleetConfig(ues=len(configs))
        self.fleet = fleet
        self.sim = Simulation()
        # ``trace`` and ``meter`` map as in TelephonySession: False/None
        # is off (None from here on), True a fresh object, and an
        # existing object passes through.
        if trace is True:
            trace = TraceBus()
        elif trace is False:
            trace = None
        if trace is not None:
            trace.bind_clock(lambda: self.sim._now)
        self.trace = trace
        self.sim.trace = trace
        # The cell-level meter owns the shared event loop's ``sim.*``
        # counters and the ``fleet.*`` metrics; each member session gets
        # a private meter so per-UE totals stay separable (the CI smoke
        # asserts merged == cell + sum of members).
        if meter is True:
            meter = SessionMeter()
        elif meter is False:
            meter = None
        self.meter = meter
        self.sim.meter = meter
        self.cell = SharedCell(fleet)
        # The shared crowd's updates are scheduled after the cell is
        # built and before any member's processes (the event order).
        background = self.cell.background
        if background is not None:
            sim = self.sim
            sim.every(BACKGROUND_INTERVAL, lambda: background.update(sim.now))
        self.sessions: List[TelephonySession] = []
        for index, config in enumerate(configs):
            self.sessions.append(
                TelephonySession(
                    config,
                    profile=profiles[index] if profiles is not None else None,
                    trace=trace,
                    meter=SessionMeter() if meter is not None else None,
                    sim=self.sim,
                    cell=self.cell,
                )
            )

    def run(self, duration: Optional[float] = None, warmup: float = 0.0) -> CellResult:
        """Run every member through one shared clock; aggregate the cell.

        The member sessions' run phases are interleaved: all starts are
        emitted, the shared simulation advances through the warm-up
        once, every member's log resets, the measured window runs once,
        and each member is finished independently.
        """
        duration = (
            duration if duration is not None else self.sessions[0].config.duration
        )
        meter = self.meter
        t0 = meter.span_start() if meter is not None else 0.0
        starts = []
        for session in self.sessions:
            starts.append(
                session.meter.span_start() if session.meter is not None else 0.0
            )
            session._emit_start()
        if warmup > 0.0:
            self.sim.run(warmup)
            for session in self.sessions:
                session._end_warmup()
        baseline = [session.forward.ue.bytes_sent for session in self.sessions]
        self.sim.run(duration)
        results = [
            session._finish(duration, starts[index])
            for index, session in enumerate(self.sessions)
        ]
        member_bytes = [
            session.forward.ue.bytes_sent - baseline[index]
            for index, session in enumerate(self.sessions)
        ]
        cell = cell_result(self.fleet, results, member_bytes, meter)
        if meter is not None:
            for result in results:
                if result.meter is not None:
                    meter.merge(result.meter)
            meter.span_end("fleet.cell_run", t0)
        return cell


def run_cell(
    config: SessionConfig,
    ues: int = 4,
    fleet: Optional[FleetConfig] = None,
    profiles: Optional[Sequence] = None,
    duration: Optional[float] = None,
    warmup: float = 0.0,
    trace=False,
    meter=False,
) -> CellResult:
    """Build and run one shared cell of ``ues`` identical-condition callers.

    Member ``i`` runs ``config`` with seed ``config.seed + 1000*i``; the
    cell itself (PRB budget, PF coupling, scheduled background) comes
    from ``fleet``, defaulting to :class:`repro.config.FleetConfig` with
    ``ues`` members and no background.
    """
    fleet = fleet if fleet is not None else FleetConfig(ues=ues, seed=config.seed)
    return CellSession(
        member_configs(config, ues), profiles=profiles, fleet=fleet,
        trace=trace, meter=meter,
    ).run(duration, warmup=warmup)
