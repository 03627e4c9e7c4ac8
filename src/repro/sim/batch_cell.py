"""Batched shared-cell engine: C cells of any member counts per lockstep tick.

:class:`BatchedCellSimulation` extends the independent-cohort
:class:`repro.sim.batch.BatchedSimulation` with the cell coupling of
docs/FLEET.md: the flat cohort is the cell-major concatenation of C
cells' member lists, and one :class:`repro.lte.shared_cell.
SharedCellArray` holds every cell's realized-share EWMAs as a ragged
``(C, max members)`` array, computes all members' PF-coupled effective
loads, and clips every PRB grant against the per-cell per-subframe
budgets in a single order-preserving claim pass.

Bit-exactness contract (``tests/test_batch_cell.py``):

- every cell of a block — whatever the member counts of the others —
  reproduces the scalar reference :class:`repro.telephony.uplink.
  UplinkCellSession` to the bit — logs, summaries, member bytes, Jain
  index;
- an **N=1** batched cell degenerates to the independent-cohort path —
  the shared-cell arithmetic is an exact no-op (peer share 0.0 adds
  bitwise-neutrally, the PF weight branch is skipped, the default
  budget covers the largest solo grant), so results equal
  :class:`~repro.sim.batch.BatchedSimulation` on the same configs.

Parity with the event-driven :func:`repro.telephony.fleet.run_cell` is
statistical (same contention model, different clocking) — the
convergence test asserts Jain/MOS agreement, not bitwise equality.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.config import FleetConfig, SessionConfig
from repro.lte.shared_cell import SharedCellArray
from repro.metrics.stats import jain_index
from repro.obs.meter import SessionMeter
from repro.sim.batch import BatchedSimulation
from repro.telephony.fleet import CellResult, member_configs
from repro.telephony.uplink import cell_batch_unsupported_reason
from repro.video.quality import mos_score


def _cell_fleets(
    cells: Sequence[Sequence[SessionConfig]],
    fleets,
) -> List[FleetConfig]:
    """Normalise ``fleets`` to one :class:`FleetConfig` per cell."""
    if fleets is None:
        return [
            FleetConfig(ues=len(members), seed=members[0].seed if members else 0)
            for members in cells
        ]
    if isinstance(fleets, FleetConfig):
        return [fleets] * len(cells)
    fleets = list(fleets)
    if len(fleets) != len(cells):
        raise ValueError(
            f"{len(fleets)} fleet configs for {len(cells)} cells"
        )
    return fleets


class BatchedCellSimulation(BatchedSimulation):
    """Advance a block of C shared cells in 1 ms lockstep.

    ``cells`` is a sequence of per-cell member-config lists; cells may
    have different member counts, but every member of the block must
    share the grid cadences (:meth:`~repro.telephony.uplink.UplinkProfile.
    signature`, checked by :class:`BatchedSimulation`), while
    per-member parameters and per-cell fleet parameters (PRB budget, PF
    coupling, background population) may vary freely.  ``fleets`` is
    one :class:`FleetConfig` per cell (a single instance is replicated;
    note that replication also replicates the background rng seed).
    """

    def __init__(
        self,
        cells: Sequence[Sequence[SessionConfig]],
        fleets=None,
    ):
        cells = [list(members) for members in cells]
        if not cells:
            raise ValueError("empty cell block")
        fleet_list = _cell_fleets(cells, fleets)
        for members, fleet in zip(cells, fleet_list):
            reason = cell_batch_unsupported_reason(members, fleet)
            if reason is not None:
                raise ValueError(
                    f"cell unsupported by the batched cell engine: {reason}"
                )
        self.cells = cells
        self.fleets = fleet_list
        counts = [len(members) for members in cells]
        #: Flat-cohort offset of each cell's first member, plus the end.
        self._offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
        flat = [config for members in cells for config in members]
        super().__init__(flat)
        self._cells = SharedCellArray(fleet_list, counts, self._ue.cell)
        #: Per-cell count of subframes that ended with the PRB budget
        #: exhausted — telemetry only, accumulated behind the metering
        #: flag and never read by the simulation.
        self._prb_exhausted = np.zeros(len(self.cells), dtype=np.int64)

    #: The cohort span is the whole cell block here.
    _RUN_SPAN = "batch.cell_run"

    def _subframe(self, k: int, now: float):
        loads = self._cells.member_loads(k, now)
        result = self._ue.subframe(now, loads=loads, cells=self._cells)
        if self._metering:
            self._prb_exhausted += self._cells.budget_left < 1.0
        return result

    def _record_meter(self, meter, total_ticks: int, t0: float) -> None:
        # The block-level counters live on the per-cell meters instead
        # (run_cells) so merged fleet registries stay partition-
        # invariant however cells are sharded into blocks; the engine
        # meter carries only the block's wall-clock span.
        meter.span_end(self._RUN_SPAN, t0)

    def run_cells(
        self,
        duration: Optional[float] = None,
        warmup: float = 0.0,
        meter: bool = False,
        progress=None,
    ) -> List[CellResult]:
        """Run the block; one :class:`CellResult` per cell, in order.

        With ``meter=True`` every cell gets a **live** engine meter: the
        ``fleet.*`` cell observations plus the batched-engine counters
        (``batch.sessions``, ``batch.subframes``,
        ``fleet.cell_prb_exhausted``) accumulated during the tick loop —
        all pure functions of the cell, so merged registries are
        byte-equal for any block partition.  The block's
        ``batch.cell_run`` wall-clock span rides the first cell's meter
        (spans never enter deterministic snapshots).  ``progress``
        passes through to :meth:`~repro.sim.batch.BatchedSimulation.run`.
        """
        engine = SessionMeter() if meter else None
        results = self.run(duration, warmup=warmup, meter=engine, progress=progress)
        bytes_sent = self._ue.bytes_sent - self._baseline_bytes
        offsets = self._offsets
        cell_results = []
        for index, fleet in enumerate(self.fleets):
            lo, hi = offsets[index], offsets[index + 1]
            members = results[lo:hi]
            member_bytes = tuple(float(value) for value in bytes_sent[lo:hi])
            member_mos = tuple(
                mos_score(result.summary.quality.mos_pdf) for result in members
            )
            cell_results.append(
                CellResult(
                    fleet=fleet,
                    results=members,
                    jain=jain_index(member_bytes),
                    member_bytes=member_bytes,
                    member_mos=member_mos,
                    meter=self._one_cell_meter(index, member_bytes, members)
                    if meter
                    else None,
                )
            )
        if meter and cell_results:
            cell_results[0].meter.merge(engine)
        return cell_results

    def _one_cell_meter(self, index: int, member_bytes, cell_results) -> SessionMeter:
        """The live per-cell registry (see :meth:`run_cells`)."""
        n = len(cell_results)
        meter = SessionMeter()
        meter.inc("fleet.cells")
        meter.observe("fleet.cell_members", float(n))
        meter.observe("fleet.cell_jain", jain_index(member_bytes))
        for result in cell_results:
            mos = mos_score(result.summary.quality.mos_pdf)
            if not math.isnan(mos):
                meter.observe("fleet.member_mos", mos)
            rate = result.summary.throughput.mean / 1e6
            if not math.isnan(rate):
                meter.observe("fleet.member_rate_mbps", rate)
        meter.inc("batch.sessions", float(n))
        meter.inc("batch.subframes", float(n * self._total_ticks))
        meter.inc("fleet.cell_prb_exhausted", float(self._prb_exhausted[index]))
        return meter


def run_batched_cells(
    cells: Sequence[Sequence[SessionConfig]],
    fleets=None,
    duration: Optional[float] = None,
    warmup: float = 0.0,
    meter: bool = False,
    progress=None,
) -> List[CellResult]:
    """Build and run one batched cell block."""
    return BatchedCellSimulation(cells, fleets=fleets).run_cells(
        duration, warmup=warmup, meter=meter, progress=progress
    )


def run_batched_cell(
    config: SessionConfig,
    ues: int = 4,
    fleet: Optional[FleetConfig] = None,
    duration: Optional[float] = None,
    warmup: float = 0.0,
) -> CellResult:
    """Single-cell convenience mirroring
    :func:`repro.telephony.uplink.run_uplink_cell` (and, statistically,
    :func:`repro.telephony.fleet.run_cell`)."""
    if fleet is None:
        fleet = FleetConfig(ues=ues, seed=config.seed)
    return run_batched_cells(
        [member_configs(config, ues)], fleets=[fleet], duration=duration,
        warmup=warmup,
    )[0]
