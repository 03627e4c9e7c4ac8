"""Proportional-fair-flavoured eNodeB uplink grant engine.

Every 1 ms subframe the scheduler decides whether our UE transmits and
how large its transport block is:

- the UE's long-run scheduling duty cycle is
  ``p = p_max * (1 - load) * max(floor, min(1, B_reported / B_ref))`` —
  a deeply backlogged UE wins (almost) its full PF share, a
  lightly-backlogged one is scheduled rarely;
- service arrives in *bursts* of consecutive subframes separated by
  idle gaps (the other UEs' turns), not i.i.d. per subframe — this is
  what makes LTE frame-arrival jitter an order of magnitude larger than
  wireline and drives the receiver's adaptive de-jitter buffer;
- a scheduled subframe carries
  ``min(backlog, prbs(load) * bytes_per_prb(CQI) * fading)`` bytes.

The emergent steady-state throughput is linear in the firmware-buffer
level up to the knee ``B_ref`` and saturates beyond it — the paper's
Fig. 5, which both of POI360's FBCC mechanisms rely on.
"""

from __future__ import annotations

import numpy as np

from repro.config import LteConfig
from repro.lte.tbs import BYTES_PER_PRB_TABLE, transport_block_bytes
from repro.sim.blocks import (
    DEFAULT_BLOCK,
    BlockStreamArray,
    lognormal_transform,
    neglog_uniform_transform,
)

#: A near-empty buffer is still scheduled occasionally (scheduling
#: request path); this floor bounds the queue-head wait for tiny sends.
MIN_SCHEDULING_FRACTION = 0.04

#: The scheduling-request/grant cycle bounds how long a backlogged UE
#: can go unserved, whatever its PF share (subframes).
MAX_IDLE_SUBFRAMES = 28

#: Shared empty results for subframes that serve nobody.
_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_GRANTS = np.empty(0, dtype=np.float64)


class EnbScheduler:
    """Per-subframe grant decisions for a single tracked UE.

    The two variates — the geometric burst draw (``-log u``) and the
    per-grant lognormal fast fading — come from a draw policy
    (:mod:`repro.sim.blocks`); under
    :class:`~repro.sim.blocks.BlockDraws` the batched
    :class:`SchedulerArray` consumes the exact same float64 values.  The
    caller passes the CQI and cell load (it owns those processes) and
    only asks for a grant while the UE reports a backlog and is outside
    a handover outage.
    """

    __slots__ = (
        "_p_max", "_backlog_ref", "_prb_quota", "_mean_burst",
        "_burst", "_fading", "_burst_left", "_idle_left", "_claim",
    )

    def __init__(self, config: LteConfig, draws):
        self._p_max = config.p_max
        self._backlog_ref = config.pf_backlog_ref
        self._prb_quota = config.prb_quota
        self._mean_burst = config.scheduling_burst_subframes
        speed = max(0.0, config.channel.speed_mph)
        #: Fast-fading lognormal sigma on the per-grant TBS.
        sigma = 0.10 + speed / 300.0
        self._burst = draws.neglog_uniform("sched.burst")
        self._fading = draws.lognormal("sched.fading", sigma)
        #: Burst/idle service process state (subframes remaining).
        self._burst_left = 0
        self._idle_left = 0
        #: Optional per-subframe PRB budget hook (shared cells only);
        #: ``None`` keeps the solo grant arithmetic untouched.
        self._claim = None

    def attach_cell(self, view) -> None:
        """Claim PRBs through a shared-cell member view.

        ``view.claim_prbs`` (:class:`repro.lte.shared_cell.CellMemberView`)
        clips every grant's PRBs against the cell's remaining per-subframe
        budget.  A claim of zero returns without drawing a fading variate,
        keeping the RNG stream aligned with the batched engine's filtered
        fading take.
        """
        self._claim = view.claim_prbs

    def grant_for_subframe(
        self, reported: float, actual: float, cqi: int, load: float
    ) -> float:
        """Transport block size (bytes) granted this subframe (0 = none).

        Advances the burst/idle service process first.  Burst lengths
        are geometric with the configured mean; idle gaps are sized so
        the long-run duty cycle matches the scheduling probability,
        which is computed only when a new burst is drawn.
        """
        if reported <= 0.0 or cqi <= 0:
            return 0.0
        if self._burst_left > 0:
            self._burst_left -= 1
        elif self._idle_left > 0:
            self._idle_left -= 1
            return 0.0
        else:
            # min()/max() spelled as the comparisons the builtins make.
            backlog = reported / self._backlog_ref
            backlog = backlog if backlog < 1.0 else 1.0
            floor = MIN_SCHEDULING_FRACTION
            backlog = backlog if backlog > floor else floor
            duty = self._p_max * (1.0 - load) * backlog
            duty = duty if duty > 1e-3 else 1e-3
            duty = duty if duty < 1.0 else 1.0
            burst = 1 + int(self._mean_burst * self._burst())
            idle = int(round(burst * (1.0 - duty) / duty))
            self._burst_left = burst - 1  # this subframe is the burst's first
            self._idle_left = idle if idle < MAX_IDLE_SUBFRAMES else MAX_IDLE_SUBFRAMES
        # PRBs granted when scheduled: the PF share shrinks with load.
        prbs = int(round(self._prb_quota * (2.0 - load)))
        prbs = prbs if prbs > 2 else 2
        if self._claim is not None:
            # Shared cell: the PF share is only an *entitlement* — the
            # subframe's remaining PRB budget caps what is actually
            # granted (claims by peers and background UEs come first).
            prbs = self._claim(prbs)
            if prbs <= 0:
                return 0.0
        granted = transport_block_bytes(cqi, prbs) * self._fading()
        return granted if granted < actual else actual


class SchedulerArray:
    """``(n_sessions,)`` vectorised twin of :class:`EnbScheduler` under
    :class:`~repro.sim.blocks.BlockDraws`.

    The burst/idle counters live as int64 arrays; a subframe only
    consumes a burst draw (and a fading draw) for the sessions whose
    scalar twin would, so the per-session stream cursors stay aligned.
    """

    def __init__(self, configs, streams, block: int = DEFAULT_BLOCK):
        n = len(configs)
        self._p_max = np.array([c.p_max for c in configs])
        self._backlog_ref = np.array([c.pf_backlog_ref for c in configs])
        self._prb_quota = np.array([c.prb_quota for c in configs], dtype=np.float64)
        self._mean_burst = np.array([c.scheduling_burst_subframes for c in configs])
        sigmas = [0.10 + max(0.0, c.channel.speed_mph) / 300.0 for c in configs]
        self._burst_u = BlockStreamArray(
            [streams[s]("sched.burst") for s in range(n)],
            [neglog_uniform_transform()] * n,
            block,
        )
        self._fading = BlockStreamArray(
            [streams[s]("sched.fading") for s in range(n)],
            [lognormal_transform(sigma) for sigma in sigmas],
            block,
        )
        self._burst_left = np.zeros(n, dtype=np.int64)
        self._idle_left = np.zeros(n, dtype=np.int64)
        # Scratch buffers for the per-subframe boolean masks: the hot
        # path runs every 1 ms, so the handful of temporaries it needs
        # are preallocated and reused instead of reallocated per call.
        self._scratch_e = np.zeros(n, dtype=bool)
        self._scratch_b = np.zeros(n, dtype=bool)
        self._scratch_i = np.zeros(n, dtype=bool)

    def serve_subframe(
        self,
        reported: np.ndarray,
        actual: np.ndarray,
        cqi: np.ndarray,
        cqi_positive: np.ndarray,
        load: np.ndarray,
        cells=None,
    ):
        """Served-session indices and their grant bytes this subframe.

        The hot-path form: returns ``(rows, grants)`` with one entry per
        *served* session instead of a dense ``(n,)`` vector, and keeps
        the burst/idle counter updates as whole-array boolean arithmetic
        (a bool subtracts as 0/1) rather than fancy-indexed writes.

        ``cells`` (a :class:`repro.lte.shared_cell.SharedCellArray`)
        routes every session's PRBs through the vectorised budget claim;
        sessions whose claim came back zero are dropped *before* the
        fading take, so each per-session fading stream advances exactly
        when its scalar twin's would.
        """
        eligible = np.greater(reported, 0.0, out=self._scratch_e)
        eligible &= cqi_positive
        if not eligible.any():
            return _EMPTY_ROWS, _EMPTY_GRANTS
        # Burst/idle service process, advanced only for eligible sessions.
        # ``eligible ^ in_burst`` == ``eligible & ~in_burst`` because
        # in_burst is a subset of eligible (one op, reusing the buffer).
        in_burst = np.greater(self._burst_left, 0, out=self._scratch_b)
        in_burst &= eligible
        np.subtract(self._burst_left, in_burst, out=self._burst_left)
        in_idle = np.greater(self._idle_left, 0, out=self._scratch_i)
        rest = np.bitwise_xor(eligible, in_burst, out=self._scratch_e)
        in_idle &= rest
        np.subtract(self._idle_left, in_idle, out=self._idle_left)
        draw_mask = np.bitwise_xor(rest, in_idle, out=self._scratch_e)
        if draw_mask.any():
            draw = np.nonzero(draw_mask)[0]
            duty_cycle = (
                self._p_max[draw]
                * (1.0 - load[draw])
                * np.maximum(
                    MIN_SCHEDULING_FRACTION,
                    np.minimum(1.0, reported[draw] / self._backlog_ref[draw]),
                )
            )
            duty = np.minimum(1.0, np.maximum(1e-3, duty_cycle))
            burst = 1 + (self._mean_burst[draw] * self._burst_u.take(draw)).astype(
                np.int64
            )
            idle = np.minimum(
                MAX_IDLE_SUBFRAMES,
                np.rint(burst * (1.0 - duty) / duty).astype(np.int64),
            )
            self._burst_left[draw] = burst - 1
            self._idle_left[draw] = idle
            in_burst |= draw_mask  # a fresh draw's first subframe serves
        rows = np.nonzero(in_burst)[0]
        if not rows.size:
            return _EMPTY_ROWS, _EMPTY_GRANTS
        prbs = np.maximum(2.0, np.rint(self._prb_quota[rows] * (2.0 - load[rows])))
        if cells is not None:
            prbs = cells.claim_rows(rows, prbs)
            served = prbs > 0.0
            if not served.all():
                rows = rows[served]
                if not rows.size:
                    return _EMPTY_ROWS, _EMPTY_GRANTS
                prbs = prbs[served]
        capacity = BYTES_PER_PRB_TABLE[cqi[rows]] * prbs
        fading = self._fading.take(rows)
        grants = np.minimum(actual[rows], capacity * fading)
        return rows, grants
