"""One eNodeB uplink cell shared by N POI360 callers (docs/FLEET.md).

A :class:`SharedCell` couples the member UEs of one cell through the
two quantities a proportional-fair uplink scheduler actually splits:

- **duty cycle** — every member's :class:`repro.lte.scheduler.EnbScheduler`
  reads its cell load through a :class:`CellMemberView`, and the view
  folds the *other* members' realized resource shares (an EWMA of the
  PRB fraction each one consumed) into the load it reports, on top of
  the background component.  A cell crowded with backlogged callers
  therefore shrinks everybody's scheduling probability and PRB grant,
  exactly as ``p = p_max * (1 - load)`` does for the abstract load;
- **PRBs per subframe** — a hard per-subframe budget
  (:attr:`repro.config.FleetConfig.prb_budget`).  Scheduled background
  UEs (:mod:`repro.lte.competitors`) claim their PRBs first, then each
  member's grant claims from the remainder, so a subframe can never
  hand out more transport-block capacity than the cell owns.

The view also applies a proportional-fair catch-up weight
``w = mean_share / own_share`` (clamped): a member that has been
starved sees an optimistically *lower* load — higher duty cycle and
more PRBs — until its share recovers, while a hog is throttled.  This
is the negative feedback that makes N identical callers converge to
equal long-run grant shares (Jain index ≈ 1, ``tests/test_fleet.py``).

Degeneration contract: with one member and no scheduled background the
view returns the member's own background model value untouched, every
claim is granted in full, and the weight is exactly ``1.0`` — a 1-UE
cell reproduces the single-UE session **bit-exactly** (asserted in
``tests/test_fleet.py``).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.config import CellConfig, FleetConfig
from repro.lte.competitors import UPDATE_INTERVAL as BACKGROUND_INTERVAL
from repro.lte.competitors import CompetitorCell
from repro.sim.rng import RngRegistry
from repro.units import LTE_SUBFRAME

#: Loads are clamped into this range, matching the single-UE cell
#: models (a PF scheduler still serves backlogged UEs at full cell).
LOAD_MAX = 0.9

#: Share denominator guard; also the "never seen a grant" floor of the
#: PF weight ratio (a member with zero share is maximally boosted).
_SHARE_EPS = 1e-6


def _background_crowd(config: FleetConfig) -> Optional[CompetitorCell]:
    """The cell's scheduled background population, or ``None``.

    Every cell engine builds the crowd identically — same
    :class:`~repro.lte.competitors.CompetitorCell`, same
    ``fleet.background`` rng stream derived from ``config.seed`` — so
    all of them consume bit-identical background loads by construction.
    """
    if config.background_ues <= 0:
        return None
    return CompetitorCell(
        CellConfig(
            background_load=config.background_load,
            competitor_count=config.background_ues,
        ),
        RngRegistry(config.seed).stream("fleet.background"),
    )


#: Background-crowd update cadence on the 1 ms grid (subframes).
_BG_TICKS = int(round(BACKGROUND_INTERVAL / LTE_SUBFRAME))


class CellMemberView:
    """One member's window onto the shared cell.

    Duck-types the ``load`` property of
    :class:`repro.lte.cell.CellLoadProcess`, so the member's
    :class:`~repro.lte.scheduler.EnbScheduler` consumes it unchanged;
    additionally exposes :meth:`claim_prbs`, which the scheduler uses
    (when present) to draw PRBs from the cell's per-subframe budget.
    Both pass the cell the time read from ``clock._now``: the event
    engine's :class:`~repro.sim.engine.Simulation`, or on the lockstep
    grid the cell itself, which :meth:`SharedCell.begin_tick` advances.
    """

    __slots__ = ("_cell", "_clock", "index")

    def __init__(self, cell: "SharedCell", index: int, clock):
        self._cell = cell
        self._clock = clock
        self.index = index

    @property
    def load(self) -> float:
        """Effective cell load this member's scheduler should see."""
        return self._cell.load_for(self.index, self._clock._now)

    def claim_prbs(self, prbs: int) -> int:
        """Claim up to ``prbs`` from this subframe's remaining budget."""
        return self._cell.claim(self.index, prbs, self._clock._now)

    def touch(self) -> None:
        """Take this subframe's aggregate snapshot, as reading ``load``
        would, without composing the load (the scheduler's idle
        countdown does not use it)."""
        self._cell._aggregate(self._clock._now)


class SharedCell:
    """PF grant splitting across the POI360 callers camped on one cell.

    The cell reads no clock: every query takes the time.  Both engines
    drive the same arithmetic:

    - the event engine (:class:`repro.telephony.fleet.CellSession`)
      clocks the background crowd with ``sim.every``; a member's share
      decays lazily over the subframes since it was last touched
      (``decay ** ticks``), the aggregate is snapshot at the first read
      of a subframe and the budget resets at its first claim;
    - the lockstep driver (:class:`repro.telephony.uplink.
      UplinkCellSession`) calls :meth:`begin_tick` once per 1 ms tick,
      which catches every member up by exactly one subframe
      (``x * decay ** 1 == x * decay``) and resets the budget, so the
      cell is the bit-exactness reference of :class:`SharedCellArray`.
    """

    __slots__ = (
        "config", "background", "_prb_budget", "_alpha", "_decay",
        "_weight_max", "_weight_floor", "_fallbacks", "_shares", "_updated",
        "_budget_time", "_budget_left", "_agg_time", "_agg_total", "_now",
    )

    def __init__(self, config: Optional[FleetConfig] = None):
        config = config if config is not None else FleetConfig()
        self.config = config
        self._prb_budget = max(1, int(config.prb_budget))
        tau = max(LTE_SUBFRAME, config.share_time_constant)
        #: Per-subframe EWMA step of the realized-share tracker.
        self._alpha = 1.0 - math.exp(-LTE_SUBFRAME / tau)
        self._decay = 1.0 - self._alpha
        self._weight_max = max(1.0, config.pf_weight_max)
        self._weight_floor = 1.0 / self._weight_max
        #: Per member: its own background-load model (``UeUplink.cell``,
        #: the component it would have consulted solo, used when the
        #: cell has no scheduled background), the EWMA of the PRB
        #: fraction it consumed per subframe, and when that was decayed.
        self._fallbacks: list = []
        self._shares: List[float] = []
        self._updated: List[float] = []
        #: Subframe the current budget belongs to, and PRBs left in it.
        self._budget_time = -1.0
        self._budget_left = self._prb_budget
        #: Aggregate-share snapshot (recomputed once per subframe).
        self._agg_time = -1.0
        self._agg_total = 0.0
        #: The lockstep grid's time (:meth:`begin_tick`).
        self._now = 0.0
        # The background crowd is *scheduled load*: its on/off population
        # produces a load fraction, and the cell converts that fraction
        # into PRBs claimed from the shared budget ahead of the members
        # each subframe.  The driver clocks its updates.
        self.background = _background_crowd(config)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_member(self, fallback, clock=None) -> CellMemberView:
        """Register a caller; returns its view onto the cell.

        ``fallback`` is the caller's own cell-load model; ``clock`` is
        the object whose ``_now`` the view reads (default: this cell,
        for :meth:`begin_tick` drivers).  Normally called through
        :meth:`repro.lte.ue.UeUplink.join_cell` or
        :meth:`repro.telephony.uplink.UplinkSession.join_cell`, which
        also rewire the caller's scheduler onto the view.
        """
        index = len(self._shares)
        self._fallbacks.append(fallback)
        self._shares.append(0.0)
        self._updated.append(0.0)
        return CellMemberView(self, index, self if clock is None else clock)

    @property
    def members(self) -> int:
        """Number of callers camped on this cell."""
        return len(self._shares)

    @property
    def budget_left(self) -> int:
        """PRBs still grantable this subframe (introspection)."""
        return self._budget_left

    def begin_tick(self, k: int, now: float) -> None:
        """Advance the cell to lockstep tick ``k`` at time ``now``: the
        background crowd at its cadence, every share into the aggregate,
        and a fresh PRB budget."""
        self._now = now
        background = self.background
        if background is not None and k % _BG_TICKS == 0:
            background.update(now)
        self._aggregate(now)
        self._start_subframe(now)

    # ------------------------------------------------------------------
    # Share bookkeeping
    # ------------------------------------------------------------------

    def _decay_to(self, index: int, now: float) -> float:
        """Lazily decay a member's share EWMA to ``now`` and return it.

        Idle or unserved subframes contribute zero share, so catching a
        member up is a pure exponential decay over the elapsed
        subframes — no per-tick work for paused uplinks.
        """
        shares = self._shares
        elapsed = now - self._updated[index]
        if elapsed > 0.0:
            ticks = int(round(elapsed / LTE_SUBFRAME))
            if ticks > 0:
                shares[index] *= self._decay**ticks
            self._updated[index] = now
        return shares[index]

    def _aggregate(self, now: float) -> float:
        """Total decayed share across members (cached per subframe).

        Taking the snapshot decays every member to ``now``, as
        :meth:`_decay_to` would one by one."""
        if now != self._agg_time:
            shares = self._shares
            updated = self._updated
            decay = self._decay
            total = 0.0
            for index in range(len(shares)):
                elapsed = now - updated[index]
                if elapsed > 0.0:
                    ticks = int(round(elapsed / LTE_SUBFRAME))
                    if ticks > 0:
                        shares[index] *= decay**ticks
                    updated[index] = now
                total += shares[index]
            self._agg_total = total
            self._agg_time = now
        return self._agg_total

    def share_of(self, index: int, now: float) -> float:
        """A member's realized resource share at ``now`` (introspection)."""
        return self._decay_to(index, now)

    def pf_weight(self, index: int, now: float) -> float:
        """The PF catch-up weight a member currently enjoys.

        ``mean_share / own_share``, clamped into
        ``[1/pf_weight_max, pf_weight_max]``; exactly ``1.0`` for a
        lone member (shares cancel) or for perfectly equal shares.
        :meth:`load_for` computes the same weight inline.
        """
        total = self._aggregate(now)
        count = len(self._shares)
        if count <= 1:
            return 1.0
        weight = (total / count + _SHARE_EPS) / (self._shares[index] + _SHARE_EPS)
        if weight > self._weight_max:
            return self._weight_max
        if weight < self._weight_floor:
            return self._weight_floor
        return weight

    # ------------------------------------------------------------------
    # What a member's scheduler sees
    # ------------------------------------------------------------------

    def background_load(self, index: int) -> float:
        """The background component of a member's load view."""
        if self.background is not None:
            return self.background.load
        return self._fallbacks[index].load

    def load_for(self, index: int, now: float) -> float:
        """Effective load for member ``index`` at ``now``.

        ``background + sum(peer shares)``, then shrunk (grown) by the
        member's PF weight (:meth:`pf_weight`): ``1 - w * (1 - raw)``.
        The weight branch is skipped when ``w == 1.0`` so a lone member
        sees its background model's value bit-for-bit.  One body over
        the subframe's aggregate snapshot: every member's share was
        decayed to ``now`` when the snapshot was taken.
        """
        total = self._agg_total if now == self._agg_time else self._aggregate(now)
        shares = self._shares
        own = shares[index]
        peers = total - own
        if peers < 0.0:
            # A claim bumped this member's share after the aggregate
            # snapshot was taken this subframe; peers cannot be negative.
            peers = 0.0
        background = self.background
        if background is not None:
            raw = background.load + peers
        else:
            raw = self._fallbacks[index].load + peers
        if raw > LOAD_MAX:
            raw = LOAD_MAX
        count = len(shares)
        if count <= 1:
            return raw
        weight = (total / count + _SHARE_EPS) / (own + _SHARE_EPS)
        if weight > self._weight_max:
            weight = self._weight_max
        elif weight < self._weight_floor:
            weight = self._weight_floor
        if weight != 1.0:
            boosted = 1.0 - weight * (1.0 - raw)
            if boosted < 0.0:
                return 0.0
            if boosted > LOAD_MAX:
                return LOAD_MAX
            return boosted
        return raw

    # ------------------------------------------------------------------
    # Per-subframe PRB budget
    # ------------------------------------------------------------------

    def _start_subframe(self, now: float) -> None:
        budget = self._prb_budget
        if self.background is not None:
            # Scheduled background traffic claims its PRBs ahead of the
            # members: the crowd's load fraction, in whole PRBs.
            budget -= int(round(self._prb_budget * self.background.load))
            if budget < 0:
                budget = 0
        self._budget_left = budget
        self._budget_time = now

    def claim(self, index: int, prbs: int, now: float) -> int:
        """Grant up to ``prbs`` PRBs from this subframe's budget.

        The first claim of a subframe resets the budget (minus the
        scheduled background's take) unless :meth:`begin_tick` already
        did; later claims within the same subframe see only what is
        left.  The lockstep engines serve members in attach order.  The
        event engine serves them in heap order: a member woken from idle
        re-enters the heap behind the members still ticking, so it
        claims last in its subframe (in ``fleet_event`` seed 1, 6,962 of
        20,159 consecutive same-subframe claims are out of attach
        order).  Long-run fairness is the PF coupling's job, not the
        intra-subframe order's.
        """
        if now != self._budget_time:
            self._start_subframe(now)
        granted = prbs if prbs <= self._budget_left else self._budget_left
        if granted > 0:
            self._budget_left -= granted
            self._decay_to(index, now)
            self._shares[index] += self._alpha * (granted / self._prb_budget)
        return granted


class SharedCellArray:
    """Ragged ``(C cells, max members)`` vectorised twin of
    :class:`SharedCell` on the lockstep grid.

    ``members`` gives each cell's member count.  Sessions are flat and
    cell-major, as in :meth:`repro.sim.batch.BatchedSimulation.join_cells`;
    a flat-session → (cell, slot) map links them to the share array,
    whose padded slots stay 0.0.

    One :meth:`member_loads` call per 1 ms tick advances **every** cell:
    background crowds update at their cadence (scalar per-cell Python —
    the crowd flips at 20 Hz, off the hot path), share EWMAs decay as
    one array multiply, the per-cell aggregates accumulate
    column-by-column (left-to-right, matching the scalar member loop's
    float association; a padded 0.0 adds bitwise-neutrally), and the
    load composition — peers, background, clamp, PF catch-up weight
    ``(mean+eps)/(share+eps)`` — runs on the flat session
    arrays.  :meth:`claim_rows` replaces the members' sequential budget
    claims with an order-preserving segmented prefix-sum pass (see the
    method docstring for the equivalence argument).
    """

    def __init__(self, fleets, members, fallback):
        fleets = list(fleets)
        counts = [int(m) for m in members]
        if not fleets:
            raise ValueError("at least one cell required")
        if min(counts) < 1:
            raise ValueError("cells need at least one member")
        c = len(fleets)
        width = max(counts)
        self._c = c
        self._width = width
        #: The flat cohort's own per-session cell-load models
        #: (``CellLoadArray``) — each member's background fallback.
        self._fallback = fallback
        self._shares = np.zeros((c, width))
        #: Flat session -> its cell, and -> its slot in ``_shares``
        #: flattened (``cell * width + member``).
        cell_of = np.repeat(np.arange(c), counts)
        self._cell_of = cell_of
        self._slot = cell_of * width + np.concatenate([np.arange(m) for m in counts])
        self._count = np.array(counts, dtype=np.float64)[cell_of]
        prb = np.array([max(1, int(f.prb_budget)) for f in fleets], dtype=np.float64)
        self._prb_budget = prb
        alpha = np.array(
            [
                1.0 - math.exp(-LTE_SUBFRAME / max(LTE_SUBFRAME, f.share_time_constant))
                for f in fleets
            ]
        )
        self._alpha = alpha
        self._decay_col = (1.0 - alpha)[:, None]
        wmax = np.array([max(1.0, f.pf_weight_max) for f in fleets])[cell_of]
        self._wmax = wmax
        self._wfloor = 1.0 / wmax
        self._backgrounds = [_background_crowd(f) for f in fleets]
        self._has_bg = any(bg is not None for bg in self._backgrounds)
        self._bg_rows = np.array([bg is not None for bg in self._backgrounds])[cell_of]
        self._bg_load = np.array(
            [0.0 if bg is None else bg.load for bg in self._backgrounds]
        )
        self._budget_left = prb.copy()
        self._total = np.zeros(c)

    @property
    def budget_left(self) -> np.ndarray:
        """Per-cell PRBs still grantable this subframe (introspection)."""
        return self._budget_left

    def member_loads(self, k: int, now: float) -> np.ndarray:
        """Advance every cell to tick ``k``; flat per-session loads.

        Performs, for all cells at once, exactly what
        :meth:`SharedCell.begin_tick` + one ``load_for`` call per
        member do — the scalar reference computes every member's load
        from the same per-tick share snapshot (claims bump only the
        claimer's *own* share, which no later member's load reads), so
        the phase-major evaluation here is order-equivalent to the
        scalar member-major one.
        """
        if self._has_bg and k % _BG_TICKS == 0:
            bg_load = self._bg_load
            for index, bg in enumerate(self._backgrounds):
                if bg is not None:
                    bg.update(now)
                    bg_load[index] = bg.load
        shares = self._shares
        shares *= self._decay_col
        total = self._total
        total.fill(0.0)
        for j in range(self._width):
            total += shares[:, j]
        # Budget reset minus the background pre-claim; ``np.rint`` is
        # the scalar ``int(round(...))`` (both round half-even).
        np.maximum(
            0.0,
            self._prb_budget - np.rint(self._prb_budget * self._bg_load),
            out=self._budget_left,
        )
        share = shares.reshape(-1)[self._slot]
        cell_total = total[self._cell_of]
        # Background component: each member's own fallback model, or
        # the cell's crowd where one is scheduled.
        base = self._fallback.load
        if self._has_bg:
            base = np.where(self._bg_rows, self._bg_load[self._cell_of], base)
        peers = cell_total - share
        np.maximum(peers, 0.0, out=peers)
        raw = base + peers
        np.minimum(raw, LOAD_MAX, out=raw)
        if self._width <= 1:
            return raw
        # A 1-member cell's ratio is exactly 1.0, so its weight is too
        # and it keeps ``raw``, as the scalar ``pf_weight`` shortcut does.
        weight = (cell_total / self._count + _SHARE_EPS) / (share + _SHARE_EPS)
        np.minimum(weight, self._wmax, out=weight)
        np.maximum(weight, self._wfloor, out=weight)
        boosted = 1.0 - weight * (1.0 - raw)
        np.minimum(boosted, LOAD_MAX, out=boosted)
        np.maximum(boosted, 0.0, out=boosted)
        return np.where(weight == 1.0, raw, boosted)

    def claim_rows(self, rows: np.ndarray, prbs: np.ndarray) -> np.ndarray:
        """Vectorised, order-preserving budget claims for served rows.

        ``rows`` are flat session indices in ascending order (cell-major,
        as ``np.nonzero`` yields them), ``prbs`` the demands.  The
        sequential semantics — each member grabs
        ``min(demand, remaining)`` in attach order — equal
        ``min(demand_i, max(0, budget - sum(demand_j, j<i in cell)))``:
        while the budget lasts, grants == demands so the prefix sums
        agree; at the first shortfall the formula hands out exactly the
        remainder, and every later claim sees a non-positive remainder
        and gets zero.  Demands and budgets are small exact integers in
        float64, so the prefix sums are exact.
        """
        cells = self._cell_of[rows]
        csum = np.cumsum(prbs)
        before = csum - prbs
        first = np.empty(rows.size, dtype=bool)
        first[0] = True
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        segment = np.cumsum(first) - 1
        before -= before[np.nonzero(first)[0]][segment]
        grants = self._budget_left[cells] - before
        np.minimum(grants, prbs, out=grants)
        np.maximum(grants, 0.0, out=grants)
        self._budget_left -= np.bincount(cells, weights=grants, minlength=self._c)
        positive = grants > 0.0
        if positive.any():
            pcells = cells[positive]
            flat = self._shares.reshape(-1)
            flat[self._slot[rows[positive]]] += self._alpha[pcells] * (
                grants[positive] / self._prb_budget[pcells]
            )
        return grants
