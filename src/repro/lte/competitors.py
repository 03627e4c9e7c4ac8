"""Explicit competing-UE traffic model for the serving cell.

The default :class:`repro.lte.cell.CellLoadProcess` abstracts the other
UEs into a Gauss-Markov load fraction.  This module models them
explicitly: N background UEs with on/off (exponential holding time)
traffic sessions — web bursts, uploads, streams — whose combined
activity produces the load fraction the PF scheduler sees.  The
emergent load is burstier and heavier-tailed than the OU abstraction,
which matters for the busy-cell experiments (Fig. 17a/b): a noon
campus cell is a crowd of phones, not a smooth fluid.

The population is consumed in two modes:

- **Abstract drain** (single-UE sessions): select it with
  ``CellConfig.competitor_count > 0`` and
  :func:`make_cell_model` returns a :class:`CompetitorCell` in place of
  the Gauss-Markov process.  The tracked UE's scheduler reads ``load``
  and shrinks its own duty cycle and PRB grant accordingly — the
  competitors never hold PRBs themselves.
- **Scheduled load** (multi-UE shared cells, docs/FLEET.md): a
  :class:`repro.lte.shared_cell.SharedCell` built with
  ``FleetConfig.background_ues > 0`` owns one cell-level
  :class:`CompetitorCell` and, each 1 ms subframe, converts its ``load``
  fraction into whole PRBs claimed from the shared budget *before* any
  member's grant — the crowd occupies real cell resources that the
  POI360 callers can no longer be granted.

Duty-cycle math: each competitor holds exponential on/off sessions
with a mean on-time drawn per UE; the mean off-time is derived by
:func:`mean_off_for_duty` so the long-run activity fraction matches
the configured ``background_load``, however long the UE's sessions are.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import CellConfig
from repro.lte.cell import UPDATE_INTERVAL as LOAD_INTERVAL
from repro.lte.cell import CellLoadProcess
from repro.sim.blocks import CallDraws
from repro.sim.engine import Simulation

#: Update cadence of every competitor's on/off state (s).
UPDATE_INTERVAL = 0.05


def mean_off_for_duty(mean_on: float, duty: float) -> float:
    """Mean off-time giving an on/off UE a long-run duty cycle ``duty``.

    An alternating-renewal process is active a fraction
    ``E[on] / (E[on] + E[off])`` of the time; solving for ``E[off]``
    gives ``E[on] * (1 - duty) / duty`` (duty floored at 1e-3 so a
    zero-load config yields long but finite off-times).

    >>> mean_off_for_duty(6.0, 0.5)
    6.0
    >>> mean_off_for_duty(9.0, 0.25)
    27.0
    >>> round(6.0 / (6.0 + mean_off_for_duty(6.0, 0.2)), 3)  # realised duty
    0.2
    """
    return mean_on * (1.0 - duty) / max(1e-3, duty)


class _CompetitorUe:
    """One background UE: on/off traffic with exponential holding times."""

    __slots__ = ("active", "weight", "_mean_on", "_mean_off", "_until")

    def __init__(self, rng: np.random.Generator, duty: float):
        #: Resource weight while active (heavy-tailed: some UEs stream,
        #: most poke at short flows).
        self.weight = float(rng.lognormal(0.0, 0.6))
        self._mean_on = float(rng.uniform(2.0, 15.0))
        self._mean_off = mean_off_for_duty(self._mean_on, duty)
        self.active = rng.random() < duty
        self._until = 0.0

    def update(self, now: float, rng: np.random.Generator) -> None:
        if now < self._until:
            return
        self.active = not self.active
        mean = self._mean_on if self.active else self._mean_off
        self._until = now + float(rng.exponential(mean))


class CompetitorCell:
    """Cell load produced by explicit background UEs.

    Drop-in replacement for :class:`repro.lte.cell.CellLoadProcess`: the
    caller clocks :meth:`update` every :data:`UPDATE_INTERVAL`, and
    ``load`` is a cached plain float recomputed only when the population
    flips.  Every draw is per call from ``rng``, in both engines.  Besides
    the single-UE sessions (:func:`make_cell_model`), the scalar
    :class:`repro.lte.shared_cell.SharedCell` (event and lockstep) and the
    batched :class:`~repro.lte.shared_cell.SharedCellArray` each own one
    per cell with a scheduled background, built the same way, so all
    three engines consume bit-identical background loads by construction.
    """

    __slots__ = ("_competitors", "_total_weight", "_rng", "load")

    def __init__(self, config: CellConfig, rng: np.random.Generator):
        count = max(1, config.competitor_count)
        # Each competitor's duty cycle chosen so the expected aggregate
        # load matches the configured background_load (with every UE
        # active ``duty`` of the time, the weights normalise out).
        duty = min(0.95, config.background_load)
        self._competitors: List[_CompetitorUe] = [
            _CompetitorUe(rng, duty) for _ in range(count)
        ]
        self._total_weight = sum(c.weight for c in self._competitors)
        self._rng = rng
        #: Instantaneous fraction of cell resources other UEs hold.
        self.load = self._snapshot()

    def update(self, now: float) -> None:
        """Advance every competitor's on/off state to ``now``."""
        rng = self._rng
        for competitor in self._competitors:
            competitor.update(now, rng)
        self.load = self._snapshot()

    def _snapshot(self) -> float:
        if self._total_weight <= 0.0:
            return 0.0
        active = sum(c.weight for c in self._competitors if c.active)
        return min(0.9, active / self._total_weight)

    @property
    def active_competitors(self) -> int:
        return sum(1 for c in self._competitors if c.active)


def make_cell_model(sim: Simulation, config: CellConfig, rng: np.random.Generator):
    """Factory: explicit competitors when configured, OU process otherwise.

    The model is clocked on ``sim`` at its own cadence and draws per call
    from ``rng``.
    """
    if config.competitor_count > 0:
        cell = CompetitorCell(config, rng)
        sim.every(UPDATE_INTERVAL, lambda: cell.update(sim.now))
        return cell
    cell = CellLoadProcess(config, CallDraws(rng))
    sim.every(LOAD_INTERVAL, cell.update)
    return cell
