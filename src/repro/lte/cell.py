"""Competing background load inside the serving cell.

The fraction of uplink resources other UEs consume follows a clamped
Gauss-Markov process around the configured mean.  It shrinks both the
probability that our UE wins a subframe and the PRBs it is granted,
which is how the paper's idle-vs-busy campus experiments (Fig. 17a/b)
are reproduced.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import CellConfig
from repro.sim.blocks import DEFAULT_BLOCK, BlockStreamArray, normal_transform

#: Load is clamped into this range (a cell is never 100% occupied by
#: others for long — the PF scheduler still serves backlogged UEs).
LOAD_MIN = 0.0
LOAD_MAX = 0.9

#: Update cadence of the load process (s).
UPDATE_INTERVAL = 0.1


class CellLoadProcess:
    """Time-varying background-load fraction in [0, 0.9].

    The caller clocks :meth:`update` every :data:`UPDATE_INTERVAL`; the
    innovation normals come from a draw policy (:mod:`repro.sim.blocks`),
    so under :class:`~repro.sim.blocks.BlockDraws` the batched
    :class:`CellLoadArray` reproduces it bit-for-bit.
    """

    __slots__ = ("_background", "_decay", "_innovation", "_z", "_deviation", "load")

    def __init__(self, config: CellConfig, draws):
        self._background = config.background_load
        self._decay = math.exp(-UPDATE_INTERVAL / config.load_corr_time)
        self._innovation = config.load_sigma * math.sqrt(
            max(0.0, 1.0 - self._decay * self._decay)
        )
        self._z = draws.normal("cell.z")
        self._deviation = 0.0
        #: Instantaneous background-load fraction (changes only in update()).
        self.load = min(LOAD_MAX, max(LOAD_MIN, config.background_load))

    def update(self) -> None:
        self._deviation = self._deviation * self._decay + self._innovation * self._z()
        value = self._background + self._deviation
        self.load = min(LOAD_MAX, max(LOAD_MIN, value))


class CellLoadArray:
    """``(n_sessions,)`` vectorised twin of :class:`CellLoadProcess`
    under :class:`~repro.sim.blocks.BlockDraws`."""

    def __init__(self, configs, streams, block: int = DEFAULT_BLOCK):
        n = len(configs)
        self._background = np.array([c.background_load for c in configs])
        decay = np.array(
            [math.exp(-UPDATE_INTERVAL / c.load_corr_time) for c in configs]
        )
        self._decay = decay
        self._innovation = np.array(
            [
                c.load_sigma * math.sqrt(max(0.0, 1.0 - d * d))
                for c, d in zip(configs, decay.tolist())
            ]
        )
        self._z = BlockStreamArray(
            [streams[s]("cell.z") for s in range(n)],
            [normal_transform()] * n,
            block,
            aligned=True,
        )
        self._deviation = np.zeros(n)
        self.load = np.minimum(LOAD_MAX, np.maximum(LOAD_MIN, self._background))

    def update(self) -> None:
        z = self._z.take_all()
        self._deviation = self._deviation * self._decay + self._innovation * z
        value = self._background + self._deviation
        self.load = np.minimum(LOAD_MAX, np.maximum(LOAD_MIN, value))
