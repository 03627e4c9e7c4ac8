"""Radio channel model: shadow fading, mobility, handover outages.

The instantaneous RSS is the configured mean plus a Gauss-Markov
(Ornstein-Uhlenbeck) shadow-fading term.  Mobility shortens the fading
correlation time, widens its excursions, and triggers Poisson handovers
during which the link is in outage (CQI 0 → no grants), reproducing the
paper's driving experiments (Fig. 17e/f).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from repro.config import ChannelConfig
from repro.lte.tbs import cqi_from_rss, cqi_from_rss_array
from repro.sim.blocks import (
    DEFAULT_BLOCK,
    BlockStreamArray,
    exponential_transform,
    normal_transform,
    uniform_range_transform,
    uniform_transform,
)


class ChannelDynamics(NamedTuple):
    """Derived per-update constants of the channel process.

    One derivation shared by the scalar :class:`ChannelProcess` and the
    batched :class:`ChannelArray` twin, so both agree on how mobility
    reshapes the fading statistics.
    """

    decay: float
    innovation: float
    corr_time: float
    sigma: float
    fade_rate: float
    handover_rate: float
    handover_prob: float
    fade_prob: float


def derive_channel_dynamics(config: ChannelConfig) -> ChannelDynamics:
    """Fold mobility into the Gauss-Markov / Poisson step constants."""
    speed = max(0.0, config.speed_mph)
    # Mobility encounters obstructions more often.
    fade_rate = config.deep_fade_rate_per_min * (1.0 + speed / 15.0) / 60.0
    # Mobility compresses the shadowing correlation time.
    corr_time = config.shadow_corr_time / (1.0 + speed / 10.0)
    sigma = config.shadow_sigma_db * (1.0 + speed / 50.0)
    handover_rate = (
        config.handover_rate_per_min_at_30mph * (speed / 30.0) / 60.0
    )
    dt = config.update_interval
    decay = math.exp(-dt / corr_time)
    innovation = sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
    return ChannelDynamics(
        decay=decay,
        innovation=innovation,
        corr_time=corr_time,
        sigma=sigma,
        fade_rate=fade_rate,
        handover_rate=handover_rate,
        handover_prob=handover_rate * dt,
        fade_prob=fade_rate * dt,
    )


class ChannelProcess:
    """Time-varying RSS / CQI process for a UE's radio link.

    The caller clocks :meth:`update` every ``config.update_interval`` and
    supplies ``now``; the variates come from a draw policy
    (:mod:`repro.sim.blocks`): handover and fade trigger uniforms,
    deep-fade depths (exponential) and fade durations (uniform) each from
    their own named stream.  The event engine passes
    :class:`~repro.sim.blocks.CallDraws`, the lockstep engines
    :class:`~repro.sim.blocks.BlockDraws`, so the batched
    :class:`ChannelArray` consumes the exact same float64 sequences.
    """

    __slots__ = (
        "_decay", "_innovation", "_handover_prob", "_fade_prob",
        "_handover_enabled", "_fade_enabled", "_handover_outage", "_rss",
        "_z", "_ho_u", "_fade_u", "_fade_depth", "_fade_dur",
        "shadow_db", "outage_until", "fade_db", "fade_until", "cqi_value",
    )

    def __init__(self, config: ChannelConfig, draws):
        dynamics = derive_channel_dynamics(config)
        self._decay = dynamics.decay
        self._innovation = dynamics.innovation
        self._handover_prob = dynamics.handover_prob
        self._fade_prob = dynamics.fade_prob
        self._handover_enabled = dynamics.handover_rate > 0.0
        self._fade_enabled = dynamics.fade_rate > 0.0
        self._handover_outage = config.handover_outage
        self._rss = config.rss_dbm
        self._z = draws.normal("channel.z")
        self._ho_u = draws.uniform("channel.handover")
        self._fade_u = draws.uniform("channel.fade")
        self._fade_depth = draws.exponential("channel.fade_depth", config.deep_fade_depth_db)
        low, high = config.deep_fade_duration
        self._fade_dur = draws.uniform_range("channel.fade_duration", low, high)
        self.shadow_db = 0.0
        #: A handover outage (CQI 0, no grants) lasts while ``now <= outage_until``.
        self.outage_until = -1.0
        self.fade_db = 0.0
        self.fade_until = -1.0
        #: CQI at the current RSS; only changes when :meth:`update` runs.
        self.cqi_value = cqi_from_rss(config.rss_dbm)

    def update(self, now: float) -> None:
        self.shadow_db = self.shadow_db * self._decay + self._innovation * self._z()
        if self._handover_enabled and now > self.outage_until:
            if self._ho_u() < self._handover_prob:
                self.outage_until = now + self._handover_outage
        if now > self.fade_until:
            self.fade_db = 0.0
            if self._fade_enabled and self._fade_u() < self._fade_prob:
                self.fade_db = self._fade_depth()
                self.fade_until = now + self._fade_dur()
        self.cqi_value = cqi_from_rss(self._rss + self.shadow_db - self.fade_db)

    @property
    def rss_dbm(self) -> float:
        """Instantaneous received signal strength (dBm)."""
        return self._rss + self.shadow_db - self.fade_db

    def cqi(self, now: float) -> int:
        """Instantaneous CQI (0 during handover outage)."""
        if now <= self.outage_until:
            return 0
        return self.cqi_value


class ChannelArray:
    """``(n_sessions,)`` vectorised twin of :class:`ChannelProcess`
    under :class:`~repro.sim.blocks.BlockDraws`.

    Per-update cost is a handful of array ops regardless of the cohort
    size; the conditional draws (handover / fade triggers) gather from
    per-session blocks by cursor, consuming exactly the values the
    scalar twin would.
    """

    def __init__(
        self, configs: Sequence[ChannelConfig], streams, block: int = DEFAULT_BLOCK
    ):
        n = len(configs)
        dynamics = [derive_channel_dynamics(config) for config in configs]
        self.decay = np.array([d.decay for d in dynamics])
        self.innovation = np.array([d.innovation for d in dynamics])
        self.handover_prob = np.array([d.handover_prob for d in dynamics])
        self.fade_prob = np.array([d.fade_prob for d in dynamics])
        self.handover_enabled = np.array(
            [d.handover_rate > 0.0 for d in dynamics], dtype=bool
        )
        self.fade_enabled = np.array([d.fade_rate > 0.0 for d in dynamics], dtype=bool)
        self.handover_outage = np.array([c.handover_outage for c in configs])
        self.rss = np.array([c.rss_dbm for c in configs])
        self._z = BlockStreamArray(
            [streams[s]("channel.z") for s in range(n)],
            [normal_transform()] * n,
            block,
            aligned=True,
        )
        self._ho_u = BlockStreamArray(
            [streams[s]("channel.handover") for s in range(n)],
            [uniform_transform()] * n,
            block,
        )
        self._fade_u = BlockStreamArray(
            [streams[s]("channel.fade") for s in range(n)],
            [uniform_transform()] * n,
            block,
        )
        self._fade_depth = BlockStreamArray(
            [streams[s]("channel.fade_depth") for s in range(n)],
            [exponential_transform(c.deep_fade_depth_db) for c in configs],
            block,
        )
        self._fade_dur = BlockStreamArray(
            [streams[s]("channel.fade_duration") for s in range(n)],
            [uniform_range_transform(*c.deep_fade_duration) for c in configs],
            block,
        )
        self.shadow = np.zeros(n)
        self.outage_until = np.full(n, -1.0)
        self.fade_db = np.zeros(n)
        self.fade_until = np.full(n, -1.0)
        self.cqi_value = cqi_from_rss_array(self.rss)
        #: Scalar gate for the hot path: past this instant no session is
        #: in outage (``outage_until`` only changes inside update()).
        self._outage_horizon = -1.0
        self._all_positive = np.ones(n, dtype=bool)

    def update(self, now: float) -> None:
        z = self._z.take_all()
        self.shadow = self.shadow * self.decay + self.innovation * z
        m_ho = self.handover_enabled & (now > self.outage_until)
        idx = np.nonzero(m_ho)[0]
        if idx.size:
            u = self._ho_u.take(idx)
            fired = idx[u < self.handover_prob[idx]]
            if fired.size:
                self.outage_until[fired] = now + self.handover_outage[fired]
                self._outage_horizon = float(self.outage_until.max())
        m_fade = now > self.fade_until
        self.fade_db[m_fade] = 0.0
        cidx = np.nonzero(m_fade & self.fade_enabled)[0]
        if cidx.size:
            u = self._fade_u.take(cidx)
            fidx = cidx[u < self.fade_prob[cidx]]
            if fidx.size:
                self.fade_db[fidx] = self._fade_depth.take(fidx)
                self.fade_until[fidx] = now + self._fade_dur.take(fidx)
        self.cqi_value = cqi_from_rss_array(self.rss + self.shadow - self.fade_db)

    def effective_cqi(self, now: float) -> np.ndarray:
        """Per-session CQI with handover outages zeroed."""
        return np.where(now <= self.outage_until, 0, self.cqi_value)

    def cqi_state(self, now: float):
        """Hot-path form: ``(cqi_positive, cqi_value)``.

        ``cqi_value`` is only meaningful where ``cqi_positive`` — the
        RSS→CQI mapping clamps to [1, 15], so a session's CQI is zero
        exactly while it sits in a handover outage.  Outside any outage
        (the common case, gated by one float compare) the mask is a
        shared all-True array.
        """
        if now > self._outage_horizon:
            return self._all_positive, self.cqi_value
        return now > self.outage_until, self.cqi_value
