"""eNodeB PF-style grant engine: the Fig. 5 relation and its pieces."""

import numpy as np
import pytest

from repro.config import CellConfig, ChannelConfig, LteConfig
from repro.lte.cell import UPDATE_INTERVAL, CellLoadProcess
from repro.lte.channel import ChannelProcess
from repro.lte.scheduler import EnbScheduler
from repro.sim.blocks import CallDraws
from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry
from repro.units import LTE_SUBFRAME, kbytes


class _Uplink:
    """Channel, cell load and scheduler clocked on one simulation; each
    :meth:`grant` call advances it by one subframe."""

    def __init__(self, config, rng):
        self.sim = Simulation()
        self.channel = ChannelProcess(config.channel, CallDraws(rng.stream("ch")))
        self.sim.every(
            config.channel.update_interval, lambda: self.channel.update(self.sim.now)
        )
        self.cell = CellLoadProcess(config.cell, CallDraws(rng.stream("cell")))
        self.sim.every(UPDATE_INTERVAL, self.cell.update)
        self.scheduler = EnbScheduler(config, CallDraws(rng.stream("sched")))

    def grant(self, reported, actual):
        self.sim.run(LTE_SUBFRAME)
        now = self.sim.now
        return self.scheduler.grant_for_subframe(
            reported, actual, self.channel.cqi(now), self.cell.load
        )


def _build(load=0.1, rss=-82.0, seed=1):
    config = LteConfig(
        channel=ChannelConfig(
            rss_dbm=rss, shadow_sigma_db=0.01, deep_fade_rate_per_min=0.0
        ),
        cell=CellConfig(background_load=load, load_sigma=0.0),
    )
    return _Uplink(config, RngRegistry(seed))


def _mean_grant_rate(uplink, backlog, subframes=30_000):
    """Average service rate (bps) at a steadily-held backlog."""
    total = 0.0
    for _ in range(subframes):
        total += uplink.grant(backlog, backlog)
    return total * 8.0 / (subframes / 1000.0)


def test_no_grant_without_backlog():
    uplink = _build()
    assert uplink.grant(0.0, 0.0) == 0.0


def test_grant_never_exceeds_actual_backlog():
    uplink = _build()
    grants = [uplink.grant(kbytes(50), 500.0) for _ in range(5000)]
    assert max(grants) <= 500.0


def test_service_rate_grows_with_backlog():
    """The linear region of Fig. 5."""
    uplink = _build()
    low = _mean_grant_rate(uplink, kbytes(2))
    high = _mean_grant_rate(uplink, kbytes(8))
    assert high > 2.0 * low


def test_service_rate_saturates_past_knee():
    """The plateau of Fig. 5."""
    uplink = _build()
    at_knee = _mean_grant_rate(uplink, kbytes(12))
    deep = _mean_grant_rate(uplink, kbytes(40))
    assert deep < 1.25 * at_knee


def test_background_load_shrinks_throughput():
    idle_sched = _build(load=0.05)
    busy_sched = _build(load=0.6)
    idle = _mean_grant_rate(idle_sched, kbytes(20))
    busy = _mean_grant_rate(busy_sched, kbytes(20))
    assert busy < 0.7 * idle


def test_weak_signal_shrinks_throughput():
    strong_sched = _build(rss=-73.0)
    weak_sched = _build(rss=-115.0)
    strong = _mean_grant_rate(strong_sched, kbytes(20))
    weak = _mean_grant_rate(weak_sched, kbytes(20))
    assert weak < 0.5 * strong


class _RecordingView:
    """A shared-cell member view that grants every claim in full and
    records the PRBs each grant requested."""

    def __init__(self):
        self.claims = []

    def claim_prbs(self, prbs):
        self.claims.append(prbs)
        return prbs


def _requested_prbs(load):
    uplink = _build()
    view = _RecordingView()
    uplink.scheduler.attach_cell(view)
    while not view.claims:
        uplink.scheduler.grant_for_subframe(kbytes(20), kbytes(20), 10, load)
    return view.claims[0]


def test_effective_prbs_shrink_with_load():
    assert _requested_prbs(0.0) > _requested_prbs(0.8)
    assert _requested_prbs(0.99) >= 2


def test_service_arrives_in_bursts():
    """Consecutive scheduled subframes cluster (burst/idle process)."""
    uplink = _build()
    served = [uplink.grant(kbytes(10), kbytes(10)) > 0 for _ in range(20_000)]
    transitions = sum(1 for a, b in zip(served, served[1:]) if a != b)
    duty = float(np.mean(served))
    # An i.i.d. Bernoulli process would flip ~2*duty*(1-duty) per slot;
    # bursts make transitions much rarer.
    iid_transitions = 2 * duty * (1 - duty) * len(served)
    assert transitions < 0.7 * iid_transitions

