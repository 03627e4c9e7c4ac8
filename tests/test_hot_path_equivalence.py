"""The event engine's per-packet and per-subframe fast paths equal the
code they replaced, bit for bit.

Each fast path is checked against a verbatim copy of its old body:

- ``SharedCell.load_for``: one body over the subframe's aggregate
  snapshot, against the old ``_aggregate`` -> ``background_load`` ->
  ``pf_weight`` composition;
- ``EnbScheduler.grant_for_subframe``: the duty-cycle probability only
  when a new burst/idle draw is due, against the old eager one;
- ``Simulation.schedule``/``at``: one chained comparison, same errors;
- ``SessionLog.arrivals``: an ``(m, 2)`` float64 array in every engine.

The CI job on Python 3.12 runs this file too: none of these paths may
lean on the interpreter's float summation.
"""

import math
import pickle
from dataclasses import replace
from itertools import cycle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FleetConfig, LteConfig
from repro.lte.scheduler import MAX_IDLE_SUBFRAMES, MIN_SCHEDULING_FRACTION, EnbScheduler
from repro.lte.shared_cell import _BG_TICKS, _SHARE_EPS, LOAD_MAX, SharedCell
from repro.lte.tbs import transport_block_bytes
from repro.sim.batch import run_batched
from repro.sim.blocks import CallDraws
from repro.sim.engine import Simulation
from repro.telephony.session import TelephonySession
from repro.telephony.uplink import run_uplink_session
from repro.traces.scenarios import scenario
from repro.units import LTE_SUBFRAME
from tests.test_batch import lockstep_config


# ----------------------------------------------------------------------
# SharedCell.load_for
# ----------------------------------------------------------------------


class _ComposedCell(SharedCell):
    """``SharedCell`` with the old ``_aggregate`` and ``load_for``."""

    __slots__ = ()

    def _aggregate(self, now):
        if now != self._agg_time:
            total = 0.0
            for index in range(len(self._shares)):
                total += self._decay_to(index, now)
            self._agg_total = total
            self._agg_time = now
        return self._agg_total

    def _pf_weight(self, index, now):
        total = self._aggregate(now)
        count = len(self._shares)
        if count <= 1:
            return 1.0
        weight = (total / count + _SHARE_EPS) / (self._shares[index] + _SHARE_EPS)
        if weight > self._weight_max:
            return self._weight_max
        floor = 1.0 / self._weight_max
        if weight < floor:
            return floor
        return weight

    def load_for(self, index, now):
        peers = self._aggregate(now) - self._shares[index]
        if peers < 0.0:
            peers = 0.0
        raw = self.background_load(index) + peers
        if raw > LOAD_MAX:
            raw = LOAD_MAX
        weight = self._pf_weight(index, now)
        if weight != 1.0:
            boosted = 1.0 - weight * (1.0 - raw)
            if boosted < 0.0:
                return 0.0
            if boosted > LOAD_MAX:
                return LOAD_MAX
            return boosted
        return raw


class _Load:
    """A member's own background model: a settable ``load``."""

    load = 0.0


@st.composite
def cell_programs(draw):
    members = draw(st.integers(1, 16))
    crowd = draw(st.booleans())
    fleet = FleetConfig(
        ues=members,
        prb_budget=draw(st.integers(1, 60)),
        share_time_constant=draw(st.floats(0.0005, 2.0)),
        pf_weight_max=draw(st.floats(1.0, 8.0)),
        background_ues=draw(st.integers(1, 6)) if crowd else 0,
        background_load=draw(st.floats(0.0, 0.6)),
        seed=draw(st.integers(0, 2**16)),
    )
    action = st.tuples(
        st.integers(0, members - 1), st.floats(0.0, 0.9), st.integers(0, 40)
    )
    steps = st.lists(
        # Subframes since the last step (> 1: every member was paused
        # in between), then this subframe's reads and claims.
        st.tuples(st.integers(1, 8), st.lists(action, max_size=2 * members)),
        min_size=1,
        max_size=80,
    )
    return fleet, draw(st.booleans()), draw(steps)


@settings(max_examples=150, deadline=None)
@given(cell_programs())
def test_fused_load_for_equals_the_composed_one(program):
    fleet, lockstep, steps = program
    cells = [SharedCell(fleet), _ComposedCell(fleet)]
    fallbacks = [[_Load() for _ in range(fleet.ues)] for _ in cells]
    for cell, loads in zip(cells, fallbacks):
        for load in loads:
            cell.add_member(load)
    k, now = 0, 0.0
    for gap, actions in steps:
        for _ in range(gap):
            k += 1
            now += LTE_SUBFRAME
            for cell in cells:
                if lockstep:
                    cell.begin_tick(k, now)
                elif cell.background is not None and k % _BG_TICKS == 0:
                    cell.background.update(now)
        for member, own_load, prbs in actions:
            for loads in fallbacks:
                loads[member].load = own_load
            fused, composed = (cell.load_for(member, now) for cell in cells)
            assert fused == composed or math.isnan(fused) and math.isnan(composed)
            granted = [cell.claim(member, prbs, now) for cell in cells]
            assert granted[0] == granted[1]
    fused, composed = cells
    assert fused._shares == composed._shares
    assert fused._updated == composed._updated
    assert fused._agg_total == composed._agg_total


# ----------------------------------------------------------------------
# EnbScheduler.grant_for_subframe
# ----------------------------------------------------------------------


class _EagerScheduler(EnbScheduler):
    """``EnbScheduler`` with the old grant: the probability every call."""

    __slots__ = ()

    def grant_for_subframe(self, reported, actual, cqi, load):
        if reported <= 0.0:
            return 0.0
        if cqi <= 0:
            return 0.0
        backlog_fraction = min(1.0, reported / self._backlog_ref)
        probability = (
            self._p_max * (1.0 - load) * max(MIN_SCHEDULING_FRACTION, backlog_fraction)
        )
        if not self._in_service_burst(probability):
            return 0.0
        prbs = max(2, int(round(self._prb_quota * (2.0 - load))))
        if self._claim is not None:
            prbs = self._claim(prbs)
            if prbs <= 0:
                return 0.0
        capacity = transport_block_bytes(cqi, prbs)
        fading = self._fading()
        return min(actual, capacity * fading)

    def _in_service_burst(self, duty_cycle):
        if self._burst_left > 0:
            self._burst_left -= 1
            return True
        if self._idle_left > 0:
            self._idle_left -= 1
            return False
        duty = min(1.0, max(1e-3, duty_cycle))
        burst = 1 + int(self._mean_burst * self._burst())
        idle = min(MAX_IDLE_SUBFRAMES, int(round(burst * (1.0 - duty) / duty)))
        self._burst_left = burst - 1
        self._idle_left = idle
        return True


class _Claims:
    """A shared-cell view whose budget cuts each claim by a cycled amount."""

    def __init__(self, cuts):
        self._cuts = cycle(cuts)

    def claim_prbs(self, prbs):
        return max(0, prbs - next(self._cuts))


_subframes = st.lists(
    st.tuples(
        st.floats(-1e4, 2e5),  # reported backlog (B)
        st.floats(0.0, 2e5),  # actual buffer level (B)
        st.integers(-1, 15),  # CQI (0: handover outage)
        # Cell load; at 1.0 the duty cycle is 0 and only its floor binds.
        st.sampled_from((0.0, 0.9, 1.0)) | st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=400,
)


@settings(max_examples=150, deadline=None)
@given(
    _subframes,
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 60.0),
    st.floats(0.5, 8.0),
    st.one_of(st.none(), st.lists(st.integers(0, 40), min_size=1, max_size=8)),
)
def test_lazy_grant_equals_the_eager_one(subframes, seed, speed, burst, cuts):
    config = replace(
        LteConfig(), scheduling_burst_subframes=burst,
    )
    config = replace(config, channel=replace(config.channel, speed_mph=speed))
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    schedulers = [
        EnbScheduler(config, CallDraws(rngs[0])),
        _EagerScheduler(config, CallDraws(rngs[1])),
    ]
    if cuts is not None:
        for scheduler in schedulers:
            scheduler.attach_cell(_Claims(cuts))
    for reported, actual, cqi, load in subframes:
        lazy, eager = (s.grant_for_subframe(reported, actual, cqi, load) for s in schedulers)
        assert lazy == eager and type(lazy) is type(eager)
        # The same draws, in the same order: the generators stay level.
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert schedulers[0]._burst_left == schedulers[1]._burst_left
    assert schedulers[0]._idle_left == schedulers[1]._idle_left


# ----------------------------------------------------------------------
# Simulation.schedule / at
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "delay, message",
    [
        (-1e-9, "cannot schedule in the past"),
        (-math.inf, "cannot schedule in the past"),
        (math.nan, "delay must be finite"),
        (math.inf, "delay must be finite"),
    ],
)
def test_schedule_and_at_reject_bad_delays(delay, message):
    sim = Simulation()
    sim.run(0.25)
    with pytest.raises(ValueError, match=message):
        sim.schedule(delay, lambda: None)
    with pytest.raises(ValueError, match=message):
        sim.at(sim.now + delay, lambda: None)
    assert sim.pending() == 0 and not sim._queue


def test_at_fires_where_schedule_would():
    """``at(when)`` queues at ``now + (when - now)``, the float
    ``schedule(when - now)`` gives, not at ``when`` itself."""
    sim = Simulation()
    sim.run(0.3)
    fired = []
    sim.at(0.9, lambda: fired.append(sim.now))
    sim.schedule(0.9 - 0.3, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.3 + (0.9 - 0.3)] * 2
    assert fired[0] != 0.9  # the two differ in the last place here


# ----------------------------------------------------------------------
# SessionLog.arrivals
# ----------------------------------------------------------------------


def _assert_packet_log(arrivals, rows):
    assert isinstance(arrivals, np.ndarray) and arrivals.dtype == np.float64
    assert arrivals.shape == (rows, 2)
    assert arrivals.nbytes == 16 * rows
    assert len(pickle.dumps(arrivals)) < 16 * rows + 200


@pytest.mark.parametrize("network, transport", [("wireline", "gcc"), ("cellular", "fbcc")])
def test_event_arrivals_are_the_packets_the_viewer_received(network, transport):
    config = scenario(network, scheme="poi360", transport=transport, duration=6.0, seed=3)
    session = TelephonySession(config)
    received = []
    on_media_packet = session.receiver.on_media_packet
    end_warmup = session.receiver.end_warmup

    def recording(packet):
        received.append((session.sim.now, packet.size_bytes))
        on_media_packet(packet)

    def warmup_done():
        received.clear()
        end_warmup()

    session.forward.set_receiver(recording)
    session.receiver.end_warmup = warmup_done
    arrivals = session.run(6.0, warmup=2.0).log.arrivals
    _assert_packet_log(arrivals, len(received))
    assert arrivals.tolist() == [[float(t), float(size)] for t, size in received]


def test_lockstep_arrivals_are_equal_arrays_in_both_engines():
    configs = [lockstep_config(seed=seed, duration=3.0) for seed in (1, 2, 3)]
    batched = run_batched(configs, warmup=1.0)
    for config, result in zip(configs, batched):
        scalar = run_uplink_session(config, warmup=1.0).log.arrivals
        _assert_packet_log(scalar, len(scalar))
        assert len(scalar) > 0
        assert np.array_equal(scalar, result.log.arrivals)
        assert result.log.arrivals.dtype == np.float64
