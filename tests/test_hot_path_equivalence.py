"""The event engine's per-packet and per-subframe fast paths equal the
code they replaced, bit for bit.

Each fast path is checked against a verbatim copy of its old body:

- ``SharedCell.load_for``: one body over the subframe's aggregate
  snapshot, against the old ``_aggregate`` -> ``background_load`` ->
  ``pf_weight`` composition;
- ``EnbScheduler.grant_for_subframe``: the duty-cycle probability only
  when a new burst/idle draw is due, against the old eager one;
- ``Simulation.schedule``/``at``: one chained comparison, same errors;
- ``SessionLog.arrivals``: an ``(m, 2)`` float64 array in every engine;
- ``TimestampDecoder``: block-drawn noise and the arithmetic decode,
  against one ``decode_timestamp`` call per frame;
- ``PeriodicHandle``: ticks re-armed by the dispatch loop, against the
  old per-tick closure and ``_fire`` frame;
- ``PanoramicSender._record_sent``: an RTX history bounded by age as
  well as count, against the count-only one;
- ``UeUplink._subframe``: the scheduler's idle countdown without a grant
  call or load read, against a grant call on every eligible subframe;
- ``TbsBandwidthEstimator.on_batch``: one loop per diag batch, against
  one ``on_tbs`` call per record.

The CI job on Python 3.12 runs this file too: none of these paths may
lean on the interpreter's float summation.
"""

import heapq
import math
import pickle
from dataclasses import replace
from itertools import cycle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FleetConfig, LteConfig, SessionConfig
from repro.lte.diagnostics import DiagRecord
from repro.lte.scheduler import MAX_IDLE_SUBFRAMES, MIN_SCHEDULING_FRACTION, EnbScheduler
from repro.lte.shared_cell import _BG_TICKS, _SHARE_EPS, LOAD_MAX, CellMemberView, SharedCell
from repro.lte.tbs import transport_block_bytes
from repro.lte.ue import UeUplink
from repro.net.packet import Packet
from repro.rate_control.fbcc.bandwidth import TbsBandwidthEstimator
from repro.sim.batch import run_batched
from repro.sim.blocks import CallDraws
from repro.obs.meter import SessionMeter
from repro.sim.engine import EventHandle, PeriodicHandle, Simulation
from repro.telephony import sender as sender_module
from repro.telephony import timestamping
from repro.telephony.timestamping import (
    DECODE_BLOCK,
    NUM_DIGITS,
    PIXEL_NOISE_STD,
    TimestampDecoder,
    decode_timestamp,
    encode_timestamp,
)
from repro.telephony.fleet import CellSession, member_configs
from repro.telephony.sender import PanoramicSender
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


# ----------------------------------------------------------------------
# TimestampDecoder
# ----------------------------------------------------------------------


def _capture_times(rng, frames):
    """Frame-grid instants (float-accumulated, as the capture process
    ticks), millisecond half-way points and arbitrary times."""
    grid = np.cumsum(np.full(frames // 3, 1.0 / 30.0))
    halves = (rng.integers(0, 10**9, frames // 3) + 0.5) / 1000.0
    free = rng.uniform(0.0, 1e6, frames - 2 * (frames // 3))
    return np.concatenate([grid, halves, free]).tolist()


@pytest.mark.parametrize("sigma, frames", [(PIXEL_NOISE_STD, 12_000), (25.0, 3_000)])
def test_timestamp_decoder_equals_decode_timestamp(sigma, frames, monkeypatch):
    times = _capture_times(np.random.default_rng(11), frames)
    reference_rng, decoder_rng = (np.random.default_rng(5) for _ in range(2))
    reference = [
        decode_timestamp(encode_timestamp(t), reference_rng, sigma) for t in times
    ]
    fallbacks = []

    def counted(blocks, *args):
        fallbacks.append(1)
        return decode_timestamp(blocks, *args)

    monkeypatch.setattr(timestamping, "decode_timestamp", counted)
    monkeypatch.setattr(timestamping, "PIXEL_NOISE_STD", sigma)
    decoder = TimestampDecoder(decoder_rng)
    decoded = [decoder.decode(t) for t in times]
    assert decoded == reference
    if sigma == PIXEL_NOISE_STD:
        # 10.6 sigma of margin: every frame takes the arithmetic path.
        assert not fallbacks
    else:
        # Both paths ran, and the fallback decoded some frames wrongly.
        assert 0 < len(fallbacks) < frames
        assert any(d != decode_timestamp(encode_timestamp(t)) for d, t in zip(decoded, times))


def test_decode_noise_blocks_are_the_per_frame_draws():
    blocks, frames = (np.random.default_rng(9) for _ in range(2))
    block = blocks.normal(0.0, PIXEL_NOISE_STD, size=(DECODE_BLOCK, NUM_DIGITS, 3))
    for k in range(DECODE_BLOCK):
        assert np.array_equal(
            block[k], frames.normal(0.0, PIXEL_NOISE_STD, size=(NUM_DIGITS, 3))
        )
    assert blocks.bit_generator.state == frames.bit_generator.state


# ----------------------------------------------------------------------
# PeriodicHandle: ticks re-armed by the dispatch loop
# ----------------------------------------------------------------------


class _OldPeriodicHandle(EventHandle):
    """The old ``every_while`` handle: one ``_fire`` frame per tick."""

    __slots__ = ("period", "next_time", "paused", "_callback", "_args")

    def __init__(self, sim, period, callback, args):
        super().__init__(sim)
        self.period = period
        self.next_time = 0.0
        self.paused = False
        self._callback = callback
        self._args = args

    def _fire(self):
        if self.cancelled:
            return
        keep = self._callback(*self._args)
        sim = self._sim
        self.next_time = sim._now + self.period
        if self.cancelled:
            return
        if keep:
            self._queued += 1
            sim._live += 1
            heapq.heappush(
                sim._queue, (self.next_time, next(sim._sequence), self, self._fire, ())
            )
        else:
            self.paused = True

    def skip(self):
        self.next_time += self.period

    def wake(self):
        if self.cancelled or not self.paused:
            return
        sim = self._sim
        now = sim._now
        nxt = self.next_time
        period = self.period
        while nxt < now:
            nxt += period
        self.next_time = nxt
        self.paused = False
        sim._push(nxt, self, self._fire, ())


class _ClosureSimulation(Simulation):
    """``Simulation`` with the old periodic processes and dispatch loop."""

    def every(self, period, callback, *args, phase=0.0):
        if period <= 0:
            raise ValueError(f"period must be positive (period={period!r})")
        handle = EventHandle(self)

        def tick():
            if handle.cancelled:
                return
            callback(*args)
            if not handle.cancelled:
                handle._queued += 1
                self._live += 1
                heapq.heappush(
                    self._queue,
                    (self._now + period, next(self._sequence), handle, tick, ()),
                )

        self._push(self._now + phase + period, handle, tick, ())
        return handle

    def every_while(self, period, callback, *args, phase=0.0):
        if period <= 0:
            raise ValueError(f"period must be positive (period={period!r})")
        handle = _OldPeriodicHandle(self, period, callback, args)
        handle.next_time = self._now + phase + period
        self._push(handle.next_time, handle, handle._fire, ())
        return handle

    def run(self, duration=None):
        deadline = math.inf if duration is None else self._now + duration
        queue = self._queue
        meter = self.meter
        dispatched = 0
        while queue:
            entry = queue[0]
            when = entry[0]
            if when > deadline:
                break
            heapq.heappop(queue)
            handle = entry[2]
            handle._queued -= 1
            if handle.cancelled:
                continue
            self._live -= 1
            self._now = when
            dispatched += 1
            entry[3](*entry[4])
        if deadline is not math.inf:
            self._now = deadline
        if meter is not None:
            meter.inc("sim.runs")
            meter.inc("sim.events", dispatched)

    def step(self):
        while self._queue:
            when, _seq, handle, callback, args = heapq.heappop(self._queue)
            handle._queued -= 1
            if handle.cancelled:
                continue
            self._live -= 1
            self._now = when
            if self.meter is not None:
                self.meter.inc("sim.events")
            callback(*args)
            return True
        return False


_periods = st.sampled_from((0.001, 0.003, 0.005, 0.01, 0.04, 1.0 / 30.0))
_engine_ops = st.lists(
    st.one_of(
        st.tuples(st.just("once"), st.floats(0.0, 0.2)),
        st.tuples(st.just("every"), _periods, st.sampled_from((0.0, 0.002, 0.0137))),
        # A gated process pauses whenever its cycled pattern says so.
        st.tuples(st.just("while"), _periods, st.lists(st.booleans(), min_size=1, max_size=6)),
        st.tuples(st.just("wake"), st.integers(0, 30), st.floats(0.0, 0.1)),
        st.tuples(st.just("cancel"), st.integers(0, 30), st.floats(0.0, 0.1)),
        st.tuples(st.just("run"), st.floats(0.0, 0.15)),
        st.tuples(st.just("step"), st.integers(1, 25)),
    ),
    min_size=1,
    max_size=40,
)


def _play(sim, ops):
    """Apply ``ops`` to ``sim``; returns everything observable."""
    fired, seen, handles, gated_handles = [], [], [], []

    def note(label):
        fired.append((sim.now, label))

    def gated(label, pattern):
        note(label)
        return next(pattern)

    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "once":
            handles.append(sim.schedule(op[1], note, index))
        elif kind == "every":
            handles.append(sim.every(op[1], note, index, phase=op[2]))
        elif kind == "while":
            handles.append(sim.every_while(op[1], gated, index, cycle(op[2])))
            gated_handles.append(handles[-1])
        elif kind == "wake" and gated_handles:
            sim.schedule(op[2], gated_handles[op[1] % len(gated_handles)].wake)
        elif kind == "cancel" and handles:
            sim.schedule(op[2], handles[op[1] % len(handles)].cancel)
        elif kind == "run":
            sim.run(op[1])
        elif kind == "step":
            seen.append([sim.step() for _ in range(op[1])])
        seen.append((sim.now, sim.pending(), len(sim._queue)))
        seen.append([h.cancelled for h in handles])
        seen.append([(h.paused, h.next_time) for h in gated_handles])
    sim.run(0.3)
    seen.append((sim.now, sim.pending(), sim.meter.counters))
    return fired, seen


@settings(max_examples=200, deadline=None)
@given(_engine_ops)
def test_folded_periodic_handle_equals_the_old_closure(ops):
    sims = [Simulation(), _ClosureSimulation()]
    for sim in sims:
        sim.meter = SessionMeter()
    folded, closure = (_play(sim, ops) for sim in sims)
    assert folded == closure


def test_every_handle_now_supports_the_periodic_api():
    sim = Simulation()
    times = []
    handle = sim.every(0.01, lambda: times.append(sim.now))
    assert isinstance(handle, PeriodicHandle) and not handle.gated
    sim.run(0.035)
    assert times == [0.01, 0.02, 0.03] and handle.next_time == 0.04
    handle.cancel()
    sim.run(0.1)
    assert len(times) == 3 and sim.pending() == 0


# ----------------------------------------------------------------------
# PanoramicSender._record_sent: the age-bounded RTX history
# ----------------------------------------------------------------------


class _CountOnlySender(PanoramicSender):
    """``PanoramicSender`` with the old history: the last HISTORY_DEPTH."""

    def _record_sent(self, packet):
        if packet.payload.get("rtx") or packet.payload.get("fec"):
            return
        seq = packet.payload["seq"]
        self._history[seq] = packet
        self._history.pop(seq - sender_module.HISTORY_DEPTH, None)
        if self.fec is not None:
            self.fec.on_media(packet)


class _Clock:
    """The two clock reads the sender makes."""

    def __init__(self):
        self._now = 0.0

    @property
    def now(self):
        return self._now


class _RtxQueue:
    def __init__(self):
        self.queued = []

    def enqueue_retransmit(self, packet):
        self.queued.append(packet)


def _bare_sender(cls, clock):
    sender = cls.__new__(cls)
    sender._sim = clock
    sender._history = {}
    sender._oldest = 0
    sender.fec = None
    sender.pacer = _RtxQueue()
    return sender


def _seconds(*typical, top):
    return st.sampled_from(typical) | st.floats(0.0, top)


_media_steps = st.lists(
    st.tuples(
        _seconds(0.0, 0.04, 0.8, top=0.9),  # capture-time step to this frame
        st.integers(1, 12),  # packets in the frame
        _seconds(0.0, 0.001, 0.005, top=0.1),  # pacing delay of each packet
        # NACK lookups after the frame: how many sequence numbers back,
        # and when, relative to the instant that packet turns stale; or
        # (None) now, for the oldest packet still fresh and the one before.
        st.lists(
            st.tuples(
                st.none() | st.integers(-2, 300),
                st.sampled_from((-0.02, -1e-9, 0.0, 1e-9)) | st.floats(-0.3, 0.3),
            ),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_media_steps, st.sampled_from((3, 16, sender_module.HISTORY_DEPTH)))
def test_age_bounded_history_retransmits_as_the_count_only_one(steps, depth):
    clock = _Clock()
    senders = [_bare_sender(PanoramicSender, clock), _bare_sender(_CountOnlySender, clock)]
    captures = []
    with mock.patch.object(sender_module, "HISTORY_DEPTH", depth):
        for capture_step, packets, delay, lookups in steps:
            capture = (captures[-1] if captures else 0.0) + capture_step
            clock._now = max(clock._now, capture)
            for _ in range(packets):
                clock._now += delay
                seq = len(captures)
                captures.append(capture)
                packet = Packet("video", 1200.0, capture, {"seq": seq, "sent": clock._now})
                for sender in senders:
                    sender._record_sent(packet)
            for back, offset in lookups:
                if back is None:
                    fresh = next(
                        (
                            i for i, c in enumerate(captures)
                            if clock._now - c <= sender_module.RTX_MAX_AGE
                        ),
                        len(captures),
                    )
                    seqs = (fresh - 1, fresh)
                else:
                    seqs = (len(captures) - 1 - back,)
                    if 0 <= seqs[0] < len(captures):
                        stale = captures[seqs[0]] + sender_module.RTX_MAX_AGE
                        clock._now = max(clock._now, stale + offset)
                for seq in seqs:
                    for sender in senders:
                        sender._retransmit(seq)
                    bounded, count_only = (s.pacer.queued for s in senders)
                    assert len(bounded) == len(count_only)
                    if bounded:
                        assert bounded[-1].payload == count_only[-1].payload
                        assert bounded[-1].created == count_only[-1].created
            # The bounded history is the newest part of the count-only one.
            bounded, count_only = (list(s._history.items()) for s in senders)
            assert bounded == count_only[len(count_only) - len(bounded):]


# ----------------------------------------------------------------------
# UeUplink._subframe: the scheduler's idle countdown
# ----------------------------------------------------------------------


class _GrantEveryUeUplink(UeUplink):
    """``UeUplink`` with the old subframe: a grant call, and so a load
    read, on every eligible subframe."""

    def _subframe(self):
        buffer = self.buffer
        ring = self._bsr_ring
        reported = ring[0]
        level = buffer.level
        ring.append(level)
        tbs = 0.0
        channel = self.channel
        if reported > 0.0 and self._sim._now > channel.outage_until:
            grant = self._grant(
                reported, level, channel.cqi_value, self._load_source.load
            )
            if grant > 0.0:
                completed = buffer.drain(grant)
                tbs = level - buffer.level
                self.bytes_sent += tbs
                if self._sink is not None:
                    schedule = self._sim.schedule
                    latency = self._config.radio_latency
                    sink = self._sink
                    for packet in completed:
                        schedule(latency, sink, packet)
                level = buffer.level
        self._record(level, tbs)
        if self._trace is not None:
            self._trace.emit("fw_buffer", level=level, tbs=tbs)
        self.active_subframes += 1
        return bool(level) or any(ring)


@st.composite
def uplink_cell_programs(draw):
    members = draw(st.integers(1, 8))
    crowd = draw(st.booleans())
    fleet = FleetConfig(
        ues=members,
        prb_budget=draw(st.integers(4, 60)),
        share_time_constant=draw(st.floats(0.002, 1.0)),
        pf_weight_max=draw(st.floats(1.0, 8.0)),
        background_ues=draw(st.integers(1, 6)) if crowd else 0,
        seed=draw(st.integers(0, 2**16)),
    )
    lte = replace(
        LteConfig(),
        scheduling_burst_subframes=draw(st.floats(0.5, 6.0)),
        p_max=draw(st.floats(0.05, 1.0)),
    )
    tick = st.tuples(
        st.integers(-1, 15),  # CQI
        st.booleans(),  # inside a handover outage
        st.sampled_from((0.0, 0.0, 300.0, 1200.0, 20_000.0)),  # bytes pushed
    )
    steps = []
    for _ in range(draw(st.integers(1, 120))):
        # Subframes since the last step (> 1: the ones between were
        # all-idle), then which members tick, in which order, and how.
        gap = draw(st.integers(1, 4))
        order = draw(st.permutations(range(members)))
        active = draw(st.lists(st.booleans(), min_size=members, max_size=members))
        ticks = draw(st.lists(tick, min_size=members, max_size=members))
        steps.append((gap, [(m, ticks[m]) for m in order if active[m]]))
    return fleet, lte, draw(st.integers(0, 2**32 - 1)), steps


def _uplink_cell(cls, fleet, lte, seed):
    sim = Simulation()
    cell = SharedCell(fleet)
    rngs = [np.random.default_rng(seed + m) for m in range(fleet.ues)]
    ues = [cls(sim, lte, rng) for rng in rngs]
    for ue in ues:
        ue.join_cell(cell)
    return sim, cell, ues, rngs


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=150, deadline=None)
@given(uplink_cell_programs())
def test_idle_countdown_equals_the_grant_call(program):
    fleet, lte, seed, steps = program
    worlds = [_uplink_cell(cls, fleet, lte, seed) for cls in (UeUplink, _GrantEveryUeUplink)]
    k, now = 0, 0.0
    for gap, ticks in steps:
        for _ in range(gap):
            k += 1
            now += LTE_SUBFRAME
            for sim, cell, _, _ in worlds:
                sim._now = now
                if cell.background is not None and k % _BG_TICKS == 0:
                    cell.background.update(now)
        for member, (cqi, outage, pushed) in ticks:
            seen = []
            for sim, cell, ues, rngs in worlds:
                ue = ues[member]
                ue.channel.cqi_value = cqi
                ue.channel.outage_until = now if outage else -1.0
                if pushed:
                    ue.buffer.push(Packet("video", pushed, now))
                keep = ue._subframe()
                scheduler = ue.scheduler
                seen.append(
                    (
                        keep, ue.bytes_sent, ue.diag._pending[-1],
                        scheduler._burst_left, scheduler._idle_left,
                        rngs[member].bit_generator.state,
                    )
                )
            assert seen[0] == seen[1]
        idle, reference = (world[1] for world in worlds)
        assert _bits(idle._shares) == _bits(reference._shares)
        assert _bits(idle._updated) == _bits(reference._updated)
        assert idle._agg_time == reference._agg_time
        assert _bits([idle._agg_total]) == _bits([reference._agg_total])


def _fleet_cell_run():
    config = SessionConfig(scheme="poi360", transport="fbcc", seed=5)
    session = CellSession(member_configs(config, 3), fleet=FleetConfig(ues=3, seed=5))
    return session.cell, session.run(3.0, warmup=1.0)


def test_fleet_cell_with_idle_countdown_equals_the_grant_call(monkeypatch):
    """A whole event-engine cell: the countdown path runs, and the run's
    results and final shares are those of the old subframe body."""
    touches = []
    touch = CellMemberView.touch
    monkeypatch.setattr(CellMemberView, "touch", lambda view: touches.append(touch(view)))
    cell, countdown = _fleet_cell_run()
    monkeypatch.setattr(UeUplink, "_subframe", _GrantEveryUeUplink._subframe)
    reference_cell, reference = _fleet_cell_run()
    assert len(touches) > 1000
    assert _bits(cell._shares) == _bits(reference_cell._shares)
    assert _bits(cell._updated) == _bits(reference_cell._updated)
    assert countdown.member_bytes == reference.member_bytes
    for got, want in zip(countdown.results, reference.results):
        assert pickle.dumps(got.summary) == pickle.dumps(want.summary)
        assert np.array_equal(got.log.arrivals, want.log.arrivals)


# ----------------------------------------------------------------------
# TbsBandwidthEstimator.on_batch
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from((1e16, -1e16, 1.0, 0.5, 3.0)) | st.floats(0.0, 2e4),
                st.sampled_from((1e16, -1e16, 1.0, 0.5, 3.0)) | st.floats(0.0, 2e4),
            ),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_tbs_on_batch_equals_per_record_on_tbs(window, batches):
    batched, per_record = TbsBandwidthEstimator(window), TbsBandwidthEstimator(window)
    for pairs in batches:
        batch = [DiagRecord(0.0, level, tbs) for level, tbs in pairs]
        level_sum = batched.on_batch(batch)
        want = 0.0
        for record in batch:
            per_record.on_tbs(record.tbs_bytes)
            want += record.buffer_bytes
        assert level_sum.hex() == want.hex()
        assert batched._sum.hex() == per_record._sum.hex()
        assert list(batched._tbs) == list(per_record._tbs)


def test_tbs_on_batch_cancels_left_to_right():
    """A compensated sum reads a level sum and a window sum of 1.0 here."""
    estimator = TbsBandwidthEstimator(3)
    batch = [DiagRecord(0.0, v, v) for v in (1e16, 1.0, -1e16)]
    assert estimator.on_batch(batch) == 0.0
    assert estimator._sum == 0.0
