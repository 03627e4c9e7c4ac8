"""Differential fuzzing of the lockstep ``*Array`` twins against their
scalar references.

The batched engines are bit-exact with the scalar lockstep session only
because each array twin performs its scalar class's float64 operations
in the same order.  End-to-end cohorts exercise that on a few hand-picked
configs; these tests drive each twin and its scalar reference with the
same random operation sequences — edges included (zero and sub-epsilon
grants, cap drops, ring wrap, rate 0, stale-frame expiry, CQI 0, zero
PRB claims, back-to-back handovers, loads clamped at both ends) — and
require identical state and outputs after every step.  The scalar
references are the model classes both engines run, built with the
lockstep engines' :class:`~repro.sim.blocks.BlockDraws`.

The event engine's :class:`~repro.rate_control.fbcc.controller.
FbccTransport` is fuzzed against the FBCC loop as the scalar lockstep
session drives it, report by report.  The receiver's post-run
:meth:`~repro.telephony.uplink.ReceiverState.replay` is fuzzed against
the live playout heap both engines ran inside their tick loops before
it (kept here as the oracle).
"""

import heapq
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import (
    CellConfig,
    ChannelConfig,
    FbccConfig,
    FleetConfig,
    GccConfig,
    LteConfig,
    VideoConfig,
)
from repro.lte.cell import CellLoadArray, CellLoadProcess, LOAD_MAX, LOAD_MIN
from repro.lte.channel import ChannelArray, ChannelProcess
from repro.lte.diagnostics import DiagRecord
from repro.lte.firmware_buffer import _RING_SLOTS, FirmwareBuffer, FirmwareBufferArray
from repro.lte.scheduler import EnbScheduler, SchedulerArray
from repro.lte.shared_cell import SharedCell, SharedCellArray
from repro.metrics.summary import SessionLog
from repro.rate_control.fbcc.bandwidth import TbsBandwidthEstimator
from repro.rate_control.fbcc.controller import FbccLoop, FbccTransport
from repro.rate_control.fbcc.batch import (
    DetectorArray,
    EncodingHoldArray,
    FallbackRamp,
    RampArray,
    RtpRateArray,
    TbsWindowArray,
)
from repro.rate_control.fbcc.detector import (
    GAMMA_CAP,
    HARD_OVERUSE_LEVEL,
    LEVEL_EPSILON,
    CongestionDetector,
)
from repro.rate_control.fbcc.encoding import EncodingRateControl
from repro.rate_control.fbcc.rtp import RtpRateControl
from repro.rate_control.pacer import (
    _FRAME_SLOTS,
    MIN_BURST_BYTES,
    FramePacer,
    PacedSenderArray,
)
from repro.sim.blocks import (
    BlockDraws,
    BlockStream,
    BlockStreamArray,
    lognormal_transform,
    uniform_transform,
)
from repro.sim.rng import RngRegistry
from repro.telephony.uplink import MS, ReceiverState, _Pkt, batch_unsupported_reason
from repro.units import BITS_PER_BYTE
from repro.video.quality import psnr_from_bpp

from tests.test_batch import lockstep_config

FUZZ = settings(max_examples=60, deadline=None)

sessions = st.integers(1, 4)


# -- FirmwareBufferArray vs FirmwareBuffer --------------------------------

#: Packet sizes: ordinary, tiny and sub-epsilon.
packet_sizes = st.one_of(
    st.floats(1.0, 1500.0),
    st.floats(1e-13, 1e-8),
    st.sampled_from([1200.0, 1e-12, 5e-10]),
)

#: A drain grant: absolute bytes (zero, sub-1e-12, ordinary, large), or
#: the head packet's remainder minus a sub-1e-9 residue.
grant_specs = st.one_of(
    st.tuples(st.just("abs"), st.sampled_from([0.0, 1e-13, 9e-13])),
    st.tuples(st.just("abs"), st.floats(0.0, 6000.0)),
    st.tuples(st.just("head"), st.floats(0.0, 2e-9)),
)


def _resolve_grant(spec, buffer: FirmwareBuffer) -> float:
    kind, value = spec
    if kind == "abs":
        return value
    head = buffer._queue[0][1] if buffer._queue else 0.0
    return max(0.0, head - value)


class FirmwarePair:
    """N scalar buffers and one array twin driven in step; the scalar
    ``_Pkt.completes`` carries the flag the array stores."""

    def __init__(self, caps):
        self.scalars = [FirmwareBuffer(cap) for cap in caps]
        self.array = FirmwareBufferArray(np.array(caps, dtype=float))
        self.next_frame = 0

    def push(self, rows, sizes, lasts):
        frames = np.arange(self.next_frame, self.next_frame + len(rows))
        self.next_frame += len(rows)
        accepted = self.array.push(
            np.array(rows, dtype=np.int64),
            np.array(sizes, dtype=float),
            frames,
            np.array(lasts, dtype=bool),
        )
        expected = [
            self.scalars[s].push(_Pkt(size, int(fid), last))
            for s, size, fid, last in zip(rows, sizes, frames, lasts)
        ]
        assert accepted.tolist() == expected

    def drain(self, rows, grant_specs_):
        grants = [
            _resolve_grant(spec, self.scalars[s]) for s, spec in zip(rows, grant_specs_)
        ]
        sent = self.array.drain_rows(
            np.array(rows, dtype=np.int64), np.array(grants, dtype=float)
        )
        got = {s: [] for s in rows}
        if sent is not None:
            # One concatenated result: each session's packets, picked out
            # in order, must be the scalar FIFO's.
            for s, fid, completes, size in zip(*(column.tolist() for column in sent)):
                got[s].append((fid, completes, size))
        for s, grant in zip(rows, grants):
            completed = self.scalars[s].drain(grant)
            assert got[s] == [(p.frame_id, p.completes, p.size_bytes) for p in completed]

    def check(self):
        array = self.array
        for s, scalar in enumerate(self.scalars):
            assert array.level[s] == scalar.level
            assert int(array._count[s]) == len(scalar)
            # The head stays inside the session's slice of the flat ring.
            assert s * _RING_SLOTS <= array._head[s] < (s + 1) * _RING_SLOTS
            assert int(array.dropped_packets[s]) == scalar.dropped_packets
            assert array.dropped_bytes[s] == scalar.dropped_bytes


@st.composite
def firmware_ops(draw):
    n = draw(sessions)
    caps = draw(st.lists(st.floats(1000.0, 20000.0), min_size=n, max_size=n))
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        if draw(st.booleans()):
            sizes = [draw(packet_sizes) for _ in rows]
            lasts = [draw(st.booleans()) for _ in rows]
            ops.append(("push", rows, sizes, lasts))
        else:
            ops.append(("drain", rows, [draw(grant_specs) for _ in rows]))
    return caps, ops


@FUZZ
@given(firmware_ops())
def test_firmware_buffer_array_matches_scalar(case):
    caps, ops = case
    pair = FirmwarePair(caps)
    for op in ops:
        getattr(pair, op[0])(*op[1:])
        pair.check()


@FUZZ
@given(seed=st.integers(0, 2**32 - 1), n=sessions)
def test_firmware_ring_wraps_like_the_scalar_fifo(seed, n):
    """Hundreds of pushes per session wrap each session's 256 slots of
    the flat ring into its own first slot, not the next session's."""
    rng = np.random.default_rng(seed)
    pair = FirmwarePair([20000.0] * n)
    rows = list(range(n))
    for _ in range(2 * _RING_SLOTS):
        sizes = rng.uniform(1.0, 1500.0, n).tolist()
        pair.push(rows, sizes, (rng.random(n) < 0.3).tolist())
        specs = [("abs", g) for g in rng.uniform(0.0, 1600.0, n).tolist()]
        pair.drain(rows, specs)
        pair.check()
    # More than _RING_SLOTS accepted pushes per session: the ring wrapped.
    assert (pair.array.dropped_packets < _RING_SLOTS).all()


# -- PacedSenderArray vs FramePacer ---------------------------------------

#: Pacing rates (bps): zero, negative (clamped to 0), starved enough to
#: expire stale frames, and ordinary.
pacing_rates = st.one_of(
    st.sampled_from([0.0, -1.0e5]),
    st.floats(1.0e3, 1.0e5),
    st.floats(1.0e5, 8.0e6),
)


#: A payload equal to the burst floor lets a saturated budget exactly
#: equal the packet size (the size-vs-budget break's boundary).
payload_sizes = st.one_of(st.integers(200, 1400), st.just(int(MIN_BURST_BYTES)))
frame_sizes = st.one_of(
    st.floats(0.0, 40000.0), st.sampled_from([MIN_BURST_BYTES, 2 * MIN_BURST_BYTES])
)


@st.composite
def pacer_ops(draw):
    n = draw(sessions)
    payloads = draw(st.lists(payload_sizes, min_size=n, max_size=n))
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        if draw(st.integers(0, 2)) == 0:
            ops.append(("enqueue", draw(st.lists(frame_sizes, min_size=n, max_size=n))))
        else:
            ops.append(("tick", draw(st.lists(pacing_rates, min_size=n, max_size=n))))
    return payloads, ops


@FUZZ
@given(pacer_ops())
def test_paced_sender_array_matches_grid_pacer(case):
    payloads, ops = case
    n = len(payloads)
    scalars = [FramePacer(p) for p in payloads]
    array = PacedSenderArray(np.array(payloads))
    next_fid = 0
    for kind, values in ops:
        if kind == "enqueue":
            if max(len(p.frames) for p in scalars) >= _FRAME_SLOTS - 1:
                continue
            array.enqueue_all(next_fid, np.array(values))
            for pacer, size in zip(scalars, values):
                pacer.enqueue(next_fid, size)
            next_fid += 1
            continue
        got = [[] for _ in range(n)]
        for rows, fids, sizes, lasts in array.tick(np.array(values)):
            for s, fid, size, last in zip(
                rows.tolist(), fids.tolist(), sizes.tolist(), lasts.tolist()
            ):
                got[s].append((fid, size, last))
        for s, (pacer, rate) in enumerate(zip(scalars, values)):
            emitted = []
            pacer.refill(rate)
            pacer.drain(lambda fid, size, last: emitted.append((fid, size, bool(last))))
            assert got[s] == emitted
        for s, pacer in enumerate(scalars):
            assert array._budget[s] == pacer.budget
            assert array._queued[s] == pacer.queued_bytes
            assert int(array._count[s]) == len(pacer.frames)
            assert int(array.dropped_frames[s]) == pacer.dropped_frames
            assert s * _FRAME_SLOTS <= array._head[s] < (s + 1) * _FRAME_SLOTS


@FUZZ
@given(seed=st.integers(0, 2**32 - 1), n=sessions)
def test_pacer_ring_wraps_like_the_scalar_queue(seed, n):
    """Hundreds of frames per session wrap each session's slice of the
    flat pacer ring, stale-frame expiry included."""
    rng = np.random.default_rng(seed)
    scalars = [FramePacer(1200) for _ in range(n)]
    array = PacedSenderArray(np.full(n, 1200))
    for fid in range(3 * _FRAME_SLOTS):
        sizes = rng.uniform(0.0, 6000.0, n)
        array.enqueue_all(fid, sizes)
        for pacer, size in zip(scalars, sizes.tolist()):
            pacer.enqueue(fid, size)
        rates = rng.uniform(5.0e4, 3.0e6, n)
        got = [[] for _ in range(n)]
        for rows, fids, sizes, lasts in array.tick(rates):
            for s, f, size, last in zip(
                rows.tolist(), fids.tolist(), sizes.tolist(), lasts.tolist()
            ):
                got[s].append((f, size, last))
        for s, (pacer, rate) in enumerate(zip(scalars, rates.tolist())):
            emitted = []
            pacer.refill(rate)
            pacer.drain(lambda f, size, last: emitted.append((f, size, bool(last))))
            assert got[s] == emitted
            assert array._queued[s] == pacer.queued_bytes
            assert int(array.dropped_frames[s]) == pacer.dropped_frames
            assert s * _FRAME_SLOTS <= array._head[s] < (s + 1) * _FRAME_SLOTS


# -- BlockStreamArray.take vs BlockStream.next ----------------------------


@FUZZ
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
    block=st.integers(1, 9),
    picks=st.lists(st.lists(st.booleans(), min_size=5, max_size=5), max_size=40),
)
def test_block_stream_array_take_matches_scalar_streams(seeds, block, picks):
    """Uneven per-session consumption across refills keeps every
    session's sequence equal to its scalar stream."""
    n = len(seeds)
    transforms = [lognormal_transform(0.1 + 0.05 * s) for s in range(n)]
    array = BlockStreamArray(
        [np.random.default_rng(seed) for seed in seeds], transforms, block
    )
    scalars = [
        BlockStream(np.random.default_rng(seed), transform, block)
        for seed, transform in zip(seeds, transforms)
    ]
    for mask in picks:
        idx = np.nonzero(np.array(mask[:n]))[0]
        taken = array.take(idx).tolist()
        assert taken == [scalars[s].next() for s in idx.tolist()]


@FUZZ
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
    block=st.integers(1, 9),
    steps=st.integers(0, 30),
)
def test_block_stream_array_take_all_matches_scalar_streams(seeds, block, steps):
    array = BlockStreamArray(
        [np.random.default_rng(seed) for seed in seeds],
        [uniform_transform()] * len(seeds),
        block,
        aligned=True,
    )
    scalars = [
        BlockStream(np.random.default_rng(seed), uniform_transform(), block)
        for seed in seeds
    ]
    for _ in range(steps):
        assert array.take_all().tolist() == [s.next() for s in scalars]


# -- SchedulerArray vs EnbScheduler ---------------------------------------


class _BudgetView:
    """Scalar claim hook: at most ``budget`` PRBs this subframe."""

    def __init__(self):
        self.budget = 0

    def claim_prbs(self, prbs: int) -> int:
        return min(prbs, self.budget)


class _BudgetRows:
    """Array claim hook with per-session budgets (the scalar views')."""

    def __init__(self, views):
        self.views = views

    def claim_rows(self, rows: np.ndarray, prbs: np.ndarray) -> np.ndarray:
        budgets = np.array([float(self.views[s].budget) for s in rows.tolist()])
        return np.minimum(prbs, budgets)


@st.composite
def scheduler_ops(draw):
    n = draw(sessions)
    speeds = draw(st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**31 - 1))
    claimed = draw(st.booleans())
    subframes = []
    for _ in range(draw(st.integers(1, 80))):
        subframes.append(
            [
                (
                    draw(st.one_of(st.just(0.0), st.floats(1.0, 60000.0))),
                    draw(st.one_of(st.just(0.0), st.floats(1.0, 60000.0))),
                    draw(st.integers(0, 15)),
                    draw(st.floats(0.0, 0.95)),
                    draw(st.one_of(st.just(0), st.integers(1, 40))),
                )
                for _ in range(n)
            ]
        )
    return speeds, seed, claimed, subframes


def _lte_configs(speeds):
    base = LteConfig()
    return [
        replace(base, channel=replace(base.channel, speed_mph=speed)) for speed in speeds
    ]


def _streams(seed, n):
    registries = [RngRegistry(seed + s) for s in range(n)]
    return [
        (lambda name, registry=registry: registry.stream("batch." + name))
        for registry in registries
    ]


@FUZZ
@given(scheduler_ops())
def test_scheduler_array_matches_grid_scheduler(case):
    """Reported 0, CQI 0 and zero PRB claims must leave both engines'
    burst counters and stream cursors aligned."""
    speeds, seed, claimed, subframes = case
    n = len(speeds)
    configs = _lte_configs(speeds)
    scalars = [
        EnbScheduler(config, BlockDraws(stream, block=16))
        for config, stream in zip(configs, _streams(seed, n))
    ]
    array = SchedulerArray(configs, _streams(seed, n), block=16)
    views = [_BudgetView() for _ in range(n)]
    cells = None
    if claimed:
        for scheduler, view in zip(scalars, views):
            scheduler.attach_cell(view)
        cells = _BudgetRows(views)
    for subframe in subframes:
        reported, actual, cqi, load, budget = (np.array(col) for col in zip(*subframe))
        for view, prbs in zip(views, budget.tolist()):
            view.budget = prbs
        rows, grants = array.serve_subframe(
            reported.astype(float),
            actual.astype(float),
            cqi.astype(np.int64),
            cqi > 0,
            load.astype(float),
            cells=cells,
        )
        dense = np.zeros(n)
        dense[rows] = grants
        expected = [
            scheduler.grant_for_subframe(*row[:4])
            for scheduler, row in zip(scalars, subframe)
        ]
        assert dense.tolist() == expected
        for s, scheduler in enumerate(scalars):
            assert int(array._burst_left[s]) == scheduler._burst_left
            assert int(array._idle_left[s]) == scheduler._idle_left


# -- ChannelArray vs ChannelProcess ----------------------------------------

#: Deep-fade rates per minute: none, ordinary, and so high that a fade
#: starts on almost every update once the previous one ends.
fade_rates = st.one_of(st.just(0.0), st.floats(0.5, 30.0), st.floats(1000.0, 6000.0))


@st.composite
def channel_configs(draw):
    low = draw(st.floats(0.0, 0.1))
    return ChannelConfig(
        rss_dbm=draw(st.floats(-125.0, -55.0)),
        shadow_sigma_db=draw(st.floats(0.0, 12.0)),
        shadow_corr_time=draw(st.floats(0.05, 10.0)),
        speed_mph=draw(st.one_of(st.sampled_from([0.0, 80.0]), st.floats(0.0, 80.0))),
        # Up to ~1 handover per update at speed; an outage shorter than
        # the update interval lets the next one fire back to back.
        handover_rate_per_min_at_30mph=draw(
            st.one_of(st.just(0.0), st.floats(1.0, 30.0), st.floats(1000.0, 4000.0))
        ),
        handover_outage=draw(st.sampled_from([0.0, 0.01, 0.02, 0.3])),
        deep_fade_rate_per_min=draw(fade_rates),
        deep_fade_depth_db=draw(st.floats(0.0, 30.0)),
        deep_fade_duration=(low, low + draw(st.floats(0.0, 0.2))),
    )


@FUZZ
@given(
    configs=st.lists(channel_configs(), min_size=1, max_size=4),
    seed=st.integers(0, 2**31 - 1),
    block=st.integers(1, 9),
    updates=st.integers(1, 120),
)
def test_channel_array_matches_channel_process(configs, seed, block, updates):
    n = len(configs)
    scalars = [
        ChannelProcess(config, BlockDraws(stream, block))
        for config, stream in zip(configs, _streams(seed, n))
    ]
    array = ChannelArray(configs, _streams(seed, n), block)
    for k in range(1, updates + 1):
        now = 20 * k * 1e-3  # the lockstep engines' 50 Hz tick instants
        array.update(now)
        for channel in scalars:
            channel.update(now)
        positive, cqi_value = array.cqi_state(now)
        assert array.effective_cqi(now).tolist() == [c.cqi(now) for c in scalars]
        for s, channel in enumerate(scalars):
            assert array.shadow[s] == channel.shadow_db
            assert array.outage_until[s] == channel.outage_until
            assert array.fade_db[s] == channel.fade_db
            assert array.fade_until[s] == channel.fade_until
            assert int(array.cqi_value[s]) == channel.cqi_value
            assert bool(positive[s]) == (now > channel.outage_until)
            assert int(cqi_value[s]) == channel.cqi_value


# -- CellLoadArray vs CellLoadProcess --------------------------------------


@st.composite
def cell_configs(draw):
    return CellConfig(
        background_load=draw(
            st.one_of(st.sampled_from([0.0, LOAD_MAX, 1.0]), st.floats(0.0, 1.0))
        ),
        # Wide fluctuations push the load against both clamps.
        load_sigma=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        load_corr_time=draw(st.floats(0.05, 20.0)),
    )


@FUZZ
@given(
    configs=st.lists(cell_configs(), min_size=1, max_size=4),
    seed=st.integers(0, 2**31 - 1),
    block=st.integers(1, 9),
    updates=st.integers(1, 80),
)
def test_cell_load_array_matches_cell_load_process(configs, seed, block, updates):
    n = len(configs)
    scalars = [
        CellLoadProcess(config, BlockDraws(stream, block))
        for config, stream in zip(configs, _streams(seed, n))
    ]
    array = CellLoadArray(configs, _streams(seed, n), block)
    for _ in range(updates):
        array.update()
        for cell in scalars:
            cell.update()
        for s, cell in enumerate(scalars):
            assert array.load[s] == cell.load
            assert array._deviation[s] == cell._deviation
            assert LOAD_MIN <= cell.load <= LOAD_MAX


# -- SharedCellArray vs SharedCell ----------------------------------------


@st.composite
def fleet_configs(draw):
    crowd = draw(st.booleans())
    return FleetConfig(
        ues=1,
        prb_budget=draw(st.integers(1, 50)),
        share_time_constant=draw(st.floats(0.0005, 2.0)),
        pf_weight_max=draw(st.floats(1.0, 8.0)),
        background_ues=draw(st.integers(1, 8)) if crowd else 0,
        background_load=draw(st.floats(0.0, 1.0)) if crowd else 0.0,
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class _Fallbacks:
    """Per-member fallback loads: one flat array for the cell array, one
    ``.load`` view per member for the scalar cells."""

    class _View:
        def __init__(self, owner, index):
            self._owner = owner
            self._index = index

        @property
        def load(self) -> float:
            return float(self._owner.load[self._index])

    def __init__(self, size):
        self.load = np.zeros(size)

    def view(self, index):
        return self._View(self, index)


@FUZZ
@given(
    cells=st.lists(
        st.tuples(fleet_configs(), st.integers(1, 6)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
    serve=st.floats(0.0, 1.0),
    start=st.integers(1, 100),
    ticks=st.integers(1, 150),
)
def test_shared_cell_array_matches_shared_cells(cells, seed, serve, start, ticks):
    """Ragged member counts, budgets down to 1 PRB, background crowds and
    random claims: loads, budgets, grants and shares equal one
    :class:`SharedCell` per cell, driven by ``begin_tick``, after every
    tick."""
    fleets = [fleet for fleet, _ in cells]
    counts = [count for _, count in cells]
    fallbacks = _Fallbacks(sum(counts))
    array = SharedCellArray(fleets, counts, fallbacks)
    scalars = [SharedCell(fleet) for fleet in fleets]
    members = []  # flat session -> (scalar cell, member index)
    for cell, count in zip(scalars, counts):
        for _ in range(count):
            view = cell.add_member(fallbacks.view(len(members)))
            members.append((cell, view.index))
    rng = np.random.default_rng(seed)
    for k in range(start, start + ticks):
        now = k * 1e-3
        fallbacks.load[:] = rng.choice(
            [0.0, LOAD_MAX, 1.0, rng.random()], len(members)
        )
        loads = array.member_loads(k, now)
        for cell in scalars:
            cell.begin_tick(k, now)
        assert loads.tolist() == [cell.load_for(index, now) for cell, index in members]
        assert array.budget_left.tolist() == [cell.budget_left for cell in scalars]
        rows = np.nonzero(rng.random(len(members)) < serve)[0]
        if rows.size:
            demands = rng.integers(1, 60, size=rows.size)
            grants = array.claim_rows(rows, demands.astype(np.float64))
            expected = [
                members[row][0].claim(members[row][1], int(demand), now)
                for row, demand in zip(rows.tolist(), demands.tolist())
            ]
            assert grants.tolist() == [float(g) for g in expected]
        assert array.budget_left.tolist() == [cell.budget_left for cell in scalars]
        width = max(counts)
        for c, (cell, count) in enumerate(zip(scalars, counts)):
            assert array._shares[c].tolist() == cell._shares + [0.0] * (width - count)


# -- FBCC array twins vs their scalar classes -----------------------------
#
# Cohorts run narrow (1-4 sessions) and wider than 64, since whole
# signature groups now share one tick loop by default.  Per-step inputs
# come from a seeded generator: hypothesis picks the seed, the cohort
# width and the shape of the input mix.

cohort_widths = st.one_of(st.integers(1, 4), st.integers(65, 96))


def _levels(rng, n, steps, hard_share):
    """Per-session buffer-level traces mixing steady growth runs (some by
    exactly LEVEL_EPSILON, the increase threshold), noise, drains and
    jumps past the hard-overuse level."""
    levels = np.zeros((steps, n))
    level = rng.uniform(0.0, 20000.0, n)
    for t in range(steps):
        mode = rng.integers(0, 5, n)
        step = np.select(
            [mode == 0, mode == 1, mode == 2, mode == 3],
            [
                rng.uniform(0.0, 900.0, n),
                np.full(n, LEVEL_EPSILON),
                rng.normal(0.0, 600.0, n),
                -rng.uniform(0.0, 2000.0, n),
            ],
            rng.uniform(0.0, 3000.0, n),
        )
        level = np.clip(level + step, 0.0, 64 * 1024.0)
        jump = rng.random(n) < hard_share
        level[jump] = rng.uniform(HARD_OVERUSE_LEVEL - 2000.0, 40000.0, jump.sum())
        levels[t] = level
    return levels


@FUZZ
@given(
    n=cohort_widths,
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 12),
    steps=st.integers(1, 160),
    hard_share=st.sampled_from([0.0, 0.02, 0.2]),
)
def test_detector_array_matches_congestion_detector(n, seed, k, steps, hard_share):
    """Eq. (3): fired flags, detection counts and Γ after every report,
    hot-window re-triggers and the hard-overuse path included."""
    rng = np.random.default_rng(seed)
    interval = 0.040
    configs = [
        FbccConfig(k_consecutive=k, gamma_time_constant=float(tc))
        for tc in rng.choice([0.08, 0.5, 2.0, 10.0], n)
    ]
    scalars = [CongestionDetector(c, report_interval=interval) for c in configs]
    array = DetectorArray(
        n, k, np.array([interval / c.gamma_time_constant for c in configs])
    )
    for levels in _levels(rng, n, steps, hard_share):
        fired = array.on_report_level(levels)
        for s, detector in enumerate(scalars):
            assert bool(fired[s]) == detector.on_report_level(float(levels[s]))
            assert array.detections[s] == detector.detections
            assert min(GAMMA_CAP, array._gamma[s]) == detector.gamma


@FUZZ
@given(
    n=cohort_widths,
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 120),
    congest_share=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_ramp_array_matches_fallback_ramp(n, seed, steps, congest_share):
    """The AIMD fallback ramp: drop backoffs, growth capped at max_rate,
    and congestion clamps whose held rate falls under the ramp floor."""
    rng = np.random.default_rng(seed)
    floor = rng.choice([0.15e6, 0.3e6, 1e6], n)
    ceiling = floor + rng.uniform(0.5e6, 6e6, n)
    start = rng.uniform(floor, ceiling)
    beta = rng.choice([0.5, 0.85, 0.95], n)
    growth = 1.0 + rng.choice([0.0, 0.002, 0.08], n)
    scalars = [
        FallbackRamp(*params) for params in zip(start, floor, ceiling, beta, growth)
    ]
    array = RampArray(start, floor, ceiling, beta, growth)
    for _ in range(steps):
        drops = rng.choice([0, 0, 0, 1, 4], n)
        congested = rng.random(n) < congest_share
        # Held rates straddle the floor, so the max(min_rate, ...) clamp
        # both binds and does not.
        held = floor * rng.choice([0.0, 0.5, 1.0, 1.7, 40.0], n)
        array.on_batch(drops, congested, held)
        for s, ramp in enumerate(scalars):
            ramp.on_batch(int(drops[s]), bool(congested[s]), float(held[s]))
        assert array.rate.tolist() == [ramp.rate for ramp in scalars]
        assert (array.rate >= floor).all()


@FUZZ
@given(
    n=cohort_widths,
    seed=st.integers(0, 2**32 - 1),
    window=st.integers(1, 40),
    records=st.integers(1, 200),
)
def test_tbs_window_array_matches_bandwidth_estimator(n, seed, window, records):
    """Eq. (4): the running TBS sum over the last W subframes, through
    the fill phase and ring wrap, with idle (zero) and tiny grants."""
    rng = np.random.default_rng(seed)
    scalars = [TbsBandwidthEstimator(window) for _ in range(n)]
    array = TbsWindowArray(n, window)
    assert array.rate_bps().tolist() == [e.rate_bps for e in scalars]
    for _ in range(records):
        tbs = rng.choice([0.0, 1e-9, 1.0, 777.0, rng.uniform(0.0, 9000.0)], n)
        array.on_record(tbs)
        for s, estimator in enumerate(scalars):
            estimator.on_tbs(float(tbs[s]))
        assert array.rate_bps().tolist() == [e.rate_bps for e in scalars]


@FUZZ
@given(
    n=cohort_widths,
    seed=st.integers(0, 2**32 - 1),
    batches=st.integers(1, 120),
)
def test_rtp_rate_array_matches_rtp_rate_control(n, seed, batches):
    """Eq. (7) with a fixed B*: corrections both ways, the video-rate
    floor and both clamps."""
    rng = np.random.default_rng(seed)
    interval = float(rng.choice([0.020, 0.040]))
    configs = [
        FbccConfig(
            target_buffer=float(target),
            rtp_min_rate=float(low),
            rtp_max_rate=float(low + span),
        )
        for target, low, span in zip(
            rng.choice([2048.0, 10240.0, 30000.0], n),
            rng.choice([0.05e6, 0.1e6, 1e6], n),
            rng.choice([0.5e6, 4e6, 20e6], n),
        )
    ]
    initial = rng.uniform(0.1e6, 5e6, n)
    video = np.zeros(n)
    scalars = [
        RtpRateControl(
            config, float(initial[s]), interval, video_rate=lambda s=s: float(video[s])
        )
        for s, config in enumerate(configs)
    ]
    array = RtpRateArray(
        initial,
        np.array([c.target_buffer for c in configs]),
        interval,
        np.array([c.rtp_min_rate for c in configs]),
        np.array([c.rtp_max_rate for c in configs]),
    )
    for _ in range(batches):
        levels = rng.choice([0.0, 64 * 1024.0, rng.uniform(0.0, 40000.0)], n)
        video[:] = rng.choice([0.0, 0.3e6, rng.uniform(0.0, 20e6)], n)
        array.on_batch(levels, video)
        for s, control in enumerate(scalars):
            control.on_level(float(levels[s]), 0.0)
        assert array.rate.tolist() == [control.rate for control in scalars]


@FUZZ
@given(
    n=cohort_widths,
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 150),
    congest_share=st.sampled_from([0.0, 0.05, 0.4]),
)
def test_encoding_hold_array_matches_encoding_rate_control(
    n, seed, steps, congest_share
):
    """Eq. (6): held rates, hold expiry (including reads at exactly the
    expiry instant), re-detection during a hold and event counts."""
    rng = np.random.default_rng(seed)
    rtt = 0.1
    configs = [
        FbccConfig(phy_rate_margin=float(margin), hold_rtts=float(rtts))
        for margin, rtts in zip(
            rng.choice([0.5, 0.85, 1.0], n), rng.choice([0.0, 1.0, 2.0, 3.5], n)
        )
    ]
    fallback = np.zeros(n)
    scalars = [
        EncodingRateControl(c, gcc_rate=lambda s=s: float(fallback[s]), rtt=lambda: rtt)
        for s, c in enumerate(configs)
    ]
    array = EncodingHoldArray(
        n,
        np.array([c.phy_rate_margin for c in configs]),
        np.array([c.hold_rtts * rtt for c in configs]),
    )
    now = 0.0
    for _ in range(steps):
        now += float(rng.choice([0.001, 0.040, 0.2]))
        fallback[:] = rng.uniform(0.1e6, 5e6, n)
        fired = np.nonzero(rng.random(n) < congest_share)[0]
        if fired.size:
            phy = rng.choice([0.0, rng.uniform(0.1e6, 8e6)], fired.size)
            array.on_congestion(fired, phy, now)
            for s, rate in zip(fired.tolist(), phy.tolist()):
                scalars[s].on_congestion(rate, now)
        for probe in (now, now + 0.1, now + 0.2):
            rates = array.rate(probe, fallback)
            assert rates.tolist() == [c.rate(probe) for c in scalars]
        assert array.held.tolist() == [c.held_rate for c in scalars]
        assert array.congestion_events.tolist() == [
            c.congestion_events for c in scalars
        ]


# -- Event FbccTransport vs the lockstep FbccLoop --------------------------


@FUZZ
@given(
    seed=st.integers(0, 2**32 - 1),
    diag_interval=st.sampled_from([0.040, 0.020]),
    k=st.integers(2, 12),
    reports=st.integers(2, 120),
    hard_share=st.sampled_from([0.0, 0.01]),
)
@example(seed=7, diag_interval=0.020, k=10, reports=60, hard_share=0.01)
def test_event_fbcc_transport_matches_lockstep_fbcc_loop(
    seed, diag_interval, k, reports, hard_share
):
    """One per-subframe (level, TBS) stream, fed to the event transport
    in ``on_diag`` batches and to the FBCC loop as the scalar lockstep
    session drives it (TBS per tick, a running level sum, a report at
    each diag tick), with the fallback rate and the RTT pinned: Γ, the
    congestion flag, the held rate, R_v and R_rtp agree after every
    report, whatever the diag interval."""
    rng = np.random.default_rng(seed)
    ticks = int(round(diag_interval / MS))
    config = FbccConfig(k_consecutive=k)
    gcc = GccConfig()
    clock = SimpleNamespace(now=0.0)
    transport = FbccTransport(clock, config, gcc, diag_interval)
    # Without feedback the event transport's GCC fallback stays put.
    fallback, rtt = transport.gcc.rate, transport.gcc.rtt.rtt
    loop = FbccLoop(
        config, diag_interval, gcc.start_rate, lambda: fallback, lambda: rtt
    )
    levels = _levels(rng, 1, reports * ticks, hard_share)[:, 0].tolist()
    tbs = rng.choice([0.0, 1.0, 777.0, 3000.0], reports * ticks).tolist()
    for report in range(reports):
        batch = []
        level_sum = 0.0
        for tick in range(report * ticks + 1, (report + 1) * ticks + 1):
            level, size = levels[tick - 1], tbs[tick - 1]
            batch.append(DiagRecord(tick * MS, level, size))
            loop.bandwidth.on_tbs(size)
            level_sum += level
        now = (report + 1) * ticks * MS
        clock.now = now
        detections = transport.detector.detections
        transport.on_diag(batch)
        congested = loop.on_report(level_sum / ticks, level, now)
        assert (transport.detector.detections > detections) == congested
        assert transport.detector.gamma == loop.detector.gamma
        assert transport.encoding.held_rate == loop.encoding.held_rate
        assert transport.video_rate == loop.encoding.rate(now)
        assert transport.pacing_rate == loop.rtp.rate
        assert (transport.gcc.rate, transport.gcc.rtt.rtt) == (fallback, rtt)


# -- ReceiverState.replay vs the live playout heap ------------------------


class _HeapReceiver:
    """The live receiver both lockstep engines ran inside their tick
    loops before the post-run replay: a jitter EWMA per completion, a
    playout heap, and a flush of every due frame at each tick."""

    def __init__(self, video: VideoConfig, clock_offset: float):
        self._video = video
        self._clock_offset = clock_offset
        self._jitter = 0.0
        self._last_transit = None
        self._heap = []
        self._last_capture = -1.0
        self.shown_sizes = []

    def on_frame_complete(self, arrival, capture, size_bytes):
        video = self._video
        transit = arrival - capture
        if self._last_transit is not None:
            deviation = abs(transit - self._last_transit)
            self._jitter += (deviation - self._jitter) / 16.0
        self._last_transit = transit
        playout = min(
            video.playout_max,
            max(video.playout_min, video.jitter_multiplier * self._jitter),
        )
        display_time = arrival + video.decode_latency + playout
        heapq.heappush(self._heap, (display_time, capture, size_bytes))

    def flush(self, now, log):
        heap = self._heap
        while heap and heap[0][0] <= now:
            display_time, capture, size_bytes = heapq.heappop(heap)
            log.frame_delays.append((display_time + self._clock_offset) - capture)
            if capture <= self._last_capture:
                continue
            self._last_capture = capture
            log.frames_displayed += 1
            log.display_times.append(display_time)
            self.shown_sizes.append(size_bytes)


def _live_playout(video, clock_offset, completions, total_ticks, warm_ticks):
    """Drive :class:`_HeapReceiver` with the engines' old tick phases:
    completions (phase 1), due displays (phase 2), warm-up reset."""
    log = SessionLog()
    receiver = _HeapReceiver(video, clock_offset)
    due = {}
    for tick, capture, size in completions:
        due.setdefault(tick, []).append((capture, size))
    for k in range(1, total_ticks + 1):
        now = k * MS
        for capture, size in due.get(k, ()):
            receiver.on_frame_complete(now, capture, size)
        receiver.flush(now, log)
        if k == warm_ticks:
            log.reset()
            receiver.shown_sizes.clear()
    pixels = float(video.width * video.height)
    log.roi_psnrs = [
        psnr_from_bpp(size * BITS_PER_BYTE / pixels, video)
        for size in receiver.shown_sizes
    ]
    log.roi_levels = [(t, 1.0) for t in log.display_times]
    return log


#: Latencies on and off the 1 ms grid, zero included (a zero decode
#: latency and playout bound display a frame at its completion tick).
latencies = st.one_of(
    st.sampled_from([0.0, 0.003, 0.03, 0.045]), st.floats(0.0, 0.2)
)


@st.composite
def playout_cases(draw):
    """A video config's playout knobs, a run length, a warm-up (none,
    mid-run, or the whole run) and completions in tick order.  Captures
    trail their arrivals by random transits, so jitter rises and falls
    and later frames can display first; repeated captures and sizes give
    equal display times and superseded frames; completions near the
    last tick fall due after it."""
    knobs = dict(
        decode_latency=draw(latencies),
        playout_min=draw(latencies),
        playout_max=draw(latencies),
        jitter_multiplier=draw(st.sampled_from([0.0, 1.0, 5.0, 37.5])),
    )
    total_ticks = draw(st.integers(1, 400))
    warm_ticks = draw(
        st.one_of(st.just(0), st.integers(1, total_ticks), st.just(total_ticks))
    )
    count = draw(st.integers(0, 60))
    ticks = sorted(
        draw(st.lists(st.integers(1, total_ticks), min_size=count, max_size=count))
    )
    completions = []
    for tick in ticks:
        capture_tick = draw(st.integers(max(0, tick - 250), tick))
        size = draw(
            st.one_of(st.sampled_from([0.0, 900.0, 4000.0]), st.floats(1.0, 6e4))
        )
        completions.append((tick, capture_tick * MS, size))
    return knobs, total_ticks, warm_ticks, completions


@FUZZ
@given(case=playout_cases(), seed=st.integers(0, 2**32 - 1))
@example(  # decode_latency + playout == 0: frames display on completion
    case=(
        dict(decode_latency=0.0, playout_min=0.0, playout_max=0.0,
             jitter_multiplier=5.0),
        6,
        0,
        [(1, 0.0, 900.0), (2, 0.002, 900.0), (2, 0.001, 900.0), (6, 0.004, 0.0)],
    ),
    seed=0,
)
@example(  # falling jitter displays the later frame first; warm-up mid-run
    case=(
        dict(decode_latency=0.045, playout_min=0.0, playout_max=0.2,
             jitter_multiplier=5.0),
        300,
        60,
        [(10, 0.0, 900.0), (50, 0.001, 900.0), (51, 0.040, 900.0), (52, 0.041, 4000.0)],
    ),
    seed=1,
)
def test_receiver_replay_matches_live_playout_heap(case, seed):
    knobs, total_ticks, warm_ticks, completions = case
    video = replace(VideoConfig(), **knobs)
    receiver = ReceiverState(video, np.random.default_rng(seed))
    expected = _live_playout(
        video, receiver.clock_offset, completions, total_ticks, warm_ticks
    )
    table = np.array(
        [(tick * MS, capture, size) for tick, capture, size in completions]
    ).reshape(-1, 3)
    log = SessionLog()
    receiver.replay(
        table[:, 0], table[:, 1], table[:, 2], total_ticks * MS, warm_ticks * MS, log
    )
    assert log.frame_delays == expected.frame_delays
    assert log.display_times == expected.display_times
    assert log.frames_displayed == expected.frames_displayed
    assert log.roi_psnrs == expected.roi_psnrs
    assert log.roi_levels == expected.roi_levels


def test_profile_refuses_negative_display_latencies():
    """The replay relies on a frame never displaying before it arrived."""
    aligned = lockstep_config()
    assert batch_unsupported_reason(aligned) is None
    for knob in ("decode_latency", "playout_min", "playout_max"):
        early = replace(aligned, video=replace(aligned.video, **{knob: -0.001}))
        assert "non-negative" in batch_unsupported_reason(early)
