"""Batched lockstep execution: N sessions per 1 ms subframe step.

The event-driven engine (:mod:`repro.sim.engine`) pays Python's
per-event price for every subframe of every session.  But the uplink
lockstep profile (:mod:`repro.telephony.uplink`) puts *every* cadence on
the shared 1 ms LTE subframe grid, so a whole cohort of sessions can be
advanced one tick at a time with per-session state held in
``(n_sessions,)`` numpy arrays — one set of array ops per tick instead
of ``n`` event dispatches.  That is what :class:`BatchedSimulation`
does, and it is the repo's answer to fleet-scale sweeps: aggregate
sessions/sec grows ~linearly with the cohort size until the arrays
dominate (see docs/PERFORMANCE.md, "Batched lockstep engine").

Equivalence contract
--------------------

A cohort of one MUST reproduce :class:`~repro.telephony.uplink.UplinkSession`
**bit-for-bit** — same seeds, same :class:`SessionResult` numbers — and
a cohort of N must equal N scalar runs.  tests/test_batch.py enforces
both.  The machinery making that possible:

- per-session block-drawn RNG streams (:mod:`repro.sim.blocks`) with
  transforms applied block-wise in both engines;
- ``*Array`` twins that perform the scalar classes' float64 ops in the
  same order (:class:`~repro.lte.ue.UeUplinkArray`,
  :class:`~repro.rate_control.fbcc.batch.DetectorArray`, ...);
- one receiver code path in both engines
  (:class:`~repro.telephony.uplink.ReceiverState`, design rule 3):
  nothing on the sender side reads the viewer, so the tick loop only
  stages each completed undamaged frame (a session row and a frame id
  in flat columns, a count per tick) and every session's receiver
  replays its completions once, after the last tick;
- arrivals staged when the packet is drained: the downstream path is a
  fixed ``deliver_ticks``, so a packet drained at tick ``k`` arrives at
  ``k + deliver_ticks`` and is filed under that tick at once.

Cohorts must be *structurally* homogeneous — same grid cadences, same
detector window, same TBS window (see
:meth:`~repro.telephony.uplink.UplinkProfile.signature`).  Everything
parametric (RSS, speed, load, seeds, rates, margins, targets) may vary
per session; :func:`repro.experiments.batch.run_cohorts` plans
arbitrary sweep grids into valid cohorts.

Shared cells
------------

The cell layer is optional.  :meth:`BatchedSimulation.join_cells` couples
the cohort into C shared cells (docs/FLEET.md), as
:meth:`~repro.telephony.uplink.UplinkSession.join_cell` couples one
scalar session: the flat cohort is the cell-major concatenation of the
cells' member lists, and one :class:`~repro.lte.shared_cell.SharedCellArray`
holds every cell's realized-share EWMAs, computes all members'
PF-coupled loads and clips every PRB grant against the per-cell budgets
in one order-preserving claim pass.  A cohort that joined no cells does
no cell work.  :func:`run_batched_cells` is the cell-block entry point.
Every cell of a block — whatever the member counts of the others —
reproduces the scalar :class:`~repro.telephony.uplink.UplinkCellSession`
to the bit, and a one-member cell equals the plain cohort
(tests/test_batch_cell.py).  Parity with the event-driven
:func:`repro.telephony.fleet.run_cell` is statistical: same contention
model, different clocking.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import FleetConfig, SessionConfig
from repro.lte.shared_cell import SharedCellArray
from repro.lte.ue import UeUplinkArray
from repro.metrics.summary import SessionLog, SessionSummary
from repro.obs.meter import SessionMeter
from repro.rate_control.fbcc.batch import (
    DetectorArray,
    EncodingHoldArray,
    RampArray,
    RtpRateArray,
    TbsWindowArray,
)
from repro.rate_control.pacer import PacedSenderArray
from repro.sim.blocks import BlockStreamArray, lognormal_transform
from repro.sim.rng import RngRegistry
from repro.telephony.fleet import CellResult, cell_result
from repro.telephony.session import SessionResult
from repro.telephony.uplink import (
    MS,
    SAMPLE_TICKS,
    ReceiverState,
    UplinkProfile,
    _ms_aligned,
    _ticks,
    cell_batch_unsupported_reason,
)
from repro.units import BITS_PER_BYTE


def _session_streams(config: SessionConfig):
    registry = RngRegistry(config.seed)
    return lambda name: registry.stream("batch." + name)


#: Arrival-stage capacity per session and simulated second before the
#: columns first grow (the cellular default sends ~115 packets/s).
STAGE_PACKETS_PER_SECOND = 128


def _grown(column: np.ndarray, capacity: int, used: int) -> np.ndarray:
    """A ``capacity``-long copy of ``column`` keeping its first ``used``
    entries."""
    grown = np.empty(capacity, dtype=column.dtype)
    grown[:used] = column[:used]
    return grown


#: Grid ticks between ``progress`` callbacks (5000 ticks = 5 s of
#: simulated time) — frequent enough for live heartbeats, rare enough
#: to stay invisible next to the tick body.
DEFAULT_PROGRESS_TICKS = 5000


class BatchedSimulation:
    """Advance a homogeneous cohort of sessions in 1 ms lockstep."""

    def __init__(self, configs: Sequence[SessionConfig]):
        if not configs:
            raise ValueError("empty cohort")
        profiles = [UplinkProfile.from_config(c) for c in configs]
        signature = profiles[0].signature()
        for config, profile in zip(configs[1:], profiles[1:]):
            if profile.signature() != signature:
                raise ValueError(
                    "cohort is not structurally homogeneous: "
                    f"{profile.signature()} != {signature} "
                    "(every session must share the grid cadences; "
                    "run_cohorts plans a sweep grid into cohorts)"
                )
        self.configs = list(configs)
        self.profile = profiles[0]
        n = self.n = len(self.configs)
        streams = [_session_streams(c) for c in self.configs]

        self._ue = UeUplinkArray([c.lte for c in self.configs], streams)
        self._pacer = PacedSenderArray(
            np.array([float(c.video.rtp_payload) for c in self.configs])
        )
        self._noise = BlockStreamArray(
            [streams[s]("frame.noise") for s in range(n)],
            [lognormal_transform(c.video.size_sigma_base) for c in self.configs],
            aligned=True,
        )
        self._receivers = [
            ReceiverState(c.video, streams[s]("recv"))
            for s, c in enumerate(self.configs)
        ]
        self.logs = [SessionLog() for _ in range(n)]

        fbcc = [c.fbcc for c in self.configs]
        diag_interval = self.profile.diag_interval
        self._bandwidth = TbsWindowArray(n, self.profile.tbs_window)
        self._detector = DetectorArray(
            n,
            self.profile.k_consecutive,
            np.array([diag_interval / f.gamma_time_constant for f in fbcc]),
        )
        self._encoding = EncodingHoldArray(
            n,
            np.array([f.phy_rate_margin for f in fbcc]),
            np.array([p.hold_delta for p in profiles]),
        )
        self._ramp = RampArray(
            np.array([c.gcc.start_rate for c in self.configs]),
            np.array([c.gcc.min_rate for c in self.configs]),
            np.array([c.gcc.max_rate for c in self.configs]),
            np.array([c.gcc.beta for c in self.configs]),
            np.array([p.ramp_growth for p in profiles]),
        )
        self._rtp = RtpRateArray(
            np.array([c.gcc.start_rate for c in self.configs]),
            np.array([f.target_buffer for f in fbcc]),
            diag_interval,
            np.array([f.rtp_min_rate for f in fbcc]),
            np.array([f.rtp_max_rate for f in fbcc]),
        )
        self._kf_factor = np.array([c.video.keyframe_factor for c in self.configs])

        #: Columnar frame table (capture per frame, ``(frames, n)``
        #: sizes and damage flags) and completion stage, sized in
        #: :meth:`run`.
        self._open_frames(0)
        self._next_fid = 0
        self._frame_index = 0
        self._frames_sent = 0
        self._sent_bits = np.zeros(n)
        #: Columnar arrival stage: session row and size of every drained
        #: packet in arrival order, plus a per-arrival-tick packet count
        #: (packets share their tick's time).  Sized in :meth:`run`,
        #: grown by half when full, materialised into each session's
        #: ``log.arrivals`` at the end of the run.
        self._open_stage(0, 0)
        #: (done_tick, frame_id, per-session size_bytes array).
        self._pipe: Deque[Tuple[int, int, np.ndarray]] = deque()
        self._seen_drops = np.zeros(n, dtype=np.int64)
        self._batch_level_sum = np.zeros(n)
        self._sec_tbs = np.zeros(n)
        self._sec_level_sum = np.zeros(n)
        self._last_flush_k = 0
        #: Last tick of the run (set by :meth:`run`): packets due after
        #: it never arrive and are not staged.
        self._total_ticks = 0
        self._baseline_fw_drops = np.zeros(n, dtype=np.int64)
        self._baseline_pacer_drops = np.zeros(n, dtype=np.int64)
        self._baseline_bytes = np.zeros(n)
        #: The shared cells the cohort joined (:meth:`join_cells`).
        self._cells: Optional[SharedCellArray] = None
        #: Per-cell count of subframes that ended with the PRB budget
        #: exhausted, kept by a metered cell run and never read by the
        #: simulation.
        self._prb_exhausted: Optional[np.ndarray] = None

    # -- arrival and completion stages ----------------------------------

    def _open_frames(self, ticks: int) -> None:
        """Size the frame table (flat ``frame * n + row`` columns) and
        the completion stage for ``ticks`` ticks.  A session completes a
        frame at most once, so ``frames * n`` bounds the stage; pages it
        never writes cost no memory."""
        frames = ticks // self.profile.frame_ticks
        self._captures = np.empty(frames)
        self._frame_sizes = np.empty(frames * self.n)
        self._damaged = np.zeros(frames * self.n, dtype=bool)
        self._done_rows = np.empty(frames * self.n, dtype=np.int32)
        self._done_frames = np.empty(frames * self.n, dtype=np.int32)
        self._done_ticks = np.zeros(ticks + 1, dtype=np.int64)
        self._done = 0

    def _open_stage(self, capacity: int, ticks: int) -> None:
        self._stage_rows = np.empty(capacity, dtype=np.int32)
        self._stage_sizes = np.empty(capacity)
        self._stage_ticks = np.zeros(ticks + 1, dtype=np.int64)
        self._staged = 0

    def _stage_sent(self, arrival: int, sent) -> None:
        """Stage one subframe's fully sent packets, which arrive at tick
        ``arrival``, and the frames their last packets complete."""
        rows, frames, completes, sizes = sent
        start = self._staged
        end = start + rows.size
        if end > self._stage_rows.size:
            capacity = max(end, self._stage_rows.size * 3 // 2)
            self._stage_rows = _grown(self._stage_rows, capacity, start)
            self._stage_sizes = _grown(self._stage_sizes, capacity, start)
        self._stage_rows[start:end] = rows
        self._stage_sizes[start:end] = sizes
        self._stage_ticks[arrival] += rows.size
        self._staged = end
        if completes.any():
            rows, frames = rows[completes], frames[completes]
            start = self._done
            end = self._done = start + rows.size
            self._done_rows[start:end] = rows
            self._done_frames[start:end] = frames
            self._done_ticks[arrival] += rows.size

    def _drop_measured_arrivals(self, k: int) -> None:
        """End of warm-up at tick ``k``: drop the staged arrivals due by
        ``k`` and keep those still in flight (the last ones staged)."""
        ticks = self._stage_ticks
        kept = int(ticks[k + 1 :].sum())
        start = self._staged - kept
        self._stage_rows[:kept] = self._stage_rows[start : self._staged]
        self._stage_sizes[:kept] = self._stage_sizes[start : self._staged]
        ticks[: k + 1] = 0
        self._staged = kept

    def _materialise_arrivals(self) -> None:
        """Hand each session its staged arrivals as an ``(m, 2)`` float64
        view of ``(time, bytes)`` rows into one shared array.  One
        stable argsort by session keeps every session's packets in
        arrival order, so the rows equal the scalar engine's; a packet's
        time is ``tick * MS``, the float the tick loop computes.  Each
        column is released once read."""
        m = self._staged
        rows = self._stage_rows[:m]
        order = np.argsort(rows, kind="stable")
        bounds = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=bounds[1:])
        del rows
        self._stage_rows = None
        pairs = np.empty((m, 2))
        np.take(self._stage_sizes, order, out=pairs[:, 1], mode="clip")
        self._stage_sizes = None
        times = np.repeat(np.arange(self._stage_ticks.size) * MS, self._stage_ticks)
        np.take(times, order, out=pairs[:, 0], mode="clip")
        del times, order
        self._stage_ticks = None
        for log, lo, hi in zip(self.logs, bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi > lo:
                log.arrivals = pairs[lo:hi]

    def _replay_receivers(self, total_ticks: int, warm_ticks: int) -> None:
        """Replay every session's receiver over its staged completions,
        in completion order: one stable argsort by session, as for the
        arrivals.  A completion's time is ``tick * MS``, the float the
        tick loop computes.  Releases the frame table."""
        m = self._done
        rows = self._done_rows[:m]
        order = np.argsort(rows, kind="stable")
        bounds = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=bounds[1:])
        frames = self._done_frames[:m][order]
        times = np.repeat(np.arange(self._done_ticks.size) * MS, self._done_ticks)
        arrivals = times[order]
        captures = self._captures[frames]
        sizes = self._frame_sizes[frames.astype(np.int64) * self.n + rows[order]]
        self._open_frames(0)
        end, warm = total_ticks * MS, warm_ticks * MS
        for receiver, log, lo, hi in zip(
            self._receivers, self.logs, bounds[:-1].tolist(), bounds[1:].tolist()
        ):
            receiver.replay(
                arrivals[lo:hi], captures[lo:hi], sizes[lo:hi], end, warm, log
            )

    def _deliver_diag(self, k: int, now: float) -> None:
        # Records of ticks 1..k-1 in the first batch, diag_ticks after.
        mean_level = self._batch_level_sum / min(k - 1, self.profile.diag_ticks)
        congested = self._detector.on_report_level(mean_level)
        fired = np.nonzero(congested)[0]
        if fired.size:
            self._encoding.on_congestion(fired, self._bandwidth.rate_bps()[fired], now)
        video_rate = self._encoding.rate(now, self._ramp.rate)
        # Nothing has touched the buffers since the batch's last subframe,
        # so their levels are that record's (Eq. 7 reads batch[-1]).
        self._rtp.on_batch(self._ue.buffer.level, video_rate)
        drops = self._ue.buffer.dropped_packets
        self._ramp.on_batch(drops - self._seen_drops, congested, self._encoding.held)
        self._seen_drops = drops.copy()
        self._batch_level_sum = np.zeros(self.n)
        if k - self._last_flush_k >= 1000:
            # The second holds the records of ticks max(1, last flush)..k-1.
            means = self._sec_level_sum / (k - max(1, self._last_flush_k))
            tbs_bits = self._sec_tbs * BITS_PER_BYTE
            for s, log in enumerate(self.logs):
                log.diag_seconds.append((float(tbs_bits[s]), float(means[s])))
            self._sec_tbs = np.zeros(self.n)
            self._sec_level_sum = np.zeros(self.n)
            self._last_flush_k = k

    # -- tick phases (numbered as in UplinkSession._tick) ---------------

    def _pace(self) -> None:
        logs = self.logs
        n = self.n
        damaged = self._damaged
        for rows, frame_ids, sizes, last in self._pacer.tick(self._rtp.rate):
            slots = frame_ids * n + rows
            # A frame's damage is final once its last packet is pushed,
            # so that packet carries whether it completes the frame.
            completes = last & ~damaged[slots] if last.any() else last
            accepted = self._ue.buffer.push(rows, sizes, frame_ids, completes)
            if accepted.all():
                continue
            rejected = ~accepted
            rows, slots = rows[rejected], slots[rejected]
            fresh = ~damaged[slots]
            damaged[slots] = True
            for s in rows[fresh].tolist():
                logs[s].frames_lost += 1

    def _capture(self, k: int, now: float) -> None:
        profile = self.profile
        rate_v = self._encoding.rate(now, self._ramp.rate)
        size = rate_v * profile.frame_interval * self._noise.take_all()
        if self._frame_index % profile.kf_frames == 0:
            size = size * self._kf_factor
        self._frame_index += 1
        size_bytes = size / BITS_PER_BYTE
        bits = size_bytes * BITS_PER_BYTE
        frame_id = self._next_fid
        self._next_fid += 1
        self._captures[frame_id] = now
        self._frame_sizes[frame_id * self.n : (frame_id + 1) * self.n] = size_bytes
        # frames_sent is lockstep-uniform; sent_bits accumulates the
        # same per-capture float adds as the scalar log, as one vector.
        self._frames_sent += 1
        self._sent_bits += bits
        self._pipe.append((k + profile.encode_ticks, frame_id, size_bytes))

    def _tick(self, k: int, warm_ticks: int) -> None:
        profile = self.profile
        now = k * MS

        # 1./2. channel and cell dynamics
        if k % profile.chan_ticks == 0:
            self._ue.channel.update(now)
        if k % profile.cell_ticks == 0:
            self._ue.cell.update()
        # 3. diag batch delivery
        if k % profile.diag_ticks == 0 and k > 1:
            self._deliver_diag(k, now)
        # 4. frames leaving the encoder
        pipe = self._pipe
        while pipe and pipe[0][0] == k:
            _, frame_id, size_bytes = pipe.popleft()
            self._pacer.enqueue_all(frame_id, size_bytes)
        # 5. pacing tick
        if k % profile.pacer_ticks == 0:
            self._pace()
        # 6. LTE subframe; the sent packets arrive deliver_ticks later,
        # if that is by the last tick
        tbs, sent = self._subframe(k, now)
        arrival = k + profile.deliver_ticks
        if sent is not None and arrival <= self._total_ticks:
            self._stage_sent(arrival, sent)
        self._bandwidth.on_record(tbs)
        level = self._ue.buffer.level
        self._batch_level_sum += level
        self._sec_tbs += tbs
        self._sec_level_sum += level
        # 7. frame capture
        if k % profile.frame_ticks == 0:
            self._capture(k, now)
        # 8. rate / buffer traces
        if k % SAMPLE_TICKS == 0:
            rates = self._encoding.rate(now, self._ramp.rate).tolist()
            rtp_rates = self._rtp.rate.tolist()
            levels = self._ue.buffer.level.tolist()
            for s, log in enumerate(self.logs):
                log.rate_trace.append((now, rates[s], rtp_rates[s]))
                log.buffer_levels.append((now, levels[s]))
        # 9. end of warm-up
        if k == warm_ticks:
            self._drop_measured_arrivals(k)
            self._frames_sent = 0
            self._sent_bits = np.zeros(self.n)
            for log in self.logs:
                log.reset()
                log.start_time = now
            self._baseline_fw_drops = self._ue.buffer.dropped_packets.copy()
            self._baseline_pacer_drops = self._pacer.dropped_frames.copy()
            self._baseline_bytes = self._ue.bytes_sent.copy()

    def _subframe(self, k: int, now: float):
        """Phase-6 grant pass: through the joined cells' loads and PRB
        budgets when there are any, else each session's own cell."""
        cells = self._cells
        if cells is None:
            return self._ue.subframe(now)
        result = self._ue.subframe(now, loads=cells.member_loads(k, now), cells=cells)
        if self._prb_exhausted is not None:
            self._prb_exhausted += cells.budget_left < 1.0
        return result

    # -- public API ------------------------------------------------------

    def join_cells(self, fleets: Sequence[FleetConfig], counts: Sequence[int]) -> None:
        """Couple the cohort into shared cells before :meth:`run`.

        Cell ``c`` is parameterised by ``fleets[c]`` and holds the next
        ``counts[c]`` sessions of the cohort, in order.  The cells' load
        views replace the sessions' own cell-load models in the grant
        path, and every PRB grant claims against its cell's budget.
        """
        if sum(counts) != self.n:
            raise ValueError(f"cells hold {sum(counts)} members, cohort has {self.n}")
        self._cells = SharedCellArray(fleets, counts, self._ue.cell)

    def run(
        self,
        duration: Optional[float] = None,
        warmup: float = 0.0,
        meter=None,
        progress=None,
    ) -> List[SessionResult]:
        """Run the cohort and return one :class:`SessionResult` each.

        ``meter`` (a :class:`~repro.obs.SessionMeter` to fill, or
        ``None`` for off) receives the run's wall-clock span, and for a
        cohort without cells the batch counters (see
        :func:`run_batched_cells` for the cell counters); the caller
        reads it afterwards, so a bool is a ``TypeError``.
        ``progress`` is an optional live callback invoked as
        ``progress(tick, total_ticks, n_sessions)`` every
        :data:`DEFAULT_PROGRESS_TICKS` grid ticks plus once at the final
        tick (see :func:`repro.obs.ledger.cohort_heartbeat_callback`).
        Both only *read* engine state, so a metered/observed run stays
        byte-identical to a plain one.
        """
        if duration is None:
            durations = {c.duration for c in self.configs}
            if len(durations) != 1:
                raise ValueError("mixed config durations; pass duration explicitly")
            duration = durations.pop()
        if not _ms_aligned(duration) or not _ms_aligned(warmup):
            raise ValueError("duration and warmup must be on the 1 ms grid")
        if meter is not None and not isinstance(meter, SessionMeter):
            raise TypeError(f"meter must be a SessionMeter or None, not {meter!r}")
        cells = self._cells
        if meter is not None and cells is not None:
            self._prb_exhausted = np.zeros(cells.budget_left.size, dtype=np.int64)
        t0 = meter.span_start() if meter is not None else 0.0
        warm_ticks = _ticks(warmup)
        total_ticks = self._total_ticks = warm_ticks + _ticks(duration)
        # The stage is emptied at the end of warm-up (bar the packets in
        # flight), so it holds about the longer of the two phases.
        self._open_stage(
            max(1, int(self.n * max(warmup, duration) * STAGE_PACKETS_PER_SECOND)),
            total_ticks,
        )
        self._open_frames(total_ticks)
        if progress is not None:
            for k in range(1, total_ticks + 1):
                self._tick(k, warm_ticks)
                if k % DEFAULT_PROGRESS_TICKS == 0 or k == total_ticks:
                    progress(k, total_ticks, self.n)
        else:
            for k in range(1, total_ticks + 1):
                self._tick(k, warm_ticks)
        if meter is not None and cells is None:
            # Per-session sums (sessions, session-ticks): they add up to
            # the same totals however a signature group is cut into
            # cohorts.  How many cohorts there were is a fact of the
            # plan, which run_cohorts records as a gauge.
            meter.inc("batch.sessions", float(self.n))
            meter.inc("batch.subframes", float(self.n * total_ticks))
            meter.span_end("batch.run", t0)
        elif meter is not None:
            # A cell block's counters ride its per-cell meters
            # (run_batched_cells), so merged fleet registries stay the
            # same however cells are sharded into blocks.
            meter.span_end("batch.cell_run", t0)
        fw_drops = self._ue.buffer.dropped_packets - self._baseline_fw_drops
        pacer_drops = self._pacer.dropped_frames - self._baseline_pacer_drops
        congestion = self._encoding.congestion_events
        self._materialise_arrivals()
        self._replay_receivers(total_ticks, warm_ticks)
        results = []
        for s, (config, log) in enumerate(zip(self.configs, self.logs)):
            log.frames_sent = self._frames_sent
            log.sent_bits = float(self._sent_bits[s])
            log.congestion_events = int(congestion[s])
            log.packets_lost += int(fw_drops[s])
            log.frames_lost += int(pacer_drops[s])
            summary = SessionSummary.from_log(
                log,
                scheme=config.scheme,
                transport=config.transport,
                duration=duration,
                freeze_threshold=config.freeze_threshold,
            )
            results.append(SessionResult(config=config, summary=summary, log=log))
        return results


def run_batched(
    configs: Sequence[SessionConfig],
    duration: Optional[float] = None,
    warmup: float = 0.0,
    meter=None,
    progress=None,
) -> List[SessionResult]:
    """Build and run one lockstep cohort."""
    return BatchedSimulation(configs).run(
        duration, warmup=warmup, meter=meter, progress=progress
    )


def run_batched_cells(
    cells: Sequence[Sequence[SessionConfig]],
    fleets: Optional[Sequence[FleetConfig]] = None,
    duration: Optional[float] = None,
    warmup: float = 0.0,
    meter: bool = False,
    progress=None,
) -> List[CellResult]:
    """Build and run one block of shared cells; one :class:`CellResult`
    per cell, in order.

    ``cells`` holds each cell's member configs; cells may have
    different member counts, but every member of the block must share
    the grid cadences, while per-member and per-cell fleet parameters
    (PRB budget, PF coupling, background crowd) may vary freely.
    ``fleets`` is one :class:`FleetConfig` per cell (default: no
    background, seeded by the cell's first member).

    With ``meter=True`` every cell gets a live engine meter: the
    ``fleet.*`` cell observations plus the counters ``batch.sessions``,
    ``batch.subframes`` and ``fleet.cell_prb_exhausted``, all pure
    functions of the cell, so merged registries are byte-equal for any
    block partition.  The block's ``batch.cell_run`` wall-clock span
    rides the first cell's meter.  ``meter`` builds these meters itself,
    so anything but a bool is a ``TypeError``.  ``progress`` passes
    through to :meth:`BatchedSimulation.run`.
    """
    if not isinstance(meter, bool):
        raise TypeError(f"meter must be True or False, not {meter!r}")
    cells = [list(members) for members in cells]
    if not cells:
        raise ValueError("empty cell block")
    if fleets is None:
        fleets = [
            FleetConfig(ues=len(members), seed=members[0].seed if members else 0)
            for members in cells
        ]
    fleets = list(fleets)
    if len(fleets) != len(cells):
        raise ValueError(f"{len(fleets)} fleet configs for {len(cells)} cells")
    for members, fleet in zip(cells, fleets):
        reason = cell_batch_unsupported_reason(members, fleet)
        if reason is not None:
            raise ValueError(f"cell unsupported by the batched cell engine: {reason}")
    counts = [len(members) for members in cells]
    sim = BatchedSimulation([config for members in cells for config in members])
    sim.join_cells(fleets, counts)
    engine = SessionMeter() if meter else None
    results = sim.run(duration, warmup=warmup, meter=engine, progress=progress)
    bytes_sent = (sim._ue.bytes_sent - sim._baseline_bytes).tolist()
    block = []
    lo = 0
    for index, (fleet, count) in enumerate(zip(fleets, counts)):
        hi = lo + count
        cell_meter = SessionMeter() if meter else None
        block.append(cell_result(fleet, results[lo:hi], bytes_sent[lo:hi], cell_meter))
        if cell_meter is not None:
            cell_meter.inc("batch.sessions", float(count))
            cell_meter.inc("batch.subframes", float(count * sim._total_ticks))
            cell_meter.inc(
                "fleet.cell_prb_exhausted", float(sim._prb_exhausted[index])
            )
        lo = hi
    if meter:
        block[0].meter.merge(engine)
    return block
