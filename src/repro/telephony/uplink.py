"""The grid-aligned *uplink lockstep profile* and its scalar reference.

The batched engine (:mod:`repro.sim.batch`) advances N sessions in
lockstep on the shared 1 ms LTE subframe grid.  That only makes sense
for a session model whose every process sits on that grid, so this
module defines the **uplink lockstep profile**: a full sender-side
cellular telephony loop — FBCC rate control (Eq. 3-7), RTP pacing, the
firmware buffer, the PF grant scheduler, channel/cell dynamics, a fixed
downstream delay and a jitter-adaptive receiver — with every cadence an
integer number of subframes.

:class:`UplinkSession` here is the *scalar reference*: it runs the
profile one session at a time as a plain integer-tick loop (one
``_tick(k)`` call per subframe, no event engine), composing the
classes the event engine runs: the LTE models
(:class:`~repro.lte.channel.ChannelProcess`,
:class:`~repro.lte.cell.CellLoadProcess`,
:class:`~repro.lte.scheduler.EnbScheduler`,
:class:`~repro.lte.firmware_buffer.FirmwareBuffer`), the
:class:`~repro.rate_control.pacer.FramePacer` token bucket and the FBCC
report loop (:class:`~repro.rate_control.fbcc.controller.FbccLoop`).  The
batched engine must reproduce it **bit-for-bit** (same seeds → same
:class:`~repro.telephony.session.SessionResult` numbers); the
equivalence test in ``tests/test_batch.py`` enforces this.

Four design rules make that achievable (see docs/PERFORMANCE.md):

1. every random variate comes from a per-session *block stream*
   (:mod:`repro.sim.blocks`) with transcendentals applied block-wise —
   the models take :class:`~repro.sim.blocks.BlockDraws` as their draw
   policy here, where the event engine passes
   :class:`~repro.sim.blocks.CallDraws`;
2. all time is derived from the integer tick counter (``now = k *
   1e-3``), never from float-accumulated periods;
3. the viewer (jitter EWMA, playout, display, PSNR) runs through
   *shared* code (:class:`ReceiverState`) in both engines, and runs
   after the tick loop: nothing on the sender side reads it, so each
   engine stages its completed frames and replays each session's
   receiver once, after the last tick;
4. per-batch level means are running ``+=`` sums in every engine, never
   ``sum()`` (which is compensated from Python 3.12 on).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.config import FleetConfig, SessionConfig, VideoConfig
from repro.lte.cell import UPDATE_INTERVAL as CELL_UPDATE_INTERVAL
from repro.lte.cell import CellLoadProcess
from repro.lte.channel import ChannelProcess
from repro.lte.firmware_buffer import FirmwareBuffer
from repro.lte.scheduler import EnbScheduler
from repro.metrics.summary import SessionLog, SessionSummary
from repro.rate_control.fbcc.batch import FallbackRamp
from repro.rate_control.fbcc.controller import FbccLoop
from repro.rate_control.pacer import PACING_TICK, FramePacer
from repro.sim.blocks import BlockDraws, BlockStream, lognormal_transform
from repro.sim.rng import RngRegistry
from repro.telephony.session import SessionResult
from repro.units import BITS_PER_BYTE
from repro.video.quality import anchor_bpp

#: One lockstep tick (the LTE subframe).
MS = 1e-3

#: Rate/buffer traces are sampled every this many ticks (5 Hz).
SAMPLE_TICKS = 200

#: Per-session receiver clock offset sigma (s) — NTP-grade desync
#: between the two phones' wall clocks.
CLOCK_OFFSET_SIGMA = 0.003

#: The (scheme, transport) pair the profile models — FBCC with flat ROI
#: quality.  Configs labelled with any other pair are refused
#: (:func:`batch_unsupported_reason`, and batch job specs in
#: :func:`repro.service.jobs.normalise_spec`).
LOCKSTEP_MODEL = ("poi360", "fbcc")

#: What the profile runs under that label: the ``--batch`` text headers
#: of ``repro360 metrics`` and ``repro360 fleet`` print it, since the
#: event engine's sender differs (docs/PERFORMANCE.md, lockstep caveats).
LOCKSTEP_SENDER = "FallbackRamp in place of GCC, flat ROI quality"


def _ms_aligned(value: float) -> bool:
    return abs(value * 1000.0 - round(value * 1000.0)) < 1e-9


def _ticks(value: float) -> int:
    return int(round(value * 1000.0))


def batch_unsupported_reason(config: SessionConfig) -> Optional[str]:
    """Why ``config`` cannot run under the uplink lockstep profile.

    Returns ``None`` when the profile supports it.  The checks mirror
    the profile's structural assumptions; anything else (RSS, speed,
    load, seeds, rates, ...) may vary freely per session.
    """
    if (config.scheme, config.transport) != LOCKSTEP_MODEL:
        return (
            "profile models only scheme={} transport={} (got scheme={!r} "
            "transport={!r})".format(*LOCKSTEP_MODEL, config.scheme, config.transport)
        )
    if config.path.access != "lte":
        return f"profile models the LTE uplink (access={config.path.access!r})"
    if config.lte.cell.competitor_count:
        return "explicit competitor UEs are event-driven"
    if config.fbcc.target_buffer is None:
        return "the online sweet-spot learner (target_buffer=None) is unsupported"
    # The lockstep sender sends no parity and its viewer has flat ROI
    # quality: these knobs would be silently ignored.
    if config.fec.enabled:
        return "FEC (fec.enabled) is modelled by the event engine only"
    if config.video.solid_angle_weighting:
        return (
            "solid-angle-weighted ROI PSNR (video.solid_angle_weighting) is "
            "modelled by the event engine only"
        )
    if config.viewer.roi_prediction_horizon > 0.0:
        return (
            "ROI prediction (viewer.roi_prediction_horizon > 0) is modelled "
            "by the event engine only"
        )
    if config.video.fps <= 0:
        return "fps must be positive"
    video = config.video
    if min(video.decode_latency, video.playout_min, video.playout_max) < 0.0:
        # The post-run receiver replay relies on display >= arrival.
        return "decode latency and playout bounds must be non-negative"
    named = {
        "channel.update_interval": config.lte.channel.update_interval,
        "lte.diag_interval": config.lte.diag_interval,
        "lte.bsr_delay": config.lte.bsr_delay,
        "lte.radio_latency": config.lte.radio_latency,
        "path.core_delay": config.path.core_delay,
        "path.downlink_delay": config.path.downlink_delay,
        "video.encode_latency": config.video.encode_latency,
        "frame interval (1/fps)": 1.0 / config.video.fps,
    }
    for name, value in named.items():
        if not _ms_aligned(value):
            return f"{name}={value!r} is not on the 1 ms subframe grid"
    return None


def cell_batch_unsupported_reason(
    configs: Sequence[SessionConfig], fleet: FleetConfig
) -> Optional[str]:
    """Why this member list + fleet cannot run as one batched cell.

    The cell-homogeneity contract: every member must individually pass
    :func:`batch_unsupported_reason`, and all members must share the
    profile's grid cadences (per-member *parameters* — seeds, RSS,
    speed, rates — may vary freely, as may the per-cell fleet
    parameters across a batched block).
    """
    if not configs:
        return "a cell needs at least one member config"
    for config in configs:
        reason = batch_unsupported_reason(config)
        if reason is not None:
            return reason
    signatures = {UplinkProfile.from_config(c).signature() for c in configs}
    if len(signatures) > 1:
        return "cell members are not structurally homogeneous"
    if fleet.prb_budget < 1:
        return "fleet.prb_budget must be at least 1 PRB"
    return None


@dataclass(frozen=True)
class UplinkProfile:
    """Grid cadences + shared derived constants of the lockstep profile.

    Derived once from a :class:`SessionConfig` and used verbatim by the
    scalar reference and the batched engine, so both agree on every
    tick boundary and every shared float constant.
    """

    chan_ticks: int
    cell_ticks: int
    diag_ticks: int
    frame_ticks: int
    encode_ticks: int
    pacer_ticks: int
    bsr_depth: int
    deliver_ticks: int
    kf_frames: int
    k_consecutive: int
    tbs_window: int
    frame_interval: float
    diag_interval: float
    #: One-way-loop RTT constant the Eq. (6) hold uses (s).
    rtt: float
    #: ``hold_rtts * rtt`` — added to ``now`` on each detection.
    hold_delta: float
    #: Fallback-ramp multiplicative growth per diag batch.
    ramp_growth: float

    @staticmethod
    def from_config(config: SessionConfig) -> "UplinkProfile":
        reason = batch_unsupported_reason(config)
        if reason is not None:
            raise ValueError(f"config unsupported by the lockstep profile: {reason}")
        lte, path, video = config.lte, config.path, config.video
        frame_interval = 1.0 / video.fps
        frame_ticks = _ticks(frame_interval)
        rtt = path.core_delay + path.downlink_delay + lte.radio_latency + path.feedback_delay
        return UplinkProfile(
            chan_ticks=_ticks(lte.channel.update_interval),
            cell_ticks=_ticks(CELL_UPDATE_INTERVAL),
            diag_ticks=_ticks(lte.diag_interval),
            frame_ticks=frame_ticks,
            encode_ticks=_ticks(video.encode_latency),
            pacer_ticks=_ticks(PACING_TICK),
            bsr_depth=max(1, int(round(lte.bsr_delay / MS))),
            deliver_ticks=(
                _ticks(lte.radio_latency)
                + _ticks(path.core_delay)
                + _ticks(path.downlink_delay)
            ),
            kf_frames=max(1, int(round(video.keyframe_interval / frame_interval))),
            k_consecutive=config.fbcc.k_consecutive,
            tbs_window=config.fbcc.tbs_window_subframes,
            frame_interval=frame_interval,
            diag_interval=lte.diag_interval,
            rtt=rtt,
            hold_delta=config.fbcc.hold_rtts * rtt,
            ramp_growth=1.0 + config.gcc.eta_per_second * lte.diag_interval,
        )

    def signature(self) -> tuple:
        """Cohort-homogeneity key: sessions batched together must share
        every grid cadence (per-session *parameters* may differ)."""
        return (
            self.chan_ticks,
            self.cell_ticks,
            self.diag_ticks,
            self.frame_ticks,
            self.encode_ticks,
            self.pacer_ticks,
            self.bsr_depth,
            self.deliver_ticks,
            self.kf_frames,
            self.k_consecutive,
            self.tbs_window,
        )


class ReceiverState:
    """Per-session viewer: jitter-adaptive playout + display accounting.

    Nothing on the sender side reads the viewer, so neither engine runs
    it inside its tick loop: both stage every completed undamaged frame
    and call :meth:`replay` once, after the last tick.  This exact class
    serves **both** engines (design rule 3), which buys bit-identical
    jitter EWMAs, playout clamps, display orders and PSNR numbers.
    """

    __slots__ = (
        "clock_offset",
        "_pixels",
        "_anchor_bpp",
        "_rd_anchor",
        "_rd_slope",
        "_psnr_floor",
        "_psnr_ceiling",
        "_playout_min",
        "_playout_max",
        "_jitter_mult",
        "_decode_latency",
    )

    def __init__(self, video: VideoConfig, rng):
        self.clock_offset = float(rng.normal(0.0, CLOCK_OFFSET_SIGMA))
        self._pixels = float(video.width * video.height)
        # The vector R-D pass in replay() mirrors psnr_from_bpp at
        # complexity 1.0 (bpp / max(1e-9, 1.0) == bpp, so the floats
        # are identical).
        self._anchor_bpp = anchor_bpp(video)
        self._rd_anchor = float(video.rd_anchor_psnr)
        self._rd_slope = float(video.rd_db_per_octave)
        self._psnr_floor = float(video.psnr_floor)
        self._psnr_ceiling = float(video.psnr_ceiling)
        self._playout_min = float(video.playout_min)
        self._playout_max = float(video.playout_max)
        self._jitter_mult = float(video.jitter_multiplier)
        self._decode_latency = float(video.decode_latency)

    def replay(
        self,
        arrivals: np.ndarray,
        captures: np.ndarray,
        sizes: np.ndarray,
        end: float,
        warm: float,
        log: SessionLog,
    ) -> None:
        """Play out a finished run's frames into ``log``.

        ``arrivals``, ``captures`` and ``sizes`` describe every completed
        undamaged frame in completion order; ``end`` and ``warm`` are the
        times of the last tick and of the warm-up tick (``k * MS``).

        The result is what a live playout heap would have logged.  Each
        completion advances the jitter EWMA and fixes its display time,
        which is never before its arrival (the profile refuses negative
        display latencies).  A live loop would display the frame at its
        flush tick, the smallest ``k`` with ``k * MS >= display_time``;
        that tick is monotone in the display time, so the frames pop in
        global ``(display_time, capture, size)`` order, the frames due
        after ``end`` are never displayed, and those flushed by the
        warm-up tick leave the log but still supersede older frames.
        """
        if not len(arrivals):
            return
        # The EWMA is a sequential recurrence: the one scalar pass.
        deviations = np.abs(np.diff(arrivals - captures)).tolist()
        jitter = [0.0]
        level = 0.0
        for deviation in deviations:
            level += (deviation - level) / 16.0
            jitter.append(level)
        playout = np.minimum(
            self._playout_max,
            np.maximum(self._playout_min, self._jitter_mult * np.array(jitter)),
        )
        display = arrivals + self._decode_latency + playout
        order = np.lexsort((sizes, captures, display))
        display = display[order]
        shown = int(np.searchsorted(display, end, side="right"))
        display = display[:shown]
        captures = captures[order[:shown]]
        sizes = sizes[order[:shown]]
        # A frame is superseded unless it is newer than every frame
        # popped before it (the first compares with -1.0).
        newest = np.maximum.accumulate(np.concatenate(([-1.0], captures[:-1])))
        fresh = captures > newest
        kept = int(np.searchsorted(display, warm, side="right"))
        display, captures, sizes, fresh = (
            display[kept:], captures[kept:], sizes[kept:], fresh[kept:]
        )
        log.frame_delays.extend(((display + self.clock_offset) - captures).tolist())
        times = display[fresh].tolist()
        if not times:
            return
        log.frames_displayed += len(times)
        log.display_times.extend(times)
        # Bit-exact with per-display psnr_from_bpp: scalar ``_log2`` is
        # the same numpy ufunc the array call dispatches to (the exact
        # -equality property pinned by ``tests/test_kernels.py``), and
        # ``np.minimum``/``np.maximum`` equal the scalar clamps.
        bpp = sizes[fresh] * BITS_PER_BYTE / self._pixels
        positive = bpp > 0.0
        safe_bpp = bpp if positive.all() else np.where(positive, bpp, 1.0)
        psnr = np.minimum(
            self._psnr_ceiling,
            np.maximum(
                self._psnr_floor,
                self._rd_anchor
                + self._rd_slope * np.log2(safe_bpp / self._anchor_bpp),
            ),
        )
        if safe_bpp is not bpp:
            psnr = np.where(positive, psnr, self._psnr_floor)
        log.roi_psnrs.extend(psnr.tolist())
        log.roi_levels.extend((t, 1.0) for t in times)


class _Pkt:
    """Lightweight RTP packet for the scalar reference (duck-typed for
    :class:`FirmwareBuffer`, which only reads ``size_bytes``).
    ``completes`` marks the last packet of an undamaged frame."""

    __slots__ = ("size_bytes", "frame_id", "completes")

    def __init__(self, size_bytes: float, frame_id: int, completes: bool):
        self.size_bytes = size_bytes
        self.frame_id = frame_id
        self.completes = completes


def _arrived_by(arrivals: array, time: float) -> int:
    """How many items of the flat, time-ordered ``(time, bytes)`` pairs
    ``arrivals`` are due by ``time``; the rest, at the end, are still in
    flight."""
    cut = len(arrivals)
    while cut and arrivals[cut - 2] > time:
        cut -= 2
    return cut


class UplinkSession:
    """Scalar reference engine for the uplink lockstep profile.

    A plain integer-tick loop: :meth:`run` calls :meth:`_tick` for
    k = 1, 2, ... and each tick runs its phases in the fixed order the
    batched engine replays with arrays (see the phase comments in
    :meth:`_tick`).  The state has the array twin's shape: the 40 ms
    diag batch is a running level sum fed straight to
    :meth:`~repro.rate_control.fbcc.controller.FbccLoop.on_report`, a
    packet's arrival (and the frame it completes) is logged when it is
    drained, at its arrival time ``deliver_ticks`` later, completed
    frames are staged for the receiver's post-run
    :meth:`ReceiverState.replay`, and the scheduler is not called on an
    empty BSR or during a handover outage.
    """

    def __init__(self, config: SessionConfig):
        self.config = config
        self.profile = UplinkProfile.from_config(config)
        self.log = SessionLog()
        registry = RngRegistry(config.seed)
        stream = lambda name: registry.stream("batch." + name)  # noqa: E731

        profile = self.profile
        lte = config.lte
        draws = BlockDraws(stream)
        self._channel = ChannelProcess(lte.channel, draws)
        self._cell = CellLoadProcess(lte.cell, draws)
        self._sched = EnbScheduler(lte, draws)
        self._fw = FirmwareBuffer(lte.firmware_buffer_cap)
        self._bsr: Deque[float] = deque([0.0] * profile.bsr_depth, maxlen=profile.bsr_depth)
        self._pacer = FramePacer(config.video.rtp_payload)
        self._noise = BlockStream(
            stream("frame.noise"), lognormal_transform(config.video.size_sigma_base)
        )
        self._receiver = ReceiverState(config.video, stream("recv"))

        self._ramp = FallbackRamp(
            config.gcc.start_rate,
            config.gcc.min_rate,
            config.gcc.max_rate,
            config.gcc.beta,
            profile.ramp_growth,
        )
        self._loop = FbccLoop(
            config.fbcc, profile.diag_interval, config.gcc.start_rate,
            fallback_rate=lambda: self._ramp.rate, rtt=lambda: profile.rtt,
        )
        # The loop's stages the tick calls, bound once: no extra
        # attribute loads per tick.
        self._bandwidth = self._loop.bandwidth
        self._encoding = self._loop.encoding
        self._rtp = self._loop.rtp

        #: frame_id -> [capture_s, size_bytes, damaged], until the
        #: frame's last packet is pushed, or drained if it completes an
        #: undamaged frame.
        self._frame_table: Dict[int, list] = {}
        self._next_frame_id = 0
        self._frame_index = 0
        #: (done_tick, frame_id, size_bytes) encoder pipeline FIFO.
        self._encoding_pipe: Deque[Tuple[int, int, float]] = deque()
        #: Flat (arrival, capture, size_bytes) triples of every completed
        #: undamaged frame, replayed through the receiver after the run.
        self._completions = array("d")
        #: Flat (arrival, size_bytes) pairs of every logged packet, handed
        #: to ``log.arrivals`` as an ``(m, 2)`` array after the run.
        self._arrivals = array("d")
        #: Level sum of the open diag batch (one record per tick since
        #: the last delivery).
        self._batch_level_sum = 0.0
        self._ramp_seen_drops = 0
        self._sec_tbs = 0.0
        self._sec_level_sum = 0.0
        self._last_flush_k = 0
        self._baseline_fw_drops = 0
        self._baseline_pacer_drops = 0
        #: Cumulative post-grant drained bytes (the fleet fairness base).
        self.bytes_sent = 0.0
        self._baseline_bytes = 0.0
        #: Shared-cell membership (``CellMemberView``) when this
        #: session was attached to a :class:`~repro.lte.shared_cell.
        #: SharedCell` via :meth:`join_cell`; ``None`` runs the
        #: session's own independent cell-load model.
        self._cell_view = None
        self._warm_ticks = 0
        #: Packets due after this tick never arrive and are not logged.
        self._last_tick = 0

    # -- packet emission (pacer -> firmware buffer) --------------------

    def _emit(self, frame_id: int, size: float, last: bool) -> None:
        entry = self._frame_table[frame_id]
        # A frame's damage is final once its last packet is pushed, so
        # that packet carries whether it completes the frame.
        if not self._fw.push(_Pkt(size, frame_id, last and not entry[2])):
            if not entry[2]:
                entry[2] = True
                self.log.frames_lost += 1
        if last and entry[2]:
            del self._frame_table[frame_id]

    # -- the master tick ------------------------------------------------

    def _tick(self, k: int) -> None:
        profile = self.profile
        now = k * MS
        log = self.log

        # 1./2. channel and cell dynamics
        if k % profile.chan_ticks == 0:
            self._channel.update(now)
        if k % profile.cell_ticks == 0:
            self._cell.update()

        # 3. diag batch delivery (before this tick's subframe record;
        # tick 1 has no record yet)
        if k % profile.diag_ticks == 0 and k > 1:
            self._deliver_diag(k, now)

        # 4. frames leaving the encoder join the pacer queue
        pipe = self._encoding_pipe
        while pipe and pipe[0][0] == k:
            _, frame_id, size_bytes = pipe.popleft()
            self._pacer.enqueue(frame_id, size_bytes)

        # 5. pacing tick
        if k % profile.pacer_ticks == 0:
            self._pacer.refill(self._rtp.rate)
            self._pacer.drain(self._emit)

        # 6. LTE subframe: BSR, grant, drain, diag accumulators.  The
        # scheduler grants nothing (and draws nothing) on an empty BSR
        # or in a handover outage (ChannelProcess.cqi's zero).  Sent
        # packets due by the last tick are logged at once, stamped with
        # their arrival time.
        fw = self._fw
        ring = self._bsr
        reported = ring[0]
        level = fw.level
        ring.append(level)
        tbs = 0.0
        if reported > 0.0 and now > self._channel.outage_until:
            view = self._cell_view
            load = self._cell.load if view is None else view.load
            grant = self._sched.grant_for_subframe(
                reported, level, self._channel.cqi_value, load
            )
            if grant > 0.0:
                completed = fw.drain(grant)
                tbs = level - fw.level
                self.bytes_sent += tbs
                arrival = k + profile.deliver_ticks
                if completed and arrival <= self._last_tick:
                    self._stage_sent(arrival * MS, completed)
                level = fw.level
        self._bandwidth.on_tbs(tbs)
        self._batch_level_sum += level
        self._sec_tbs += tbs
        self._sec_level_sum += level

        # 7. frame capture
        if k % profile.frame_ticks == 0:
            rate_v = self._encoding.rate(now)
            size = rate_v * profile.frame_interval * self._noise.next()
            if self._frame_index % profile.kf_frames == 0:
                size = size * self.config.video.keyframe_factor
            self._frame_index += 1
            size_bytes = size / BITS_PER_BYTE
            frame_id = self._next_frame_id
            self._next_frame_id += 1
            self._frame_table[frame_id] = [now, size_bytes, False]
            pipe.append((k + profile.encode_ticks, frame_id, size_bytes))
            log.frames_sent += 1
            log.sent_bits += size_bytes * BITS_PER_BYTE

        # 8. rate / buffer trace samples
        if k % SAMPLE_TICKS == 0:
            log.rate_trace.append((now, self._encoding.rate(now), self._rtp.rate))
            log.buffer_levels.append((now, level))

        # 9. end of warm-up: drop everything measured so far, except the
        # arrivals still in flight
        if k == self._warm_ticks:
            del self._arrivals[: _arrived_by(self._arrivals, now)]
            log.reset()
            log.start_time = now
            self._baseline_fw_drops = fw.dropped_packets
            self._baseline_pacer_drops = self._pacer.dropped_frames
            self._baseline_bytes = self.bytes_sent

    def _stage_sent(self, arrival: float, completed) -> None:
        """Log drained packets, which arrive at time ``arrival``, and
        stage the frames their last packets complete."""
        arrivals = self._arrivals
        for pkt in completed:
            arrivals.extend((arrival, pkt.size_bytes))
            if pkt.completes:
                capture, size, _ = self._frame_table.pop(pkt.frame_id)
                self._completions.extend((arrival, capture, size))

    def _deliver_diag(self, k: int, now: float) -> None:
        # Records of ticks 1..k-1 in the first batch, diag_ticks after.
        count = min(k - 1, self.profile.diag_ticks)
        # Nothing has touched the buffer since the batch's last subframe,
        # so its level is that record's.
        congested = self._loop.on_report(
            self._batch_level_sum / count, self._fw.level, now
        )
        self._batch_level_sum = 0.0
        drops = self._fw.dropped_packets
        self._ramp.on_batch(
            drops - self._ramp_seen_drops, congested, self._encoding.held_rate
        )
        self._ramp_seen_drops = drops
        if k - self._last_flush_k >= 1000:
            # The second holds the records of ticks max(1, last flush)..k-1.
            mean_level = self._sec_level_sum / (k - max(1, self._last_flush_k))
            self.log.diag_seconds.append((self._sec_tbs * BITS_PER_BYTE, mean_level))
            self._sec_tbs = 0.0
            self._sec_level_sum = 0.0
            self._last_flush_k = k

    # -- public API ------------------------------------------------------

    def join_cell(self, cell) -> None:
        """Attach this session to a :class:`~repro.lte.shared_cell.
        SharedCell` clocked by ``begin_tick``: its load view replaces
        the session's own cell-load model in the grant path and every
        PRB grant claims against the shared per-subframe budget (the
        grid counterpart of ``TelephonySession``'s ``cell=`` wiring)."""
        view = cell.add_member(self._cell)
        self._cell_view = view
        self._sched.attach_cell(view)

    def _finalise(self, duration: float) -> SessionResult:
        """Close the logs after the last tick (shared by :meth:`run`
        and the cell driver's external tick loop)."""
        log = self.log
        log.arrivals = np.array(self._arrivals).reshape(-1, 2)
        self._arrivals = array("d")
        completions = np.frombuffer(self._completions).reshape(-1, 3)
        self._receiver.replay(
            completions[:, 0],
            completions[:, 1],
            completions[:, 2],
            self._last_tick * MS,
            self._warm_ticks * MS,
            log,
        )
        log.congestion_events = self._encoding.congestion_events
        log.packets_lost += self._fw.dropped_packets - self._baseline_fw_drops
        log.frames_lost += self._pacer.dropped_frames - self._baseline_pacer_drops
        summary = SessionSummary.from_log(
            log,
            scheme=self.config.scheme,
            transport=self.config.transport,
            duration=duration,
            freeze_threshold=self.config.freeze_threshold,
        )
        return SessionResult(config=self.config, summary=summary, log=log)

    def run(self, duration: Optional[float] = None, warmup: float = 0.0) -> SessionResult:
        """Run the profile and return logs + summary (reference engine)."""
        duration = duration if duration is not None else self.config.duration
        if not _ms_aligned(duration) or not _ms_aligned(warmup):
            raise ValueError("duration and warmup must be on the 1 ms grid")
        self._warm_ticks = _ticks(warmup)
        self._last_tick = self._warm_ticks + _ticks(duration)
        tick = self._tick
        for k in range(1, self._last_tick + 1):
            tick(k)
        return self._finalise(duration)


def run_uplink_session(
    config: SessionConfig, duration: Optional[float] = None, warmup: float = 0.0
) -> SessionResult:
    """Build and run one scalar lockstep-profile session."""
    return UplinkSession(config).run(duration, warmup=warmup)


class UplinkCellSession:
    """Scalar reference engine for the *cell* lockstep profile.

    N :class:`UplinkSession` members joined onto one
    :class:`~repro.lte.shared_cell.SharedCell`, all clocked by a
    single external tick loop: each 1 ms tick the cell advances first
    (background crowd, share decay, PRB budget reset), then every
    member runs its full subframe in attach order, claiming grants from
    the shared budget.  This is the bit-exactness reference every cell
    of :func:`repro.sim.batch.run_batched_cells` must reproduce
    (``tests/test_batch_cell.py``), exactly as :class:`UplinkSession`
    is the reference for :class:`repro.sim.batch.BatchedSimulation`;
    parity with the event-driven :func:`repro.telephony.fleet.run_cell`
    is statistical (same contention model, different clocking), not
    bitwise.
    """

    def __init__(
        self,
        configs: Sequence[SessionConfig],
        fleet: Optional[FleetConfig] = None,
    ):
        configs = list(configs)
        if fleet is None:
            fleet = FleetConfig(
                ues=len(configs), seed=configs[0].seed if configs else 0
            )
        reason = cell_batch_unsupported_reason(configs, fleet)
        if reason is not None:
            raise ValueError(f"cell unsupported by the lockstep profile: {reason}")
        from repro.lte.shared_cell import SharedCell

        self.fleet = fleet
        self.cell = SharedCell(fleet)
        self.members = [UplinkSession(config) for config in configs]
        for member in self.members:
            member.join_cell(self.cell)

    def run(self, duration: Optional[float] = None, warmup: float = 0.0):
        """Run the cell; returns a :class:`repro.telephony.fleet.CellResult`."""
        from repro.telephony.fleet import cell_result

        members = self.members
        duration = duration if duration is not None else members[0].config.duration
        if not _ms_aligned(duration) or not _ms_aligned(warmup):
            raise ValueError("duration and warmup must be on the 1 ms grid")
        warm_ticks = _ticks(warmup)
        total_ticks = warm_ticks + _ticks(duration)
        for member in members:
            member._warm_ticks = warm_ticks
            member._last_tick = total_ticks
        cell = self.cell
        for k in range(1, total_ticks + 1):
            cell.begin_tick(k, k * MS)
            for member in members:
                member._tick(k)
        results = [member._finalise(duration) for member in members]
        member_bytes = [member.bytes_sent - member._baseline_bytes for member in members]
        return cell_result(self.fleet, results, member_bytes)


def run_uplink_cell(
    config: SessionConfig,
    ues: int = 4,
    fleet: Optional[FleetConfig] = None,
    duration: Optional[float] = None,
    warmup: float = 0.0,
):
    """Build and run one scalar lockstep cell of ``ues`` callers
    (the grid counterpart of :func:`repro.telephony.fleet.run_cell`)."""
    from repro.telephony.fleet import member_configs

    if fleet is None:
        fleet = FleetConfig(ues=ues, seed=config.seed)
    return UplinkCellSession(member_configs(config, ues), fleet=fleet).run(
        duration, warmup=warmup
    )
