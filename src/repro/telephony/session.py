"""Wires a full telephony session (Fig. 7) and runs it.

``run_session`` is the main public entry point of the library: give it a
:class:`repro.config.SessionConfig` (optionally with a user profile) and
it builds the whole stack — LTE uplink or wireline access, forward and
feedback paths, compression scheme, transport, encoder, viewer — runs
the call, and returns the per-frame logs plus the aggregate summary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from repro.compression import make_scheme
from repro.config import SessionConfig
from repro.lte.diagnostics import DiagRecord
from repro.metrics.summary import SessionLog, SessionSummary
from repro.net.path import ForwardPath, ReversePath
from repro.obs.bus import TraceBus
from repro.obs.meter import SessionMeter
from repro.rate_control.base import TransportController
from repro.rate_control.fbcc.controller import FbccTransport
from repro.rate_control.gcc.controller import GccReceiver, GccTransport
from repro.rate_control.gcc.sendside import SendSideGccTransport, TwccFeedbackGenerator
from repro.roi.head_motion import HeadMotion
from repro.roi.users import UserProfile
from repro.roi.viewport import Viewport
from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry
from repro.telephony.receiver import PanoramicReceiver
from repro.telephony.sender import PanoramicSender
from repro.units import BITS_PER_BYTE
from repro.video.content import ContentModel
from repro.video.encoder import FrameEncoder
from repro.video.frame import TileGrid


@dataclass
class SessionResult:
    """Everything a session produced.

    ``trace`` is the session's :class:`repro.obs.TraceBus` when tracing
    was enabled (``run_session(..., trace=True)``), else ``None`` — the
    default keeps cached results and the parallel runner byte-identical
    to untraced runs.  ``meter`` is likewise the session's
    :class:`repro.obs.SessionMeter` (counters, histograms, spans) when
    metering was enabled (``run_session(..., meter=True)``), else
    ``None``.
    """

    config: SessionConfig
    summary: SessionSummary
    log: SessionLog
    trace: Optional[TraceBus] = None
    meter: Optional[SessionMeter] = None


class TelephonySession:
    """One sender + one viewer over one network, fully wired.

    ``head_trace`` (a :class:`repro.roi.traces.HeadTrace`) replaces the
    synthetic head-motion model with a recorded pose trace.
    """

    def __init__(
        self,
        config: SessionConfig,
        profile: Optional[UserProfile] = None,
        head_trace=None,
        trace=False,
        meter=False,
        sim: Optional[Simulation] = None,
        cell=None,
    ):
        if profile is not None:
            config = dataclasses.replace(config, viewer=profile.apply(config.viewer))
        self.config = config
        # ``sim`` lets a fleet cell (repro.telephony.fleet.CellSession)
        # co-locate several callers on one event queue; a session that
        # owns its simulation also owns the sim-level trace/meter hooks.
        self._owns_sim = sim is None
        self.sim = Simulation() if sim is None else sim
        self.rng = RngRegistry(config.seed)
        self.log = SessionLog()
        # ``trace`` is False/None (off), True (fresh bus), or a TraceBus
        # the caller built (custom capacity); from here on it is None or
        # a live bus. Emissions only read component state — never an RNG
        # stream, never the event queue — so an enabled bus cannot
        # perturb the session.
        if trace is True:
            trace = TraceBus()
        elif trace is False:
            trace = None
        if trace is not None:
            trace.bind_clock(lambda: self.sim._now)
        self.trace = trace
        # ``meter`` maps the same way: False/None (off), True (fresh
        # SessionMeter), or a SessionMeter the caller built (e.g. shared
        # across sessions). Like trace emissions, metric/span emissions
        # only read component state; span timings read the wall clock
        # but never write anything back into the simulation.
        if meter is True:
            meter = SessionMeter()
        elif meter is False:
            meter = None
        self.meter = meter
        if self._owns_sim:
            self.sim.trace = trace
            self.sim.meter = meter

        video = config.video
        self.grid = TileGrid(video.width, video.height, video.tiles_x, video.tiles_y)
        self.content = ContentModel(self.grid, self.rng.stream("content"))

        self.forward = ForwardPath(
            self.sim, config.path, config.lte, self.rng.stream("forward"),
            trace=trace, meter=meter,
        )
        self.reverse = ReversePath(self.sim, config.path, self.rng.stream("reverse"))
        if cell is not None:
            if self.forward.ue is None:
                raise ValueError(
                    "shared-cell membership needs LTE access "
                    "(config.path.access == 'lte')"
                )
            self.forward.ue.join_cell(cell)

        self.transport = self._build_transport()
        scheme = make_scheme(
            config.scheme, config.compression, self.grid, config.viewer,
            trace=trace, meter=meter,
        )
        self.scheme = scheme

        encoder = FrameEncoder(video, self.grid, self.content, self.rng.stream("encoder"))
        self.sender = PanoramicSender(
            self.sim, config, scheme, self.transport, self.forward, encoder, self.grid,
            self.log, trace=trace, meter=meter,
        )

        if head_trace is not None:
            from repro.roi.traces import TraceHeadMotion

            head = TraceHeadMotion(self.sim, config.viewer, head_trace)
        else:
            head = HeadMotion(self.sim, config.viewer, self.rng.stream("head"))
        self.head = head
        viewport = Viewport(self.grid, config.viewer, head)
        send_side = config.transport.lower() == "gcc_ss"
        feedback = TwccFeedbackGenerator if send_side else GccReceiver
        gcc_receiver = feedback(
            self.sim, config.gcc, send_feedback=self._send_transport_feedback
        )
        self.receiver = PanoramicReceiver(
            self.sim,
            config,
            self.grid,
            self.content,
            viewport,
            self.reverse,
            gcc_receiver,
            self.log,
            self.rng.stream("receiver"),
            trace=trace,
            meter=meter,
        )

        self.forward.set_receiver(self.receiver.on_media_packet)
        self.reverse.set_receiver(self.sender.on_feedback)
        if self.forward.ue is not None:
            self.forward.ue.diag.subscribe(self._on_diag_batch)
        self._diag_second_tbs = 0.0
        self._diag_second_level = 0.0
        self._diag_second_records = 0
        self._diag_second_start = 0.0
        self._baseline_dropped = 0
        self._baseline_lost = 0

    def _build_transport(self) -> TransportController:
        name = self.config.transport.lower()
        if name == "gcc":
            return GccTransport(self.config.gcc, trace=self.trace, meter=self.meter)
        if name == "gcc_ss":
            return SendSideGccTransport(self.config.gcc)
        if name == "fbcc":
            if self.config.path.access != "lte":
                raise ValueError(
                    "FBCC needs the LTE diagnostic interface; "
                    "use transport='gcc' on wireline access"
                )
            return FbccTransport(
                self.sim, self.config.fbcc, self.config.gcc,
                self.config.lte.diag_interval, trace=self.trace, meter=self.meter,
            )
        raise ValueError(f"unknown transport: {name!r}")

    def _send_transport_feedback(self, message) -> None:
        self.receiver.send_transport_feedback(message)

    def _on_diag_batch(self, batch: List[DiagRecord]) -> None:
        """Feed FBCC and keep per-second (TBS rate, buffer) aggregates."""
        self.transport.on_diag(batch)
        # Running sums, not compensated sum() (design rule 4).
        tbs = self._diag_second_tbs
        level = self._diag_second_level
        for _, buffer_bytes, tbs_bytes in batch:
            tbs += tbs_bytes
            level += buffer_bytes
        self._diag_second_tbs = tbs
        self._diag_second_level = level
        self._diag_second_records += len(batch)
        if self.sim.now - self._diag_second_start >= 1.0:
            records = self._diag_second_records
            self.log.diag_seconds.append(
                (
                    self._diag_second_tbs * BITS_PER_BYTE,
                    self._diag_second_level / records if records else 0.0,
                )
            )
            self._diag_second_tbs = 0.0
            self._diag_second_level = 0.0
            self._diag_second_records = 0
            self._diag_second_start = self.sim.now

    def run(
        self, duration: Optional[float] = None, warmup: float = 0.0
    ) -> SessionResult:
        """Run the call and return logs + summary.

        ``warmup`` seconds are simulated first and excluded from every
        metric — GCC needs tens of seconds to ramp from its start rate,
        and the paper reports steady telephony behaviour.
        """
        duration = duration if duration is not None else self.config.duration
        meter = self.meter
        t0 = meter.span_start() if meter is not None else 0.0
        self._emit_start()
        if warmup > 0.0:
            self.sim.run(warmup)
            self._end_warmup()
        self.sim.run(duration)
        return self._finish(duration, t0)

    # The run() phases are factored out so a fleet cell
    # (repro.telephony.fleet.CellSession) can interleave them across all
    # member sessions sharing one simulation: emit every start, advance
    # the shared clock through warm-up, reset every log, advance through
    # the measured window, then finish each member.

    def _emit_start(self) -> None:
        if self.trace is not None:
            self.trace.emit(
                "session.start",
                scheme=self.config.scheme,
                transport=self.config.transport,
                seed=self.config.seed,
            )

    def _end_warmup(self) -> None:
        """Discard warm-up measurements; measurement starts now."""
        self.log.reset()
        self.log.start_time = self.sim.now
        self._baseline_dropped = self.sender.pacer.dropped_frames
        self._baseline_lost = self.forward.lost_packets
        self.receiver.end_warmup()
        if self.trace is not None:
            self.trace.emit("session.warmup_done")

    def _finish(self, duration: float, t0: float = 0.0) -> SessionResult:
        """Close out the run: counters, summary, meter, result."""
        meter = self.meter
        self.receiver.finish()
        self._finalise_counters()
        summary = SessionSummary.from_log(
            self.log,
            scheme=self.config.scheme,
            transport=self.config.transport,
            duration=duration,
            freeze_threshold=self.config.freeze_threshold,
        )
        if meter is not None:
            ue = self.forward.ue
            if ue is not None and ue.active_subframes:
                meter.inc("lte.subframes", float(ue.active_subframes))
            meter.inc("session.runs")
            meter.span_end("session.run", t0)
        return SessionResult(
            config=self.config,
            summary=summary,
            log=self.log,
            trace=self.trace,
            meter=meter,
        )

    def _finalise_counters(self) -> None:
        log = self.log
        log.mode_switches = getattr(self.scheme, "mode_switches", 0)
        if isinstance(self.transport, FbccTransport):
            log.congestion_events = self.transport.encoding.congestion_events
        log.packets_lost += self.forward.lost_packets - self._baseline_lost
        # Frames the pacer expired never reached the viewer: they are
        # skipped content and count against the freeze ratio.
        log.frames_lost += self.sender.pacer.dropped_frames - self._baseline_dropped


def run_session(
    config: SessionConfig,
    profile: Optional[UserProfile] = None,
    duration: Optional[float] = None,
    warmup: float = 0.0,
    trace=False,
    meter=False,
) -> SessionResult:
    """Build and run one telephony session.

    ``trace=True`` attaches a :class:`repro.obs.TraceBus` to every
    subsystem and returns it on ``SessionResult.trace`` (see
    docs/OBSERVABILITY.md); a :class:`~repro.obs.TraceBus` instance may
    be passed instead for a custom ring capacity.  ``meter=True``
    likewise attaches a :class:`repro.obs.SessionMeter` (counters,
    histograms, stage spans) returned on ``SessionResult.meter``; a
    :class:`~repro.obs.SessionMeter` instance may be passed to
    accumulate several sessions into one registry.
    """
    return TelephonySession(config, profile=profile, trace=trace, meter=meter).run(
        duration, warmup=warmup
    )
