"""The trace event catalogue.

Single source of truth for every event the stack emits: its name, the
subsystem it belongs to, the fields it carries, and the emitting site.
``docs/OBSERVABILITY.md`` mirrors this table (a test keeps the two in
sync) and the ``repro360 trace --events`` filter validates names
against it.

Event names are stable identifiers: tooling (trace dumps, the worked
Fig. 11 example, downstream analysis scripts) keys on them, so renames
are breaking changes and belong in CHANGES.md.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class EventSpec(NamedTuple):
    """Catalogue entry for one event name."""

    name: str
    subsystem: str
    fields: Tuple[str, ...]
    site: str
    description: str


_SPECS = (
    EventSpec(
        "session.start",
        "session",
        ("scheme", "transport", "seed"),
        "repro.telephony.session.TelephonySession.run",
        "A session run begins (emitted before any warm-up).",
    ),
    EventSpec(
        "session.warmup_done",
        "session",
        (),
        "repro.telephony.session.TelephonySession.run",
        "Warm-up finished; metric collection starts here.",
    ),
    EventSpec(
        "sim.run_begin",
        "engine",
        ("deadline", "pending"),
        "repro.sim.engine.Simulation.run",
        "The event loop starts draining toward a deadline.",
    ),
    EventSpec(
        "sim.run_end",
        "engine",
        ("pending",),
        "repro.sim.engine.Simulation.run",
        "The event loop reached its deadline (or emptied).",
    ),
    EventSpec(
        "fw_buffer",
        "lte",
        ("level", "tbs"),
        "repro.lte.ue.UeUplink._subframe",
        "Per-subframe firmware-buffer occupancy (bytes, after the "
        "grant drained) and the transport block size served this "
        "subframe. Idle-skipped subframes (empty buffer, all BSR slots "
        "zero) emit nothing.",
    ),
    EventSpec(
        "lte.drop",
        "lte",
        ("size_bytes", "level"),
        "repro.lte.ue.UeUplink.send",
        "The modem dropped an incoming RTP packet: the firmware "
        "buffer was at capacity.",
    ),
    EventSpec(
        "lte.cqi",
        "lte",
        ("cqi", "rss_dbm"),
        "repro.lte.ue.UeUplink._channel_update",
        "Channel-quality update (50 Hz): new CQI and instantaneous RSS.",
    ),
    EventSpec(
        "diag.batch",
        "lte",
        ("n", "mean_level", "tbs_bytes"),
        "repro.lte.diagnostics.DiagMonitor._deliver",
        "One 40 ms diagnostic batch delivered to subscribers: record "
        "count, mean buffer level, summed TBS bytes.",
    ),
    EventSpec(
        "fbcc.congestion",
        "fbcc",
        ("phy_rate_bps", "held_rate_bps", "gamma_bytes"),
        "repro.rate_control.fbcc.controller.FbccTransport.on_diag",
        "Eq. (3) fired: uplink congestion detected; the encoder rate "
        "is pinned to the margin-scaled PHY rate (Eq. 5-6).",
    ),
    EventSpec(
        "fbcc.rate",
        "fbcc",
        ("video_rate_bps", "rtp_rate_bps", "bw_est_bps", "target_buffer_bytes"),
        "repro.rate_control.fbcc.controller.FbccTransport.on_diag",
        "Per diag batch (25 Hz): current Rv (Eq. 6), Rrtp (Eq. 7), "
        "PHY bandwidth estimate (Eq. 5) and sweet-spot target B*.",
    ),
    EventSpec(
        "gcc.rate",
        "gcc",
        ("rate_bps", "kind"),
        "repro.rate_control.gcc.controller.GccSenderControl.on_feedback",
        "The legacy GCC sender processed a REMB or receiver report; "
        "``rate_bps`` is the resulting R_gcc.",
    ),
    EventSpec(
        "mode_switch",
        "compression",
        ("from_index", "to_index", "desired_index", "cap_index"),
        "repro.compression.poi360.AdaptiveCompression._note_switch",
        "The effective compression mode changed (Eq. 1-2 feedback or "
        "uplink rate cap). Index 0 is the emergency crop mode.",
    ),
    EventSpec(
        "mode.mismatch",
        "compression",
        ("m_s", "desired_index"),
        "repro.compression.poi360.AdaptiveCompression.update_mismatch",
        "A sliding-window mismatch sample M arrived from the viewer "
        "and (re)selected the desired mode.",
    ),
    EventSpec(
        "sender.frame",
        "telephony",
        ("target_rate_bps", "size_bits"),
        "repro.telephony.sender.PanoramicSender._on_capture",
        "One captured frame was compressed and encoded against the "
        "transport's target bitrate.",
    ),
    EventSpec(
        "receiver.frame",
        "telephony",
        ("delay_s", "psnr_db", "roi_level", "mismatch_s"),
        "repro.telephony.receiver.PanoramicReceiver._display",
        "One frame was displayed: capture-to-display delay, ROI-region "
        "PSNR, displayed ROI compression level, Eq. (2) mismatch.",
    ),
    EventSpec(
        "receiver.freeze",
        "telephony",
        ("delay_s",),
        "repro.telephony.receiver.PanoramicReceiver._display",
        "A displayed frame's delay exceeded the freeze threshold "
        "(the frame counts toward the freeze ratio).",
    ),
    EventSpec(
        "receiver.nack",
        "telephony",
        ("count",),
        "repro.telephony.receiver.PanoramicReceiver._send_nack",
        "The viewer requested retransmission of missing sequences.",
    ),
)

#: Name → spec for every event the stack can emit.
EVENT_CATALOGUE: Dict[str, EventSpec] = {spec.name: spec for spec in _SPECS}

#: Stable ordering for docs and ``--format summary`` output.
EVENT_NAMES: Tuple[str, ...] = tuple(spec.name for spec in _SPECS)


def subsystem_of(name: str) -> str:
    """Subsystem label for an event name (catalogue, else name prefix)."""
    spec = EVENT_CATALOGUE.get(name)
    if spec is not None:
        return spec.subsystem
    prefix, _, rest = name.partition(".")
    return prefix if rest else "other"
