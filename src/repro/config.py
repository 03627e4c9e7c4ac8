"""Configuration dataclasses for every POI360 subsystem.

All knobs live here so a session can be described by one
:class:`SessionConfig` value, and so experiment harnesses can derive
scenario variants with :func:`dataclasses.replace`.  Units follow the
conventions in :mod:`repro.units` (seconds / bits-per-second / bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.units import kbytes, mbps, ms

# ---------------------------------------------------------------------------
# LTE substrate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelConfig:
    """Radio-environment model for the sender's LTE uplink.

    The received signal strength (RSS) follows ``rss_dbm`` plus
    Gauss-Markov shadow fading; RSS maps to CQI in :mod:`repro.lte.tbs`.
    Mobility raises the fading volatility and adds handover outages.
    """

    #: Mean received signal strength in dBm (paper: -115 weak, -82
    #: moderate, -73 strong, about -60 along the highway route).
    rss_dbm: float = -82.0
    #: Standard deviation of log-normal shadow fading (dB).
    shadow_sigma_db: float = 5.0
    #: Correlation time of the Gauss-Markov shadowing process (s) at a
    #: static position; mobility compresses it (see ChannelProcess).
    shadow_corr_time: float = 5.0
    #: Platform speed in miles per hour (0 = static).
    speed_mph: float = 0.0
    #: Mean number of handovers per minute at 30 mph (scaled by speed).
    handover_rate_per_min_at_30mph: float = 3.0
    #: Duration of the radio outage around a handover (s).
    handover_outage: float = 0.30
    #: Deep-fade events (passing obstructions, bursts of interference):
    #: Poisson rate per minute, mean extra attenuation (dB, exponential)
    #: and duration range (s).  These create the seconds-long bandwidth
    #: collapses that drive the paper's cellular freeze ratios.
    deep_fade_rate_per_min: float = 1.0
    deep_fade_depth_db: float = 9.0
    deep_fade_duration: Tuple[float, float] = (0.8, 2.5)
    #: How often the channel process is updated (s).
    update_interval: float = ms(20)


@dataclass(frozen=True)
class CellConfig:
    """Competing load inside the serving cell.

    Background load shrinks the PRB share our UE can win from the
    proportional-fair uplink scheduler and adds grant volatility.
    """

    #: Fraction of cell uplink resources consumed by other UEs, in [0, 1).
    background_load: float = 0.20
    #: Standard deviation of the load's Gauss-Markov fluctuation.
    load_sigma: float = 0.10
    #: Correlation time of load fluctuation (s).
    load_corr_time: float = 5.0
    #: When positive, replace the Gauss-Markov load abstraction with
    #: this many explicit on/off background UEs (burstier, heavier
    #: tails — see repro.lte.competitors).
    competitor_count: int = 0


@dataclass(frozen=True)
class LteConfig:
    """UE + eNodeB uplink model (see DESIGN.md §2 for the substitution).

    The proportional-fair grant model schedules the UE in a subframe with
    probability ``p = p_max * min(1, B_reported / pf_backlog_ref)``; a
    scheduled subframe carries ``min(backlog, prb_quota * bytes_per_prb(cqi))``
    bytes.  This reproduces the paper's Fig. 5: throughput grows linearly
    with the firmware buffer level and saturates past a knee.
    """

    channel: ChannelConfig = field(default_factory=ChannelConfig)
    cell: CellConfig = field(default_factory=CellConfig)
    #: Maximum per-subframe scheduling probability when deeply backlogged.
    p_max: float = 0.45
    #: Backlog (bytes) at which the PF scheduler grants the full share
    #: (the knee of the Fig. 5 curve).
    pf_backlog_ref: float = kbytes(10)
    #: Physical resource blocks granted to the UE when scheduled, before
    #: background load shrinks them.  Calibrated so a moderate-signal
    #: (-82 dBm) lightly-loaded cell saturates around 2.5-3 Mbps — the
    #: paper quotes a 2.2 Mbps median LTE uplink bandwidth [13].
    prb_quota: int = 10
    #: Mean burst length of the PF scheduler's service process, in
    #: subframes: the UE is served in multi-subframe bursts separated by
    #: idle gaps (other UEs' turns), not i.i.d. per subframe.
    scheduling_burst_subframes: float = 4.0
    #: Delay between the UE's buffer state and the eNodeB's view of it
    #: (scheduling request + BSR latency).
    bsr_delay: float = ms(6)
    #: One-way radio latency for a transmitted transport block (s).
    radio_latency: float = ms(4)
    #: Interval of the diagnostic-interface batches (MobileInsight reads
    #: per-subframe records every 40 ms on the paper's Nexus 5).
    diag_interval: float = ms(40)
    #: Hard cap on the firmware buffer (bytes); packets beyond it are
    #: dropped by the modem.  The paper's Fig. 6/15 observe levels up to
    #: ≈50 KByte on the Nexus 5 before drops set in.
    firmware_buffer_cap: float = kbytes(64)


# ---------------------------------------------------------------------------
# Network path substrate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WirelineConfig:
    """Campus-wireline access used for the paper's wireline baseline."""

    rate_bps: float = mbps(20)
    one_way_delay: float = ms(8)
    jitter_std: float = ms(1.5)


@dataclass(frozen=True)
class PathConfig:
    """Everything between the sender's access link and the viewer.

    ``access`` selects the sender uplink: ``"lte"`` uses the full LTE
    substrate, ``"wireline"`` the campus model.  The rest of the path
    (Internet core + the viewer's downlink) is modelled as a stochastic
    latency/loss stage, and the reverse feedback path likewise (the
    feedback traffic is light, so its own queueing is negligible; its
    base latency differs between wireline and cellular viewers).
    """

    access: str = "lte"
    wireline: WirelineConfig = field(default_factory=WirelineConfig)
    #: One-way Internet core latency (s) — through the carrier's core
    #: network for cellular endpoints (§8: traffic goes to the Internet
    #: even when both ends camp on the same basestation).
    core_delay: float = ms(40)
    #: Lognormal jitter sigma applied to the core latency (relative).
    core_jitter_rel: float = 0.10
    #: Viewer downlink stochastic stage: base one-way latency (s) and
    #: jitter.
    downlink_delay: float = ms(65)
    downlink_jitter_std: float = ms(22)
    random_loss: float = 0.001
    #: Base one-way latency of the reverse (viewer -> sender) feedback
    #: path (the viewer's LTE uplink carries only light feedback traffic,
    #: but still pays the scheduling-request/grant cycle).
    feedback_delay: float = ms(120)
    feedback_jitter_std: float = ms(35)

    @staticmethod
    def for_wireline() -> "PathConfig":
        """Both endpoints on the campus wireline network."""
        return PathConfig(
            access="wireline",
            core_delay=ms(6),
            core_jitter_rel=0.05,
            downlink_delay=ms(6),
            downlink_jitter_std=ms(1.5),
            random_loss=0.0002,
            feedback_delay=ms(8),
            feedback_jitter_std=ms(2),
        )


# ---------------------------------------------------------------------------
# Video substrate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VideoConfig:
    """4K equirectangular 360-degree source and encoder model."""

    width: int = 3840
    height: int = 1920
    fps: float = 30.0
    tiles_x: int = 12
    tiles_y: int = 8
    #: Bitrate of the full-quality (uncompressed-in-space) encoded stream;
    #: the paper's test video encodes at 12.65 Mbps.
    full_quality_bitrate: float = mbps(12.65)
    #: Rate-distortion anchor: PSNR achieved at the full-quality
    #: bits-per-pixel, and dB gained per doubling of bits-per-pixel.
    rd_anchor_psnr: float = 41.0
    rd_db_per_octave: float = 6.0
    #: Encoded PSNR is clamped into this range (encoder quality floor
    #: and ceiling, i.e. max/min quantiser).
    psnr_floor: float = 8.0
    psnr_ceiling: float = 43.5
    #: Spatial downscale distortion: PSNR of a tile upscaled from
    #: compression level ``l`` is ``scale_anchor - scale_db_per_octave*log2(l)``.
    scale_anchor_psnr: float = 46.0
    scale_db_per_octave: float = 7.0
    #: The encoder can burn bits past the quality-saturation point (min
    #: quantiser still costs bits): the per-frame bits ceiling is this
    #: factor times the bits needed to reach ``psnr_ceiling``.
    bits_ceiling_factor: float = 2.0
    #: Bits-per-pixel floor at the maximum quantiser: a frame cannot
    #: shrink below ``pixels * bpp_floor`` however low the target rate.
    #: This is why a conservative spatial profile (many pixels) keeps
    #: overloading a collapsing uplink while an aggressive one fits —
    #: the paper's Pyramid-vs-Conduit delay/freeze ordering (§6.1.1).
    bpp_floor: float = 0.016
    #: When a tile's compression level changes between consecutive
    #: frames (the matrix shifts with the ROI), temporal prediction for
    #: that tile breaks and it is intra-coded at roughly this many times
    #: the inter cost.  Sharp profiles (Conduit) pay a large burst on
    #: every ROI move; smooth profiles barely notice.
    intra_refresh_penalty: float = 3.0
    #: Half-width of the ROI *measurement* crop in tiles (§5 dumps the
    #: ROI region around the gaze for PSNR comparison): (2k+1)^2 tiles.
    roi_measure_halfwidth: int = 1
    #: Weight tiles by the solid angle they cover on the sphere when
    #: averaging ROI quality (equirectangular frames oversample the
    #: poles); off by default to match the paper's planar-crop PSNR.
    solid_angle_weighting: bool = False
    #: Base relative sigma of the encoder's per-frame size error, plus
    #: the extra sigma per unit of compressed-pixel ratio (rate control
    #: is noisier when more content must fit a low bits-per-pixel
    #: budget).
    size_sigma_base: float = 0.08
    size_sigma_per_pixel_ratio: float = 0.30
    #: Every ``keyframe_interval`` seconds a frame costs
    #: ``keyframe_factor`` times the budget (WebRTC keeps keyframes rare
    #: and small-ish).
    keyframe_interval: float = 10.0
    keyframe_factor: float = 2.5
    #: RTP payload size used when packetising a frame (bytes).
    rtp_payload: int = 1200
    #: Constant pipeline latencies (s): capture+encode and decode+render.
    encode_latency: float = ms(60)
    decode_latency: float = ms(45)
    #: Adaptive de-jitter/playout buffer at the receiver: the playout
    #: delay tracks ``jitter_multiplier`` times the RTP-style smoothed
    #: frame-arrival jitter, clamped into [playout_min, playout_max] —
    #: small on wireline, large on bursty LTE (as real WebRTC behaves).
    playout_min: float = ms(30)
    playout_max: float = ms(400)
    jitter_multiplier: float = 5.0


# ---------------------------------------------------------------------------
# Spatial compression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionConfig:
    """Mode family of Eq. (1) and the adaptive selection rule of §4.2."""

    #: Number of pre-defined modes K (paper: 8).
    num_modes: int = 8
    #: ``C`` of the most aggressive mode F1 and the most conservative FK;
    #: paper: C is drawn from [1.1 .. 1.8], F1..FK ordered by decreasing
    #: aggressiveness, so F1 has C=1.8 and F8 has C=1.1.
    c_aggressive: float = 1.8
    c_conservative: float = 1.1
    #: M is bucketed by this much per mode step (paper: 200 ms).
    mode_bucket: float = ms(200)
    #: Sliding window over which the client averages frame-level M (s).
    mismatch_window: float = 2.0
    #: Compression level of the ROI centre (l_min).
    l_min: float = 1.0
    #: Full-quality plateau half-widths (tiles in x and y) of the mode
    #: family around the ROI centre, before the Eq. (1) decay starts.
    plateau_x: int = 1
    plateau_y: int = 1
    #: "Lowest possible quality" level used by Conduit outside the ROI.
    conduit_l_max: float = 64.0
    #: Fixed C used by the Pyramid baseline profile.
    pyramid_c: float = 1.25


# ---------------------------------------------------------------------------
# Rate control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GccConfig:
    """Google Congestion Control (WebRTC's default) parameters."""

    start_rate: float = mbps(0.8)
    min_rate: float = mbps(0.15)
    max_rate: float = mbps(12)
    #: Packet-group horizon for arrival-time filtering (s).
    burst_interval: float = ms(5)
    #: Trendline window (packet groups) and gain.
    trendline_window: int = 20
    trendline_gain: float = 4.0
    #: Initial adaptive overuse threshold, in the *scaled dimensionless*
    #: units of the modified trend (slope × samples × gain), as in
    #: WebRTC's trendline estimator — not milliseconds.
    overuse_threshold: float = 12.5
    threshold_gain_up: float = 0.0087
    threshold_gain_down: float = 0.039
    #: Sustained-trend time before declaring overuse (s).
    overuse_time: float = ms(10)
    #: Multiplicative decrease factor applied to the incoming rate.
    beta: float = 0.85
    #: Multiplicative-increase rate per second in the Increase state.
    eta_per_second: float = 0.08
    #: Additive increase: packets per response time near convergence.
    additive_packets: float = 1.0
    #: REMB / transport feedback interval (s).
    feedback_interval: float = 1.0
    #: RTCP loss-report interval (s).
    loss_interval: float = 1.0
    #: Pacer speed-up over the target rate (WebRTC's pace multiplier):
    #: frame bursts are flushed promptly so backlog sits in the network
    #: (firmware buffer) where delay-based detection can see it, and the
    #: long-run RTP rate still equals R_v (the encoder's output rate).
    pacing_factor: float = 2.5


@dataclass(frozen=True)
class FbccConfig:
    """POI360's firmware-buffer-aware congestion control (§4.3)."""

    #: Consecutive per-subframe buffer increases required by Eq. (3).
    k_consecutive: int = 10
    #: EWMA time constant of the long-term buffer average Γ (s).
    gamma_time_constant: float = 10.0
    #: TBS averaging window W of Eq. (4), in subframes (1 ms each).
    tbs_window_subframes: int = 500
    #: Hold the Eq. (6) PHY-rate cap for this many RTTs after detection.
    hold_rtts: float = 2.0
    #: Target firmware buffer level B* of Eq. (7); ``None`` learns it
    #: online from (buffer level, TBS) history as in §4.3.2.
    target_buffer: Optional[float] = kbytes(10)
    #: Bounds for the learned/updated RTP rate (bps).
    rtp_min_rate: float = mbps(0.1)
    rtp_max_rate: float = mbps(20)
    #: Safety margin under the measured PHY rate when cutting the
    #: encoder bitrate.  Eq. (5)'s R_bw equals the throughput of the
    #: *saturated* uplink; cutting to exactly that rate freezes the
    #: built-up backlog in place, so a small margin is kept to drain it
    #: during the hold window.
    phy_rate_margin: float = 0.85


@dataclass(frozen=True)
class FecConfig:
    """Forward-error-correction protection (WebRTC's ULPFEC, paper [14]).

    One XOR parity packet per ``group_size`` media packets recovers any
    single loss in the group without a NACK round trip, at ~1/k
    bandwidth overhead.  Off by default (the paper's prototype relies on
    WebRTC defaults; the FEC-vs-NACK trade is an ablation here).
    """

    enabled: bool = False
    group_size: int = 10


# ---------------------------------------------------------------------------
# Viewer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewerConfig:
    """Head-motion and viewport model for one HMD user."""

    #: Horizontal / vertical field of view of the HMD (degrees).
    fov_x_deg: float = 100.0
    fov_y_deg: float = 90.0
    #: Mean dwell time between saccades (s); per-user profiles scale it.
    dwell_mean: float = 2.2
    dwell_min: float = 0.4
    #: Mean/std of saccade angular velocity (deg/s, paper §8 quotes an
    #: average of 60 deg/s) and the acceleration cap (deg/s^2, <= 500).
    saccade_velocity_mean: float = 60.0
    saccade_velocity_std: float = 20.0
    max_acceleration: float = 500.0
    #: Std of the continuous small head drift (deg/s random walk rate).
    drift_deg_per_s: float = 5.0
    #: Smooth pursuit (tracking moving content): probability that a
    #: dwell is replaced by a pursuit segment, its yaw velocity range
    #: (deg/s) and duration range (s).
    pursuit_probability: float = 0.70
    pursuit_velocity_range: Tuple[float, float] = (10.0, 35.0)
    pursuit_duration_range: Tuple[float, float] = (1.5, 5.0)
    #: Saccade yaw magnitude distribution (deg): exponential mean, cap.
    saccade_yaw_mean: float = 70.0
    saccade_yaw_max: float = 180.0
    #: Pitch excursions are smaller (deg).
    saccade_pitch_std: float = 12.0
    pitch_limit: float = 55.0
    #: Head-pose sampling interval (s).
    update_interval: float = ms(10)
    #: When positive, the viewer feeds back a *predicted* ROI this many
    #: seconds ahead (linear motion extrapolation, §8) instead of the
    #: current one.  The paper argues this horizon cannot usefully
    #: exceed ~120 ms; the knob exists to measure that claim.
    roi_prediction_horizon: float = 0.0


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionConfig:
    """A full telephony run: one sender, one viewer, one network."""

    video: VideoConfig = field(default_factory=VideoConfig)
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    lte: LteConfig = field(default_factory=LteConfig)
    path: PathConfig = field(default_factory=PathConfig)
    gcc: GccConfig = field(default_factory=GccConfig)
    fbcc: FbccConfig = field(default_factory=FbccConfig)
    fec: FecConfig = field(default_factory=FecConfig)
    viewer: ViewerConfig = field(default_factory=ViewerConfig)
    #: Spatial compression scheme: "poi360", "conduit" or "pyramid".
    scheme: str = "poi360"
    #: Transport rate control: "fbcc" or "gcc".
    transport: str = "gcc"
    #: Session length (paper micro-benchmarks run 300 s; FBCC runs 200 s).
    duration: float = 300.0
    #: Frame delay above which a frame counts as frozen (s, §6.1.1).
    freeze_threshold: float = ms(600)
    #: Master seed for all random streams.
    seed: int = 0

    def frame_interval(self) -> float:
        """Video frame interval in seconds."""
        return 1.0 / self.video.fps


# ---------------------------------------------------------------------------
# Fleet (multi-UE shared cell)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetConfig:
    """One shared eNodeB uplink cell carrying N POI360 callers.

    Consumed by :class:`repro.telephony.fleet.CellSession` /
    :class:`repro.lte.shared_cell.SharedCell`; the contention model and
    grant-splitting semantics are documented in docs/FLEET.md.
    """

    #: POI360 callers sharing the cell (each a full telephony session).
    ues: int = 4
    #: Uplink physical resource blocks the cell can grant per 1 ms
    #: subframe, shared by the callers and the scheduled background
    #: traffic (10 MHz LTE: 50 PRBs).
    prb_budget: int = 50
    #: Time constant (s) of the per-caller realized-share EWMA that
    #: feeds the proportional-fair coupling.
    share_time_constant: float = 0.25
    #: The proportional-fair catch-up weight ``mean_share/own_share`` is
    #: clamped into ``[1/pf_weight_max, pf_weight_max]``.
    pf_weight_max: float = 4.0
    #: When positive, this many explicit on/off background UEs
    #: (:mod:`repro.lte.competitors`) are scheduled inside the cell and
    #: claim PRBs from the shared budget before the callers do.
    background_ues: int = 0
    #: Long-run fraction of the cell the background UEs aim to occupy.
    background_load: float = 0.0
    #: Seed of the cell-level random streams (background traffic only;
    #: each caller keeps its own :class:`SessionConfig.seed`).
    seed: int = 0


#: Compression scheme names accepted by :class:`SessionConfig`.
SCHEMES: Tuple[str, ...] = ("poi360", "conduit", "pyramid")

#: Transport names accepted by :class:`SessionConfig`.  "gcc" is the
#: paper-era receiver-side (REMB) flavour; "gcc_ss" the modern send-side
#: (transport-wide feedback) flavour.
TRANSPORTS: Tuple[str, ...] = ("fbcc", "gcc", "gcc_ss")
