"""POI360 viewer/client (right half of Fig. 7).

Assembles frames from RTP packets (with NACK-based recovery), unfolds
them with the embedded compression matrix, renders the FoV region,
measures the §5 metrics — timestamp-decoded frame delay, ROI-region
PSNR (sender frame vs displayed ROI crop), displayed compression level
— runs the Eq. (2) mismatch estimator, and feeds ROI + M back to the
sender every frame interval over the data channel.

The sender never reads the ROI PSNR, so the viewer stages each displayed
frame and computes every PSNR in one batched pass when the run ends
(:meth:`PanoramicReceiver.finish`), as the lockstep viewer's
``ReceiverState.replay`` does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.compression.mismatch import MismatchEstimator
from repro.config import SessionConfig
from repro.metrics.summary import SessionLog
from repro.net.packet import Packet
from repro.net.path import ReversePath
from repro.rate_control.gcc.controller import GccReceiver
from repro.roi.viewport import Viewport
from repro.sim.engine import Simulation
from repro.telephony.timestamping import decode_timestamp
from repro.video.content import ContentModel
from repro.video.frame import EncodedFrame, TileGrid
from repro.video.quality import (
    displayed_tile_psnr_array,
    mse_from_psnr_array,
    psnr_from_mse_array,
)


def roi_region_psnr(
    i: np.ndarray,
    j: np.ndarray,
    levels: np.ndarray,
    bpp,
    capture_times,
    config,
    content: ContentModel,
    weights: Optional[np.ndarray],
) -> np.ndarray:
    """MSE-domain PSNR over ROI measurement crops — the §5 metric.

    One row per displayed frame: row ``f`` of the ``(F, n)`` arrays
    ``i``/``j`` holds the absolute tile coordinates of frame ``f``'s
    crop (x already wrapped, y already clipped) and row ``f`` of
    ``levels`` their compression levels; ``bpp`` and ``capture_times``
    hold one value per frame.  Every frame of one call has the same crop
    size ``n`` (pole rows clip the crop), so each row's ``sum`` is the
    same ``n``-element pairwise sum whatever the batch size, and a
    batch of one gives the per-frame value.  Complexity gather, R-D
    kernel and the (optionally solid-angle-weighted) MSE average run on
    whole arrays.  Exposed as a free function so the ``roi_quality``
    microbenchmark times exactly what the receiver runs.
    """
    bpp = np.asarray(bpp, dtype=float)[:, None]
    times = np.asarray(capture_times, dtype=float)[:, None]
    complexity = content.complexity_tiles(i, j, times)
    tile_mse = mse_from_psnr_array(
        displayed_tile_psnr_array(bpp, levels, config, complexity)
    )
    if weights is None:
        mean_mse = tile_mse.sum(axis=1) / float(tile_mse.shape[1])
    else:
        w = weights[i, j]
        mean_mse = (w * tile_mse).sum(axis=1) / np.maximum(1e-12, w.sum(axis=1))
    return psnr_from_mse_array(mean_mse)


#: NACK retry cadence / limit and frame-abandon horizon.  Recovery is
#: deliberately short-fused: an interactive frame more than ~a second
#: late is superseded anyway, and retransmission storms during an uplink
#: dip only deepen the congestion.
NACK_RETRY_INTERVAL = 0.3
NACK_MAX_RETRIES = 2
NACK_GIVE_UP_AGE = 0.8
FRAME_ABANDON_AFTER = 1.2

#: Size of a data-channel feedback message (bytes on the wire).
FEEDBACK_BYTES = 80.0


@dataclass
class _Assembly:
    frame: EncodedFrame
    total: int
    got: Set[int] = field(default_factory=set)
    first_arrival: float = 0.0
    done: bool = False


@dataclass
class _MissingSeq:
    detected: float
    last_request: float
    retries: int = 0


class PanoramicReceiver:
    """Frame assembly, rendering metrics, ROI/M feedback."""

    def __init__(
        self,
        sim: Simulation,
        config: SessionConfig,
        grid: TileGrid,
        content: ContentModel,
        viewport: Viewport,
        reverse: ReversePath,
        gcc_receiver: GccReceiver,
        log: SessionLog,
        rng: np.random.Generator,
        trace=None,
        meter=None,
    ):
        self._sim = sim
        self._trace = trace
        self._meter = meter
        self._config = config
        self._grid = grid
        self._content = content
        self._viewport = viewport
        self._reverse = reverse
        self._gcc = gcc_receiver
        self._log = log
        self._rng = rng
        self._mismatch = MismatchEstimator(
            config.compression.mismatch_window, l_min=config.compression.l_min
        )
        if config.video.solid_angle_weighting:
            from repro.video.projection import solid_angle_weights

            self._tile_weights = solid_angle_weights(grid)
        else:
            self._tile_weights = None
        if config.viewer.roi_prediction_horizon > 0.0:
            from repro.roi.prediction import MotionPredictor

            self._predictor = MotionPredictor()
        else:
            self._predictor = None
        if config.fec.enabled:
            from repro.rate_control.fec import FecDecoder

            self._fec = FecDecoder()
        else:
            self._fec = None
        self._assemblies: Dict[int, _Assembly] = {}
        self._expected_seq = 0
        self._missing: Dict[int, _MissingSeq] = {}
        self._last_displayed_capture = float("-inf")
        #: Recent frame delays; d_v of Eq. (2) is their median, which is
        #: robust to startup transients and isolated stragglers.
        self._recent_delays: Deque[float] = deque(maxlen=15)
        #: RTP-style interarrival jitter estimate driving the adaptive
        #: playout buffer (J += (|D| - J) / 16).
        self._jitter = 0.0
        self._last_complete: Optional[float] = None
        self._last_complete_capture = 0.0
        #: NTP sync error between the endpoints (§5).
        self._clock_offset = float(rng.normal(0.0, 0.003))
        #: Precomputed (dx, dy) offset arrays of the ROI measurement
        #: crop, in the canonical dx-major order of the §5 dump.
        half = config.video.roi_measure_halfwidth
        span = np.arange(-half, half + 1)
        self._roi_dx = np.repeat(span, len(span))
        self._roi_dy = np.tile(span, len(span))
        #: ROI centre -> its crop's ``(i, j)`` index arrays.
        self._crops: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        #: ``(id(matrix), centre) -> (matrix, crop, levels, mean level)``
        #: for read-only (cached) matrices; the entry holds the matrix so
        #: its id cannot be recycled while the entry lives.
        self._regions: Dict[tuple, tuple] = {}
        #: ``(crop, levels, bpp, capture_time, trace fields)`` of every
        #: frame displayed since the last replay, in display order.
        self._staged: List[tuple] = []
        interval = config.frame_interval()
        sim.every(interval, self._send_roi_feedback)
        sim.every(NACK_RETRY_INTERVAL, self._service_recovery)

    # ------------------------------------------------------------------
    # Media path
    # ------------------------------------------------------------------

    def on_media_packet(self, packet: Packet) -> None:
        """Entry point for packets arriving from the forward path."""
        now = self._sim.now
        self._log.arrivals.append((now, packet.size_bytes))
        self._gcc.on_media_packet(packet)
        if packet.payload.get("fec"):
            if self._fec is not None:
                for recovered in self._fec.on_parity(packet):
                    self._accept_media(recovered, now)
            return
        self._accept_media(packet, now)
        if self._fec is not None:
            for recovered in self._fec.on_media(packet):
                self._accept_media(recovered, now)

    def _accept_media(self, packet: Packet, now: float) -> None:
        self._track_sequence(packet)
        self._assemble(packet, now)

    def _track_sequence(self, packet: Packet) -> None:
        seq = packet.payload.get("seq")
        if seq is None:
            return
        if packet.payload.get("rtx"):
            self._missing.pop(seq, None)
            return
        if seq >= self._expected_seq:
            gap = range(self._expected_seq, seq)
            if gap:
                now = self._sim.now
                for missing in gap:
                    self._missing[missing] = _MissingSeq(now, now)
                self._send_nack(list(gap))
            self._expected_seq = seq + 1
        else:
            self._missing.pop(seq, None)

    def _assemble(self, packet: Packet, now: float) -> None:
        frame: EncodedFrame = packet.payload["frame"]
        assembly = self._assemblies.get(frame.frame_id)
        if assembly is None:
            assembly = _Assembly(
                frame=frame, total=packet.payload["frame_packets"], first_arrival=now
            )
            self._assemblies[frame.frame_id] = assembly
        if assembly.done:
            return
        assembly.got.add(packet.payload["frame_seq"])
        if len(assembly.got) >= assembly.total:
            assembly.done = True
            self._update_jitter(frame, now)
            render_latency = self._config.video.decode_latency + self.playout_delay
            self._sim.schedule(render_latency, self._display, frame)

    def _update_jitter(self, frame: EncodedFrame, now: float) -> None:
        if self._last_complete is not None:
            transit_delta = (now - self._last_complete) - (
                frame.capture_time - self._last_complete_capture
            )
            self._jitter += (abs(transit_delta) - self._jitter) / 16.0
        self._last_complete = now
        self._last_complete_capture = frame.capture_time

    @property
    def frame_delay_estimate(self) -> float:
        """d_v of Eq. (2): median of recent one-way frame delays."""
        if not self._recent_delays:
            return 0.1
        ordered = sorted(self._recent_delays)
        return ordered[len(ordered) // 2]

    @property
    def playout_delay(self) -> float:
        """Current adaptive de-jitter buffering delay."""
        video = self._config.video
        return min(
            video.playout_max,
            max(video.playout_min, video.jitter_multiplier * self._jitter),
        )

    # ------------------------------------------------------------------
    # Rendering & measurement
    # ------------------------------------------------------------------

    def _display(self, frame: EncodedFrame) -> None:
        meter = self._meter
        t0 = meter.span_start() if meter is not None else 0.0
        now = self._sim.now
        sent_time = decode_timestamp(frame.timestamp_blocks, self._rng)
        delay = (now + self._clock_offset) - sent_time
        self._log.frame_delays.append(delay)
        self._assemblies.pop(frame.frame_id, None)
        if frame.capture_time <= self._last_displayed_capture:
            return  # superseded by a newer frame already on screen
        self._last_displayed_capture = frame.capture_time
        self._recent_delays.append(min(2.0, max(0.0, delay)))

        crop, levels, displayed_level = self._region(
            frame.matrix, self._viewport.roi_center
        )
        # The converged level is the region level around the matrix's
        # own centre: the sender embeds mode + ROI knowledge in each
        # frame, so the client can evaluate it (§5).
        mismatch = self._mismatch.observe_frame(
            displayed_level,
            self.frame_delay_estimate,
            now,
            converged_level=self._region(frame.matrix, frame.sender_roi)[2],
        )
        self._log.mismatches.append(mismatch)
        self._log.roi_levels.append((now, displayed_level))
        self._log.display_times.append(now)
        self._log.frames_displayed += 1
        fields = None
        if self._trace is not None:
            # psnr_db is filled in when the run's PSNRs are replayed.
            fields = self._trace.emit(
                "receiver.frame",
                delay_s=delay,
                psnr_db=None,
                roi_level=displayed_level,
                mismatch_s=mismatch,
            )
            if delay > self._config.freeze_threshold:
                self._trace.emit("receiver.freeze", delay_s=delay)
        self._staged.append((crop, levels, frame.bpp, frame.capture_time, fields))
        if meter is not None:
            meter.inc("receiver.frames")
            meter.observe("receiver.delay_s", delay)
            meter.observe("receiver.mismatch_s", mismatch)
            if delay > self._config.freeze_threshold:
                meter.inc("receiver.freezes")
            meter.span_end("receiver.display", t0)

    def _region(self, matrix: np.ndarray, center: Tuple[int, int]):
        """``(crop, levels, mean level)`` of ``matrix`` over the
        measurement crop around ``center`` (memoised for read-only
        matrices, as :func:`repro.compression.matrix.pixel_ratio` is)."""
        key = (id(matrix), center)
        entry = self._regions.get(key)
        if entry is not None and entry[0] is matrix:
            return entry[1:]
        crop = self._crops.get(center)
        if crop is None:
            crop = self._crops[center] = self._region_tiles(center)
        levels = matrix[crop]
        level = float(levels.mean())
        if not matrix.flags.writeable:
            self._regions[key] = (matrix, crop, levels, level)
        return crop, levels, level

    def _region_tiles(self, center: Tuple[int, int]):
        """Absolute (i, j) index arrays of the measurement crop around
        ``center`` — x wrapped, off-grid y rows clipped away."""
        i_star, j_star = center
        j = j_star + self._roi_dy
        valid = (j >= 0) & (j < self._grid.tiles_y)
        i = (i_star + self._roi_dx[valid]) % self._grid.tiles_x
        return i, j[valid]

    def end_warmup(self) -> None:
        """Drop the warm-up frames' PSNRs from the log.  An attached
        meter or trace still gets them; otherwise they are not computed."""
        if self._meter is not None or self._trace is not None:
            self._replay()
        else:
            self._staged = []

    def finish(self) -> None:
        """Replay the measured frames' ROI PSNRs into the log.

        No part of the sender reads the PSNR (Eq. (2) feeds back the
        displayed *level*), so it is computed once, after the run."""
        self._log.roi_psnrs.extend(self._replay())

    def _replay(self) -> List[float]:
        """The staged frames' PSNRs in display order, observed into the
        meter and filled into their ``receiver.frame`` trace events."""
        staged, self._staged = self._staged, []
        psnrs = [0.0] * len(staged)
        by_size: Dict[int, List[int]] = {}
        for index, entry in enumerate(staged):
            by_size.setdefault(len(entry[1]), []).append(index)
        for rows in by_size.values():
            group = [staged[row] for row in rows]
            values = roi_region_psnr(
                np.array([entry[0][0] for entry in group]),
                np.array([entry[0][1] for entry in group]),
                np.array([entry[1] for entry in group]),
                [entry[2] for entry in group],
                [entry[3] for entry in group],
                self._config.video,
                self._content,
                self._tile_weights,
            )
            for row, value in zip(rows, values.tolist()):
                psnrs[row] = value
        if self._trace is not None:
            for entry, psnr in zip(staged, psnrs):
                entry[4]["psnr_db"] = psnr
        if self._meter is not None:
            for psnr in psnrs:
                self._meter.observe("receiver.psnr_db", psnr)
        return psnrs

    # ------------------------------------------------------------------
    # Feedback path
    # ------------------------------------------------------------------

    def _feedback(self, message: Dict) -> None:
        packet = Packet(
            kind="feedback",
            size_bytes=FEEDBACK_BYTES,
            created=self._sim.now,
            payload={"message": message},
        )
        self._reverse.send(packet)

    def send_transport_feedback(self, message: Dict) -> None:
        """Used by the GCC receiver to emit REMB / receiver reports."""
        self._feedback(message)

    def _send_roi_feedback(self) -> None:
        roi = self._viewport.roi_center
        self._mismatch.observe_roi(roi, self._sim.now)
        reported = roi
        if self._predictor is not None:
            reported = self._predicted_roi(fallback=roi)
        self._feedback(
            {"type": "roi", "roi": reported, "mismatch": self._mismatch.average()}
        )

    def _predicted_roi(self, fallback):
        """§8 extension: report where the gaze will be, not where it is."""
        yaw, pitch = self._viewport.pose
        # Unwrap yaw against the previous sample so velocity estimation
        # survives the 360° seam.
        if self._predictor._poses:
            last_yaw = self._predictor._poses[-1][1]
            while yaw - last_yaw > 180.0:
                yaw -= 360.0
            while yaw - last_yaw < -180.0:
                yaw += 360.0
        self._predictor.observe(self._sim.now, yaw, pitch)
        predicted = self._predictor.predict(
            self._config.viewer.roi_prediction_horizon
        )
        if predicted is None:
            return fallback
        return self._grid.tile_of_angles(predicted[0], predicted[1])

    def _send_nack(self, seqs: List[int]) -> None:
        if self._trace is not None:
            self._trace.emit("receiver.nack", count=len(seqs))
        if self._meter is not None:
            self._meter.inc("receiver.nacks", len(seqs))
        self._feedback({"type": "nack", "seqs": seqs})

    def _service_recovery(self) -> None:
        now = self._sim.now
        retry: List[int] = []
        for seq, state in list(self._missing.items()):
            expired = (
                state.retries >= NACK_MAX_RETRIES
                or now - state.detected > NACK_GIVE_UP_AGE
            )
            if expired:
                self._missing.pop(seq)
                self._log.packets_lost += 1
                continue
            if now - state.last_request >= NACK_RETRY_INTERVAL:
                state.retries += 1
                state.last_request = now
                retry.append(seq)
        if retry:
            self._send_nack(retry)
        for frame_id, assembly in list(self._assemblies.items()):
            if not assembly.done and now - assembly.first_arrival > FRAME_ABANDON_AFTER:
                self._assemblies.pop(frame_id)
                self._log.frames_lost += 1
