"""Forward (media) and reverse (feedback) end-to-end paths.

The forward path composes the sender's access hop — the full LTE uplink
substrate or the campus wireline link — with a stochastic stage covering
the Internet core and the viewer's downlink.  The reverse path carries
the viewer's light feedback traffic (ROI, mismatch reports, GCC
feedback) and is a pure latency/jitter stage.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.config import LteConfig, PathConfig
from repro.lte.ue import UeUplink
from repro.net.link import RateLimitedLink, StochasticLink
from repro.net.packet import Packet
from repro.sim.engine import Simulation

PacketSink = Callable[[Packet], None]


class ForwardPath:
    """Sender → viewer media path."""

    def __init__(
        self,
        sim: Simulation,
        path_config: PathConfig,
        lte_config: LteConfig,
        rng: np.random.Generator,
        trace=None,
        meter=None,
    ):
        self.config = path_config
        self.ue: Optional[UeUplink] = None
        self.access_link: Optional[RateLimitedLink] = None
        self._core = StochasticLink(
            sim,
            rng,
            delay=path_config.core_delay + path_config.downlink_delay,
            jitter_std=np.hypot(
                path_config.core_delay * path_config.core_jitter_rel,
                path_config.downlink_jitter_std,
            ),
            loss=path_config.random_loss,
        )
        if path_config.access == "lte":
            self.ue = UeUplink(
                sim, lte_config, rng, sink=self._core.deliver, trace=trace, meter=meter
            )
        elif path_config.access == "wireline":
            self.access_link = RateLimitedLink(
                sim,
                rng,
                rate_bps=path_config.wireline.rate_bps,
                delay=path_config.wireline.one_way_delay,
                jitter_std=path_config.wireline.jitter_std,
                sink=self._core.deliver,
            )
        else:
            raise ValueError(f"unknown access type: {path_config.access!r}")

    def set_receiver(self, sink: PacketSink) -> None:
        """Attach the viewer-side packet handler."""
        self._core.set_sink(sink)

    def send(self, packet: Packet) -> None:
        """Inject a paced RTP packet at the sender's access hop."""
        if self.ue is not None:
            self.ue.send(packet)
        else:
            assert self.access_link is not None
            self.access_link.deliver(packet)

    @property
    def access_backlog_bytes(self) -> float:
        """Bytes queued at the sender's access hop (either flavour)."""
        if self.ue is not None:
            return self.ue.buffer_level
        assert self.access_link is not None
        return self.access_link.queued_bytes

    @property
    def lost_packets(self) -> int:
        """Packets lost anywhere on the forward path."""
        lost = self._core.lost
        if self.ue is not None:
            lost += self.ue.buffer.dropped_packets
        if self.access_link is not None:
            lost += self.access_link.dropped
        return lost


class ReversePath:
    """Viewer → sender feedback path (ROI, M, GCC feedback)."""

    def __init__(self, sim: Simulation, path_config: PathConfig, rng: np.random.Generator):
        self._link = StochasticLink(
            sim,
            rng,
            delay=path_config.feedback_delay,
            jitter_std=path_config.feedback_jitter_std,
            loss=path_config.random_loss,
        )

    def set_receiver(self, sink: PacketSink) -> None:
        self._link.set_sink(sink)

    def send(self, packet: Packet) -> None:
        self._link.deliver(packet)
