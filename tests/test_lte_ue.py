"""UE uplink: end-to-end subframe pipeline and diag logging."""

import numpy as np
import pytest

from repro.config import CellConfig, ChannelConfig, LteConfig
from repro.lte.ue import UeUplink
from repro.net.packet import Packet
from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry
from repro.units import BITS_PER_BYTE, mbps


def _quiet_lte(**overrides):
    return LteConfig(
        channel=ChannelConfig(shadow_sigma_db=0.01, deep_fade_rate_per_min=0.0),
        cell=CellConfig(background_load=0.1, load_sigma=0.0),
        **overrides,
    )


def _run_ue(rate_bps, seconds=20.0, seed=2, config=None):
    sim = Simulation()
    delivered = []
    ue = UeUplink(
        sim, config or _quiet_lte(), RngRegistry(seed).stream("ue"), sink=delivered.append
    )
    interval = 1200 * BITS_PER_BYTE / rate_bps

    def inject():
        ue.send(Packet(kind="video", size_bytes=1200, created=sim.now))

    sim.every(interval, inject)
    sim.run(seconds)
    return sim, ue, delivered


def test_packets_flow_through():
    _, ue, delivered = _run_ue(mbps(1.0))
    assert len(delivered) > 0
    assert ue.bytes_sent > 0


def test_throughput_matches_offered_load_below_capacity():
    _, ue, delivered = _run_ue(mbps(1.0), seconds=30)
    delivered_rate = sum(p.size_bytes for p in delivered) * 8 / 30
    assert delivered_rate == pytest.approx(1e6, rel=0.15)


def test_overload_fills_buffer_and_drops():
    _, ue, _ = _run_ue(mbps(12.0), seconds=20)
    assert ue.buffer.dropped_packets > 0
    assert ue.buffer_level > 0.5 * _quiet_lte().firmware_buffer_cap


def test_diag_records_per_subframe():
    records = []
    sim = Simulation()
    ue = UeUplink(sim, _quiet_lte(), RngRegistry(3).stream("ue"))
    ue.diag.subscribe(records.extend)
    sim.run(1.0)
    # One record per 1 ms subframe, delivered in 40 ms batches.
    assert len(records) == pytest.approx(1000, abs=50)
    assert all(r.tbs_bytes == 0 for r in records)  # nothing to send


def test_diag_batches_arrive_at_interval():
    batches = []
    sim = Simulation()
    ue = UeUplink(sim, _quiet_lte(), RngRegistry(3).stream("ue"))
    ue.diag.subscribe(lambda batch: batches.append((sim.now, len(batch))))
    sim.run(0.5)
    assert len(batches) == pytest.approx(12, abs=2)
    assert batches[0][1] == pytest.approx(40, abs=2)


def test_radio_latency_applied():
    sim = Simulation()
    arrivals = []
    config = _quiet_lte()
    ue = UeUplink(sim, config, RngRegistry(4).stream("ue"), sink=arrivals.append)
    packet = Packet(kind="video", size_bytes=200, created=0.0)
    ue.send(packet)
    sim.run(2.0)
    assert arrivals, "packet never delivered"
    assert arrivals[0].arrived is None  # sink invoked directly, no link stage
    # The packet left no earlier than the radio latency.
    assert sim.now >= config.radio_latency


def test_steady_buffer_tracks_offered_load():
    """PF coupling: a higher offered load sits at a higher buffer level."""
    _, ue_low, _ = _run_ue(mbps(0.8), seconds=30)
    _, ue_high, _ = _run_ue(mbps(2.0), seconds=30)
    assert ue_high.buffer_level >= 0.0  # smoke: attribute accessible
    # Compare time-averaged levels via bytes in flight proxy: rerun and sample.
    sim = Simulation()
    levels_low, levels_high = [], []
    for rate, sink in ((mbps(0.8), levels_low), (mbps(2.0), levels_high)):
        sim_i = Simulation()
        ue = UeUplink(sim_i, _quiet_lte(), RngRegistry(7).stream("ue"))
        sim_i.every(1200 * 8 / rate, lambda ue=ue, s=sim_i: ue.send(
            Packet(kind="video", size_bytes=1200, created=s.now)))
        sim_i.every(0.1, lambda ue=ue, out=sink: out.append(ue.buffer_level))
        sim_i.run(30.0)
    assert np.mean(levels_high[50:]) > np.mean(levels_low[50:])


def test_idle_ue_pauses_and_send_wakes():
    """With nothing to send the subframe process sleeps; send() revives it."""
    sim = Simulation()
    delivered = []
    ue = UeUplink(sim, _quiet_lte(), RngRegistry(5).stream("ue"), sink=delivered.append)
    sim.run(0.5)
    assert ue._tick.paused
    ue.send(Packet(kind="video", size_bytes=600, created=sim.now))
    assert not ue._tick.paused
    sim.run(0.5)
    assert delivered
    assert ue.bytes_sent >= 600
    assert ue._tick.paused  # buffer and BSR ring drained → asleep again


def test_idle_backfill_keeps_full_subframe_grid():
    """Paused subframes still appear as all-zero diag records on the grid."""
    from repro.units import LTE_SUBFRAME

    records = []
    sim = Simulation()
    ue = UeUplink(sim, _quiet_lte(), RngRegistry(3).stream("ue"))
    ue.diag.subscribe(records.extend)
    sim.run(0.2)
    reference = Simulation()
    grid = []
    reference.every(LTE_SUBFRAME, lambda: grid.append(reference.now))
    reference.run(0.2)
    times = [r.time for r in records]
    assert len(times) > 150
    assert times == grid[: len(times)]
    assert all(r.buffer_bytes == 0.0 and r.tbs_bytes == 0.0 for r in records)

