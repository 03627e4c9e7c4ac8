"""Channel process: shadowing, mobility, handovers, deep fades."""

import dataclasses

import numpy as np
import pytest

from repro.config import ChannelConfig
from repro.lte.channel import ChannelProcess, derive_channel_dynamics
from repro.sim.blocks import CallDraws
from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry


def _run_channel(config, seconds=60.0, seed=3):
    sim = Simulation()
    channel = ChannelProcess(config, CallDraws(RngRegistry(seed).stream("ch")))
    sim.every(config.update_interval, lambda: channel.update(sim.now))
    samples = []
    sim.every(0.05, lambda: samples.append((channel.rss_dbm, channel.cqi(sim.now))))
    sim.run(seconds)
    return channel, samples


def test_rss_fluctuates_around_mean():
    config = ChannelConfig(rss_dbm=-82.0, deep_fade_rate_per_min=0.0)
    _, samples = _run_channel(config)
    rss = np.array([r for r, _ in samples])
    assert abs(rss.mean() - (-82.0)) < 3.0
    assert rss.std() > 0.5


def test_shadow_sigma_scales_spread():
    calm = ChannelConfig(shadow_sigma_db=1.0, deep_fade_rate_per_min=0.0)
    wild = ChannelConfig(shadow_sigma_db=6.0, deep_fade_rate_per_min=0.0)
    _, calm_samples = _run_channel(calm, seconds=120)
    _, wild_samples = _run_channel(wild, seconds=120)
    calm_std = np.std([r for r, _ in calm_samples])
    wild_std = np.std([r for r, _ in wild_samples])
    assert wild_std > 2.0 * calm_std


def test_static_channel_has_no_handover():
    config = ChannelConfig(speed_mph=0.0, deep_fade_rate_per_min=0.0)
    _, samples = _run_channel(config, seconds=120)
    assert all(cqi > 0 for _, cqi in samples)


def test_driving_triggers_handover_outages():
    config = ChannelConfig(
        speed_mph=50.0,
        handover_rate_per_min_at_30mph=10.0,
        deep_fade_rate_per_min=0.0,
    )
    _, samples = _run_channel(config, seconds=120)
    assert any(cqi == 0 for _, cqi in samples)


def test_deep_fades_attenuate_rss():
    config = ChannelConfig(
        rss_dbm=-80.0,
        shadow_sigma_db=0.01,
        deep_fade_rate_per_min=30.0,
        deep_fade_depth_db=20.0,
        deep_fade_duration=(1.0, 2.0),
    )
    _, samples = _run_channel(config, seconds=60)
    rss = np.array([r for r, _ in samples])
    assert rss.min() < -90.0  # at least one deep fade hit
    assert rss.max() > -82.0  # and the channel recovers


def test_mobility_compresses_correlation_time():
    static = ChannelConfig(speed_mph=0.0, deep_fade_rate_per_min=0.0)
    moving = dataclasses.replace(static, speed_mph=50.0)
    static_dynamics = derive_channel_dynamics(static)
    moving_dynamics = derive_channel_dynamics(moving)
    assert moving_dynamics.corr_time < static_dynamics.corr_time
    assert moving_dynamics.sigma > static_dynamics.sigma


def test_cqi_reflects_rss_level():
    strong = ChannelConfig(rss_dbm=-73.0, shadow_sigma_db=0.01, deep_fade_rate_per_min=0.0)
    weak = ChannelConfig(rss_dbm=-115.0, shadow_sigma_db=0.01, deep_fade_rate_per_min=0.0)
    _, strong_samples = _run_channel(strong, seconds=10)
    _, weak_samples = _run_channel(weak, seconds=10)
    assert np.mean([c for _, c in strong_samples]) > np.mean([c for _, c in weak_samples]) + 5
