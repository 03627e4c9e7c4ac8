"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.matrix import build_mode_matrix, pixel_ratio
from repro.compression.mismatch import MismatchEstimator
from repro.compression.modes import ModeFamily
from repro.config import CompressionConfig, VideoConfig
from repro.lte.firmware_buffer import FirmwareBuffer
from repro.metrics.freeze import freeze_ratio
from repro.net.packet import Packet
from repro.rate_control.fbcc.bandwidth import TbsBandwidthEstimator
from repro.telephony.timestamping import decode_timestamp, encode_timestamp
from repro.video.frame import TileGrid
from repro.video.quality import (
    combine_psnr_mse,
    mse_from_psnr,
    psnr_from_bpp,
    psnr_from_mse,
)

GRID = TileGrid(3840, 1920, 12, 8)
VIDEO = VideoConfig()


@given(
    i_star=st.integers(0, 11),
    j_star=st.integers(0, 7),
    c=st.floats(1.01, 2.5),
)
def test_matrix_minimum_at_roi(i_star, j_star, c):
    matrix = build_mode_matrix(GRID, (i_star, j_star), c)
    assert matrix[i_star, j_star] == 1.0
    assert matrix.min() == 1.0
    assert np.all(matrix >= 1.0)


@given(
    i_star=st.integers(0, 11),
    j_star=st.integers(0, 7),
    c=st.floats(1.01, 2.0),
    px=st.integers(0, 3),
    py=st.integers(0, 3),
)
def test_plateau_never_increases_levels(i_star, j_star, c, px, py):
    plain = build_mode_matrix(GRID, (i_star, j_star), c)
    flat = build_mode_matrix(GRID, (i_star, j_star), c, plateau=(px, py))
    assert np.all(flat <= plain + 1e-12)


@given(
    shift=st.integers(1, 11),
    c=st.floats(1.01, 2.0),
)
def test_matrix_cyclic_shift_property(shift, c):
    base = build_mode_matrix(GRID, (0, 4), c)
    moved = build_mode_matrix(GRID, (shift, 4), c)
    assert np.allclose(np.roll(base, shift, axis=0), moved)


@given(c=st.floats(1.01, 2.5))
def test_pixel_ratio_decreases_with_aggressiveness(c):
    gentle = pixel_ratio(build_mode_matrix(GRID, (0, 4), c))
    harsher = pixel_ratio(build_mode_matrix(GRID, (0, 4), c + 0.2))
    assert 0.0 < harsher < gentle <= 1.0


@given(mismatch=st.floats(0.0, 60.0))
def test_mode_selection_always_valid(mismatch):
    family = ModeFamily(CompressionConfig())
    mode = family.mode_for_mismatch(mismatch)
    assert 1 <= mode.index <= 8
    assert 1.1 <= mode.c <= 1.8


@given(psnr=st.floats(5.0, 60.0))
def test_psnr_mse_roundtrip_property(psnr):
    assert psnr_from_mse(mse_from_psnr(psnr)) == pytest_approx(psnr)


def pytest_approx(value, rel=1e-9):
    import pytest

    return pytest.approx(value, rel=rel)


@given(bpp_a=st.floats(1e-5, 1.0), bpp_b=st.floats(1e-5, 1.0))
def test_rd_curve_monotone(bpp_a, bpp_b):
    low, high = sorted((bpp_a, bpp_b))
    assert psnr_from_bpp(low, VIDEO) <= psnr_from_bpp(high, VIDEO)


@given(psnrs=st.lists(st.floats(8.0, 50.0), min_size=1, max_size=8))
def test_combined_psnr_never_exceeds_worst(psnrs):
    combined = combine_psnr_mse(*psnrs)
    assert combined <= min(psnrs) + 1e-9


@given(
    sizes=st.lists(st.floats(1.0, 2000.0), min_size=1, max_size=60),
    grants=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=120),
)
def test_firmware_buffer_conserves_bytes(sizes, grants):
    buffer = FirmwareBuffer(capacity_bytes=30_000)
    pushed = 0.0
    for size in sizes:
        if buffer.push(Packet(kind="v", size_bytes=size, created=0.0)):
            pushed += size
    drained = 0.0
    for grant in grants:
        before = buffer.level
        buffer.drain(grant)
        drained += before - buffer.level
    import pytest

    assert buffer.level == pytest.approx(pushed - drained, abs=1e-6)
    assert buffer.level >= -1e-9


@given(st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=300))
def test_tbs_estimator_rate_bounded(tbs_values):
    estimator = TbsBandwidthEstimator(window_subframes=100)
    for value in tbs_values:
        estimator.on_tbs(value)
    max_rate = max(tbs_values) * 8 * 1000
    assert 0.0 <= estimator.rate_bps <= max_rate + 1e-6


@given(
    delays=st.lists(st.floats(0.0, 5.0), max_size=200),
    lost=st.integers(0, 50),
)
def test_freeze_ratio_bounds(delays, lost):
    ratio = freeze_ratio(delays, lost_frames=lost)
    assert 0.0 <= ratio <= 1.0


@given(t=st.floats(0.0, 99_999.0))
@settings(max_examples=50)
def test_timestamp_roundtrip_property(t):
    decoded = decode_timestamp(encode_timestamp(t))
    assert math.isclose(decoded, round(t * 1000) / 1000.0, abs_tol=1e-9)


@given(
    window=st.floats(0.5, 5.0),
    events=st.lists(
        st.tuples(st.floats(0.0, 10.0), st.floats(1.0, 64.0), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=50,
    ),
)
def test_mismatch_estimator_never_negative(window, events):
    estimator = MismatchEstimator(window_s=window)
    now = 0.0
    for dt, level, delay in sorted(events):
        now += dt
        value = estimator.observe_frame(level, delay, now)
        assert value >= 0.0
    assert estimator.average() >= 0.0
