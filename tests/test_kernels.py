"""Array kernels vs scalar references: bit-exactness properties.

Every ``*_array`` kernel must equal mapping its scalar twin element by
element — not approximately, *exactly* (``==`` on floats, including the
inf edges).  The same holds one level up: a full traced session run
with the vectorised kernels must be byte-identical to one run with
``set_reference_kernels(True)``.  These tests are what lets the perf
work claim "same numbers, faster".
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.compression.matrix import (
    build_mode_matrix,
    build_mode_matrix_reference,
    clear_matrix_cache,
    pixel_ratio,
)
from repro.sim.rng import RngRegistry
from repro.telephony.receiver import roi_region_psnr
from repro.telephony.session import run_session
from repro.traces.scenarios import scenario
from repro.video import quality
from repro.video.content import ContentModel
from repro.video.encoder import FrameEncoder
from repro.video.quality import (
    displayed_tile_psnr,
    displayed_tile_psnr_array,
    mse_from_psnr,
    mse_from_psnr_array,
    psnr_from_bpp,
    psnr_from_bpp_array,
    psnr_from_mse,
    psnr_from_mse_array,
    scale_psnr,
    scale_psnr_array,
    set_reference_kernels,
)


@pytest.fixture(autouse=True)
def _vectorized_kernels():
    """Tests compare against scalars explicitly; keep the mode clean."""
    previous = set_reference_kernels(False)
    yield
    set_reference_kernels(previous)


# Edge-heavy operating points: zero/negative bpp (floor), huge bpp
# (ceiling), level 1 (lossless → +inf scale PSNR), sub-unit complexity.
BPP_EDGES = np.array([-0.5, 0.0, 1e-9, 1e-4, 0.01, 0.08, 0.5, 5.0, 500.0])
LEVEL_EDGES = np.array([0.5, 1.0, 1.0000001, 1.5, 2.25, 8.0, 64.0])
MSE_EDGES = np.array([-1.0, 0.0, 1e-12, 0.5, 42.0, 65025.0])
PSNR_EDGES = np.array([-10.0, 0.0, 20.0, 37.0, 80.0, float("inf")])


def test_mse_from_psnr_array_matches_scalar():
    out = mse_from_psnr_array(PSNR_EDGES)
    assert out.tolist() == [mse_from_psnr(p) for p in PSNR_EDGES]


def test_psnr_from_mse_array_matches_scalar_including_inf():
    out = psnr_from_mse_array(MSE_EDGES)
    assert out.tolist() == [psnr_from_mse(m) for m in MSE_EDGES]
    assert out[0] == float("inf") and out[1] == float("inf")


def test_psnr_from_bpp_array_matches_scalar(video_config):
    for complexity in (0.25, 1.0, 3.7):
        out = psnr_from_bpp_array(BPP_EDGES, video_config, complexity)
        assert out.tolist() == [
            psnr_from_bpp(b, video_config, complexity) for b in BPP_EDGES
        ]
    # floor and ceiling really hit on the edge inputs
    out = psnr_from_bpp_array(BPP_EDGES, video_config, 1.0)
    assert out[0] == video_config.psnr_floor
    assert out[-1] == video_config.psnr_ceiling


def test_psnr_from_bpp_array_broadcasts_complexity(video_config):
    complexity = np.linspace(0.5, 2.0, len(BPP_EDGES))
    out = psnr_from_bpp_array(BPP_EDGES, video_config, complexity)
    assert out.tolist() == [
        psnr_from_bpp(b, video_config, c) for b, c in zip(BPP_EDGES, complexity)
    ]


def test_scale_psnr_array_matches_scalar(video_config):
    out = scale_psnr_array(LEVEL_EDGES, video_config)
    assert out.tolist() == [scale_psnr(l, video_config) for l in LEVEL_EDGES]
    assert out[0] == float("inf") and out[1] == float("inf")


def test_displayed_tile_psnr_array_matches_scalar(video_config):
    bpp, levels = np.meshgrid(BPP_EDGES, LEVEL_EDGES, indexing="ij")
    bpp, levels = bpp.ravel(), levels.ravel()
    out = displayed_tile_psnr_array(bpp, levels, video_config, 1.3)
    assert out.tolist() == [
        displayed_tile_psnr(b, l, video_config, 1.3) for b, l in zip(bpp, levels)
    ]


def test_reference_mode_kernels_equal_vectorized(video_config):
    """The ``set_reference_kernels`` scalar loop is the same function."""
    bpp, levels = np.meshgrid(BPP_EDGES, LEVEL_EDGES, indexing="ij")
    vec = displayed_tile_psnr_array(bpp, levels, video_config)
    set_reference_kernels(True)
    ref = displayed_tile_psnr_array(bpp, levels, video_config)
    assert vec.shape == ref.shape
    assert vec.tolist() == ref.tolist()


def test_complexity_tiles_matches_scalar(grid, content):
    i = np.arange(grid.tiles_x).repeat(grid.tiles_y)
    j = np.tile(np.arange(grid.tiles_y), grid.tiles_x)
    for t in (0.0, 3.7, 120.0):
        tiles = content.complexity_tiles(i, j, t)
        assert tiles.tolist() == [
            content.complexity(int(a), int(b), t) for a, b in zip(i, j)
        ]


def test_mean_complexity_shared_by_both_modes(content):
    vec = content.mean_complexity(5.5)
    set_reference_kernels(True)
    assert content.mean_complexity(5.5) == vec


# ----------------------------------------------------------------------
# Mode-matrix cache
# ----------------------------------------------------------------------


def test_cached_matrix_bit_exact_vs_reference(grid):
    clear_matrix_cache()
    for c in (1.1, 1.5, 1.8):
        for plateau in ((1, 1), (2, 1)):
            for roi in [(0, 0), (5, 4), (11, 8), (3, 7)]:
                cached = build_mode_matrix(grid, roi, c, plateau)
                fresh = build_mode_matrix_reference(grid, roi, c, plateau)
                assert cached.tolist() == fresh.tolist()


def test_cached_matrix_is_read_only_and_shared(grid):
    clear_matrix_cache()
    first = build_mode_matrix(grid, (5, 4), 1.5, (1, 1))
    again = build_mode_matrix(grid, (5, 4), 1.5, (1, 1))
    assert again is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 99.0


def test_cached_matrix_wraps_roi_x(grid):
    clear_matrix_cache()
    wrapped = build_mode_matrix(grid, (5 + grid.tiles_x, 4), 1.5, (1, 1))
    assert wrapped is build_mode_matrix(grid, (5, 4), 1.5, (1, 1))


def test_pixel_ratio_memo_exact(grid):
    clear_matrix_cache()
    matrix = build_mode_matrix(grid, (7, 2), 1.5, (1, 1))
    fresh = build_mode_matrix_reference(grid, (7, 2), 1.5, (1, 1))
    assert pixel_ratio(matrix) == pixel_ratio(fresh)
    assert pixel_ratio(matrix) == pixel_ratio(matrix)  # memo hit


# ----------------------------------------------------------------------
# Bounded memos
# ----------------------------------------------------------------------


def test_config_memo_is_bounded(video_config):
    from repro.config import VideoConfig
    from repro.video.quality import _CONFIG_MEMO, _CONFIG_MEMO_MAX, anchor_bpp

    configs = [VideoConfig() for _ in range(3 * _CONFIG_MEMO_MAX)]
    for config in configs:
        anchor_bpp(config)
    assert len(_CONFIG_MEMO) <= _CONFIG_MEMO_MAX
    # entries keep strong refs, so ids cannot alias stale values
    for entry in _CONFIG_MEMO.values():
        assert entry[0] in configs


def test_matrix_cache_is_bounded(grid):
    from repro.compression import matrix as matrix_module

    clear_matrix_cache()
    cap = matrix_module._MATRIX_CACHE_MAX
    for k in range(cap + 50):
        build_mode_matrix(grid, (k % grid.tiles_x, k % grid.tiles_y), 1.0 + k * 1e-6, (1, 1))
    assert len(matrix_module._MATRIX_CACHE) <= cap
    clear_matrix_cache()


# ----------------------------------------------------------------------
# Receiver ROI-region kernel and encoder caches
# ----------------------------------------------------------------------


def _roi_crop(grid, video, center):
    half = video.roi_measure_halfwidth
    span = np.arange(-half, half + 1)
    dx, dy = np.repeat(span, len(span)), np.tile(span, len(span))
    j = center[1] + dy
    valid = (j >= 0) & (j < grid.tiles_y)
    return (center[0] + dx[valid]) % grid.tiles_x, j[valid]


def _psnr_batches(grid, video, centers):
    """All crops of ``centers`` with a distinct matrix, bpp and capture
    time per frame, grouped by crop size as the receiver groups them."""
    groups = {}
    for k, center in enumerate(centers):
        i, j = _roi_crop(grid, video, center)
        sender_roi = ((k * 5) % grid.tiles_x, k % grid.tiles_y)
        matrix = build_mode_matrix(grid, sender_roi, 1.5, (1, 1))
        frame = (i, j, matrix[i, j], 0.02 + 0.01 * (k % 9), 0.033 * k)
        groups.setdefault(len(i), []).append(frame)
    return [
        tuple(np.array([frame[field] for frame in frames]) for field in range(5))
        for frames in groups.values()
    ]


def test_roi_region_psnr_matches_reference_loop(grid, video_config, content):
    from repro.video.projection import solid_angle_weights

    centers = [(x, y) for x in range(grid.tiles_x) for y in range(grid.tiles_y)]
    batches = _psnr_batches(grid, video_config, centers)
    assert sorted(len(batch[0][0]) for batch in batches) == [6, 9]  # pole rows clip
    for weights in (None, solid_angle_weights(grid)):
        for i, j, levels, bpp, times in batches:
            batched = roi_region_psnr(
                i, j, levels, bpp, times, video_config, content, weights
            ).tolist()
            set_reference_kernels(True)
            reference = [
                roi_region_psnr(
                    i[f : f + 1], j[f : f + 1], levels[f : f + 1], bpp[f : f + 1],
                    times[f : f + 1], video_config, content, weights,
                )[0]
                for f in range(len(i))
            ]
            set_reference_kernels(False)
            assert batched == reference


def test_encoder_caches_do_not_change_frames(grid, video_config):
    def frames(reference):
        registry = RngRegistry(seed=23)
        content = ContentModel(grid, registry.stream("content"))
        encoder = FrameEncoder(
            video_config, grid, content, registry.stream("encoder"), reference=reference
        )
        out = []
        matrices = [
            build_mode_matrix(grid, (k % grid.tiles_x, 4), 1.5, (1, 1))
            for k in range(6)
        ]
        for k in range(40):
            matrix = matrices[k // 8 % len(matrices)]  # repeats → cache hits
            frame = encoder.encode(matrix, (k % grid.tiles_x, 4), 2.5e6, 0.033 * k)
            out.append(repr(dataclasses.asdict(frame)))
        return out

    assert frames(reference=False) == frames(reference=True)


# ----------------------------------------------------------------------
# End-to-end: the whole session is byte-identical pre/post kernels
# ----------------------------------------------------------------------


def _session_digest(result):
    return (
        repr(dataclasses.asdict(result.summary)),
        result.log.frame_delays,
        result.log.roi_psnrs,
        result.log.diag_seconds,
        result.log.frames_displayed,
    )


def _replayed_psnrs(result):
    hist = result.meter.histogram("receiver.psnr_db")
    _, traced = result.trace.series("receiver.frame", "psnr_db")
    return (
        result.log.roi_psnrs,
        (hist.sum, hist.count, hist.counts),
        traced,
    )


def test_replayed_psnr_identical_with_reference_kernels():
    """The viewer computes every ROI PSNR after the run; a traced and
    metered run with warm-up fills the log, the histogram and every
    ``receiver.frame`` event the same in both kernel modes."""
    config = scenario("cellular", scheme="poi360", transport="fbcc", duration=5.0, seed=6)

    def run():
        return _replayed_psnrs(run_session(config, warmup=2.0, trace=True, meter=True))

    vectorized = run()
    set_reference_kernels(True)
    reference = run()
    set_reference_kernels(False)
    assert vectorized == reference
    psnrs, (_, count, _), traced = vectorized
    # Warm-up frames reach the meter and the trace, not the log.
    assert len(traced) == count > len(psnrs) > 0
    assert traced[-len(psnrs):] == psnrs
    assert all(np.isfinite(traced))


@pytest.mark.parametrize("scheme", ["poi360", "conduit", "pyramid"])
def test_session_byte_identical_with_reference_kernels(scheme):
    def run():
        config = scenario(
            "cellular", scheme=scheme, transport="gcc", duration=8.0, seed=4
        )
        return _session_digest(run_session(config, warmup=3.0))

    vectorized = run()
    set_reference_kernels(True)
    reference = run()
    set_reference_kernels(False)
    assert vectorized == reference
    assert run() == vectorized  # and deterministic across repeats


# ----------------------------------------------------------------------
# tools/check_perf.py regression gate
# ----------------------------------------------------------------------


def _load_check_perf():
    path = Path(__file__).resolve().parents[1] / "tools" / "check_perf.py"
    spec = importlib.util.spec_from_file_location("check_perf", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(**speedups):
    return {
        "kernels": {name: {"speedup": value} for name, value in speedups.items()},
        "single_session_vs_seed": 1.2,
    }


def test_check_perf_passes_identical_records():
    check_perf = _load_check_perf()
    record = _record(roi_quality=1.7, matrix_build=30.0)
    assert check_perf.compare(record, record) == []


def test_check_perf_fails_on_regression():
    check_perf = _load_check_perf()
    baseline = _record(roi_quality=1.7)
    fresh = _record(roi_quality=1.0)
    failures = check_perf.compare(fresh, baseline, tolerance=0.30)
    assert len(failures) == 1 and "roi_quality" in failures[0]


def test_check_perf_clamps_noisy_large_ratios():
    check_perf = _load_check_perf()
    baseline = _record(matrix_build=67.0)
    fresh = _record(matrix_build=30.0)  # huge drop, but both ≥ clamp
    assert check_perf.compare(fresh, baseline) == []
    collapsed = _record(matrix_build=2.0)
    assert len(check_perf.compare(collapsed, baseline)) == 1


def test_check_perf_fails_on_missing_kernel():
    check_perf = _load_check_perf()
    baseline = _record(roi_quality=1.7, encoder_alloc=1.9)
    fresh = _record(roi_quality=1.7)
    failures = check_perf.compare(fresh, baseline)
    assert len(failures) == 1 and "encoder_alloc" in failures[0]


def test_single_session_leg_times_the_seed_session_so_a_slow_one_fails(monkeypatch):
    """The single-session leg runs the seed baseline's 30 s + 10 s
    session whatever ``duration``/``warmup`` the grid legs use, so a
    session leg that takes 3x the committed time fails the gate."""
    import json

    from repro.experiments import perf

    check_perf = _load_check_perf()
    committed_path = Path(__file__).resolve().parents[1] / "BENCH_perf.json"
    committed = json.loads(committed_path.read_text())
    timed = []

    def session_leg(seconds):
        def time_session(duration, warmup):
            timed.append((duration, warmup))
            return seconds

        return time_session

    monkeypatch.setattr(perf, "run_kernel_benches", lambda: committed["kernels"])
    monkeypatch.setattr(perf, "_time_grid", lambda settings, jobs: 1.0)
    monkeypatch.setattr(perf, "bench_batched_sessions", lambda: committed["batch"])
    monkeypatch.setattr(perf, "bench_batched_cells", lambda: committed["fleet_batch"])
    monkeypatch.setattr(
        perf, "bench_ledger_overhead", lambda ledger=None: committed["ledger"]
    )

    def fresh_record(seconds):
        monkeypatch.setattr(perf, "_time_single_session", session_leg(seconds))
        return perf.run_perf_bench(
            duration=10.0, warmup=4.0, jobs=1, batch=True, fleet_batch=True
        )

    same = fresh_record(committed["single_session_s"])
    assert timed == [(30.0, 10.0)] * 3
    assert check_perf.compare(same, committed) == []
    slow = fresh_record(3 * committed["single_session_s"])
    failures = check_perf.compare(slow, committed)
    assert len(failures) == 1 and "single_session_vs_seed" in failures[0]
