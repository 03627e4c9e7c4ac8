"""The performance microbenchmark behind ``repro360 perf``.

Two families of measurements, written to ``BENCH_perf.json`` so the
perf trajectory of the simulator is tracked from PR to PR:

1. **Session legs** — one 30 s cellular POI360 session (the
   single-process hot path), the Fig. 11-14 micro-grid serially, and
   the same grid fanned across worker processes.
2. **Named kernel microbenchmarks** — each times a vectorised hot-path
   kernel against its scalar reference implementation in the same
   process, so the recorded ``speedup`` is a machine-portable ratio:

   - ``matrix_build``   — cached/rolled Eq. (1) mode matrices vs a
     fresh ``build_mode_matrix_reference`` build per ROI move;
   - ``roi_quality``    — the viewer's batched ROI-region PSNR replay vs
     the per-tile scalar loop (``set_reference_kernels`` path);
   - ``encoder_alloc``  — steady-state ``FrameEncoder.encode`` with the
     per-matrix caches vs a ``reference=True`` encoder;
   - ``full_session``   — the 30 s single-session leg (absolute time,
     plus the ratio against the pre-optimisation seed baseline); it
     always runs the baseline's 30 s + 10 s session.

A third, always-on leg guards the observability layer itself:
``bench_ledger_overhead`` times a batched cohort plain vs with full run
telemetry (engine meter + heartbeat stream + snapshot) in interleaved
pairs and records ``overhead_ratio``, the median per-pair ratio;
``tools/check_perf.py`` holds it above an absolute 0.95 floor so the
run ledger stays within 5% of free.

Caches that could fake the numbers are bypassed while measuring — the
session legs really simulate, and the kernel legs clear the mode-matrix
cache before their cold start.  The *ratios* are the tracked signal,
not the absolute wall-clock numbers; ``tools/check_perf.py`` compares a
fresh record against the committed one and fails on regression.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Optional

import numpy as np

from repro.experiments import cache as result_cache
from repro.experiments.microbench import NETWORKS, SCHEMES
from repro.experiments.parallel import resolve_jobs
from repro.experiments.runner import ExperimentSettings, clear_cache, run_grid
from repro.roi.users import USER_PROFILES
from repro.telephony.session import TelephonySession
from repro.traces.scenarios import scenario

#: Wall-clock numbers measured on the pre-optimisation tree (same
#: machine class as CI), recorded when the perf subsystem landed; they
#: are the "before" column of this bench's first report.
SEED_BASELINE = {
    "single_session_s": 0.659,
    "note": "best of 5: 30 s cellular/poi360/gcc session (10 s warm-up) "
    "before hot-path batching",
}

#: The single-session leg's session and warm-up length: the seed
#: baseline's own, whatever ``duration``/``warmup`` the grid legs use,
#: so ``single_session_vs_seed`` compares the same session.
SEED_SESSION_DURATION = 30.0
SEED_SESSION_WARMUP = 10.0


def _best_of(repeats: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _time_single_session(duration: float, warmup: float) -> float:
    config = scenario(
        "cellular", scheme="poi360", transport="gcc", duration=duration, seed=3
    )
    start = time.perf_counter()
    TelephonySession(config, profile=USER_PROFILES[1]).run(duration, warmup)
    return time.perf_counter() - start


def _time_grid(settings: ExperimentSettings, jobs: int) -> float:
    clear_cache()
    start = time.perf_counter()
    run_grid(NETWORKS, SCHEMES, transport="gcc", settings=settings, jobs=jobs)
    elapsed = time.perf_counter() - start
    clear_cache()
    return elapsed


# ----------------------------------------------------------------------
# Named kernel microbenchmarks
# ----------------------------------------------------------------------


def _bench_entry(vectorized_s: float, reference_s: float, iterations: int) -> dict:
    return {
        "iterations": iterations,
        "vectorized_s": round(vectorized_s, 5),
        "reference_s": round(reference_s, 5),
        "speedup": round(reference_s / vectorized_s, 3) if vectorized_s > 0 else None,
    }


def bench_matrix_build(iterations: int = 4000, repeats: int = 3) -> dict:
    """Mode-matrix builds across a rotating ROI: cache+roll vs fresh."""
    from repro.compression.matrix import (
        build_mode_matrix,
        build_mode_matrix_reference,
        clear_matrix_cache,
    )
    from repro.config import VideoConfig
    from repro.video.frame import TileGrid

    video = VideoConfig()
    grid = TileGrid(video.width, video.height, video.tiles_x, video.tiles_y)
    rois = [(k % grid.tiles_x, (k // grid.tiles_x) % grid.tiles_y) for k in range(iterations)]
    cs = (1.8, 1.5, 1.1)

    def cached() -> None:
        for k, roi in enumerate(rois):
            build_mode_matrix(grid, roi, cs[k % 3], (1, 1))

    def reference() -> None:
        for k, roi in enumerate(rois):
            build_mode_matrix_reference(grid, roi, cs[k % 3], (1, 1))

    clear_matrix_cache()
    vectorized = _best_of(repeats, cached)
    reference_s = _best_of(repeats, reference)
    return _bench_entry(vectorized, reference_s, iterations)


def bench_roi_quality(iterations: int = 2000, repeats: int = 3) -> dict:
    """The viewer's ROI-region PSNR replay: one batched kernel call over
    ``iterations`` frames vs the scalar per-tile reference loop, one
    frame at a time."""
    from repro.compression.matrix import build_mode_matrix
    from repro.sim.rng import RngRegistry
    from repro.telephony.receiver import roi_region_psnr
    from repro.video import quality
    from repro.video.content import ContentModel
    from repro.video.frame import TileGrid
    from repro.config import VideoConfig

    video = VideoConfig()
    grid = TileGrid(video.width, video.height, video.tiles_x, video.tiles_y)
    content = ContentModel(grid, RngRegistry(seed=7).stream("content"))
    matrix = build_mode_matrix(grid, (5, 4), 1.5, (1, 1))
    half = video.roi_measure_halfwidth
    span = np.arange(-half, half + 1)
    dx, dy = np.repeat(span, len(span)), np.tile(span, len(span))
    j = 4 + dy
    valid = (j >= 0) & (j < grid.tiles_y)
    i, j = (5 + dx[valid]) % grid.tiles_x, j[valid]
    crops_i = np.tile(i, (iterations, 1))
    crops_j = np.tile(j, (iterations, 1))
    levels = matrix[crops_i, crops_j]
    bpp = np.full(iterations, 0.08)
    times = 0.033 * np.arange(iterations)

    def batched() -> None:
        roi_region_psnr(crops_i, crops_j, levels, bpp, times, video, content, None)

    def per_frame() -> None:
        for k in range(iterations):
            roi_region_psnr(
                crops_i[k : k + 1], crops_j[k : k + 1], levels[k : k + 1],
                bpp[k : k + 1], times[k : k + 1], video, content, None,
            )

    vectorized = _best_of(repeats, batched)
    previous = quality.set_reference_kernels(True)
    try:
        reference_s = _best_of(repeats, per_frame)
    finally:
        quality.set_reference_kernels(previous)
    return _bench_entry(vectorized, reference_s, iterations)


def bench_encoder_alloc(iterations: int = 3000, repeats: int = 3) -> dict:
    """Steady-state frame encoding (bit allocation + intra accounting):
    per-matrix caches vs the uncached reference encoder."""
    from repro.compression.matrix import build_mode_matrix
    from repro.sim.rng import RngRegistry
    from repro.video.content import ContentModel
    from repro.video.encoder import FrameEncoder
    from repro.video.frame import TileGrid
    from repro.config import VideoConfig

    video = VideoConfig()
    grid = TileGrid(video.width, video.height, video.tiles_x, video.tiles_y)
    matrix = build_mode_matrix(grid, (5, 4), 1.5, (1, 1))

    def run(reference: bool) -> None:
        registry = RngRegistry(seed=11)
        content = ContentModel(grid, registry.stream("content"))
        encoder = FrameEncoder(
            video, grid, content, registry.stream("encoder"), reference=reference
        )
        for k in range(iterations):
            encoder.encode(matrix, (5, 4), 2.5e6, 0.033 * k)

    vectorized = _best_of(repeats, run, False)
    reference_s = _best_of(repeats, run, True)
    return _bench_entry(vectorized, reference_s, iterations)


def run_kernel_benches() -> dict:
    """All named kernel microbenchmarks, keyed by name."""
    return {
        "matrix_build": bench_matrix_build(),
        "roi_quality": bench_roi_quality(),
        "encoder_alloc": bench_encoder_alloc(),
    }


# ----------------------------------------------------------------------
# Batched lockstep engine (repro.sim.batch)
# ----------------------------------------------------------------------


def _lockstep_config(seed: int, duration: float):
    """One cellular uplink config on the lockstep grid (25 fps)."""
    from dataclasses import replace

    from repro.config import SessionConfig

    config = SessionConfig(scheme="poi360", transport="fbcc")
    return replace(
        config,
        seed=seed,
        duration=duration,
        lte=replace(
            config.lte,
            channel=replace(config.lte.channel, rss_dbm=-82.0, speed_mph=8.0),
        ),
        video=replace(config.video, fps=25.0),
    )


def bench_batched_sessions(
    duration: float = 5.0,
    cohorts: tuple = (1, 8, 16, 32, 64, 1024, 2048),
    serial_sessions: int = 4,
    repeats: int = 2,
    serial_s: Optional[float] = None,
) -> dict:
    """Lockstep cohort throughput vs the serial reference engine.

    Both sides run the *same* uplink workload: the serial leg drives
    one :class:`repro.telephony.uplink.UplinkSession` per seed through
    its plain integer-tick loop; the batched legs advance
    whole cohorts per tick through :class:`repro.sim.batch.
    BatchedSimulation` (bit-identical results, see tests/test_batch.py).
    The tracked signal is ``sessions_per_sec`` — aggregate simulated
    session-seconds per wall-clock second — and the headline
    ``speedup`` is the largest cohort's rate over the serial rate.
    Serial and batched legs are each best-of-``repeats`` so a noisy
    neighbour on a CI box skews the ratio as little as possible.

    The serial reference is timed **once** and its rate reused as the
    denominator for every cohort size (it does not depend on the cohort
    under test); callers that already hold a measurement — a second
    bench invocation in the same process, a CI smoke re-run — can pass
    it in as ``serial_s`` and skip the serial leg entirely.
    """
    import gc

    from repro.sim.batch import run_batched
    from repro.telephony.uplink import run_uplink_session

    def serial_leg() -> None:
        for seed in range(serial_sessions):
            run_uplink_session(_lockstep_config(seed + 1, duration))

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if serial_s is None:
            serial_s = _best_of(repeats, serial_leg)
        serial_rate = serial_sessions * duration / serial_s
        cohort_entries = {}
        for n in cohorts:
            configs = [_lockstep_config(seed + 1, duration) for seed in range(n)]
            gc.collect()
            elapsed = _best_of(repeats, run_batched, configs)
            rate = n * duration / elapsed
            cohort_entries[str(n)] = {
                "run_s": round(elapsed, 4),
                "sessions_per_sec": round(rate, 1),
                "speedup": round(rate / serial_rate, 3),
            }
    finally:
        if gc_was_enabled:
            gc.enable()
    headline = cohort_entries[str(max(cohorts))]
    from repro.experiments.batch import DEFAULT_SCALAR_CROSSOVER

    return {
        "profile": "cellular uplink lockstep grid (25 fps)",
        "session_duration_s": duration,
        "serial_sessions": serial_sessions,
        "serial_engine_s_per_session": round(serial_s / serial_sessions, 4),
        "serial_sessions_per_sec": round(serial_rate, 1),
        "cohorts": cohort_entries,
        "batched_sessions_per_sec": headline["sessions_per_sec"],
        "batched_speedup": headline["speedup"],
        "scalar_crossover": DEFAULT_SCALAR_CROSSOVER,
    }


def bench_batched_cells(
    duration: float = 5.0,
    members: int = 4,
    cell_counts: tuple = (1, 8, 32, 128),
    serial_cells: int = 2,
    repeats: int = 2,
    pairs: int = 5,
) -> dict:
    """Batched shared-cell throughput vs the scalar cell reference.

    The fleet counterpart of :func:`bench_batched_sessions`: the serial
    leg drives ``serial_cells`` scalar :class:`repro.telephony.uplink.
    UplinkCellSession` cells (N coupled members each, one Python tick
    loop per cell); the batched legs advance C-cell blocks through
    :func:`repro.sim.batch.run_batched_cells` (bit-identical results,
    see tests/test_batch_cell.py).  The tracked signal is aggregate
    *cell-member sessions per second*.  The headline ``speedup`` is the
    largest block's rate over the serial rate — at the default sizes
    C×N = 512 coupled sessions per lockstep tick — measured like
    ``ledger.overhead_ratio``: ``pairs`` back-to-back serial/headline
    pairs whose order alternates, and the median per-pair ratio, so a
    burst of slow core hits both sides of a pair alike.  The smaller
    blocks are timed best of ``repeats`` against the median serial time.
    """
    import gc
    import statistics

    from repro.config import FleetConfig
    from repro.sim.batch import run_batched_cells
    from repro.telephony.fleet import member_configs
    from repro.telephony.uplink import UplinkCellSession

    def cell_inputs(count: int):
        cells = []
        fleets = []
        for index in range(count):
            base = _lockstep_config(1 + 1_000_000 * index, duration)
            cells.append(member_configs(base, members))
            fleets.append(FleetConfig(ues=members, seed=base.seed))
        return cells, fleets

    def serial_leg() -> None:
        cells, fleets = cell_inputs(serial_cells)
        for cell, fleet in zip(cells, fleets):
            UplinkCellSession(cell, fleet=fleet).run()

    headline_cells = max(cell_counts)
    block_times = {}
    serial_times, headline_times = [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for count in cell_counts:
            if count != headline_cells:
                cells, fleets = cell_inputs(count)
                gc.collect()
                block_times[count] = _best_of(repeats, run_batched_cells, cells, fleets)
        cells, fleets = cell_inputs(headline_cells)
        gc.collect()
        for pair in range(pairs):
            if pair % 2:
                headline_times.append(_best_of(1, run_batched_cells, cells, fleets))
                serial_times.append(_best_of(1, serial_leg))
            else:
                serial_times.append(_best_of(1, serial_leg))
                headline_times.append(_best_of(1, run_batched_cells, cells, fleets))
    finally:
        if gc_was_enabled:
            gc.enable()
    block_times[headline_cells] = statistics.median(headline_times)
    serial_rate = serial_cells * members * duration / statistics.median(serial_times)
    block_entries = {}
    for count in cell_counts:
        rate = count * members * duration / block_times[count]
        block_entries[str(count)] = {
            "run_s": round(block_times[count], 4),
            "sessions_per_sec": round(rate, 1),
            "speedup": round(rate / serial_rate, 3),
        }
    ratios = [
        headline_cells * serial / (serial_cells * headline)
        for serial, headline in zip(serial_times, headline_times)
    ]
    headline = block_entries[str(headline_cells)]
    headline["speedup"] = round(statistics.median(ratios), 3)
    return {
        "profile": "cellular uplink lockstep grid (25 fps), shared cells",
        "session_duration_s": duration,
        "members_per_cell": members,
        "serial_cells": serial_cells,
        "pairs": pairs,
        "serial_sessions_per_sec": round(serial_rate, 1),
        "cells": block_entries,
        "max_coupled_sessions": headline_cells * members,
        "batched_sessions_per_sec": headline["sessions_per_sec"],
        "batched_speedup": headline["speedup"],
    }


def bench_ledger_overhead(
    duration: float = 5.0,
    sessions: int = 16,
    pairs: int = 7,
    ledger=None,
) -> dict:
    """Ledger-on vs ledger-off batched session throughput.

    Times the same lockstep cohort plain and with the full run telemetry
    attached (engine meter, tick-loop heartbeat stream into a scratch
    run directory, one OpenMetrics snapshot per timed run), in ``pairs``
    back-to-back plain/ledger pairs whose order alternates, so a burst
    of slow core hits both sides of a pair alike.  The tracked ratio is
    ``overhead_ratio``, the median over the pairs of ``plain_s /
    ledger_s`` — ledgered throughput over plain throughput, so 1.0 is
    free telemetry and ``tools/check_perf.py`` fails below its 0.95
    absolute floor (the ledger must cost under 5%).  ``plain_s`` and
    ``ledger_s`` are each side's median time.

    ``ledger``, when given, is the *perf run's own*
    :class:`repro.obs.ledger.RunLedger`: the ledger legs' meters are
    folded into its live registry so a ledgered ``repro360 perf`` run
    ends with a real registry artifact.
    """
    import gc
    import statistics
    import tempfile

    from repro.obs.ledger import RunLedger, cohort_heartbeat_callback
    from repro.obs.meter import SessionMeter
    from repro.sim.batch import run_batched

    configs = [_lockstep_config(seed + 1, duration) for seed in range(sessions)]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    last_meter = SessionMeter()
    plain_times, ledger_times = [], []
    try:
        with tempfile.TemporaryDirectory() as scratch:
            scratch_ledger = RunLedger.open("perf-ledger-leg", root=scratch)
            heartbeat = cohort_heartbeat_callback(scratch_ledger.heartbeat_path)

            def ledger_leg() -> None:
                meter = SessionMeter()
                run_batched(configs, meter=meter, progress=heartbeat)
                scratch_ledger.snapshot(meter)
                last_meter.merge(meter)

            for pair in range(pairs):
                if pair % 2:
                    ledger_times.append(_best_of(1, ledger_leg))
                    plain_times.append(_best_of(1, run_batched, configs))
                else:
                    plain_times.append(_best_of(1, run_batched, configs))
                    ledger_times.append(_best_of(1, ledger_leg))
            scratch_ledger.finish("ok")
    finally:
        if gc_was_enabled:
            gc.enable()
    if ledger is not None:
        ledger.live.merge(last_meter)
    ratios = [plain / led for plain, led in zip(plain_times, ledger_times)]
    return {
        "profile": "cellular uplink lockstep grid (25 fps), full telemetry",
        "sessions": sessions,
        "session_duration_s": duration,
        "pairs": pairs,
        "plain_s": round(statistics.median(plain_times), 4),
        "ledger_s": round(statistics.median(ledger_times), 4),
        "overhead_ratio": round(statistics.median(ratios), 3),
    }


def run_perf_bench(
    duration: float = 30.0,
    warmup: float = 10.0,
    jobs: Optional[int] = None,
    batch: bool = False,
    fleet_batch: bool = False,
    ledger=None,
) -> dict:
    """Run every leg and return the JSON record.

    ``jobs`` is the parallel leg's worker count (``None`` means 4, ``0``
    all cores).  ``ledger`` is an optional :class:`repro.obs.ledger.RunLedger` for
    the bench invocation itself: each completed leg appends a
    ``kind="leg"`` heartbeat record (done/total/ETA over the enabled
    legs), and the ledger-overhead leg's meter seeds its registry.
    """
    workers = resolve_jobs(4 if jobs is None else jobs)
    settings = ExperimentSettings(
        duration=duration, warmup=warmup, repetitions=1, num_users=2
    )
    # On a single-CPU machine a process pool cannot win: the "speedup"
    # it would record is scheduler noise (0.99x in one committed
    # record), not signal, so the parallel leg is skipped outright.
    cpu_count = os.cpu_count() or 1
    run_parallel_leg = cpu_count > 1 and workers > 1
    legs = ["kernels", "single_session", "micro_grid_serial"]
    if run_parallel_leg:
        legs.append("micro_grid_parallel")
    if batch:
        legs.append("batch")
    if fleet_batch:
        legs.append("fleet_batch")
    legs.append("ledger_overhead")

    def leg_done(name: str) -> None:
        if ledger is not None:
            ledger.heartbeat(
                "leg", done=legs.index(name) + 1, total=len(legs), leg=name
            )

    result_cache.set_cache_enabled(False)
    try:
        kernels = run_kernel_benches()
        leg_done("kernels")
        single = min(
            _time_single_session(SEED_SESSION_DURATION, SEED_SESSION_WARMUP)
            for _ in range(3)
        )
        leg_done("single_session")
        serial = _time_grid(settings, jobs=1)
        leg_done("micro_grid_serial")
        parallel = None
        if run_parallel_leg:
            parallel = _time_grid(settings, jobs=workers)
            leg_done("micro_grid_parallel")
        batched = None
        if batch:
            batched = bench_batched_sessions()
            leg_done("batch")
        batched_cells = None
        if fleet_batch:
            batched_cells = bench_batched_cells()
            leg_done("fleet_batch")
        ledger_overhead = bench_ledger_overhead(ledger=ledger)
        leg_done("ledger_overhead")
    finally:
        result_cache.set_cache_enabled(None)
    record = {
        "bench": "repro360-perf",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "session_duration_s": duration,
        "grid_sessions": len(NETWORKS) * len(SCHEMES) * len(settings.users()),
        "single_session_s": round(single, 4),
        "micro_grid_serial_s": round(serial, 4),
        "parallel_jobs": workers,
        "micro_grid_parallel_s": round(parallel, 4) if parallel else None,
        "parallel_speedup": round(serial / parallel, 3) if parallel else None,
        "parallel_note": (
            None
            if run_parallel_leg
            else f"skipped: cpu_count={cpu_count}, workers={workers} "
            "(a pool cannot win; the ratio would be scheduler noise)"
        ),
        "kernels": kernels,
        "batch": batched,
        "fleet_batch": batched_cells,
        "ledger": ledger_overhead,
        "seed_baseline": SEED_BASELINE,
        "single_session_vs_seed": round(
            SEED_BASELINE["single_session_s"] / single, 3
        )
        if single > 0
        else None,
    }
    return record
