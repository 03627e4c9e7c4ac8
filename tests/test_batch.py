"""Batched lockstep engine: bit-exact equivalence with the scalar
reference, cohort validation, and the sweep-slicing BatchRunner."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.config import SCHEMES, TRANSPORTS, SessionConfig
from repro.experiments.batch import BatchRunner, plan_cohorts, run_batched_sessions
from repro.sim.batch import BatchedSimulation, run_batched
from repro.sim.batch_cell import run_batched_cells
from repro.telephony.uplink import (
    LOCKSTEP_MODEL,
    UplinkProfile,
    batch_unsupported_reason,
    run_uplink_cell,
    run_uplink_session,
)

LOG_LIST_FIELDS = (
    "arrivals",
    "frame_delays",
    "roi_psnrs",
    "display_times",
    "roi_levels",
    "mismatches",
    "buffer_levels",
    "diag_seconds",
    "rate_trace",
)
LOG_SCALAR_FIELDS = (
    "start_time",
    "frames_sent",
    "frames_displayed",
    "frames_lost",
    "packets_lost",
    "mode_switches",
    "congestion_events",
    "sent_bits",
)


def lockstep_config(
    seed=1, rss=-82.0, speed=8.0, load=0.20, target=10240.0, duration=4.0
):
    config = SessionConfig(scheme="poi360", transport="fbcc")
    return replace(
        config,
        seed=seed,
        duration=duration,
        lte=replace(
            config.lte,
            channel=replace(config.lte.channel, rss_dbm=rss, speed_mph=speed),
            cell=replace(config.lte.cell, background_load=load),
        ),
        video=replace(config.video, fps=25.0),
        fbcc=replace(config.fbcc, target_buffer=target),
    )


def nan_equal(a, b):
    """Recursive equality where NaN == NaN (summaries of loss-free runs
    hold NaN means, and NaN != NaN would mask bit-exact agreement).
    ndarrays (the batched engine's arrivals) compare by exact value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and nan_equal(a.tolist(), b.tolist())
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(nan_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(nan_equal(a[k], b[k]) for k in a)
    return a == b


def assert_bit_identical(reference, batched):
    for field in LOG_LIST_FIELDS:
        assert nan_equal(
            getattr(reference.log, field), getattr(batched.log, field)
        ), f"log.{field} diverged"
    for field in LOG_SCALAR_FIELDS:
        assert getattr(reference.log, field) == getattr(
            batched.log, field
        ), f"log.{field} diverged"
    assert nan_equal(
        dataclasses.asdict(reference.summary), dataclasses.asdict(batched.summary)
    ), "summary diverged"


def test_cohort_of_one_reproduces_scalar_engine_exactly():
    config = lockstep_config(seed=7)
    reference = run_uplink_session(config, warmup=1.0)
    (batched,) = run_batched([config], warmup=1.0)
    assert_bit_identical(reference, batched)


def test_heterogeneous_cohort_reproduces_each_scalar_session():
    configs = [
        lockstep_config(seed=1, rss=-115.0, speed=0.0, load=0.10, target=8192.0),
        lockstep_config(seed=2, rss=-82.0, speed=30.0, load=0.55, target=10240.0),
        lockstep_config(seed=3, rss=-73.0, speed=60.0, load=0.30, target=8192.0),
    ]
    batched = run_batched(configs, warmup=0.5)
    for config, result in zip(configs, batched):
        reference = run_uplink_session(config, warmup=0.5)
        assert_bit_identical(reference, result)


def test_unsupported_configs_are_reported_and_rejected():
    aligned = lockstep_config()
    assert batch_unsupported_reason(aligned) is None

    competitors = replace(
        aligned, lte=replace(aligned.lte, cell=replace(aligned.lte.cell, competitor_count=2))
    )
    assert "competitor" in batch_unsupported_reason(competitors)

    learner = replace(aligned, fbcc=replace(aligned.fbcc, target_buffer=None))
    assert batch_unsupported_reason(learner) is not None

    off_grid = replace(aligned, video=replace(aligned.video, fps=30.0))
    assert "grid" in batch_unsupported_reason(off_grid)
    with pytest.raises(ValueError):
        run_batched([off_grid])
    with pytest.raises(ValueError):
        run_uplink_session(off_grid)


def test_mixed_cadence_cohort_rejected():
    fast_diag = lockstep_config(seed=2)
    fast_diag = replace(
        fast_diag, lte=replace(fast_diag.lte, diag_interval=0.020)
    )
    assert (
        UplinkProfile.from_config(fast_diag).signature()
        != UplinkProfile.from_config(lockstep_config()).signature()
    )
    with pytest.raises(ValueError):
        BatchedSimulation([lockstep_config(), fast_diag])


def test_plan_cohorts_groups_by_signature_and_slices():
    base = [lockstep_config(seed=s) for s in range(1, 6)]
    other = replace(
        lockstep_config(seed=9), lte=replace(base[0].lte, diag_interval=0.020)
    )
    cohorts = plan_cohorts(base + [other], max_cohort=2)
    # 5 same-signature configs in slices of 2, plus the odd one out.
    sizes = sorted(len(c) for c in cohorts)
    assert sizes == [1, 1, 2, 2]
    flat = sorted(i for cohort in cohorts for i in cohort)
    assert flat == list(range(6))
    assert [5] in cohorts  # the different cadence never shares a cohort


def test_batch_runner_matches_direct_cohort_results():
    configs = [lockstep_config(seed=s, duration=3.0) for s in range(1, 5)]
    direct = run_batched(configs, warmup=0.5)
    sliced = BatchRunner(max_cohort=2, jobs=1).run(configs, warmup=0.5)
    for a, b in zip(direct, sliced):
        # Slicing a homogeneous group into smaller cohorts must not
        # change any session (per-session RNG streams are independent).
        assert nan_equal(
            dataclasses.asdict(a.summary), dataclasses.asdict(b.summary)
        )
    convenience = run_batched_sessions(configs, warmup=0.5, max_cohort=3)
    for a, b in zip(direct, convenience):
        assert nan_equal(
            dataclasses.asdict(a.summary), dataclasses.asdict(b.summary)
        )


def test_metered_progress_run_is_bit_identical_to_plain():
    """Telemetry only *reads* engine state: a metered run with a live
    progress callback reproduces the plain run bit for bit, and the
    engine counters are pure functions of the cohort shape."""
    from repro.obs.meter import SessionMeter

    configs = [lockstep_config(seed=s, duration=3.0) for s in (1, 2, 3)]
    plain = run_batched(configs, warmup=0.5)
    meter = SessionMeter()
    ticks = []
    observed = run_batched(
        configs,
        warmup=0.5,
        meter=meter,
        progress=lambda k, total, n: ticks.append((k, total, n)),
    )
    for reference, result in zip(plain, observed):
        assert_bit_identical(reference, result)

    counters = meter.metrics.counters
    total_ticks = ticks[-1][1]
    assert counters["batch.cohorts"] == 1.0
    assert counters["batch.sessions"] == 3.0
    assert counters["batch.subframes"] == 3.0 * total_ticks
    assert "batch.run" in meter.spans.as_dict()

    # progress: ticks nondecreasing, constant total/sessions, ends at total.
    assert ticks[-1][0] == total_ticks
    assert all(n == 3 for _, _, n in ticks)
    assert all(t == total_ticks for _, t, _ in ticks)
    assert all(a[0] < b[0] for a, b in zip(ticks, ticks[1:]))


def test_cohort_counters_are_slicing_invariant():
    """However a sweep is sliced into cohorts, the summed batch.sessions
    and batch.subframes are identical (batch.cohorts is the slicing)."""
    configs = [lockstep_config(seed=s, duration=3.0) for s in range(1, 5)]

    def totals(max_cohort):
        runner = BatchRunner(max_cohort=max_cohort, scalar_crossover=0, jobs=1)
        _, meter = runner.run_metered(configs, warmup=0.5)
        return meter.metrics.counters

    whole = totals(max_cohort=8)
    sliced = totals(max_cohort=2)
    assert whole["batch.sessions"] == sliced["batch.sessions"] == 4.0
    assert whole["batch.subframes"] == sliced["batch.subframes"]
    assert whole["batch.cohorts"] == 1.0
    assert sliced["batch.cohorts"] == 2.0


def test_scalar_crossover_routes_small_cohorts_to_scalar_engine():
    configs = [lockstep_config(seed=s, duration=3.0) for s in (1, 2)]
    results, meter = BatchRunner(scalar_crossover=8, jobs=1).run_metered(
        configs, warmup=0.5
    )
    assert meter.metrics.counters["batch.scalar_fallbacks"] == 2.0
    assert "batch.cohorts" not in meter.metrics.counters
    reference = run_batched(configs, warmup=0.5)
    for a, b in zip(reference, results):
        assert_bit_identical(a, b)


def test_batch_runner_raises_on_unsupported_by_default():
    bad = replace(
        lockstep_config(), video=replace(lockstep_config().video, fps=30.0)
    )
    with pytest.raises(ValueError, match="lockstep"):
        BatchRunner().run([lockstep_config(), bad])


@pytest.mark.parametrize(
    "scheme,transport", [(s, t) for s in SCHEMES for t in TRANSPORTS]
)
def test_every_engine_entry_point_refuses_unmodelled_labels(scheme, transport):
    """The lockstep engines model only LOCKSTEP_MODEL; any other label
    pair is refused by every entry point instead of being published
    under a name the profile does not simulate."""
    config = replace(lockstep_config(duration=0.2), scheme=scheme, transport=transport)
    runs = {
        "run_uplink_session": lambda: run_uplink_session(config),
        "run_batched": lambda: run_batched([config]),
        "BatchRunner.run": lambda: BatchRunner(jobs=1).run([config]),
        "run_uplink_cell": lambda: run_uplink_cell(config, ues=2),
        "run_batched_cells": lambda: run_batched_cells([[config, config]]),
    }
    if (scheme, transport) == LOCKSTEP_MODEL:
        assert batch_unsupported_reason(config) is None
        for name, run in runs.items():
            assert run(), name
        return
    reason = batch_unsupported_reason(config)
    assert reason is not None and f"transport={transport!r}" in reason
    for name, run in runs.items():
        with pytest.raises(ValueError, match="models only"):
            run()
