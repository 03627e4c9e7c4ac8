"""Batched lockstep engine: bit-exact equivalence with the scalar
reference, cohort validation, the columnar arrival stage, and the
cohort planner behind ``run_cohorts``."""

import dataclasses
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SCHEMES, TRANSPORTS, SessionConfig
from repro.experiments.batch import plan_cohorts, run_cohorts
from repro.experiments.fleet import deterministic_registry_dict
from repro.service.jobs import batch_metrics_sweep, execute_job
from repro.sim.batch import BatchedSimulation, run_batched, run_batched_cells
from repro.telephony.uplink import (
    LOCKSTEP_MODEL,
    MS,
    UplinkProfile,
    batch_unsupported_reason,
    run_uplink_cell,
    run_uplink_session,
)
from tests.test_fleet import _RecordingPool

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


@pytest.mark.parametrize(
    "knob, change",
    [
        ("fec.enabled", lambda c: replace(c, fec=replace(c.fec, enabled=True))),
        (
            "video.solid_angle_weighting",
            lambda c: replace(c, video=replace(c.video, solid_angle_weighting=True)),
        ),
        (
            "viewer.roi_prediction_horizon",
            lambda c: replace(c, viewer=replace(c.viewer, roi_prediction_horizon=0.2)),
        ),
    ],
)
def test_lockstep_refuses_knobs_it_does_not_model(knob, change):
    """The lockstep sender sends no FEC parity and its viewer has flat
    ROI quality and no prediction: a config asking for either is
    refused, not run with the knob silently ignored."""
    config = change(lockstep_config(duration=0.2))
    reason = batch_unsupported_reason(config)
    assert reason is not None and knob in reason
    with pytest.raises(ValueError, match=knob):
        run_uplink_session(config)
    with pytest.raises(ValueError, match=knob):
        run_batched([config])


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
    configs = base + [other]
    # One worker: one cohort per signature group.
    assert plan_cohorts(configs, jobs=1, min_cohort=2) == [[0, 1, 2, 3, 4], [5]]
    # Two workers: the group is cut into two contiguous, balanced
    # cohorts; the different cadence never shares a cohort.
    assert plan_cohorts(configs, jobs=2, min_cohort=2) == [[0, 1, 2], [3, 4], [5]]
    # The floor wins over the worker count: 5 sessions hold only two
    # cohorts of at least 2, and a group below the floor stays whole.
    assert plan_cohorts(configs, jobs=4, min_cohort=2) == [[0, 1, 2], [3, 4], [5]]
    assert plan_cohorts(configs, jobs=4, min_cohort=6) == [[0, 1, 2, 3, 4], [5]]


@pytest.fixture
def crossover(monkeypatch):
    """Set the scalar crossover ``run_cohorts`` plans with (the batched
    and scalar engines are bit-identical, so it moves wall clock only)."""

    def _set(value):
        monkeypatch.setattr("repro.experiments.batch.DEFAULT_SCALAR_CROSSOVER", value)

    return _set


def test_batch_runner_matches_direct_cohort_results(crossover):
    configs = [lockstep_config(seed=s, duration=3.0) for s in range(1, 5)]
    direct = run_batched(configs, warmup=0.5)
    # Below the default crossover run_cohorts takes the scalar engine.
    scalar, _ = run_cohorts(configs, warmup=0.5, jobs=1)
    for a, b in zip(direct, scalar):
        assert_bit_identical(a, b)
    # Cutting a homogeneous group into smaller cohorts must not change
    # any session (per-session RNG streams are independent).
    assert [len(c) for c in plan_cohorts(configs, jobs=2, min_cohort=2)] == [2, 2]
    crossover(2)
    sharded, _ = run_cohorts(configs, warmup=0.5, jobs=2)
    for a, b in zip(direct, sharded):
        assert_bit_identical(a, b)


def test_plan_cannot_change_results(crossover):
    """A ragged sweep (two durations, 70 + 9 sessions, so one group sits
    below the crossover) gives byte-identical sessions for every plan."""
    long_runs = [lockstep_config(seed=s, duration=2.0) for s in range(1, 71)]
    short_runs = [lockstep_config(seed=s, duration=1.0) for s in range(101, 110)]
    configs = long_runs[:30] + short_runs + long_runs[30:]
    crossover(20)
    outcomes = []
    for blocks in (1, 2, 3):
        cohorts = plan_cohorts(configs, jobs=blocks, min_cohort=20)
        assert sorted(len(c) for c in cohorts) == sorted(
            [9] + [len(c) for c in np.array_split(np.arange(70), blocks)]
        )
        results, meter = run_cohorts(configs, warmup=0.5, jobs=blocks)
        assert meter.gauges["batch.cohorts"] == len(cohorts)
        outcomes.append(results)
    first = outcomes[0]
    for other in outcomes[1:]:
        for a, b in zip(first, other):
            assert nan_equal(dataclasses.asdict(a.summary), dataclasses.asdict(b.summary))
            assert np.array_equal(np.asarray(a.log.arrivals), np.asarray(b.log.arrivals))
    for index in (0, 35):  # one batched and one scalar session
        reference = run_uplink_session(configs[index], warmup=0.5)
        assert_bit_identical(reference, first[index])


def test_runner_pools_every_multi_cohort_plan(monkeypatch, crossover):
    """``run_cohorts`` uses exactly the workers the plan was cut for: one
    process per cohort up to ``jobs``, and no pool for one cohort,
    whatever the host's CPU count."""
    import repro.experiments.parallel as parallel

    widths = []
    monkeypatch.setattr(
        parallel,
        "ProcessPoolExecutor",
        lambda max_workers: _RecordingPool(widths, max_workers),
    )
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
    crossover(2)
    configs = [lockstep_config(seed=s, duration=1.0) for s in range(1, 7)]
    # 6 sessions with a floor of 2 hold at most 3 cohorts, so 8 workers
    # get a plan of 3 cohorts, which must still run pooled.
    for jobs, expected in ((1, []), (2, [2]), (8, [3])):
        widths.clear()
        run_cohorts(configs, jobs=jobs)
        assert widths == expected


def _two_cohort_sweep():
    """76 sessions: two cohorts of the default crossover (38) at jobs=2."""
    return [lockstep_config(seed=s, duration=0.5) for s in range(1, 77)]


def test_pooled_sweep_leaves_no_worker_behind_when_progress_raises():
    """A progress callback that raises (the job service cancels this way)
    must not strand the cohort pool's worker processes."""

    def progress(done, total, outcome):
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        batch_metrics_sweep(_two_cohort_sweep(), jobs=2, progress=progress)
    assert multiprocessing.active_children() == []


def test_pooled_batch_progress_counts_sessions(tmp_path):
    """``metrics --batch`` progress counts sessions out of the sweep, in
    the callback and in the ledger's parent heartbeats alike."""
    from repro.obs.ledger import RunLedger, read_heartbeats

    seen = []
    spec = {"kind": "metrics", "batch": True, "sessions": 76, "duration": 0.5}
    with RunLedger.open("metrics", root=tmp_path) as ledger:
        execute_job(
            spec,
            jobs=2,
            ledger=ledger,
            progress=lambda done, total, outcome: seen.append(
                (done, total, len(outcome.results))
            ),
        )
        ledger.finish("ok")
    assert seen == [(38, 76, 38), (76, 76, 38)]
    beats = [r for r in read_heartbeats(ledger.run_dir) if r["kind"] == "session"]
    assert [(r["done"], r["total"]) for r in beats] == [(38, 76), (76, 76)]


def test_arrival_stage_keeps_per_session_order():
    """Packets staged when drained, empty subframes included, materialise
    into each session's arrivals in arrival order, across column growth
    and the warm-up cut, which keeps the packets still in flight."""
    rng = np.random.default_rng(5)
    n, total, warm = 6, 600, 200
    sim = BatchedSimulation([lockstep_config(seed=s) for s in range(1, n + 1)])
    deliver = sim.profile.deliver_ticks
    assert 0 < deliver < warm
    sim._open_stage(4, total)
    sim._open_frames(total)
    staged = [[] for _ in range(n)]
    for tick in range(1, total + 1):
        count = int(rng.integers(0, 4))  # 0: a subframe that sent nothing
        rows = rng.choice(n, size=count, replace=False).astype(np.int64)
        sizes = rng.uniform(1.0, 1200.0, size=count)
        sent = (rows, np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool), sizes)
        if tick + deliver <= total:  # as the tick loop stages
            sim._stage_sent(tick + deliver, sent)
            for row, size in zip(rows.tolist(), sizes.tolist()):
                staged[row].append((tick + deliver, size))
        if tick == warm:
            sim._drop_measured_arrivals(tick)
    sim._materialise_arrivals()
    for log, entries in zip(sim.logs, staged):
        expected = [[t * MS, size] for t, size in entries if t > warm]
        assert np.asarray(log.arrivals).reshape(-1, 2).tolist() == expected


class _EmptyDrainSimulation(BatchedSimulation):
    """Hands the stage a drain that sent no packet on every subframe
    where the firmware buffer completed nothing."""

    _NOTHING_SENT = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=bool),
        np.empty(0),
    )

    def _subframe(self, k, now):
        tbs, sent = super()._subframe(k, now)
        return tbs, self._NOTHING_SENT if sent is None else sent


def test_empty_drain_rounds_keep_scalar_arrival_order():
    """A tick that pops nothing stages nothing: ``drain_rows`` returns
    ``None`` when a grant completes no packet, and an empty drain handed
    to the stage leaves every session's arrivals bit-identical."""
    from repro.lte.firmware_buffer import FirmwareBufferArray

    buffer = FirmwareBufferArray(np.array([10000.0, 10000.0]))
    one = np.array([0], dtype=np.int64)
    buffer.push(one, np.array([1200.0]), one, np.array([True]))
    assert buffer.drain_rows(one, np.array([500.0])) is None
    rows, frames, completes, sizes = buffer.drain_rows(one, np.array([700.0]))
    assert (rows.tolist(), frames.tolist(), completes.tolist(), sizes.tolist()) == (
        [0], [0], [True], [1200.0]
    )

    configs = [lockstep_config(seed=s, duration=2.0) for s in (4, 5)]
    batched = _EmptyDrainSimulation(configs).run(warmup=0.5)
    for config, result in zip(configs, batched):
        assert_bit_identical(run_uplink_session(config, warmup=0.5), result)


def _with_downstream_delay(config, radio_ms, core_ms, downlink_ms):
    return replace(
        config,
        lte=replace(config.lte, radio_latency=radio_ms * MS),
        path=replace(
            config.path, core_delay=core_ms * MS, downlink_delay=downlink_ms * MS
        ),
    )


def test_zero_downstream_delay_delivers_frames():
    """With no radio, core or downlink delay a drained packet arrives in
    its own tick: the session displays frames, and a cohort of one still
    equals the scalar engine bit for bit."""
    config = _with_downstream_delay(lockstep_config(seed=3, duration=3.0), 0, 0, 0)
    assert UplinkProfile.from_config(config).deliver_ticks == 0
    reference = run_uplink_session(config, warmup=1.0)
    assert reference.log.frames_displayed > 0
    assert reference.summary.throughput.mean > 0.0
    (batched,) = run_batched([config], warmup=1.0)
    assert_bit_identical(reference, batched)


@settings(max_examples=12, deadline=None)
@given(
    seeds=st.lists(st.integers(1, 10_000), min_size=1, max_size=3),
    delays=st.tuples(st.integers(0, 8), st.integers(0, 40), st.integers(0, 70)),
    warm_ms=st.integers(0, 150),
    duration_ms=st.integers(150, 900),
)
@example(seeds=[1, 2], delays=(3, 40, 65), warm_ms=0, duration_ms=600)
@example(seeds=[1, 2], delays=(3, 40, 65), warm_ms=60, duration_ms=600)
@example(seeds=[1, 2], delays=(0, 0, 0), warm_ms=120, duration_ms=600)
def test_cohort_matches_scalar_across_in_flight_cuts(seeds, delays, warm_ms, duration_ms):
    """A cohort equals its scalar sessions when the warm-up tick and the
    last tick fall while packets are in flight: warm-up 0, a warm-up
    shorter than the downstream delay, and no downstream delay at all."""
    configs = [
        _with_downstream_delay(lockstep_config(seed=seed), *delays) for seed in seeds
    ]
    warmup, duration = warm_ms * MS, duration_ms * MS
    batched = run_batched(configs, duration=duration, warmup=warmup)
    for config, result in zip(configs, batched):
        reference = run_uplink_session(config, duration=duration, warmup=warmup)
        assert_bit_identical(reference, result)


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

    counters = meter.counters
    total_ticks = ticks[-1][1]
    # The cohort count is a plan fact, recorded by run_cohorts only.
    assert "batch.cohorts" not in counters
    assert counters["batch.sessions"] == 3.0
    assert counters["batch.subframes"] == 3.0 * total_ticks
    assert "batch.run" in meter.as_dict()["spans"]

    # progress: ticks nondecreasing, constant total/sessions, ends at total.
    assert ticks[-1][0] == total_ticks
    assert all(n == 3 for _, _, n in ticks)
    assert all(t == total_ticks for _, t, _ in ticks)
    assert all(a[0] < b[0] for a, b in zip(ticks, ticks[1:]))


@pytest.mark.parametrize("flag", [True, False])
def test_batched_meter_refuses_a_bool(flag):
    """A meter the engine would build itself is one no caller can read:
    ``meter`` is a :class:`SessionMeter` or ``None``."""
    configs = [lockstep_config(seed=1, duration=1.0)]
    with pytest.raises(TypeError, match="SessionMeter or None"):
        run_batched(configs, meter=flag)


def test_cohort_counters_are_slicing_invariant(crossover):
    """However the plan cuts a sweep into cohorts, the deterministic
    registry is identical; the cohort count is a gauge outside it."""
    configs = [lockstep_config(seed=s, duration=3.0) for s in range(1, 5)]
    crossover(2)

    def registry(jobs):
        _, meter = run_cohorts(configs, warmup=0.5, jobs=jobs)
        return meter

    whole = registry(jobs=1)
    sharded = registry(jobs=2)
    assert deterministic_registry_dict(whole) == deterministic_registry_dict(sharded)
    assert whole.counters["batch.sessions"] == 4.0
    assert whole.gauges["batch.cohorts"] == 1.0
    assert sharded.gauges["batch.cohorts"] == 2.0


def test_scalar_crossover_routes_small_cohorts_to_scalar_engine(crossover):
    configs = [lockstep_config(seed=s, duration=3.0) for s in (1, 2)]
    crossover(8)
    results, meter = run_cohorts(configs, warmup=0.5, jobs=1)
    assert meter.counters["batch.scalar_fallbacks"] == 2.0
    assert "batch.cohorts" not in meter.counters
    assert meter.gauges["batch.cohorts"] == 1.0
    reference = run_batched(configs, warmup=0.5)
    for a, b in zip(reference, results):
        assert_bit_identical(a, b)


def test_batch_runner_raises_on_unsupported_by_default():
    bad = replace(
        lockstep_config(), video=replace(lockstep_config().video, fps=30.0)
    )
    with pytest.raises(ValueError, match="lockstep"):
        run_cohorts([lockstep_config(), bad])


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
        "run_cohorts": lambda: run_cohorts([config], jobs=1)[0],
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
