"""Multi-UE shared-cell fleet: degeneration, fairness, budget, metrics."""

import dataclasses
import math

import pytest

from repro.config import FleetConfig, SessionConfig
from repro.experiments.fleet import deterministic_registry_dict, fleet_sweep
from repro.experiments.parallel import CellTask, run_tasks
from repro.lte.competitors import UPDATE_INTERVAL as BACKGROUND_INTERVAL
from repro.lte.shared_cell import SharedCell, _background_crowd
from repro.metrics.stats import jain_index
from repro.sim.engine import Simulation
from repro.telephony.fleet import CellSession, member_configs, run_cell
from repro.telephony.session import run_session
from repro.units import LTE_SUBFRAME
from repro.video.quality import mos_score


def _digest(result):
    return (
        repr(dataclasses.asdict(result.summary)),
        result.log.frame_delays,
        result.log.roi_psnrs,
        result.log.roi_levels,
        list(map(tuple, result.log.arrivals)),
        result.log.diag_seconds,
        result.log.frames_displayed,
        result.log.frames_lost,
        result.log.packets_lost,
    )


# ----------------------------------------------------------------------
# Degeneration: a 1-UE cell IS the solo session
# ----------------------------------------------------------------------


def test_single_ue_cell_is_bit_exact_with_solo_session():
    """ISSUE acceptance: 1 UE + zero background == run_session, bit-exact."""
    config = SessionConfig(scheme="poi360", transport="fbcc", duration=8.0, seed=3)
    solo = run_session(config, duration=8.0, warmup=2.0)
    cell = run_cell(config, ues=1, duration=8.0, warmup=2.0)
    assert len(cell.results) == 1
    assert _digest(cell.results[0]) == _digest(solo)
    assert cell.jain == 1.0


def test_single_ue_cell_bit_exact_without_warmup_and_on_gcc():
    config = SessionConfig(scheme="poi360", transport="gcc", duration=6.0, seed=11)
    solo = run_session(config, duration=6.0)
    cell = run_cell(config, ues=1, duration=6.0)
    assert _digest(cell.results[0]) == _digest(solo)


# ----------------------------------------------------------------------
# Fairness across identical competing FBCC flows
# ----------------------------------------------------------------------


def test_identical_fbcc_ues_converge_to_fair_shares():
    """N identical callers on one cell: Jain over grant bytes >= 0.95."""
    config = SessionConfig(scheme="poi360", transport="fbcc", duration=12.0, seed=3)
    cell = run_cell(config, ues=4, duration=12.0, warmup=3.0)
    assert all(b > 0.0 for b in cell.member_bytes)
    assert cell.jain >= 0.95
    # jain on CellResult is exactly the helper over member_bytes.
    assert cell.jain == pytest.approx(jain_index(cell.member_bytes))


def test_contention_raises_member_loads():
    """Peers' realized shares must surface in each member's cell load."""
    config = SessionConfig(scheme="poi360", transport="fbcc", duration=6.0, seed=3)
    session = CellSession(member_configs(config, 4), fleet=FleetConfig(ues=4))
    session.sim.run(6.0)
    cell = session.cell
    now = session.sim.now
    for index in range(4):
        assert cell.share_of(index, now) > 0.0
        assert cell.load_for(index, now) > cell.background_load(index)


# ----------------------------------------------------------------------
# PF catch-up weight (starved-UE regression)
# ----------------------------------------------------------------------


class _StubLoad:
    """A fake member cell-load model: only the fallback load the cell reads."""

    load = 0.2


def _stub_cell(members=2, **overrides):
    sim = Simulation()
    cell = SharedCell(FleetConfig(ues=members, **overrides))
    views = [cell.add_member(_StubLoad(), sim) for _ in range(members)]
    return sim, cell, views


def test_starved_member_gets_catch_up_weight():
    """A member that never wins grants is boosted; the hog is throttled."""
    sim, cell, _ = _stub_cell(members=2)
    now = 0.0
    for _ in range(2000):  # member 0 hogs every subframe; member 1 starves
        cell.claim(0, 10, now)
        now += LTE_SUBFRAME
    assert cell.share_of(0, now) > cell.share_of(1, now)
    assert cell.pf_weight(0, now) < 1.0  # hog: sees a *higher* load
    assert cell.pf_weight(1, now) > 1.0  # starved: sees a *lower* load
    # The weight reshapes the load each member's scheduler sees.
    assert cell.load_for(0, now) > cell.load_for(1, now)


def test_pf_weight_is_clamped():
    sim, cell, _ = _stub_cell(members=2, pf_weight_max=4.0)
    now = 0.0
    for _ in range(5000):
        cell.claim(0, 50, now)
        now += LTE_SUBFRAME
    assert cell.pf_weight(1, now) == 4.0
    # With two members, the hog's ratio is mean/own = 0.5 — above the
    # 1/w_max floor, so it is throttled but not clamped.
    assert cell.pf_weight(0, now) == pytest.approx(0.5, rel=1e-3)
    # Three starved peers push the hog's ratio to the floor.
    sim3, cell3, _ = _stub_cell(members=8, pf_weight_max=4.0)
    now = 0.0
    for _ in range(5000):
        cell3.claim(0, 50, now)
        now += LTE_SUBFRAME
    assert cell3.pf_weight(0, now) == 0.25


def test_pf_weight_exactly_one_for_lone_member_and_equal_shares():
    sim, cell, _ = _stub_cell(members=1)
    assert cell.pf_weight(0, 0.5) == 1.0
    # Equal nonzero shares also cancel exactly.
    sim2, cell2, _ = _stub_cell(members=2)
    now = 0.0
    for _ in range(100):
        cell2.claim(0, 5, now)
        cell2.claim(1, 5, now)
        now += LTE_SUBFRAME
    assert cell2.pf_weight(0, now) == 1.0
    assert cell2.pf_weight(1, now) == 1.0


def test_lone_member_load_is_fallback_untouched():
    """The N=1 view must return the background model's float bit-for-bit."""
    sim, cell, views = _stub_cell(members=1)
    for value in (0.0, 0.2, 0.5537191276893506, 0.9):
        cell._fallbacks[0].load = value
        assert cell.load_for(0, sim.now) == value


# ----------------------------------------------------------------------
# Per-subframe PRB budget
# ----------------------------------------------------------------------


def test_prb_budget_caps_one_subframe_and_resets_on_the_next():
    sim, cell, views = _stub_cell(members=3, prb_budget=20)
    now = 0.0
    assert cell.claim(0, 12, now) == 12
    assert cell.claim(1, 12, now) == 8  # only 8 left this subframe
    assert cell.claim(2, 12, now) == 0  # budget exhausted
    now += LTE_SUBFRAME
    assert cell.claim(2, 12, now) == 12  # fresh subframe, fresh budget


def test_scheduled_background_preclaims_prbs():
    cell = SharedCell(
        FleetConfig(ues=1, prb_budget=20, background_ues=4, background_load=0.5)
    )
    cell.add_member(_StubLoad())
    now = 0.0
    for _ in range(60):  # let the background population toggle on
        now += 1.0
        cell.background.update(now)
        if cell.background.active_competitors:
            break
    took = cell.claim(0, 20, now)
    expected = 20 - int(round(20 * cell.background.load))
    assert took == expected
    assert took < 20


def test_background_crowd_comes_from_the_fleet_seed():
    """The cell builds its crowd exactly as ``SharedCellArray`` does, and
    the event cell session clocks it every competitor update interval."""
    assert SharedCell(FleetConfig(background_ues=0)).background is None
    fleet = FleetConfig(background_ues=6, background_load=0.4, seed=9)
    config = SessionConfig(scheme="poi360", transport="fbcc", duration=2.0, seed=9)
    session = CellSession(member_configs(config, 1), fleet=fleet)
    cell = session.cell
    reference = _background_crowd(fleet)
    assert cell.background.load == reference.load
    now = 0.0
    for _ in range(40):
        now += BACKGROUND_INTERVAL
        reference.update(now)
        session.sim.run(BACKGROUND_INTERVAL)
        assert cell.background.load == reference.load


def test_lockstep_ticks_clock_the_crowd_and_reset_the_budget():
    """``begin_tick`` updates the crowd every competitor update interval
    (in subframes) and refills the budget minus the crowd's take."""
    fleet = FleetConfig(prb_budget=20, background_ues=6, background_load=0.4, seed=9)
    cell = SharedCell(fleet)
    view = cell.add_member(_StubLoad())
    reference = _background_crowd(fleet)
    every = int(round(BACKGROUND_INTERVAL / LTE_SUBFRAME))
    for k in range(1, 40 * every + 1):
        now = k * LTE_SUBFRAME
        if k % every == 0:
            reference.update(now)
        cell.begin_tick(k, now)
        assert cell.background.load == reference.load
        expected = 20 - int(round(20 * reference.load))
        assert cell.budget_left == expected
        assert view.claim_prbs(20) == expected
        assert cell.budget_left == 0


# ----------------------------------------------------------------------
# Cell assembly plumbing
# ----------------------------------------------------------------------


def test_member_configs_seed_contract():
    base = SessionConfig(scheme="poi360", transport="fbcc", seed=7)
    configs = member_configs(base, 3)
    assert [c.seed for c in configs] == [7, 1007, 2007]
    assert configs[0] == base
    with pytest.raises(ValueError):
        member_configs(base, 0)


def test_cell_needs_lte_access():
    config = SessionConfig(
        scheme="poi360", transport="gcc", duration=2.0, seed=1
    )
    config = dataclasses.replace(
        config, path=dataclasses.replace(config.path, access="wireline")
    )
    with pytest.raises(ValueError):
        run_cell(config, ues=2, duration=2.0)


def test_mos_scores_match_summary_pdfs():
    config = SessionConfig(scheme="poi360", transport="fbcc", duration=6.0, seed=3)
    cell = run_cell(config, ues=2, duration=6.0, warmup=2.0)
    for result, mos in zip(cell.results, cell.member_mos):
        assert mos == pytest.approx(mos_score(result.summary.quality.mos_pdf))
        assert 1.0 <= mos <= 5.0
    assert cell.mean_mos == pytest.approx(
        sum(cell.member_mos) / len(cell.member_mos)
    )


# ----------------------------------------------------------------------
# Fleet metrics: totals and serial == sharded
# ----------------------------------------------------------------------

#: Counters recorded inside member sessions (not by the shared loop).
_PER_UE_COUNTERS = ("session.runs", "lte.subframes", "receiver.frames")


def test_cell_meter_totals_equal_sum_of_member_meters():
    config = SessionConfig(scheme="poi360", transport="fbcc", duration=5.0, seed=3)
    cell = run_cell(config, ues=4, duration=5.0, warmup=1.0, meter=True)
    merged = cell.meter.counters
    members = [result.meter.counters for result in cell.results]
    assert merged["fleet.cells"] == 1.0
    for name in _PER_UE_COUNTERS:
        assert merged[name] == sum(counters[name] for counters in members)
    assert merged["session.runs"] == 4.0
    jain_hist = cell.meter.histogram("fleet.cell_jain")
    assert jain_hist is not None and jain_hist.count == 1


def test_fleet_sweep_serial_equals_sharded():
    kwargs = dict(
        calls=(1, 2),
        cells=2,
        duration=4.0,
        warmup=1.0,
        seed=5,
        meter=True,
    )
    serial = fleet_sweep("cellular", jobs=1, **kwargs)
    sharded = fleet_sweep("cellular", jobs=2, **kwargs)
    assert [p.to_dict() for p in serial.points] == [
        p.to_dict() for p in sharded.points
    ]
    for group_a, group_b in zip(serial.cells, sharded.cells):
        for cell_a, cell_b in zip(group_a, group_b):
            assert cell_a.member_bytes == cell_b.member_bytes
            assert [_digest(r) for r in cell_a.results] == [
                _digest(r) for r in cell_b.results
            ]
    assert deterministic_registry_dict(serial.meter) == deterministic_registry_dict(
        sharded.meter
    )


class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records its width and
    maps in-process."""

    def __init__(self, widths, max_workers):
        widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_fleet_batch_pools_every_multi_block_plan(monkeypatch):
    """``fleet --batch`` uses exactly the workers its blocks were cut
    for: one process per block up to ``jobs``, and no pool for one
    block, whatever the host's CPU count."""
    import repro.experiments.parallel as parallel

    widths = []
    monkeypatch.setattr(
        parallel,
        "ProcessPoolExecutor",
        lambda max_workers: _RecordingPool(widths, max_workers),
    )
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
    # Three cells hold at most three blocks, so 8 workers get a plan of
    # 3 blocks, which must still run pooled.
    for jobs, expected in ((1, []), (2, [2]), (8, [3])):
        widths.clear()
        fleet_sweep(
            "cellular", calls=[1], cells=3, duration=1.0, warmup=0.0, seed=1,
            batch=True, jobs=jobs,
        )
        assert widths == expected


def test_pooled_batch_progress_counts_cells(tmp_path):
    """``fleet --batch`` progress counts cells out of the sweep, in the
    callback and in the ledger's parent heartbeats alike."""
    from repro.obs.ledger import RunLedger, read_heartbeats
    from repro.service.jobs import execute_job

    seen = []
    spec = {
        "kind": "fleet", "batch": True, "calls": [1, 2], "cells": 2,
        "duration": 1.0, "warmup": 0.0, "seed": 1,
    }
    with RunLedger.open("fleet", root=tmp_path) as ledger:
        execute_job(
            spec,
            jobs=2,
            ledger=ledger,
            progress=lambda done, total, block: seen.append(
                (done, total, len(block))
            ),
        )
        ledger.finish("ok")
    # Members 1, 1, 2, 2 cut into two blocks balanced by sessions.
    assert seen == [(3, 4, 3), (4, 4, 1)]
    beats = [r for r in read_heartbeats(ledger.run_dir) if r["kind"] == "cell"]
    assert [(r["done"], r["total"]) for r in beats] == [(3, 4), (4, 4)]


def test_cell_task_is_picklable_and_runs():
    import pickle

    task = CellTask(
        scenario_name="cellular",
        scheme="poi360",
        transport="fbcc",
        duration=3.0,
        warmup=1.0,
        seed=2,
        ues=2,
        rotate_profiles=True,
    )
    clone = pickle.loads(pickle.dumps(task))
    result = run_tasks([clone], jobs=1)[0]
    assert len(result.results) == 2
    assert not math.isnan(result.jain)
