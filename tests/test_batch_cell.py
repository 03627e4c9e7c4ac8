"""Batched shared-cell engine: bit-exact equivalence with the scalar
cell reference, N=1 degeneration to the independent cohort, blocks of
cells with different member counts, the cell-homogeneity contract,
budget-exhaustion ordering, and statistical convergence against the
event-driven fleet."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.lte.shared_cell import SharedCell, SharedCellArray
from repro.obs.meter import SessionMeter
from repro.sim.batch import run_batched, run_batched_cells
from repro.telephony.fleet import member_configs, run_cell
from repro.telephony.uplink import (
    UplinkCellSession,
    cell_batch_unsupported_reason,
    run_uplink_cell,
)

from tests.test_batch import assert_bit_identical, lockstep_config, nan_equal


def assert_cells_bit_identical(reference, batched):
    """Whole-:class:`CellResult` equality, member by member."""
    assert reference.member_bytes == batched.member_bytes
    assert nan_equal(reference.jain, batched.jain)
    assert nan_equal(reference.member_mos, batched.member_mos)
    assert len(reference.results) == len(batched.results)
    for a, b in zip(reference.results, batched.results):
        assert_bit_identical(a, b)


def run_batched_cell(config, ues, fleet, warmup):
    """One batched cell of ``ues`` callers built from ``config``."""
    return run_batched_cells(
        [member_configs(config, ues)], fleets=[fleet], warmup=warmup
    )[0]


def test_single_batched_cell_reproduces_scalar_cell_exactly():
    config = lockstep_config(seed=11, duration=4.0)
    fleet = FleetConfig(ues=3, seed=config.seed)
    reference = run_uplink_cell(config, ues=3, fleet=fleet, warmup=1.0)
    batched = run_batched_cell(config, ues=3, fleet=fleet, warmup=1.0)
    assert_cells_bit_identical(reference, batched)


def test_background_cell_reproduces_scalar_cell_exactly():
    config = lockstep_config(seed=5, duration=3.0)
    fleet = FleetConfig(
        ues=2, seed=31, background_ues=6, background_load=0.45, prb_budget=40
    )
    reference = run_uplink_cell(config, ues=2, fleet=fleet, warmup=0.5)
    batched = run_batched_cell(config, ues=2, fleet=fleet, warmup=0.5)
    assert_cells_bit_identical(reference, batched)


def test_multi_cell_block_matches_per_cell_runs():
    """Cells in one batched block never couple with each other."""
    base = lockstep_config(seed=3, duration=3.0)
    cells = [member_configs(replace(base, seed=s), 2) for s in (3, 2003, 4003)]
    fleets = [FleetConfig(ues=2, seed=s) for s in (3, 2003, 4003)]
    block = run_batched_cells(cells, fleets=fleets, warmup=0.5)
    for members, fleet, result in zip(cells, fleets, block):
        solo = run_batched_cells([members], fleets=[fleet], warmup=0.5)[0]
        assert_cells_bit_identical(solo, result)
        reference = UplinkCellSession(members, fleet=fleet).run(warmup=0.5)
        assert_cells_bit_identical(reference, result)


def test_one_member_cell_degenerates_to_independent_cohort():
    """N=1: the shared-cell arithmetic is an exact no-op, so a batched
    1-member cell equals the plain independent-cohort engine."""
    configs = [lockstep_config(seed=s, duration=3.0) for s in (1, 2)]
    independent = run_batched(configs, warmup=0.5)
    cells = run_batched_cells([[c] for c in configs], warmup=0.5)
    for reference, cell in zip(independent, cells):
        (member,) = cell.results
        assert_bit_identical(reference, member)
        assert cell.jain == 1.0


def test_heterogeneous_cells_rejected():
    aligned = lockstep_config()
    fleet = FleetConfig(ues=2, seed=1)
    assert cell_batch_unsupported_reason(member_configs(aligned, 2), fleet) is None

    off_grid = replace(aligned, video=replace(aligned.video, fps=30.0))
    assert "grid" in cell_batch_unsupported_reason([off_grid], FleetConfig(ues=1))

    mixed_cadence = [
        aligned,
        replace(aligned, lte=replace(aligned.lte, diag_interval=0.020)),
    ]
    assert "homogeneous" in cell_batch_unsupported_reason(mixed_cadence, fleet)
    with pytest.raises(ValueError, match="unsupported"):
        UplinkCellSession(mixed_cadence, fleet=fleet)
    with pytest.raises(ValueError, match="unsupported"):
        run_batched_cells([mixed_cadence], fleets=[fleet])

    # Cells that are each homogeneous but differ from each other in
    # cadence cannot share one block.
    with pytest.raises(ValueError, match="homogeneous"):
        run_batched_cells([[aligned], [mixed_cadence[1]]])


def test_ragged_block_cells_match_solo_blocks_and_scalar_cells():
    """Cells of 1, 2, 3 and 5 members share one block — with background
    crowds on some and budgets that run out on others — and each cell
    still equals its own one-cell block, the scalar lockstep cell and,
    for the 1-member cell, the independent-cohort engine."""
    base = lockstep_config(seed=9, duration=3.0)
    seeds = (9, 2009, 4009, 6009)
    counts = (1, 2, 3, 5)
    cells = [
        member_configs(replace(base, seed=s), n) for s, n in zip(seeds, counts)
    ]
    fleets = [
        FleetConfig(ues=1, seed=9),
        FleetConfig(ues=2, seed=2009, background_ues=6, background_load=0.4),
        FleetConfig(ues=3, seed=4009, prb_budget=12),
        FleetConfig(
            ues=5, seed=6009, prb_budget=20, background_ues=4, background_load=0.3
        ),
    ]
    block = run_batched_cells(cells, fleets=fleets, warmup=0.5, meter=True)
    assert [len(cell.results) for cell in block] == list(counts)
    exhausted = [
        cell.meter.counters["fleet.cell_prb_exhausted"] for cell in block
    ]
    assert exhausted[2] > 0.0 and exhausted[3] > 0.0
    for members, fleet, result in zip(cells, fleets, block):
        solo = run_batched_cells([members], fleets=[fleet], warmup=0.5)[0]
        assert_cells_bit_identical(solo, result)
        reference = UplinkCellSession(members, fleet=fleet).run(warmup=0.5)
        assert_cells_bit_identical(reference, result)
    (independent,) = run_batched(cells[0], warmup=0.5)
    assert_bit_identical(independent, block[0].results[0])


def test_claim_rows_matches_sequential_claims_under_exhaustion():
    """The vectorised claim pass equals member-by-member sequential
    claims — including the tick where the budget runs out mid-list."""
    fleet = FleetConfig(ues=4, seed=0, prb_budget=30)

    class _Flat:
        load = np.zeros(8)

    array = SharedCellArray([fleet, fleet], [4, 4], _Flat())
    scalar = [SharedCell(fleet), SharedCell(fleet)]

    class _Zero:
        load = 0.0

    for cell in scalar:
        for _ in range(4):
            cell.add_member(_Zero())

    rng = np.random.default_rng(42)
    for k in range(1, 200):
        now = k * 1e-3
        loads = array.member_loads(k, now)
        for index, cell in enumerate(scalar):
            cell.begin_tick(k, now)
            for member in range(4):
                assert loads[index * 4 + member] == cell.load_for(member, now)
        # Random subset of members demand random PRB counts; demands
        # routinely exceed the 30-PRB budgets.
        mask = rng.random(8) < 0.8
        rows = np.nonzero(mask)[0]
        if not rows.size:
            continue
        prbs = rng.integers(2, 26, size=rows.size)
        grants = array.claim_rows(rows, prbs.astype(np.float64))
        for row, demand, granted in zip(rows, prbs, grants):
            expected = scalar[row // 4].claim(row % 4, int(demand), now)
            assert granted == float(expected)
        for index, cell in enumerate(scalar):
            assert array.budget_left[index] == cell.budget_left
    assert [s for cell in scalar for s in cell._shares] == list(
        array._shares.reshape(-1)
    )


def test_metered_cell_run_is_bit_identical_to_plain():
    """Cell metering + progress only observe: results match the plain
    run bit for bit, per-cell counters are per-cell pure functions, and
    the block span rides the first cell's meter only."""
    base = lockstep_config(seed=3, duration=3.0)
    cells = [member_configs(replace(base, seed=s), 2) for s in (3, 2003)]
    fleets = [FleetConfig(ues=2, seed=s, prb_budget=40) for s in (3, 2003)]
    plain = run_batched_cells(cells, fleets=fleets, warmup=0.5)
    ticks = []
    metered = run_batched_cells(
        cells,
        fleets=fleets,
        warmup=0.5,
        meter=True,
        progress=lambda k, total, n: ticks.append((k, total, n)),
    )
    for reference, cell in zip(plain, metered):
        assert_cells_bit_identical(reference, cell)

    assert ticks and ticks[-1][0] == ticks[-1][1]
    assert all(n == 4 for _, _, n in ticks)  # 2 cells x 2 members
    total_ticks = ticks[-1][1]
    for index, cell in enumerate(metered):
        counters = cell.meter.counters
        assert counters["fleet.cells"] == 1.0
        assert counters["batch.sessions"] == 2.0
        assert counters["batch.subframes"] == 2.0 * total_ticks
        assert counters["fleet.cell_prb_exhausted"] >= 0.0
        spans = cell.meter.as_dict()["spans"]
        if index == 0:
            assert "batch.cell_run" in spans
        else:
            assert "batch.cell_run" not in spans
    # Plain results carry no meters at all.
    assert all(cell.meter is None for cell in plain)


def test_cell_block_refuses_a_meter_object():
    """The block builds one meter per cell, so it takes only a bool: a
    :class:`SessionMeter` passed in would be left empty, and is refused
    as ``BatchedSimulation.run`` refuses a bool."""
    cells = [member_configs(lockstep_config(seed=3, duration=0.2), 1)]
    with pytest.raises(TypeError, match="meter"):
        run_batched_cells(cells, meter=SessionMeter())
    with pytest.raises(TypeError, match="meter"):
        run_batched_cells(cells, meter=None)


def test_cell_counters_are_partition_invariant():
    """Per-cell counters don't depend on how cells are blocked together:
    running both cells in one block equals two single-cell blocks."""
    base = lockstep_config(seed=7, duration=3.0)
    cells = [member_configs(replace(base, seed=s), 2) for s in (7, 1007)]
    fleets = [FleetConfig(ues=2, seed=s, prb_budget=40) for s in (7, 1007)]
    block = run_batched_cells(cells, fleets=fleets, warmup=0.5, meter=True)
    for members, fleet, blocked in zip(cells, fleets, block):
        solo = run_batched_cells(
            [members], fleets=[fleet], warmup=0.5, meter=True
        )[0]
        for name in (
            "batch.sessions",
            "batch.subframes",
            "fleet.cell_prb_exhausted",
        ):
            assert (
                solo.meter.counters[name]
                == blocked.meter.counters[name]
            ), name


def test_batched_fleet_converges_with_event_fleet():
    """Fairness converges like the event-driven shared cell: N identical
    callers reach Jain >= 0.95 over grant bytes in both engines (the
    engines share the contention model, not the sender model, so the
    parity is statistical — absolute MOS/rate levels differ)."""
    config = lockstep_config(seed=3, duration=12.0)
    fleet = FleetConfig(ues=4, seed=3, prb_budget=50)
    event = run_cell(config, ues=4, fleet=fleet, duration=12.0, warmup=3.0)
    batched = run_batched_cell(config, ues=4, fleet=fleet, warmup=3.0)
    assert all(b > 0.0 for b in batched.member_bytes)
    assert event.jain >= 0.95
    assert batched.jain >= 0.95
    # Contention is real: a cell member moves fewer bytes than the same
    # config run uncontended on the same (lockstep) engine.
    solo = run_batched([config], warmup=3.0)[0]
    solo_bytes = solo.summary.throughput.mean * 12.0 / 8.0
    assert max(batched.member_bytes) < solo_bytes
