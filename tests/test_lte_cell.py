"""Background cell-load process."""

import numpy as np

from repro.config import CellConfig
from repro.lte.cell import LOAD_MAX, LOAD_MIN, UPDATE_INTERVAL, CellLoadProcess
from repro.sim.blocks import CallDraws
from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry


def _run_load(config, seconds=120.0, seed=3):
    sim = Simulation()
    process = CellLoadProcess(config, CallDraws(RngRegistry(seed).stream("cell")))
    sim.every(UPDATE_INTERVAL, process.update)
    samples = []
    sim.every(0.5, lambda: samples.append(process.load))
    sim.run(seconds)
    return samples


def test_load_stays_in_bounds():
    samples = _run_load(CellConfig(background_load=0.5, load_sigma=0.5))
    assert all(LOAD_MIN <= value <= LOAD_MAX for value in samples)


def test_load_fluctuates_around_mean():
    samples = _run_load(CellConfig(background_load=0.3, load_sigma=0.08))
    assert abs(np.mean(samples) - 0.3) < 0.1
    assert np.std(samples) > 0.01


def test_zero_sigma_is_constant():
    samples = _run_load(CellConfig(background_load=0.25, load_sigma=0.0))
    assert all(value == 0.25 for value in samples)


def test_busier_config_gives_higher_load():
    idle = _run_load(CellConfig(background_load=0.05))
    busy = _run_load(CellConfig(background_load=0.5))
    assert np.mean(busy) > np.mean(idle) + 0.2
