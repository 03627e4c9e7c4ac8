"""Tests of the benchmark harness itself (tracer, output identity, names)."""

import json
import re
import sys
import time
from pathlib import Path

import child
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _patchable_attributes():
    """Every class member of every layer module, plus the root functions."""
    members = {}
    for module in tracer.layer_modules():
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name, member in vars(cls).items():
                    members[(cls, name)] = member
    for module_name, name in tracer.ROOTS:
        module = sys.modules[module_name]
        members[(module, name)] = module.__dict__[name]
    return members


def test_tracer_restores_every_patched_attribute():
    from repro.sim.engine import Simulation

    before = _patchable_attributes()
    probe = tracer.Tracer()
    probe.install()
    try:
        patched = list(probe.patches)
        assert {name for owner, name, _ in patched if owner is Simulation} >= {"schedule", "run"}
        assert all(owner.__dict__[name] is not original for owner, name, original in patched)
    finally:
        probe.uninstall()
    assert not probe.patches
    after = _patchable_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _run_small():
    """A 2-session, 2 s lockstep cohort plus a 2 s event-engine session."""
    from repro.experiments.fleet import lockstep_scenario
    from repro.sim.batch import run_batched
    from repro.telephony.session import run_session
    from repro.traces.scenarios import scenario

    cohort = run_batched(
        [lockstep_scenario("cellular", duration=2.0, seed=seed) for seed in (1, 2)],
        warmup=0.5,
    )
    event = run_session(scenario("cellular", duration=2.0, seed=3), warmup=0.5)
    return workloads.canonical_json(
        [[result.summary, result.log] for result in cohort + [event]]
    )


def test_traced_run_is_identical_and_self_times_fit_the_wall():
    untraced = _run_small()
    probe = tracer.Tracer(tracer.calibrate(calls=2000, repeats=3))
    probe.install()
    try:
        start = time.perf_counter()
        traced = _run_small()
        wall_s = time.perf_counter() - start
    finally:
        probe.uninstall()
    assert traced == untraced
    report = probe.report(wall_s)
    self_times = [row["self_s"] for row in report["layers"].values()]
    assert all(value >= 0.0 for value in self_times)
    assert sum(self_times) + report["other_self_s"] <= wall_s
    assert report["layers"]["sim.batch"]["calls"] == 2  # constructor and run
    assert report["session_ticks"] == 2 * 2500
    assert report["events"] > 0 and report["ue_subframes"] > 0


def test_printed_names_are_exactly_the_declared_ones(tmp_path, monkeypatch, capsys):
    """An untraced and a traced rep of a shortened batch_small, run in this
    process through the same code as the benchmark's children, then
    printed the way run.py prints them."""
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    from repro.experiments import cache

    # Each rep points the result cache at its own directory; put it back.
    monkeypatch.setattr(cache, "_CACHE_DIR", cache._CACHE_DIR)
    monkeypatch.setitem(
        workloads.JOB_SPECS, "batch_small",
        dict(workloads.JOB_SPECS["batch_small"], duration=2.0, warmup=0.5),
    )
    untraced, traced = (
        child.rep("batch_small", 1, tmp_path / str(trace), trace, time.monotonic())
        for trace in (0, 1)
    )
    assert untraced["digest"] == traced["digest"]
    entry = run.evaluate({"untraced": [untraced], "setups": [untraced["setup_s"]],
                          "traced": traced})
    assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] == 16
    assert entry["sizes"]["sessions"] == 8
    run.print_entry("batch_small", entry, declared)
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("#"):
            continue
        workload, name, value, unit = line.split()
        assert workload == "batch_small"
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        printed[name] = unit
        float(value)
    assert printed == declared
    assert run.provenance(b"{}")["benchmark_sha256"]
