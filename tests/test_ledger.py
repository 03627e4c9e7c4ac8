"""Run ledger: artifact directories, heartbeat streams, snapshots, and
the byte-identity of ledgered runs across every execution path."""

import dataclasses
import json
import os

import pytest

from repro import cli
from repro.config import FleetConfig
from repro.experiments import parallel
from repro.experiments.batch import run_cohorts
from repro.experiments.fleet import deterministic_registry_dict, fleet_sweep
from repro.experiments.parallel import SessionTask, run_tasks
from repro.metrics.export import meter_from_dict, metrics_to_dict
from repro.obs.ledger import (
    DEFAULT_RUN_ROOT,
    HEARTBEAT_KINDS,
    LEDGER_VERSION,
    RUN_DIR_ENV,
    RunLedger,
    atomic_write_text,
    cohort_heartbeat_callback,
    load_registry,
    new_run_id,
    read_heartbeats,
    read_manifest,
    resolve_run_root,
    snapshot_paths,
)
from repro.sim.batch import run_batched, run_batched_cells
from repro.telephony.fleet import member_configs

from tests.test_batch import lockstep_config
from tests.test_parallel import _ReversedCompletionPool, _digest


class _TornHandle:
    """A file handle whose write stores half the data, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("failure", ["write", "rename"])
def test_atomic_write_failure_keeps_previous_file(tmp_path, monkeypatch, failure):
    """A write that fails midway, or whose rename fails, leaves the old
    file byte-identical and no temporary file behind."""
    target = tmp_path / "manifest.json"
    atomic_write_text(target, '{"status": "running"}\n')
    before = target.read_bytes()
    if failure == "write":
        real_fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen", lambda fd, mode: _TornHandle(real_fdopen(fd, mode))
        )
    else:
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        atomic_write_text(target, '{"status": "ok", "padding": "%s"}\n' % ("x" * 64))
    monkeypatch.undo()
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
    atomic_write_text(target, "replaced")
    assert target.read_text() == "replaced"


def _session_task(seed):
    return SessionTask(
        scenario_name="cellular",
        scheme="poi360",
        transport="gcc",
        duration=6.0,
        warmup=3.0,
        seed=seed,
        profile_name="user2-typical",
        meter=True,
    )


def _assert_monotone_heartbeats(records):
    """The contract tools/check_run_ledger.py gates in CI."""
    assert records, "no heartbeat records"
    last_done = {}
    last_tick = {}
    for record in records:
        assert record["v"] == LEDGER_VERSION
        assert record["kind"] in HEARTBEAT_KINDS
        if record["kind"] == "cohort":
            stream = (record["pid"], record.get("cohort"))
            assert "eta_s" in record
            assert record["tick"] >= last_tick.get(stream, 0)
            last_tick[stream] = record["tick"]
        elif "done" in record:
            assert "eta_s" in record
            assert record["done"] >= last_done.get(record["kind"], 0)
            assert record["done"] <= record["total"]
            last_done[record["kind"]] = record["done"]


# ----------------------------------------------------------------------
# Root resolution + run identity
# ----------------------------------------------------------------------


def test_resolve_run_root_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(RUN_DIR_ENV, raising=False)
    assert resolve_run_root(None) is None
    assert resolve_run_root(tmp_path / "cli") == tmp_path / "cli"
    monkeypatch.setenv(RUN_DIR_ENV, str(tmp_path / "env"))
    assert resolve_run_root(None) == tmp_path / "env"
    assert resolve_run_root(tmp_path / "cli") == tmp_path / "cli"


def test_new_run_id_carries_command_and_pid():
    import os

    run_id = new_run_id("metrics")
    assert "-metrics-" in run_id
    assert run_id.endswith(str(os.getpid()))


def test_open_creates_artifacts_and_manifest(tmp_path):
    ledger = RunLedger.open("fleet", config={"calls": "1,2"}, root=tmp_path)
    assert ledger.run_dir.parent == tmp_path
    assert ledger.heartbeat_path.exists()
    assert ledger.snapshot_dir.is_dir()
    manifest = read_manifest(ledger.run_dir)
    assert manifest["version"] == LEDGER_VERSION
    assert manifest["command"] == "fleet"
    assert manifest["status"] == "running"
    assert manifest["config"] == {"calls": "1,2"}
    assert manifest["environment"]["cpu_count"] >= 1
    assert set(manifest["artifacts"]) == {
        "heartbeat", "snapshots", "registry", "cache_stats"
    }


def test_open_falls_back_to_default_root(tmp_path, monkeypatch):
    monkeypatch.delenv(RUN_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    ledger = RunLedger.open("metrics")
    assert ledger.run_dir.parent.resolve() == tmp_path / DEFAULT_RUN_ROOT


def test_context_manager_seals_error_status(tmp_path):
    with pytest.raises(RuntimeError):
        with RunLedger.open("metrics", root=tmp_path) as ledger:
            raise RuntimeError("boom")
    manifest = read_manifest(ledger.run_dir)
    assert manifest["status"] == "error"
    assert "boom" in manifest["error"]
    assert snapshot_paths(ledger.run_dir)  # finish still snapshots


# ----------------------------------------------------------------------
# Heartbeats: monotone done/tick + ETA on every execution path
# ----------------------------------------------------------------------


def test_serial_run_tasks_path_streams_and_stays_identical(tmp_path):
    tasks = [_session_task(seed) for seed in (3, 5)]
    plain = run_tasks(tasks, jobs=1)
    with RunLedger.open("metrics", root=tmp_path) as ledger:
        ledgered = run_tasks(tasks, jobs=1, progress=ledger.progress("session"))
        ledger.finish("ok")
    assert [_digest(r) for r in ledgered] == [_digest(r) for r in plain]
    records = read_heartbeats(ledger.run_dir)
    _assert_monotone_heartbeats(records)
    assert [r["done"] for r in records if r["kind"] == "session"] == [1, 2]
    assert len(snapshot_paths(ledger.run_dir)) >= 1
    manifest = read_manifest(ledger.run_dir)
    assert manifest["status"] == "ok"
    assert manifest["heartbeats"] == 2


def test_pool_path_streams_in_task_order(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _ReversedCompletionPool)
    tasks = [_session_task(seed) for seed in (3, 5, 7, 9)]
    with RunLedger.open("metrics", root=tmp_path) as ledger:
        run_tasks(tasks, jobs=2, progress=ledger.progress("session", workers=2))
        ledger.finish("ok")
    records = read_heartbeats(ledger.run_dir)
    _assert_monotone_heartbeats(records)
    sessions = [r for r in records if r["kind"] == "session"]
    assert [r["done"] for r in sessions] == [1, 2, 3, 4]
    assert all(r["workers"] == 2 for r in sessions)
    assert sessions[0]["eta_s"] is not None


def test_batched_cohort_path_streams_ticks_and_stays_identical(
    tmp_path, monkeypatch
):
    configs = [lockstep_config(seed=s, duration=3.0) for s in (1, 2, 3)]
    # Crossover 0: the three sessions run as one batched cohort.
    monkeypatch.setattr("repro.experiments.batch.DEFAULT_SCALAR_CROSSOVER", 0)
    plain, _ = run_cohorts(configs, warmup=0.5)
    with RunLedger.open("metrics", root=tmp_path) as ledger:
        ledgered, engine = run_cohorts(
            configs,
            warmup=0.5,
            progress=ledger.progress("session"),
            heartbeat_path=str(ledger.heartbeat_path),
        )
        ledger.finish("ok", meter=engine)
    for a, b in zip(plain, ledgered):
        assert _digest(a) == _digest(b)
    records = read_heartbeats(ledger.run_dir)
    _assert_monotone_heartbeats(records)
    cohorts = [r for r in records if r["kind"] == "cohort"]
    assert cohorts, "no in-engine cohort heartbeats"
    assert cohorts[-1]["tick"] == cohorts[-1]["ticks"]
    assert cohorts[-1]["sessions"] == 3
    assert engine.counters["batch.sessions"] == 3.0
    assert len(snapshot_paths(ledger.run_dir)) >= 1


def test_batched_cell_path_streams_ticks_and_stays_identical(tmp_path):
    base = lockstep_config(seed=7, duration=3.0)
    cells = [member_configs(dataclasses.replace(base, seed=s), 2) for s in (7, 2007)]
    fleets = [FleetConfig(ues=2, seed=s) for s in (7, 2007)]
    plain = run_batched_cells(cells, fleets=fleets, warmup=0.5)
    with RunLedger.open("fleet", root=tmp_path) as ledger:
        progress = cohort_heartbeat_callback(ledger.heartbeat_path, label=7)
        ledgered = run_batched_cells(
            cells, fleets=fleets, warmup=0.5, meter=True, progress=progress
        )
        ledger.absorb(ledgered)
        ledger.finish("ok")
    for a, b in zip(plain, ledgered):
        assert a.member_bytes == b.member_bytes
        for ra, rb in zip(a.results, b.results):
            assert _digest(ra) == _digest(rb)
    records = read_heartbeats(ledger.run_dir)
    _assert_monotone_heartbeats(records)
    assert all(r["kind"] == "cohort" for r in records)
    assert records[-1]["cohort"] == 7
    registry = load_registry(ledger.run_dir)
    assert registry.counters["fleet.cells"] == 2.0
    assert registry.counters["batch.sessions"] == 4.0


def test_fleet_batch_sweep_ledgered_equals_plain(tmp_path):
    kwargs = dict(
        calls=[1, 2], cells=1, duration=3.0, warmup=0.5, seed=1,
        scheme="poi360", transport="fbcc", batch=True, meter=True,
    )
    plain = fleet_sweep("cellular", **kwargs)
    with RunLedger.open("fleet", root=tmp_path) as ledger:
        ledgered = fleet_sweep(
            "cellular",
            progress=ledger.progress("cell"),
            heartbeat_path=str(ledger.heartbeat_path),
            **kwargs,
        )
        ledger.finish("ok", meter=ledgered.meter)
    assert [p.to_dict() for p in plain.points] == [
        p.to_dict() for p in ledgered.points
    ]
    assert deterministic_registry_dict(plain.meter) == deterministic_registry_dict(
        ledgered.meter
    )
    records = read_heartbeats(ledger.run_dir)
    _assert_monotone_heartbeats(records)
    kinds = {r["kind"] for r in records}
    assert kinds == {"cell", "cohort"}


# ----------------------------------------------------------------------
# Snapshots + registry round-trips
# ----------------------------------------------------------------------


def test_snapshots_are_valid_openmetrics(tmp_path):
    with RunLedger.open("metrics", root=tmp_path) as ledger:
        run_tasks([_session_task(3)], progress=ledger.progress("session"))
        ledger.finish("ok")
    for path in snapshot_paths(ledger.run_dir):
        text = path.read_text()
        assert text.rstrip().endswith("# EOF")
        assert "repro_session_runs_total 1" in text


def test_meter_from_dict_round_trips():
    result = run_tasks([_session_task(3)])[0]
    payload = metrics_to_dict(result.meter)
    rebuilt = meter_from_dict(payload)
    assert metrics_to_dict(rebuilt) == payload


def test_meter_from_dict_rejects_unknown_version():
    with pytest.raises(ValueError):
        meter_from_dict({"version": 999, "counters": {}})


def test_load_registry_round_trips_final_meter(tmp_path):
    with RunLedger.open("metrics", root=tmp_path) as ledger:
        run_tasks([_session_task(3)], progress=ledger.progress("session"))
        ledger.finish("ok")
    registry = load_registry(ledger.run_dir)
    assert metrics_to_dict(registry) == metrics_to_dict(ledger.live)


def test_read_heartbeats_drops_torn_trailing_line(tmp_path):
    ledger = RunLedger.open("metrics", root=tmp_path)
    ledger.heartbeat("session", done=1, total=2)
    with open(ledger.heartbeat_path, "a") as handle:
        handle.write('{"v": 1, "kind": "sess')  # a torn mid-write line
    records = read_heartbeats(ledger.run_dir)
    assert len(records) == 1 and records[0]["done"] == 1


# ----------------------------------------------------------------------
# CLI: --run-dir, --from-run, watch
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_run_dir(tmp_path_factory):
    """One tiny ledgered CLI sweep shared by the CLI-facing tests."""
    root = tmp_path_factory.mktemp("runs")
    code = cli.main(
        ["metrics", "--duration", "3", "--warmup", "1", "--sessions", "2",
         "--transport", "gcc", "--run-dir", str(root)]
    )
    assert code == 0
    (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
    return run_dir


def test_cli_run_dir_produces_sealed_ledger(cli_run_dir):
    manifest = read_manifest(cli_run_dir)
    assert manifest["status"] == "ok"
    assert manifest["command"] == "metrics"
    assert manifest["config"]["sessions"] == 2
    _assert_monotone_heartbeats(read_heartbeats(cli_run_dir))
    assert snapshot_paths(cli_run_dir)
    assert (cli_run_dir / "registry.json").exists()
    stats = json.loads((cli_run_dir / "cache_stats.json").read_text())
    assert "code_salt" in stats


def test_cli_metrics_from_run_renders_registry(cli_run_dir, capsys):
    assert cli.main(["metrics", "--from-run", str(cli_run_dir)]) == 0
    out = capsys.readouterr().out
    assert f"run={cli_run_dir}" in out
    assert "session.runs" in out


def test_cli_metrics_from_run_json_matches_registry(cli_run_dir, capsys):
    assert cli.main(
        ["metrics", "--from-run", str(cli_run_dir), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads((cli_run_dir / "registry.json").read_text())


def test_cli_metrics_from_run_json_is_byte_equal_to_registry(cli_run_dir, tmp_path):
    """The reload keeps each gauge's JSON type: ``fleet.workers`` is an
    int in ``registry.json`` and must not come back as ``1.0``."""
    registry = (cli_run_dir / "registry.json").read_bytes()
    assert b'"fleet.workers": 1,' in registry
    output = tmp_path / "reloaded.json"
    assert cli.main(
        ["metrics", "--from-run", str(cli_run_dir), "--format", "json",
         "--output", str(output)]
    ) == 0
    assert output.read_bytes() == registry


def test_cli_metrics_from_run_rejects_bad_dir(tmp_path, capsys):
    assert cli.main(["metrics", "--from-run", str(tmp_path)]) == 2
    assert "cannot load run registry" in capsys.readouterr().err


def test_cli_watch_renders_run(cli_run_dir, capsys):
    assert cli.main(["watch", str(cli_run_dir)]) == 0
    out = capsys.readouterr().out
    assert "status=ok" in out
    assert "session  2/2" in out
    assert "snapshots:" in out
    assert "repro_session_runs_total" in out


def test_cli_watch_rejects_non_run_dir(tmp_path, capsys):
    assert cli.main(["watch", str(tmp_path)]) == 2
    assert "manifest.json" in capsys.readouterr().err


def test_cli_batch_run_dir_streams_cohorts(tmp_path):
    code = cli.main(
        ["metrics", "--duration", "3", "--warmup", "0.5", "--sessions", "2",
         "--batch", "--run-dir", str(tmp_path)]
    )
    assert code == 0
    (run_dir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    records = read_heartbeats(run_dir)
    _assert_monotone_heartbeats(records)
    assert {r["kind"] for r in records} == {"cohort", "session"}


def test_check_run_ledger_tool_passes_on_cli_run(cli_run_dir):
    import subprocess
    import sys as _sys
    from pathlib import Path

    tool = Path(__file__).resolve().parent.parent / "tools" / "check_run_ledger.py"
    proc = subprocess.run(
        [_sys.executable, str(tool), str(cli_run_dir)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 problem(s)" in proc.stdout


# ----------------------------------------------------------------------
# Run maintenance: status, listing and garbage collection
# ----------------------------------------------------------------------


def _sealed_run(root, command="metrics", status="ok"):
    ledger = RunLedger.open(command, config={}, root=root)
    ledger.heartbeat("session", done=1, total=1)
    ledger.finish(status)
    return ledger.run_dir


def test_run_status_fresh_running_vs_stale(tmp_path):
    from repro.obs.ledger import run_status

    ledger = RunLedger.open("metrics", config={}, root=tmp_path)
    ledger.heartbeat("session", done=1, total=2)
    assert run_status(ledger.run_dir) == "running"
    # Same run, judged with a clock far in the future: writer presumed dead.
    import time

    later = time.time() + 3600.0
    assert run_status(ledger.run_dir, stale_after_s=900.0, now=later) == "stale"
    ledger.finish("ok")
    assert run_status(ledger.run_dir, now=later) == "ok"


def test_run_status_invalid_manifest(tmp_path):
    from repro.obs.ledger import run_status

    run_dir = tmp_path / "broken"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text("{not json")
    assert run_status(run_dir) == "invalid"


def test_heartbeat_age_tracks_the_newest_record(tmp_path):
    import time

    from repro.obs.ledger import heartbeat_age_s

    ledger = RunLedger.open("metrics", config={}, root=tmp_path)
    assert heartbeat_age_s(ledger.run_dir) is not None  # manifest fallback
    ledger.heartbeat("session", done=1, total=1)
    age = heartbeat_age_s(ledger.run_dir, now=time.time() + 10.0)
    assert age == pytest.approx(10.0, abs=2.0)
    ledger.finish("ok")


def test_list_runs_reports_every_child(tmp_path):
    from repro.obs.ledger import list_runs

    ok_dir = _sealed_run(tmp_path)
    cancelled_dir = _sealed_run(tmp_path, command="fleet", status="cancelled")
    (tmp_path / "not-a-run").mkdir()  # ignored: no manifest
    broken = tmp_path / "zz-broken"
    broken.mkdir()
    (broken / "manifest.json").write_text("{not json")

    infos = list_runs(tmp_path)
    by_dir = {info.run_dir: info for info in infos}
    assert set(by_dir) == {ok_dir, cancelled_dir, broken}
    assert by_dir[ok_dir].status == "ok"
    assert by_dir[ok_dir].heartbeats == 1
    assert by_dir[ok_dir].size_bytes > 0
    assert by_dir[cancelled_dir].status == "cancelled"
    assert by_dir[broken].status == "invalid"
    row = by_dir[ok_dir].to_dict()
    assert row["run_dir"] == str(ok_dir)
    json.dumps(row)  # JSON-safe for `repro360 runs list --json`


def test_gc_runs_prunes_old_sealed_runs_only(tmp_path):
    import time

    from repro.obs.ledger import gc_runs

    old = _sealed_run(tmp_path)
    fresh = _sealed_run(tmp_path, command="fleet")

    # Judge with a clock 8 days ahead of `old`'s seal time but patch
    # `fresh` to have just ended: only `old` is eligible.
    manifest = read_manifest(fresh)
    week_later = time.time() + 8 * 86400.0
    manifest["ended_wall"] = week_later - 60.0
    (fresh / "manifest.json").write_text(json.dumps(manifest))

    removed, kept = gc_runs(tmp_path, keep_days=7.0, dry_run=True, now=week_later)
    assert [info.run_dir for info in removed] == [old]
    assert old.exists()  # dry run

    removed, kept = gc_runs(tmp_path, keep_days=7.0, now=week_later)
    assert [info.run_dir for info in removed] == [old]
    assert not old.exists()
    assert fresh.exists()
    # A live run with fresh heartbeats is never a candidate — even with
    # keep_days=0 a real-clock gc keeps it running.
    live = RunLedger.open("metrics", config={}, root=tmp_path)
    live.heartbeat("session", done=1, total=2)
    removed, kept = gc_runs(tmp_path, keep_days=0.0)
    assert live.run_dir not in [info.run_dir for info in removed]
    assert live.run_dir in [info.run_dir for info in kept]
    live.finish("ok")


def test_check_run_ledger_accepts_fresh_running_run(tmp_path):
    import subprocess
    import sys as _sys
    from pathlib import Path

    ledger = RunLedger.open("metrics", config={}, root=tmp_path)
    ledger.heartbeat("session", done=1, total=2)
    tool = Path(__file__).resolve().parent.parent / "tools" / "check_run_ledger.py"
    proc = subprocess.run(
        [_sys.executable, str(tool), str(ledger.run_dir)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "running" in proc.stdout

    # The same unsealed run scanned with --stale-after 0 is a problem:
    # a writer that old is presumed dead.
    proc = subprocess.run(
        [_sys.executable, str(tool), "--stale-after", "0", str(ledger.run_dir)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "presumed dead" in proc.stdout
    ledger.finish("ok")


def test_check_run_ledger_accepts_cancelled_status(tmp_path):
    import subprocess
    import sys as _sys
    from pathlib import Path

    run_dir = _sealed_run(tmp_path, status="cancelled")
    tool = Path(__file__).resolve().parent.parent / "tools" / "check_run_ledger.py"
    proc = subprocess.run(
        [_sys.executable, str(tool), str(run_dir)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
