"""Service mode: job specs, the queue, the HTTP server, the client.

The expensive guarantees (byte-identity with the CLI, restart
recovery) run one real — tiny — simulation each; everything about
queue mechanics (dedup, cancellation, concurrency, endpoints) runs
against a monkeypatched ``execute_job`` so the tests are fast and
deterministic.
"""

import dataclasses
import json
import threading

import pytest

from repro import cli
from repro.config import SCHEMES, TRANSPORTS
from repro.experiments import cache
from repro.service import jobs as service_jobs
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    RESULT_NAME,
    SPEC_CLASSES,
    SPEC_DEFAULTS,
    JobCancelled,
    JobOutcome,
    JobRegistry,
    execute_job,
    job_key,
    normalise_spec,
)
from repro.service.server import OPENMETRICS_CONTENT_TYPE, ServiceServer
from repro.telephony.uplink import LOCKSTEP_MODEL


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path):
    """Service tests need the cache ON (payload persistence) but private."""
    cache.set_cache_dir(tmp_path / "cache")
    cache.set_cache_enabled(True)
    cache.reset_counters()
    yield
    cache.set_cache_dir(None)
    cache.set_cache_enabled(None)


# ----------------------------------------------------------------------
# Specs and keys
# ----------------------------------------------------------------------


#: normalise_spec({"kind": k}) byte for byte as the hand-kept defaults
#: produced it: job keys hash these bytes, so they must never move.
CANONICAL_DEFAULTS = {
    "metrics": '{"kind": "metrics", "batch": false, "duration": 30.0, '
    '"profile": "user2-typical", "scenario": "cellular", "scheme": "poi360", '
    '"seed": 1, "sessions": 1, "transport": "fbcc", "warmup": 0.0}',
    "fleet": '{"kind": "fleet", "background_load": 0.2, "background_ues": 0, '
    '"batch": false, "calls": [1, 2, 4, 8], "cells": 1, "duration": 30.0, '
    '"prb_budget": 50, "rotate_profiles": false, "scenario": "cellular", '
    '"scheme": "poi360", "seed": 1, "transport": "fbcc", "warmup": 5.0}',
    "perf": '{"kind": "perf", "batch": false, "duration": 30.0, '
    '"fleet_batch": false, "warmup": 10.0}',
}


@pytest.mark.parametrize("kind,argv", [
    ("metrics", ["metrics"]),
    ("fleet", ["fleet"]),
    ("perf", ["perf"]),
])
def test_spec_defaults_match_cli_parser(kind, argv):
    """The CLI's flag defaults and a bare spec give the same, unchanged bytes."""
    namespace = cli.build_parser().parse_args(argv)
    from_cli = normalise_spec(cli._job_spec(namespace, kind))
    from_defaults = normalise_spec({"kind": kind})
    assert json.dumps(from_cli) == json.dumps(from_defaults) == CANONICAL_DEFAULTS[kind]
    assert dict(SPEC_DEFAULTS[kind], kind=kind) == from_defaults


#: A non-default value for every field of every spec class.
NON_DEFAULT = {
    "scenario": "rss_weak",
    "scheme": "conduit",
    "transport": "gcc",
    "duration": 12.5,
    "seed": 7,
    "warmup": 1.5,
    "profile": "user1-calm",
    "sessions": 3,
    "batch": True,
    "calls": [1, 2],
    "cells": 2,
    "prb_budget": 25,
    "background_ues": 3,
    "background_load": 0.5,
    "rotate_profiles": True,
    "fleet_batch": True,
}

FIELD_CASES = [
    (kind, field.name, NON_DEFAULT[field.name])
    for kind, spec_class in SPEC_CLASSES.items()
    for field in dataclasses.fields(spec_class)
] + [("fleet", "calls", "1,2"), ("fleet", "calls", 1)]


@pytest.mark.parametrize("kind,name,value", FIELD_CASES)
def test_spec_field_round_trips_through_cli_and_json(kind, name, value):
    """Each field set by flag and by JSON normalises to the same spec."""
    argv = [kind, "--" + name.replace("_", "-")]
    if isinstance(value, list):
        argv.append(",".join(map(str, value)))
    elif value is not True:
        argv.append(str(value))
    namespace = cli.build_parser().parse_args(argv)
    from_cli = normalise_spec(cli._job_spec(namespace, kind))
    from_json = normalise_spec({"kind": kind, name: value})
    assert json.dumps(from_cli) == json.dumps(from_json)
    assert from_json != normalise_spec({"kind": kind})


@pytest.mark.parametrize("bad", [
    {"kind": "nope"},
    {},
    "not a dict",
    {"kind": "metrics", "bogus_field": 1},
    {"kind": "metrics", "scenario": "atlantis"},
    {"kind": "metrics", "scenario": "wireline", "transport": "fbcc"},
    {"kind": "metrics", "sessions": 0},
    {"kind": "fleet", "calls": []},
    {"kind": "fleet", "calls": [0]},
    {"kind": "fleet", "calls": "x,y"},
    {"kind": "fleet", "calls": {"n": 1}},
    {"kind": "fleet", "calls": 1.5},
    {"kind": "fleet", "batch": True, "rotate_profiles": True},
    {"kind": "metrics", "batch": True, "profile": "user1-calm"},
    {"kind": "metrics", "sessions": 2.7},
    {"kind": "fleet", "calls": [1.9]},
    {"kind": "fleet", "calls": [True]},
    {"kind": "metrics", "seed": True},
    {"kind": "metrics", "batch": "false"},
    {"kind": "perf", "fleet_batch": 1},
    {"kind": "metrics", "duration": "nan"},
    {"kind": "metrics", "duration": float("nan")},
    {"kind": "fleet", "warmup": float("inf")},
    {"kind": "fleet", "background_load": 7},
    {"kind": "fleet", "background_load": -0.1},
    {"kind": "metrics", "profile": "nobody"},
    {"kind": "fleet", "cells": 0, "batch": True},
    {"kind": "metrics", "duration": -1, "batch": True},
    {"kind": "perf", "duration": 0},
    {"kind": "perf", "warmup": -1},
    {"kind": "fleet", "prb_budget": 0},
    {"kind": "fleet", "background_ues": -1},
])
def test_normalise_spec_rejects(bad):
    with pytest.raises(ValueError):
        normalise_spec(bad)


@pytest.mark.parametrize("spec", [
    # The specs of the benchmark's batch workloads (batch_sweep,
    # batch_small, fleet_batch) and the CLI defaults with --batch.
    {"kind": "metrics", "batch": True, "sessions": 256, "duration": 10.0, "warmup": 2.0},
    {"kind": "metrics", "batch": True, "sessions": 8, "duration": 120.0, "warmup": 2.0},
    {"kind": "fleet", "batch": True, "calls": [2, 4, 8], "cells": 32,
     "duration": 10.0, "warmup": 2.0},
    {"kind": "metrics", "batch": True, "profile": "user2-typical"},
    {"kind": "fleet", "batch": True},
])
def test_normalise_spec_accepts_default_batch_specs(spec):
    assert normalise_spec(spec)["batch"] is True


def test_batch_metrics_refuses_a_named_profile():
    with pytest.raises(ValueError, match="profile 'user3-explorer' requires the event engine"):
        normalise_spec({"kind": "metrics", "batch": True, "profile": "user3-explorer"})
    assert normalise_spec({"kind": "metrics", "profile": "user3-explorer"})


@pytest.mark.parametrize("kind", ["metrics", "fleet"])
def test_batch_specs_accept_only_the_lockstep_pair(kind):
    """The lockstep engines model poi360/fbcc only; other batch pairs fail."""
    for scheme in SCHEMES:
        for transport in TRANSPORTS:
            spec = {"kind": kind, "scheme": scheme, "transport": transport}
            assert normalise_spec(spec)["batch"] is False
            spec["batch"] = True
            if (scheme, transport) == LOCKSTEP_MODEL:
                assert normalise_spec(spec)["batch"] is True
            else:
                with pytest.raises(ValueError, match="batch runs model only"):
                    normalise_spec(spec)


def test_job_key_is_spelling_independent():
    a = job_key({"kind": "fleet", "duration": 8, "calls": "1,2"})
    b = job_key({"calls": [1, 2], "kind": "fleet", "duration": 8.0})
    assert a == b
    assert a != job_key({"kind": "fleet", "duration": 9.0, "calls": [1, 2]})


def test_calls_string_normalises_like_the_cli_flag():
    spec = normalise_spec({"kind": "fleet", "calls": "1, 2,4"})
    assert spec["calls"] == [1, 2, 4]
    # A bare integer (e.g. `repro360 submit --set calls=1`) is one value.
    assert normalise_spec({"kind": "fleet", "calls": 1})["calls"] == [1]


# ----------------------------------------------------------------------
# The shared execution path
# ----------------------------------------------------------------------


SMALL_FLEET = {
    "kind": "fleet",
    "calls": [1],
    "duration": 2.0,
    "warmup": 0.5,
    "batch": True,
}


def test_execute_job_matches_direct_cli_byte_for_byte(tmp_path, capsys):
    """A job's payload and registry ARE the CLI's --json/--metrics-output."""
    registry_path = tmp_path / "registry.json"
    code = cli.main([
        "fleet", "--calls", "1", "--duration", "2", "--warmup", "0.5",
        "--batch", "--json", "--metrics-output", str(registry_path),
    ])
    assert code == 0
    cli_stdout = capsys.readouterr().out
    outcome = execute_job(SMALL_FLEET)
    assert json.dumps(outcome.payload, indent=1) + "\n" == cli_stdout
    assert (
        json.dumps(outcome.registry, indent=1) + "\n" == registry_path.read_text()
    )


def test_execute_job_cancel_mid_sweep():
    """The cancel probe aborts between tasks and raises JobCancelled."""
    seen = []

    def progress(done, total, _result):
        seen.append((done, total))

    spec = {"kind": "metrics", "sessions": 3, "duration": 2.0, "warmup": 0.5,
            "transport": "gcc"}
    with pytest.raises(JobCancelled):
        execute_job(spec, progress=progress, cancel=lambda: bool(seen))
    # The first session completed, then the probe fired: never all three.
    assert seen and seen[-1][0] < 3


def _cancelled_at(spec):
    """Run ``spec`` at ``--jobs 1`` with a probe that is always True;
    return the ``(done, total)`` the JobCancelled message reports."""
    with pytest.raises(JobCancelled) as raised:
        execute_job(spec, jobs=1, cancel=lambda: True)
    done, total = str(raised.value).rsplit(" ", 1)[-1].split("/")
    return int(done), int(total)


def test_jobs1_batched_metrics_job_cancels_inside_its_cohort():
    """One serial cohort is one task; the probe still fires mid-run."""
    spec = {"kind": "metrics", "batch": True, "sessions": 40, "duration": 6.0,
            "warmup": 1.0}
    done, total = _cancelled_at(spec)
    # Stopped at the first progress stride (in ticks), not after the
    # whole sweep (40/40).
    assert done < total


def test_jobs1_batched_fleet_job_cancels_inside_its_block():
    spec = {"kind": "fleet", "batch": True, "calls": [2, 4], "duration": 6.0,
            "warmup": 1.0}
    done, total = _cancelled_at(spec)
    assert done < total


def test_execute_perf_cancel_before_first_leg():
    with pytest.raises(JobCancelled):
        execute_job({"kind": "perf", "duration": 1.0}, cancel=lambda: True)


# ----------------------------------------------------------------------
# Queue mechanics (monkeypatched execute_job — fast and deterministic)
# ----------------------------------------------------------------------


class FakeExecutor:
    """A controllable stand-in for execute_job.

    Each call blocks until :meth:`release` (or runs straight through if
    already released), heartbeats once so sealed ledgers stay valid,
    and honours the cancel probe.
    """

    def __init__(self, blocking=False):
        self.gate = threading.Event()
        if not blocking:
            self.gate.set()
        self.started = threading.Event()
        self.calls = []

    def release(self):
        self.gate.set()

    def __call__(self, spec, jobs=None, ledger=None, progress=None, cancel=None):
        self.calls.append(spec)
        self.started.set()
        while not self.gate.wait(0.05):
            if cancel is not None and cancel():
                raise JobCancelled("cancelled mid-fake")
        if cancel is not None and cancel():
            raise JobCancelled("cancelled mid-fake")
        if ledger is not None:
            ledger.heartbeat("session", done=1, total=1)
        if progress is not None:
            progress(1, 1, None)
        return JobOutcome({"echo": spec["kind"]}, registry={"counters": {}})


@pytest.fixture
def fake(monkeypatch):
    executor = FakeExecutor(blocking=True)
    monkeypatch.setattr(service_jobs, "execute_job", executor)
    return executor


def _registry(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("recover", False)
    return JobRegistry(tmp_path / "runs", **kwargs)


def test_duplicate_submission_dedups_by_key(tmp_path, fake):
    registry = _registry(tmp_path)
    try:
        first = registry.submit({"kind": "perf"})
        assert fake.started.wait(5.0)
        second = registry.submit({"kind": "perf", "duration": 30.0})
        assert second is first  # same canonical spec, same key
        other = registry.submit({"kind": "perf", "duration": 1.0})
        assert other is not first
        meter = registry.service_meter()
        assert meter.counters["service.jobs_deduped"] == 1
        assert meter.counters["service.jobs_submitted"] == 2
        fake.release()
        assert registry.wait(first.id, timeout=10.0).state == "done"
        assert registry.wait(other.id, timeout=10.0).state == "done"
    finally:
        fake.release()
        registry.close()


def test_cancel_running_job_seals_a_cancelled_ledger(tmp_path, fake):
    from repro.obs.ledger import read_manifest

    registry = _registry(tmp_path)
    try:
        job = registry.submit({"kind": "perf"})
        assert fake.started.wait(5.0)
        assert registry.cancel(job.id)
        assert registry.wait(job.id, timeout=10.0).state == "cancelled"
        assert read_manifest(job.run_dir)["status"] == "cancelled"
        meter = registry.service_meter()
        assert meter.counters["service.jobs_cancelled"] == 1
    finally:
        fake.release()
        registry.close()


def test_cancel_queued_job_never_runs(tmp_path, fake):
    registry = _registry(tmp_path)
    try:
        running = registry.submit({"kind": "perf"})
        assert fake.started.wait(5.0)
        queued = registry.submit({"kind": "perf", "duration": 1.0})
        assert queued.state == "queued"
        assert registry.cancel(queued.id)
        fake.release()
        assert registry.wait(queued.id, timeout=10.0).state == "cancelled"
        assert queued.run_dir is None  # no ledger was ever opened
        assert registry.wait(running.id, timeout=10.0).state == "done"
        assert not registry.cancel(queued.id)  # already terminal
    finally:
        fake.release()
        registry.close()


def test_failed_job_seals_an_error_ledger(tmp_path, monkeypatch):
    from repro.obs.ledger import read_manifest

    def boom(spec, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(service_jobs, "execute_job", boom)
    registry = _registry(tmp_path)
    try:
        job = registry.submit({"kind": "perf"})
        assert registry.wait(job.id, timeout=10.0).state == "failed"
        assert "engine exploded" in job.error
        assert read_manifest(job.run_dir)["status"] == "error"
        assert registry.service_meter().counters[
            "service.jobs_failed"
        ] == 1
    finally:
        registry.close()


def test_cache_hit_replays_without_running(tmp_path, monkeypatch):
    executor = FakeExecutor(blocking=False)
    monkeypatch.setattr(service_jobs, "execute_job", executor)
    registry = _registry(tmp_path)
    try:
        first = registry.submit({"kind": "perf"})
        assert registry.wait(first.id, timeout=10.0).state == "done"
        again = registry.submit({"kind": "perf"})
        assert again.id != first.id
        assert again.state == "done" and again.cache_hit
        assert again.result == first.result
        assert len(executor.calls) == 1  # nothing re-ran
        meter = registry.service_meter()
        assert meter.counters["service.jobs_cache_hits"] == 1
    finally:
        registry.close()


# ----------------------------------------------------------------------
# The HTTP server and client
# ----------------------------------------------------------------------


@pytest.fixture
def served(tmp_path, monkeypatch):
    executor = FakeExecutor(blocking=False)
    monkeypatch.setattr(service_jobs, "execute_job", executor)
    registry = _registry(tmp_path, workers=2)
    server = ServiceServer(registry, port=0).start()
    client = ServiceClient(server.url, timeout=10.0)
    yield registry, server, client, executor
    server.close()


def test_endpoints_roundtrip(served):
    registry, server, client, executor = served
    assert client.healthz()["status"] == "ok"
    job = client.submit({"kind": "perf"})
    record = client.wait(job["id"], timeout=10.0)
    assert record["state"] == "done"
    assert record["result"]["payload"] == {"echo": "perf"}
    events = client.events(job["id"])
    assert events and events[0]["kind"] == "session"
    assert client.events(job["id"], since=len(events)) == []
    assert [row["id"] for row in client.jobs()] == [job["id"]]


def test_every_heartbeat_reader_drops_a_torn_tail(served):
    """A writer killed mid-append leaves a torn last line: the event
    stream, ``runs list`` and the ledger checker all skip it."""
    import subprocess
    import sys
    from pathlib import Path

    from repro.obs.ledger import HEARTBEAT_NAME, list_runs, read_heartbeats

    registry, _server, client, _executor = served
    job = client.submit({"kind": "perf"})
    assert client.wait(job["id"], timeout=10.0)["state"] == "done"
    run_dir = Path(registry.get(job["id"]).run_dir)
    events = client.events(job["id"])
    assert events
    with open(run_dir / HEARTBEAT_NAME, "a") as handle:
        handle.write('{"v": 1, "kind": "sess')
    assert client.events(job["id"]) == events
    assert read_heartbeats(run_dir) == events
    (info,) = [info for info in list_runs(run_dir.parent) if info.run_dir == run_dir]
    assert info.heartbeats == len(events)
    tool = Path(__file__).resolve().parent.parent / "tools" / "check_run_ledger.py"
    proc = subprocess.run(
        [sys.executable, str(tool), str(run_dir)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"heartbeats={len(events)} " in proc.stdout


def test_unknown_routes_and_bad_specs_are_clean_errors(served):
    _registry_, _server, client, _executor = served
    with pytest.raises(ServiceError) as error:
        client.job("job-999999")
    assert error.value.status == 404
    with pytest.raises(ServiceError) as error:
        client.submit({"kind": "alchemy"})
    assert error.value.status == 400
    with pytest.raises(ServiceError) as error:
        client._request("GET", "/teapot")
    assert error.value.status == 404


def test_metrics_scrape_passes_the_catalogue_gate(served):
    import importlib.util
    from pathlib import Path

    registry, server, client, _executor = served
    record = client.submit({"kind": "perf"})
    client.wait(record["id"], timeout=10.0)
    text = client.metrics_text()
    tool = Path(cli.__file__).resolve().parents[2] / "tools" / "check_metrics.py"
    spec = importlib.util.spec_from_file_location("check_metrics_svc", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.check(text) == []
    meter = client.metrics()
    assert meter.counters["service.jobs_completed"] == 1
    assert meter.counters["service.requests"] >= 1
    assert "service.uptime_s" in meter.gauges


def test_concurrent_submitters_account_for_every_request(served):
    registry, _server, client, _executor = served
    specs = [{"kind": "perf", "duration": float(index % 3 + 1)}
             for index in range(6)]
    errors = []

    def hammer():
        for spec in specs:
            try:
                client.submit(spec)
            except ServiceError as error:  # pragma: no cover - diagnostic
                errors.append(error)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    assert not errors
    for job in registry.list():
        assert registry.wait(job.id, timeout=10.0).state == "done"
    counters = registry.service_meter().counters
    # Every one of the 24 submissions is accounted for exactly once:
    # it either created a job record or attached to an active one.
    assert (
        counters["service.jobs_submitted"] + counters["service.jobs_deduped"]
        == len(specs) * len(threads)
    )
    # 3 distinct keys -> at least one fresh run each; the rest were
    # dedups or cache-hit replays, never lost.
    assert counters["service.jobs_completed"] >= 3


# ----------------------------------------------------------------------
# Restart recovery and real-ledger integration (one real simulation)
# ----------------------------------------------------------------------


def test_restart_recovery_and_cache_replay(tmp_path):
    root = tmp_path / "runs"
    registry = JobRegistry(root, workers=1, recover=False)
    try:
        job = registry.submit(SMALL_FLEET)
        assert registry.wait(job.id, timeout=120.0).state == "done"
        original = job.result
        assert original["payload"]["points"]
        run_dir = job.run_dir
    finally:
        registry.close()

    # A sealed service run passes the ledger contract gate, including
    # the job's result artifact riding along.
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(cli.__file__).resolve().parents[2]
    tool = repo / "tools" / "check_run_ledger.py"
    proc = subprocess.run(
        [sys.executable, str(tool), run_dir],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(repo / "src")),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (Path(run_dir) / RESULT_NAME).exists()

    # Restart: the job history and its payload come back from the run
    # root alone (recovery), and an identical resubmission replays
    # instantly from the persisted payload — no simulation.
    recovered = JobRegistry(root, workers=1)
    try:
        rows = recovered.list()
        assert [job.id for job in rows] == [job.id]
        assert rows[0].state == "done"
        assert rows[0].result == original
        replay = recovered.submit(SMALL_FLEET)
        assert replay.state == "done" and replay.cache_hit
        assert replay.result == original
        # The sealed run's registry folds into the /metrics view.
        counters = recovered.service_registry().counters
        assert counters.get("fleet.sessions", 0) > 0
        assert counters["service.jobs_cache_hits"] == 1
    finally:
        recovered.close()


def test_registry_gc_prunes_only_sealed_runs(tmp_path, monkeypatch):
    executor = FakeExecutor(blocking=False)
    monkeypatch.setattr(service_jobs, "execute_job", executor)
    registry = _registry(tmp_path)
    try:
        job = registry.submit({"kind": "perf"})
        assert registry.wait(job.id, timeout=10.0).state == "done"
        assert registry.gc(keep_days=1.0) == []  # too young
        removed = registry.gc(keep_days=0.0, dry_run=True)
        assert removed == [job.run_dir]
        assert (tmp_path / "runs").joinpath(  # dry run deleted nothing
            job.run_dir.rsplit("/", 1)[-1]
        ).exists()
        removed = registry.gc(keep_days=0.0)
        assert removed == [job.run_dir]
        counters = registry.service_meter().counters
        assert counters["service.runs_gc_removed"] == 1
    finally:
        registry.close()


def test_openmetrics_content_type_header(served):
    import urllib.request

    _registry_, server, _client, _executor = served
    with urllib.request.urlopen(server.url + "/metrics", timeout=10.0) as response:
        assert response.headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
        assert response.read().decode().endswith("# EOF\n")
