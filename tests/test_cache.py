"""Persistent result cache: round-trips, invalidation, controls."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import cache
from repro.experiments.runner import (
    ExperimentSettings,
    clear_cache,
    run_sessions,
)

TINY = ExperimentSettings(duration=8.0, warmup=4.0, repetitions=1, num_users=1)

_SUBPROCESS_SCRIPT = """
import dataclasses, hashlib
from repro.experiments.runner import ExperimentSettings, run_sessions

settings = ExperimentSettings(duration=8.0, warmup=4.0, repetitions=1, num_users=1)
results = run_sessions("cellular", "poi360", "gcc", settings)
payload = repr([
    (dataclasses.asdict(r.summary), r.log.frame_delays, r.log.roi_psnrs)
    for r in results
])
print(hashlib.sha256(payload.encode()).hexdigest())
"""


@pytest.fixture(autouse=True)
def _fresh_cache(tmp_path):
    clear_cache()
    cache.set_cache_dir(tmp_path / "cache")
    cache.set_cache_enabled(True)
    yield
    cache.set_cache_enabled(None)
    cache.set_cache_dir(None)
    clear_cache()


def _key(settings=TINY):
    return cache.condition_key(
        settings,
        "cellular",
        "poi360",
        "gcc",
        (profile.name for profile in settings.users()),
    )


def _digest(results):
    return [
        (repr(dataclasses.asdict(r.summary)), r.log.frame_delays, r.log.roi_psnrs)
        for r in results
    ]


def test_disk_round_trip_within_process():
    first = run_sessions("cellular", "poi360", "gcc", TINY)
    clear_cache()  # drop L1 only; the pickle on disk must satisfy the re-run
    second = run_sessions("cellular", "poi360", "gcc", TINY)
    assert second is not first
    assert _digest(second) == _digest(first)
    assert cache.stats()["current_entries"] == 1


def test_round_trip_across_fresh_processes(tmp_path):
    """Two cold interpreters sharing only the cache dir agree bit-for-bit."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "shared")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.pop("REPRO_CACHE", None)
    runs = [
        subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        for _ in range(2)
    ]
    digests = [run.stdout.strip() for run in runs]
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64
    pickles = list((tmp_path / "shared").rglob("*.pkl"))
    assert len(pickles) == 1  # the second process loaded, not re-stored


def test_key_changes_with_settings():
    assert _key(TINY) != _key(dataclasses.replace(TINY, duration=9.0))
    assert _key(TINY) != _key(dataclasses.replace(TINY, base_seed=2))
    assert _key(TINY) == _key(dataclasses.replace(TINY))


def test_code_salt_change_invalidates(monkeypatch):
    results = run_sessions("cellular", "poi360", "gcc", TINY)
    assert cache.load(_key()) is not None
    monkeypatch.setattr(cache, "_CODE_SALT", "0" * 12)
    assert cache.load(_key()) is None
    stats = cache.stats()
    assert stats["current_entries"] == 0
    assert stats["stale_entries"] == 1
    assert len(results) == 1


def test_disabled_cache_neither_stores_nor_loads():
    cache.set_cache_enabled(False)
    run_sessions("cellular", "poi360", "gcc", TINY)
    assert cache.stats()["current_entries"] == 0
    cache.store(_key(), [])
    assert cache.load(_key()) is None


def test_clear_removes_current_and_stale_entries(monkeypatch):
    run_sessions("cellular", "poi360", "gcc", TINY)
    stale = cache.cache_dir() / ("f" * 12)
    stale.mkdir(parents=True)
    (stale / "dead.pkl").write_bytes(b"junk")
    assert cache.clear() == 2
    stats = cache.stats()
    assert stats["current_entries"] == 0
    assert stats["stale_entries"] == 0


def test_torn_entry_is_a_miss():
    key = _key()
    path = cache.cache_dir() / cache.code_salt() / f"{key}.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\x80\x05 torn")
    assert cache.load(key) is None


# ----------------------------------------------------------------------
# Persistent counter log (counters.jsonl)
# ----------------------------------------------------------------------

_BUMP_SCRIPT = """
import sys
from repro.experiments import cache

for _ in range(int(sys.argv[1])):
    cache._bump(entry_hits=1, session_hits=2)
"""


def test_concurrent_bumps_lose_no_update(tmp_path):
    """Processes bumping at once (more of them than most CI cores):
    every appended line counts, where a read-modify-rename of one
    totals file loses updates."""
    bumps, processes = 200, 3
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "shared")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    workers = [
        subprocess.Popen([sys.executable, "-c", _BUMP_SCRIPT, str(bumps)], env=env)
        for _ in range(processes)
    ]
    assert [worker.wait(timeout=120) for worker in workers] == [0] * processes
    cache.set_cache_dir(tmp_path / "shared")
    lifetime = cache.persistent_counters()
    assert lifetime["entry_hits"] == processes * bumps
    assert lifetime["session_hits"] == 2 * processes * bumps


def test_torn_counter_line_is_skipped():
    cache._bump(entry_misses=1)
    cache._bump(sessions_stored=3)
    with open(cache.cache_dir() / "counters.jsonl", "a") as handle:
        handle.write('{"entry_hits":5,"sess')  # a writer died mid-append
    lifetime = cache.persistent_counters()
    assert lifetime == {
        "entry_hits": 0, "entry_misses": 1, "session_hits": 0, "sessions_stored": 3
    }


def test_legacy_counters_file_is_folded_in():
    root = cache.cache_dir()
    root.mkdir(parents=True)
    (root / "counters.json").write_text(
        '{"entry_hits": 7, "entry_misses": 2, "session_hits": 14, "sessions_stored": 4}'
    )
    cache._bump(entry_hits=1, session_hits=2)
    assert cache.persistent_counters() == {
        "entry_hits": 8, "entry_misses": 2, "session_hits": 16, "sessions_stored": 4
    }
    assert cache.stats()["entry_hits"] == 8
    cache.clear()
    assert not (root / "counters.json").exists()
    assert not (root / "counters.jsonl").exists()
    assert cache.persistent_counters() == {name: 0 for name in cache.COUNTER_NAMES}
