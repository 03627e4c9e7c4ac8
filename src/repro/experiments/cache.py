"""Content-addressed, on-disk cache of experiment session results.

Running a condition at paper scale costs minutes; its result is a pure
function of (experiment settings, scenario, scheme, transport, user
profiles) **and the simulator code itself**.  This module persists the
session lists under ``.repro_cache/`` keyed by a stable hash of all of
the above, so pytest invocations, figure harnesses, benches, and the
CLI share one pool of finished sessions.

Layout::

    .repro_cache/
        counters.jsonl         # one appended line of counter deltas per bump
        counters.json          # legacy lifetime totals (read-only base)
        <code-salt>/           # first 12 hex chars of the source hash
            <key>.pkl          # pickled List[SessionResult]
            <key>.json         # JSON payload entries (the job service)

The *code salt* is a SHA-256 over every ``repro`` source file, so any
change to the simulator automatically invalidates the whole cache (old
salt directories are simply never read again; ``clear`` removes them).

Controls:

- ``REPRO_CACHE_DIR`` env var or :func:`set_cache_dir` — location
  (default ``.repro_cache`` under the current directory);
- ``REPRO_CACHE=0`` env var or :func:`set_cache_enabled` — kill switch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.obs.ledger import atomic_write_text, atomic_writer, read_jsonl_lines
from repro.telephony.session import SessionResult

#: Counter names tracked by the cache; they mirror the ``cache.*``
#: metrics of :data:`repro.obs.METRIC_CATALOGUE`.
COUNTER_NAMES = ("entry_hits", "entry_misses", "session_hits", "sessions_stored")

#: Overridden by :func:`set_cache_dir`; None = resolve from environment.
_CACHE_DIR: Optional[Path] = None

#: Overridden by :func:`set_cache_enabled`; None = resolve from environment.
_ENABLED: Optional[bool] = None

#: Computed lazily, once per process (the source tree does not change
#: under a running experiment).
_CODE_SALT: Optional[str] = None

#: Process-level hit/miss counters (this run); a persistent log in
#: ``<cache_dir>/counters.jsonl`` accumulates across processes so
#: ``repro360 cache stats`` can report lifetime effectiveness.
_COUNTERS: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}


def set_cache_dir(path: Optional[os.PathLike]) -> None:
    """Override the cache directory (None restores the default)."""
    global _CACHE_DIR
    _CACHE_DIR = None if path is None else Path(path)


def cache_dir() -> Path:
    """Directory holding the persistent cache (not necessarily created)."""
    if _CACHE_DIR is not None:
        return _CACHE_DIR
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def set_cache_enabled(enabled: Optional[bool]) -> None:
    """Force the cache on/off (None restores the environment default)."""
    global _ENABLED
    _ENABLED = enabled


def cache_enabled() -> bool:
    """Whether session results are persisted / looked up on disk."""
    if _ENABLED is not None:
        return _ENABLED
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def code_salt() -> str:
    """Hash of every ``repro`` source file — the cache's version stamp."""
    global _CODE_SALT
    if _CODE_SALT is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_SALT = digest.hexdigest()[:12]
    return _CODE_SALT


def condition_key(settings, scenario_name: str, scheme: str, transport: str,
                  profiles: Iterable[str]) -> str:
    """Stable content hash identifying one experimental condition."""
    payload = repr((
        dataclasses.asdict(settings),
        scenario_name,
        scheme,
        transport,
        tuple(profiles),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _entry_path(key: str) -> Path:
    return cache_dir() / code_salt() / f"{key}.pkl"


def _counters_path() -> Path:
    return cache_dir() / "counters.jsonl"


def _legacy_counters_path() -> Path:
    return cache_dir() / "counters.json"


def _bump(**deltas: int) -> None:
    """Add to the process counters and append them to the persistent log.

    One short ``O_APPEND`` write per bump: concurrent processes cannot
    lose each other's updates, and nothing is read or renamed (an
    ``os.replace`` over an existing file can block for tens of ms).
    Best effort: counter persistence must never break an experiment.
    """
    for name, delta in deltas.items():
        _COUNTERS[name] += delta
    path = _counters_path()
    line = json.dumps(deltas, separators=(",", ":"), sort_keys=True)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(line + "\n")
    except OSError:
        pass


def counters() -> Dict[str, int]:
    """This process's cache hit/miss counters (a copy).

    Keys mirror the ``cache.*`` metric names: ``entry_hits`` /
    ``entry_misses`` count :func:`load` outcomes, ``session_hits``
    counts the sessions those hits returned, and ``sessions_stored``
    counts sessions persisted by :func:`store`.
    """
    return dict(_COUNTERS)


def persistent_counters() -> Dict[str, int]:
    """Lifetime counters: the sum of every whole line of
    ``<cache_dir>/counters.jsonl`` (a torn line is skipped) on top of a
    legacy ``counters.json`` total, if one is left."""
    totals = {name: 0 for name in COUNTER_NAMES}
    records = [record for _, record in read_jsonl_lines(_counters_path())]
    try:
        records.insert(0, json.loads(_legacy_counters_path().read_text()))
    except (OSError, ValueError):
        pass
    for record in records:
        try:
            deltas = [int(record.get(name, 0)) for name in COUNTER_NAMES]
        except (AttributeError, TypeError, ValueError):
            continue
        for name, delta in zip(COUNTER_NAMES, deltas):
            totals[name] += delta
    return totals


def reset_counters() -> None:
    """Zero the process counters (tests; the persistent log is left alone)."""
    for name in COUNTER_NAMES:
        _COUNTERS[name] = 0


def load(key: str) -> Optional[List[SessionResult]]:
    """Fetch a condition's sessions from disk, or None on miss."""
    if not cache_enabled():
        return None
    path = _entry_path(key)
    try:
        with open(path, "rb") as handle:
            results = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError):
        # Missing, torn, or written by an incompatible code version
        # whose salt happened to collide — treat all as a miss.
        _bump(entry_misses=1)
        return None
    _bump(entry_hits=1, session_hits=len(results))
    return results


def store(key: str, results: List[SessionResult]) -> None:
    """Persist a condition's sessions (atomic write; best effort)."""
    if not cache_enabled():
        return
    _bump(sessions_stored=len(results))
    path = _entry_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_writer(path, "wb") as handle:
            pickle.dump(results, handle, protocol=pickle.HIGHEST_PROTOCOL)
    except OSError:
        # A read-only or full filesystem must not break the experiment.
        pass


def payload_key(payload: dict) -> str:
    """Stable content hash of a JSON-safe payload (e.g. a job spec).

    Canonical JSON keyed the same way :func:`condition_key` keys
    experiment conditions; the surrounding ``<code-salt>/`` directory
    provides code-version invalidation, so the key itself only hashes
    the payload.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _payload_path(key: str) -> Path:
    return cache_dir() / code_salt() / f"{key}.json"


def load_payload(key: str) -> Optional[dict]:
    """Fetch a JSON payload entry from disk, or None on miss.

    The JSON sibling of :func:`load` for results that are not pickled
    session lists — the service (`repro.service`) persists finished job
    payloads this way, so a resubmitted identical job completes from
    cache even across server restarts.  Does not touch the ``cache.*``
    hit/miss counters (the service meters its own ``service.jobs_cache_
    hits``).
    """
    if not cache_enabled():
        return None
    try:
        return json.loads(_payload_path(key).read_text())
    except (OSError, ValueError):
        return None


def store_payload(key: str, payload: dict) -> None:
    """Persist a JSON payload entry (atomic write; best effort)."""
    if not cache_enabled():
        return
    path = _payload_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(payload, separators=(",", ":")))
    except OSError:
        pass


def stats() -> dict:
    """Entry count / byte size / staleness breakdown of the cache."""
    root = cache_dir()
    salt = code_salt()
    current_entries = 0
    stale_entries = 0
    total_bytes = 0
    if root.is_dir():
        for path in root.rglob("*.pkl"):
            total_bytes += path.stat().st_size
            if path.parent.name == salt:
                current_entries += 1
            else:
                stale_entries += 1
    lifetime = persistent_counters()
    return {
        "path": str(root),
        "code_salt": salt,
        "current_entries": current_entries,
        "stale_entries": stale_entries,
        "total_bytes": total_bytes,
        "entry_hits": lifetime["entry_hits"],
        "entry_misses": lifetime["entry_misses"],
        "session_hits": lifetime["session_hits"],
        "sessions_stored": lifetime["sessions_stored"],
    }


def clear() -> int:
    """Delete every cached entry; returns the number of files removed."""
    root = cache_dir()
    removed = 0
    if root.is_dir():
        for path in root.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for child in root.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
        for path in (_counters_path(), _legacy_counters_path()):
            try:
                path.unlink()
            except OSError:
                pass
    return removed
