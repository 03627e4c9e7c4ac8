"""The run ledger: per-run artifact directories + live telemetry files.

POI360's conclusions rest on *instrumented* drive tests — continuous
measurement while the experiment runs, not just a number at the end.
The ledger gives every sweep/fleet/perf/batch invocation the same
property: a **run directory** holding the run's identity and
provenance, plus two files that stream *while the run is live* so a
multi-hour sweep can be watched (``repro360 watch <run-dir>``) instead
of staring at a silent terminal:

``<run-root>/<run-id>/``
    ``manifest.json``      run id, command, CLI config snapshot,
                           environment + code-salt provenance, exit
                           status (rewritten once at the end);
    ``heartbeat.jsonl``    one JSON record per completed task (from the
                           ``run_tasks`` progress callback) and per
                           cohort progress slice (emitted from inside
                           the batched engines' tick loops) — see
                           docs/OBSERVABILITY.md for the schema;
    ``snapshots/``         periodic OpenMetrics snapshots of the live
                           fleet registry (``metrics-NNNNNN.om``),
                           rate-limited to one per ``snapshot_every_s``;
    ``registry.json``      the final merged fleet registry
                           (:func:`repro.metrics.export.metrics_to_dict`);
    ``cache_stats.json``   a copy of ``repro360 cache stats`` so cache
                           hit/miss provenance survives with the run.

Determinism contract — the same one :class:`repro.obs.meter.SessionMeter`
obeys: the ledger only ever *reads* results and meters and writes into
its own files.  It never touches an RNG stream, never schedules
simulation events, and never feeds anything back into the simulation,
so a ledger-enabled run is **byte-identical** (summaries, logs,
registries, RNG states) to a ledger-off run; only wall-clock fields in
the ledger's own files differ between runs.

The run root resolves ``--run-dir`` first, then the ``REPRO_RUN_DIR``
environment variable, then the ``.repro_runs/`` default (gitignored).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, List, Optional, Tuple, Union

from repro.obs.meter import SessionMeter

PathLike = Union[str, Path]


@contextmanager
def atomic_writer(path: PathLike, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file next to ``path`` for writing; on a clean
    exit ``os.replace`` renames it over ``path``.

    A reader sees the old file or the new one, never a torn one.  If
    anything fails, the temporary file is removed and the old file is
    left as it was.
    """
    fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` atomically (:func:`atomic_writer`)."""
    with atomic_writer(path) as handle:
        handle.write(text)


#: Schema version stamped into the manifest and every heartbeat record.
LEDGER_VERSION = 1

#: Environment variable naming the default run root.
RUN_DIR_ENV = "REPRO_RUN_DIR"

#: Fallback run root (gitignored) when neither flag nor env is set.
DEFAULT_RUN_ROOT = ".repro_runs"

MANIFEST_NAME = "manifest.json"
HEARTBEAT_NAME = "heartbeat.jsonl"
SNAPSHOT_DIRNAME = "snapshots"
REGISTRY_NAME = "registry.json"
CACHE_STATS_NAME = "cache_stats.json"

#: Wall-clock seconds between OpenMetrics snapshots (the first eligible
#: snapshot is taken immediately, so even a tiny run produces one).
DEFAULT_SNAPSHOT_EVERY_S = 5.0

#: Terminal manifest statuses a sealed run may carry ("running" is the
#: only non-terminal one).
TERMINAL_STATUSES = ("ok", "error", "cancelled")

#: A "running" run whose newest heartbeat is older than this is
#: presumed abandoned (its process died without sealing the manifest).
DEFAULT_STALE_AFTER_S = 900.0

#: The heartbeat ``kind`` vocabulary.  ``session``/``cell`` records come
#: from the parent's ``run_tasks`` progress callback (``done`` is the
#: completed task count, monotone per run); ``cohort`` records come from
#: inside a batched engine's tick loop (``tick`` is monotone per
#: ``(pid, cohort)`` stream); ``leg`` records mark perf-bench stages.
HEARTBEAT_KINDS = ("session", "cell", "cohort", "leg")


def resolve_run_root(root: Optional[PathLike] = None) -> Optional[Path]:
    """The run root, or None when ledgers are not opted in.

    Precedence: an explicit ``root`` (the CLI's ``--run-dir``), then the
    ``REPRO_RUN_DIR`` environment variable, then None — commands only
    open a ledger when one of the two is set.
    """
    if root is not None:
        return Path(root)
    env = os.environ.get(RUN_DIR_ENV, "").strip()
    return Path(env) if env else None


def new_run_id(command: str) -> str:
    """A unique, sortable run id: ``<utc-stamp>-<command>-<pid>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{command}-{os.getpid()}"


def append_heartbeat(path: PathLike, record: dict) -> dict:
    """Append one heartbeat record as a single JSONL line.

    Opens in append mode per write: each record is one short
    ``O_APPEND`` write, so parent and worker processes can interleave
    lines into the same file without tearing each other's records.
    """
    line = json.dumps(record, separators=(",", ":"), sort_keys=True)
    with open(path, "a") as handle:
        handle.write(line + "\n")
    return record


def cohort_heartbeat_callback(
    path: PathLike,
    kind: str = "cohort",
    label: Optional[object] = None,
) -> Callable[[int, int, int], None]:
    """A batched-engine ``progress`` callback streaming cohort records.

    Returns a callable with the :meth:`repro.sim.batch.BatchedSimulation.run`
    progress signature ``(tick, total_ticks, n_sessions)`` that appends
    one heartbeat record per invocation.  Safe to build inside a worker
    process (:class:`repro.experiments.parallel.CellBlockTask` does):
    records carry the worker's ``pid`` and an optional cohort ``label``
    so interleaved streams stay separable, and ``tick`` is monotone per
    ``(pid, label)`` stream.
    """
    pid = os.getpid()
    t0 = time.time()

    def _progress(tick: int, total_ticks: int, sessions: int) -> None:
        now = time.time()
        elapsed = now - t0
        eta = None if tick <= 0 else elapsed * (total_ticks - tick) / tick
        record = {
            "v": LEDGER_VERSION,
            "kind": kind,
            "t_wall": round(now, 3),
            "pid": pid,
            "tick": tick,
            "ticks": total_ticks,
            "sessions": sessions,
            "elapsed_s": round(elapsed, 3),
            "eta_s": None if eta is None else round(eta, 3),
        }
        if label is not None:
            record["cohort"] = label
        append_heartbeat(path, record)

    return _progress


class RunLedger:
    """One run directory: manifest + heartbeat stream + snapshots.

    Construct through :meth:`open`, which creates the directory and
    writes the initial (``status: running``) manifest.  The ledger keeps
    a **live fleet registry** (:attr:`live`): every meter absorbed from
    a finished task merges into it, and periodic snapshots export it in
    the OpenMetrics text format, so a scraper (or ``repro360 watch``)
    sees the sweep's counters grow while it runs.
    """

    def __init__(
        self,
        run_dir: PathLike,
        command: str = "",
        snapshot_every_s: float = DEFAULT_SNAPSHOT_EVERY_S,
    ):
        self.run_dir = Path(run_dir)
        self.command = command
        self.snapshot_every_s = float(snapshot_every_s)
        self._t0 = time.time()
        self._seq = 0
        self._beats = 0
        self._snapshots = 0
        self._last_snapshot: Optional[float] = None
        self.finished = False
        #: Incrementally merged fleet registry of every absorbed meter.
        self.live = SessionMeter()
        self._manifest: dict = {}

    # ------------------------------------------------------------ paths

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / MANIFEST_NAME

    @property
    def heartbeat_path(self) -> Path:
        return self.run_dir / HEARTBEAT_NAME

    @property
    def snapshot_dir(self) -> Path:
        return self.run_dir / SNAPSHOT_DIRNAME

    @property
    def registry_path(self) -> Path:
        return self.run_dir / REGISTRY_NAME

    @property
    def cache_stats_path(self) -> Path:
        return self.run_dir / CACHE_STATS_NAME

    # ---------------------------------------------------------- opening

    @classmethod
    def open(
        cls,
        command: str,
        config: Optional[dict] = None,
        root: Optional[PathLike] = None,
        run_id: Optional[str] = None,
        snapshot_every_s: float = DEFAULT_SNAPSHOT_EVERY_S,
    ) -> "RunLedger":
        """Create ``<root>/<run-id>/`` and write the initial manifest.

        ``root`` resolves like :func:`resolve_run_root` but falls back
        to :data:`DEFAULT_RUN_ROOT` — callers that reached ``open`` have
        already opted in.  ``config`` is a JSON-safe snapshot of the
        invocation (CLI arguments, scenario parameters).
        """
        resolved = resolve_run_root(root)
        if resolved is None:
            resolved = Path(DEFAULT_RUN_ROOT)
        run_id = run_id or new_run_id(command)
        ledger = cls(
            resolved / run_id, command=command, snapshot_every_s=snapshot_every_s
        )
        ledger.run_dir.mkdir(parents=True, exist_ok=True)
        ledger.snapshot_dir.mkdir(exist_ok=True)
        ledger.heartbeat_path.touch()
        ledger._manifest = {
            "version": LEDGER_VERSION,
            "run_id": run_id,
            "command": command,
            "status": "running",
            "started_wall": round(ledger._t0, 3),
            "started_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(ledger._t0)
            ),
            "config": config,
            "environment": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
                "hostname": platform.node(),
            },
            "code_salt": _code_salt(),
            "artifacts": {
                "heartbeat": HEARTBEAT_NAME,
                "snapshots": SNAPSHOT_DIRNAME,
                "registry": REGISTRY_NAME,
                "cache_stats": CACHE_STATS_NAME,
            },
        }
        ledger._write_manifest()
        return ledger

    def _write_manifest(self) -> None:
        atomic_write_text(
            self.manifest_path, json.dumps(self._manifest, indent=1) + "\n"
        )

    # ------------------------------------------------------- heartbeats

    def heartbeat(
        self,
        kind: str,
        done: Optional[int] = None,
        total: Optional[int] = None,
        **fields,
    ) -> dict:
        """Append one parent-side heartbeat record.

        When ``done``/``total`` are given the record carries an
        ``eta_s`` projection (null until the first completion); ``seq``
        is monotone across the parent's records.
        """
        now = time.time()
        self._seq += 1
        elapsed = now - self._t0
        record = {
            "v": LEDGER_VERSION,
            "seq": self._seq,
            "kind": kind,
            "t_wall": round(now, 3),
            "elapsed_s": round(elapsed, 3),
        }
        if done is not None:
            record["done"] = int(done)
            record["total"] = None if total is None else int(total)
            eta = None
            if total is not None and done > 0:
                eta = elapsed * (total - done) / done
            record["eta_s"] = None if eta is None else round(eta, 3)
        record.update(fields)
        append_heartbeat(self.heartbeat_path, record)
        self._beats += 1
        return record

    def absorb(self, result) -> None:
        """Merge a finished task's meter(s) into the live registry.

        Accepts anything with a ``.meter`` attribute (``SessionResult``,
        ``CellResult``) or a list of such (a :class:`~repro.experiments.
        parallel.CellBlockTask` returns one result list per block).
        """
        if result is None:
            return
        if isinstance(result, (list, tuple)):
            for item in result:
                self.absorb(item)
            return
        meter = getattr(result, "meter", None)
        if meter is not None:
            self.live.merge(meter)

    def progress(
        self,
        kind: str = "session",
        workers: int = 1,
        inner=None,
    ):
        """A ``run_tasks`` progress callback that feeds this ledger.

        On every completed task: absorb its meter into :attr:`live`,
        append a heartbeat (monotone ``done``), and take a snapshot if
        one is due.  ``inner`` chains an existing callback (e.g. the
        CLI's stderr progress printer).
        """

        def _progress(done: int, total: int, result) -> None:
            self.absorb(result)
            self.heartbeat(kind, done=done, total=total, workers=workers)
            self.maybe_snapshot()
            if inner is not None:
                inner(done, total, result)

        return _progress

    # -------------------------------------------------------- snapshots

    def snapshot(self, meter: Optional[SessionMeter] = None) -> Path:
        """Write one OpenMetrics snapshot of the (or a given) registry."""
        from repro.metrics.export import write_metrics_openmetrics

        self._snapshots += 1
        path = self.snapshot_dir / f"metrics-{self._snapshots:06d}.om"
        write_metrics_openmetrics(path, self.live if meter is None else meter)
        self._last_snapshot = time.time()
        return path

    def maybe_snapshot(
        self, meter: Optional[SessionMeter] = None
    ) -> Optional[Path]:
        """Snapshot if ``snapshot_every_s`` elapsed (or none taken yet)."""
        if (
            self._last_snapshot is not None
            and time.time() - self._last_snapshot < self.snapshot_every_s
        ):
            return None
        return self.snapshot(meter)

    # -------------------------------------------------- final artifacts

    def write_registry(self, meter: Optional[SessionMeter] = None) -> Path:
        """Write the final registry artifact (``registry.json``)."""
        from repro.metrics.export import metrics_to_dict

        payload = metrics_to_dict(self.live if meter is None else meter)
        atomic_write_text(self.registry_path, json.dumps(payload, indent=1) + "\n")
        return self.registry_path

    def write_cache_stats(self, stats: dict) -> Path:
        """Copy a ``repro360 cache stats`` snapshot into the run."""
        atomic_write_text(self.cache_stats_path, json.dumps(stats, indent=1) + "\n")
        return self.cache_stats_path

    def finish(
        self,
        status: str = "ok",
        meter: Optional[SessionMeter] = None,
        **extra,
    ) -> dict:
        """Seal the run: final snapshot + registry, manifest rewrite.

        ``meter`` (or the live registry, when any meter was absorbed)
        gets one last snapshot and becomes ``registry.json``, so every
        ledgered run ends with at least one snapshot and a final
        registry artifact.  ``extra`` lands in the manifest verbatim.
        """
        final = meter if meter is not None else self.live
        self.snapshot(final)
        self.write_registry(final)
        now = time.time()
        self._manifest.update(
            {
                "status": status,
                "ended_wall": round(now, 3),
                "elapsed_s": round(now - self._t0, 3),
                "heartbeats": self._beats,
                "snapshots": self._snapshots,
            }
        )
        if extra:
            self._manifest.update(extra)
        self._write_manifest()
        self.finished = True
        return self._manifest

    # -------------------------------------------------- context manager

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.finished:
            status = "ok" if exc_type is None else "error"
            extra = {} if exc is None else {"error": repr(exc)}
            self.finish(status, **extra)


def _code_salt() -> Optional[str]:
    """The result cache's code salt (provenance), or None off-tree."""
    try:
        from repro.experiments.cache import code_salt

        return code_salt()
    except Exception:
        return None


# ----------------------------------------------------------------------
# Readers (repro360 watch, examples/metrics_dashboard.py, tools)
# ----------------------------------------------------------------------


def read_manifest(run_dir: PathLike) -> dict:
    """Load a run's manifest."""
    return json.loads((Path(run_dir) / MANIFEST_NAME).read_text())


def read_heartbeat_lines(run_dir: PathLike) -> List[Tuple[str, dict]]:
    """Every whole heartbeat record as ``(line, record)``, in file
    (append) order.

    The one heartbeat parser: :func:`read_heartbeats`, :func:`list_runs`
    and the job server's event stream all read through it.  Heartbeats
    are appended in place, so a writer that dies mid-append (or one
    still appending) leaves a torn line; any line that is not a JSON
    object is dropped rather than raising, and a missing or unreadable
    file has no records.
    """
    try:
        text = (Path(run_dir) / HEARTBEAT_NAME).read_text()
    except (OSError, UnicodeDecodeError):
        return []
    records: List[Tuple[str, dict]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append((line, record))
    return records


def read_heartbeats(run_dir: PathLike) -> List[dict]:
    """Load every whole heartbeat record, in file (append) order (torn
    lines dropped, see :func:`read_heartbeat_lines`)."""
    return [record for _, record in read_heartbeat_lines(run_dir)]


def snapshot_paths(run_dir: PathLike) -> List[Path]:
    """Every OpenMetrics snapshot of a run, oldest first."""
    directory = Path(run_dir) / SNAPSHOT_DIRNAME
    if not directory.is_dir():
        return []
    return sorted(directory.glob("metrics-*.om"))


def latest_snapshot(run_dir: PathLike) -> Optional[Path]:
    """The newest OpenMetrics snapshot, or None."""
    paths = snapshot_paths(run_dir)
    return paths[-1] if paths else None


def load_registry(run_dir: PathLike) -> SessionMeter:
    """Rebuild the final registry artifact as a :class:`SessionMeter`."""
    from repro.metrics.export import meter_from_dict

    payload = json.loads((Path(run_dir) / REGISTRY_NAME).read_text())
    return meter_from_dict(payload)


# ----------------------------------------------------------------------
# Maintenance (repro360 runs list|gc, the service's artifact GC)
# ----------------------------------------------------------------------


def heartbeat_age_s(run_dir: PathLike, now: Optional[float] = None) -> Optional[float]:
    """Seconds since the run last appended a heartbeat, or None.

    Uses the heartbeat file's mtime (every record is one ``O_APPEND``
    write, so the mtime tracks the newest record without parsing a
    possibly multi-megabyte stream); falls back to the manifest's mtime
    for a run that never heartbeat.
    """
    now = time.time() if now is None else now
    for name in (HEARTBEAT_NAME, MANIFEST_NAME):
        path = Path(run_dir) / name
        try:
            return max(0.0, now - path.stat().st_mtime)
        except OSError:
            continue
    return None


def run_status(
    run_dir: PathLike,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    now: Optional[float] = None,
) -> str:
    """Effective status of a run directory: its manifest status, with
    ``"running"`` demoted to ``"stale"`` once the newest heartbeat is
    older than ``stale_after_s`` (the writing process is presumed dead
    without having sealed the manifest).  ``"invalid"`` when the
    manifest is missing or unreadable.
    """
    try:
        manifest = read_manifest(run_dir)
    except (OSError, json.JSONDecodeError):
        return "invalid"
    status = manifest.get("status")
    if status != "running":
        return str(status)
    age = heartbeat_age_s(run_dir, now=now)
    if age is not None and age > stale_after_s:
        return "stale"
    return "running"


def _dir_size(path: Path) -> int:
    total = 0
    for child in path.rglob("*"):
        try:
            if child.is_file():
                total += child.stat().st_size
        except OSError:
            continue
    return total


@dataclass(frozen=True)
class RunInfo:
    """One row of ``repro360 runs list``."""

    run_dir: Path
    run_id: str
    command: str
    status: str  # terminal status, "running", "stale" or "invalid"
    age_s: float  # since the run started (manifest mtime fallback)
    size_bytes: int
    heartbeats: int  # whole records in heartbeat.jsonl (torn lines skipped)

    def to_dict(self) -> dict:
        return {
            "run_dir": str(self.run_dir),
            "run_id": self.run_id,
            "command": self.command,
            "status": self.status,
            "age_s": round(self.age_s, 1),
            "size_bytes": self.size_bytes,
            "heartbeats": self.heartbeats,
        }


def list_runs(
    root: PathLike,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    now: Optional[float] = None,
) -> List[RunInfo]:
    """Enumerate every run directory under a run root, oldest first.

    A run directory is any child holding a ``manifest.json``; unreadable
    manifests surface as ``status="invalid"`` rather than raising, so
    one torn run cannot hide the rest from ``repro360 runs list``.
    """
    root = Path(root)
    now = time.time() if now is None else now
    runs: List[RunInfo] = []
    if not root.is_dir():
        return runs
    for child in sorted(root.iterdir()):
        manifest_path = child / MANIFEST_NAME
        if not manifest_path.exists():
            continue
        try:
            manifest = read_manifest(child)
        except (OSError, json.JSONDecodeError):
            manifest = {}
        started = manifest.get("started_wall")
        if started is None:
            try:
                started = manifest_path.stat().st_mtime
            except OSError:
                started = now
        runs.append(
            RunInfo(
                run_dir=child,
                run_id=str(manifest.get("run_id", child.name)),
                command=str(manifest.get("command", "?")),
                status=run_status(child, stale_after_s=stale_after_s, now=now),
                age_s=max(0.0, now - float(started)),
                size_bytes=_dir_size(child),
                heartbeats=len(read_heartbeat_lines(child)),
            )
        )
    return runs


def gc_runs(
    root: PathLike,
    keep_days: float = 7.0,
    dry_run: bool = False,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    now: Optional[float] = None,
) -> Tuple[List[RunInfo], List[RunInfo]]:
    """Prune sealed (and stale) runs older than ``keep_days``.

    Returns ``(removed, kept)``.  Only runs whose effective status is
    terminal or ``"stale"`` are candidates — a live run is never
    removed, however old; age is measured from the run's *end*
    (``ended_wall``) when sealed, else from its newest heartbeat.
    ``dry_run`` reports the same partition without deleting anything.
    The service (`repro360 serve --gc-keep-days`) reuses this for its
    own artifact GC.
    """
    now = time.time() if now is None else now
    cutoff_s = float(keep_days) * 86400.0
    removed: List[RunInfo] = []
    kept: List[RunInfo] = []
    for info in list_runs(root, stale_after_s=stale_after_s, now=now):
        candidate = info.status in TERMINAL_STATUSES or info.status == "stale"
        idle_s = None
        if candidate:
            try:
                manifest = read_manifest(info.run_dir)
            except (OSError, json.JSONDecodeError):
                manifest = {}
            ended = manifest.get("ended_wall")
            if ended is not None:
                idle_s = max(0.0, now - float(ended))
            else:
                idle_s = heartbeat_age_s(info.run_dir, now=now)
        if candidate and idle_s is not None and idle_s > cutoff_s:
            if not dry_run:
                shutil.rmtree(info.run_dir, ignore_errors=True)
            removed.append(info)
        else:
            kept.append(info)
    return removed, kept
