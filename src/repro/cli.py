"""Command-line interface: ``python -m repro.cli`` (or ``repro360``).

Subcommands:

- ``run``       one telephony session, metrics to stdout (optionally
                exporting the raw per-frame trace);
- ``trace``     one session with structured event tracing enabled —
                dumps/filters the ``repro.obs`` trace (JSONL by
                default; see docs/OBSERVABILITY.md);
- ``metrics``   a metered sweep of sessions — merges per-session
                registries into one fleet registry and prints a summary
                table, histogram sketches and span timings (or exports
                OpenMetrics / JSON with ``--format``); ``--batch`` runs
                the sweep as lockstep cohorts, ``--from-run`` renders a
                completed run directory's final registry instead;
- ``fleet``     multi-UE shared-cell capacity sweep — calls-per-cell
                vs. MOS/rate/delay plus per-cell Jain fairness, whole
                cells sharded across workers (see docs/FLEET.md);
- ``sweep``     every (scheme, transport) combination on one scenario;
- ``scenarios`` list the named scenarios;
- ``report``    the full paper-vs-measured report (delegates to
                :mod:`repro.experiments.report`);
- ``cache``     inspect or clear the persistent session-result cache;
- ``profile``   cProfile one session and print the hot functions;
- ``perf``      the perf microbenchmark — times the Fig. 11-14
                micro-grid serial vs parallel and writes
                ``BENCH_perf.json``;
- ``watch``     inspect (or ``--follow``) a run-ledger directory — the
                manifest, the live heartbeat streams and the latest
                OpenMetrics snapshot (docs/OBSERVABILITY.md); with
                ``--url`` it follows a job on a ``serve`` instance
                instead;
- ``serve``     the long-running job-queue server: submit
                metrics/fleet/perf specs over HTTP, watch them run,
                scrape ``/metrics`` (docs/OBSERVABILITY.md, Service
                mode);
- ``submit``    client for ``serve``: queue one job (``--wait`` to
                block until it finishes);
- ``jobs``      client for ``serve``: list/show/cancel jobs;
- ``runs``      run-ledger maintenance — list every run under a root
                (status/age/size) or ``gc`` sealed runs past
                ``--keep-days``.

``--jobs N`` (or ``REPRO_JOBS``) fans independent sessions across ``N``
worker processes wherever a command runs experiment grids.  ``--run-dir
DIR`` (or ``REPRO_RUN_DIR``) makes ``metrics``/``fleet``/``perf`` open
a **run ledger** — a per-run artifact directory streaming a heartbeat
JSONL and periodic OpenMetrics snapshots while the command runs
(:mod:`repro.obs.ledger`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.config import SCHEMES, TRANSPORTS
from repro.metrics import export
from repro.plotting import bar_chart
from repro.service.jobs import SPEC_CLASSES
from repro.telephony.session import run_session
from repro.traces.scenarios import SCENARIOS, scenario
from repro.video.quality import MOS_ORDER


def _add_session_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="cellular", choices=sorted(SCENARIOS))
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--warmup", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)


def _add_spec_args(parser: argparse.ArgumentParser, kind: str) -> None:
    """One flag per field of ``kind``'s spec class (:mod:`repro.service.jobs`)."""
    for field in dataclasses.fields(SPEC_CLASSES[kind]):
        help_text = field.metadata["help"]
        if field.type is bool:
            kwargs = {"action": "store_true"}
        else:
            help_text = f"{help_text or ''} (default: %(default)s)".lstrip()
            if field.type in (int, float, str):
                kwargs = {
                    "type": field.type,
                    "default": field.default,
                    "choices": field.metadata["choices"],
                }
            else:  # Tuple[int, ...]: spelled "1,2,4", parsed by normalise_spec
                kwargs = {
                    "default": ",".join(map(str, field.default)),
                    "metavar": "N[,N...]",
                }
        parser.add_argument(
            "--" + field.name.replace("_", "-"), help=help_text, **kwargs
        )


def _add_run_args(
    parser: argparse.ArgumentParser, jobs_help: str, unit: Optional[str] = None
) -> None:
    """The flags of a job subcommand that are not spec fields."""
    parser.add_argument("--jobs", type=int, default=None, help=jobs_help)
    parser.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="open a run ledger under DIR (or REPRO_RUN_DIR): manifest, "
        "live heartbeat stream, periodic OpenMetrics snapshots "
        "(docs/OBSERVABILITY.md)",
    )
    if unit is not None:
        parser.add_argument(
            "--progress",
            action="store_true",
            help=f"print per-{unit} completion lines to stderr",
        )


def _run_one(args, scheme: str, transport: str):
    config = scenario(
        args.scenario,
        scheme=scheme,
        transport=transport,
        duration=args.duration,
        seed=args.seed,
    )
    return run_session(config, warmup=args.warmup)


def cmd_run(args) -> int:
    if args.transport == "fbcc" and args.scenario == "wireline":
        print("error: FBCC needs the LTE diagnostic interface", file=sys.stderr)
        return 2
    result = _run_one(args, args.scheme, args.transport)
    summary = result.summary
    if args.json:
        print(json.dumps(export.summary_to_dict(summary), indent=1))
    else:
        print(f"scenario={args.scenario} scheme={args.scheme} transport={args.transport}")
        for key, value in summary.to_dict().items():
            print(f"  {key:<22} {value}")
        pdf = summary.quality.mos_pdf
        print(bar_chart(list(MOS_ORDER), [pdf.get(b, 0.0) for b in MOS_ORDER]))
    if args.export:
        export.write_json(args.export, result.log, summary)
        print(f"trace written to {args.export}")
    if args.export_csv:
        rows = export.write_frames_csv(args.export_csv, result.log)
        print(f"{rows} frame rows written to {args.export_csv}")
    return 0


def cmd_trace(args) -> int:
    from repro.obs import EVENT_CATALOGUE, EVENT_NAMES, TraceBus
    from repro.telephony.session import TelephonySession

    if args.transport == "fbcc" and args.scenario == "wireline":
        print("error: FBCC needs the LTE diagnostic interface", file=sys.stderr)
        return 2
    wanted = None
    if args.events:
        wanted = [name.strip() for name in args.events.split(",") if name.strip()]
        unknown = sorted(set(wanted) - set(EVENT_CATALOGUE))
        if unknown:
            print(
                f"error: unknown event(s) {', '.join(unknown)}; "
                f"known: {', '.join(EVENT_NAMES)}",
                file=sys.stderr,
            )
            return 2
    config = scenario(
        args.scenario,
        scheme=args.scheme,
        transport=args.transport,
        duration=args.duration,
        seed=args.seed,
    )
    bus = TraceBus(capacity=args.capacity) if args.capacity else TraceBus()
    session = TelephonySession(config, trace=bus)
    session.run(args.duration, warmup=args.warmup)
    selected = list(bus.select(names=wanted, since=args.since, until=args.until))

    handle = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        if args.format == "jsonl":
            export.dump_trace_jsonl(handle, selected)
        elif args.format == "csv":
            export.dump_trace_csv(handle, selected)
        elif args.format == "table":
            for event in selected:
                fields = " ".join(f"{k}={v}" for k, v in event.fields.items())
                handle.write(f"{event.time:12.6f}  {event.name:<20} {fields}\n")
        else:  # summary
            for subsystem, names in sorted(bus.counters_by_subsystem().items()):
                handle.write(f"{subsystem}\n")
                for name, count in names.items():
                    handle.write(f"  {name:<20} {count}\n")
    finally:
        if handle is not sys.stdout:
            handle.close()
    print(
        f"{len(selected)} event(s) dumped "
        f"({sum(bus.counters.values())} emitted, {bus.dropped} evicted)",
        file=sys.stderr,
    )
    return 0


def _job_spec(args, kind: str) -> dict:
    """The ``kind`` job spec the parsed flags spell (not yet normalised)."""
    spec = {"kind": kind}
    for field in dataclasses.fields(SPEC_CLASSES[kind]):
        spec[field.name] = getattr(args, field.name)
    return spec


def _run_job(args, kind: str, render, unit: str = "") -> int:
    """Run a ``kind`` subcommand through :func:`execute_job`; its exit code.

    The job spec is the parsed flags of ``kind``'s spec class.  With
    ``--run-dir``/``REPRO_RUN_DIR`` the run opens a ledger whose config
    snapshot is the full argument namespace (JSON-safe plain values
    only), sealed ``ok`` after ``render(outcome)`` or ``error`` on any
    failure.  A bad spec or a ValueError from the job exits 2;
    ``--progress`` prints one line per finished task with the ``unit``
    count done so far (a lockstep cohort or cell block advances it by
    its size).
    """
    from repro.experiments import cache
    from repro.obs.ledger import RunLedger, resolve_run_root
    from repro.service.jobs import execute_job, normalise_spec

    try:
        spec = normalise_spec(_job_spec(args, kind))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    ledger = None
    root = resolve_run_root(args.run_dir)
    if root is not None:
        config = {
            key: value
            for key, value in sorted(vars(args).items())
            if isinstance(value, (str, int, float, bool, type(None)))
        }
        ledger = RunLedger.open(kind, config=config, root=root)
        print(f"run ledger: {ledger.run_dir}", file=sys.stderr)

    def _stderr_progress(done: int, total: int, _result) -> None:
        print(f"  {unit} {done}/{total} done", file=sys.stderr)

    progress = _stderr_progress if getattr(args, "progress", False) else None
    try:
        outcome = execute_job(spec, jobs=args.jobs, ledger=ledger, progress=progress)
        render(outcome)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        if ledger is not None and not ledger.finished:
            ledger.finish("error", error=str(error))
        return 2
    except BaseException:
        if ledger is not None and not ledger.finished:
            ledger.finish("error")
        raise
    if ledger is not None:
        ledger.write_cache_stats(cache.stats())
        ledger.finish("ok", meter=outcome.meter)
        print(f"run ledger sealed: {ledger.manifest_path}", file=sys.stderr)
    return 0


def _render_metrics(args, fleet, header: str) -> None:
    """Render a fleet registry to ``--output``/stdout in ``--format``."""
    from repro.obs.metrics import METRIC_CATALOGUE

    handle = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.format == "openmetrics":
            handle.write(export.metrics_to_openmetrics(fleet))
        elif args.format == "json":
            handle.write(json.dumps(export.metrics_to_dict(fleet), indent=1) + "\n")
        else:  # summary
            handle.write(header)
            handle.write("counters\n")
            for subsystem, names in sorted(
                fleet.counters_by_subsystem().items()
            ):
                handle.write(f"  {subsystem}\n")
                for name, value in names.items():
                    handle.write(f"    {name:<28} {value:g}\n")
            if fleet.gauges:
                handle.write("gauges\n")
                for name, value in sorted(fleet.gauges.items()):
                    handle.write(f"  {name:<30} {value:g}\n")
            for name, hist in sorted(fleet.histograms.items()):
                unit = METRIC_CATALOGUE[name].unit if name in METRIC_CATALOGUE else ""
                unit_txt = f" ({unit})" if unit else ""
                handle.write(
                    f"{name}{unit_txt}: count={hist.count} "
                    f"mean={hist.sum / hist.count if hist.count else 0.0:.3g}\n"
                )
                labels = [f"<={bound:g}" for bound in hist.buckets] + ["+Inf"]
                handle.write(bar_chart(labels, [float(c) for c in hist.counts]))
                handle.write("\n")
            spans = fleet.as_dict()["spans"]
            if spans:
                handle.write("spans (wall clock)\n")
                for name, stats in spans.items():
                    handle.write(
                        f"  {name:<22} count={stats['count']:<8} "
                        f"mean={stats['mean_s'] * 1e3:8.3f} ms  "
                        f"max={stats['max_s'] * 1e3:8.3f} ms  "
                        f"total={stats['total_s']:.3f} s\n"
                    )
    finally:
        if handle is not sys.stdout:
            handle.close()
    if args.output:
        print(f"metrics written to {args.output}", file=sys.stderr)


def cmd_metrics(args) -> int:
    from repro.experiments.parallel import resolve_jobs
    from repro.telephony.uplink import LOCKSTEP_SENDER

    if args.from_run:
        from repro.obs.ledger import load_registry

        try:
            fleet = load_registry(args.from_run)
        except (OSError, json.JSONDecodeError, ValueError) as error:
            print(f"error: cannot load run registry: {error}", file=sys.stderr)
            return 2
        _render_metrics(args, fleet, header=f"run={args.from_run}\n")
        return 0

    def render(outcome) -> None:
        header = f"sessions={args.sessions} workers={resolve_jobs(args.jobs)}\n"
        if args.batch:
            header += f"lockstep sender: {LOCKSTEP_SENDER}\n"
        _render_metrics(args, outcome.meter, header=header)

    return _run_job(args, "metrics", render, unit="session")


def cmd_fleet(args) -> int:
    from repro.experiments.parallel import resolve_jobs
    from repro.telephony.uplink import LOCKSTEP_SENDER

    def render(outcome) -> None:
        payload = outcome.payload
        rows = payload["points"]
        if args.json:
            print(json.dumps(payload, indent=1))
        else:
            print(
                f"scenario={args.scenario} scheme={args.scheme} "
                f"transport={args.transport} cells={args.cells} "
                f"prb_budget={args.prb_budget} "
                f"background={args.background_ues}@{args.background_load:g} "
                f"workers={resolve_jobs(args.jobs)}"
            )
            if args.batch:
                print(f"lockstep sender: {LOCKSTEP_SENDER}")
            keys = list(rows[0].keys())
            widths = {k: max(len(k), max(len(str(r[k])) for r in rows)) for k in keys}
            print("  ".join(k.ljust(widths[k]) for k in keys))
            for row in rows:
                print("  ".join(str(row[k]).ljust(widths[k]) for k in keys))
            print("\nper-cell Jain fairness")
            for row, jains in zip(rows, payload["cell_jains"]):
                text = " ".join(f"{jain:.4f}" for jain in jains)
                print(f"  calls={row['calls_per_cell']:<4} {text}")
            print("\ncalls-per-cell vs mean MOS")
            mos = [row["mos_mean"] for row in rows]
            print(
                bar_chart(
                    [str(row["calls_per_cell"]) for row in rows],
                    [0.0 if value != value else value for value in mos],
                )
            )
        if args.metrics_output:
            with open(args.metrics_output, "w") as handle:
                json.dump(outcome.registry, handle, indent=1)
                handle.write("\n")
            print(f"fleet registry written to {args.metrics_output}", file=sys.stderr)

    return _run_job(args, "fleet", render, unit="cell")


def cmd_sweep(args) -> int:
    rows = []
    for scheme in SCHEMES:
        for transport in TRANSPORTS:
            if transport == "fbcc" and args.scenario == "wireline":
                continue
            summary = _run_one(args, scheme, transport).summary
            rows.append(summary.to_dict())
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    keys = list(rows[0].keys())
    widths = {k: max(len(k), max(len(str(r[k])) for r in rows)) for k in keys}
    print("  ".join(k.ljust(widths[k]) for k in keys))
    for row in rows:
        print("  ".join(str(row[k]).ljust(widths[k]) for k in keys))
    return 0


def cmd_scenarios(_args) -> int:
    for name in sorted(SCENARIOS):
        config = scenario(name)
        if config.path.access == "lte":
            channel = config.lte.channel
            detail = (
                f"LTE, rss {channel.rss_dbm:g} dBm, load "
                f"{config.lte.cell.background_load:g}, {channel.speed_mph:g} mph"
            )
        else:
            detail = f"wireline, {config.path.wireline.rate_bps / 1e6:g} Mbps"
        print(f"  {name:<16} {detail}")
    return 0


def cmd_report(args) -> int:
    from repro.experiments import report
    from repro.experiments.parallel import set_default_jobs

    if args.jobs is not None:
        set_default_jobs(args.jobs)
    argv = ["--scale", args.scale]
    if args.only:
        argv += ["--only", args.only]
    return report.main(argv)


def cmd_cache(args) -> int:
    from repro.experiments import cache

    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached condition(s) from {cache.cache_dir()}")
        return 0
    info = cache.stats()
    print(f"path            {info['path']}")
    print(f"code salt       {info['code_salt']}")
    print(f"current entries {info['current_entries']}")
    print(f"stale entries   {info['stale_entries']}")
    print(f"total size      {info['total_bytes'] / 1e6:.2f} MB")
    print(f"entry hits      {info['entry_hits']}")
    print(f"entry misses    {info['entry_misses']}")
    print(f"session hits    {info['session_hits']}")
    print(f"sessions stored {info['sessions_stored']}")
    return 0


def cmd_profile(args) -> int:
    import cProfile
    import pstats

    config = scenario(
        args.scenario,
        scheme=args.scheme,
        transport=args.transport,
        duration=args.duration,
        seed=args.seed,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    run_session(config, warmup=args.warmup)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.output:
        stats.dump_stats(args.output)
        print(f"profile data written to {args.output} (open with snakeviz/pstats)")
    return 0


def cmd_perf(args) -> int:
    def render(outcome) -> None:
        if args.output:
            with open(args.output, "w") as handle:
                json.dump(outcome.payload, handle, indent=1)
                handle.write("\n")
        print(json.dumps(outcome.payload, indent=1))

    return _run_job(args, "perf", render)


def cmd_serve(args) -> int:
    import threading as _threading

    from repro.obs.ledger import DEFAULT_RUN_ROOT, resolve_run_root
    from repro.service.jobs import JobRegistry
    from repro.service.server import ServiceServer

    root = resolve_run_root(args.run_root)
    if root is None:
        from pathlib import Path

        root = Path(DEFAULT_RUN_ROOT)
    registry = JobRegistry(root, workers=args.workers, jobs=args.jobs)
    server = ServiceServer(registry, host=args.host, port=args.port)
    # The URL is the machine interface (scripts capture it to find the
    # ephemeral port); everything else goes to stderr.
    print(server.url, flush=True)
    print(
        f"serving jobs from {root} "
        f"({args.workers} worker thread(s), jobs={args.jobs})",
        file=sys.stderr,
    )
    if args.gc_keep_days is not None:
        from time import sleep as _sleep

        def _gc_loop() -> None:
            while True:
                _sleep(args.gc_interval)
                removed = registry.gc(args.gc_keep_days)
                if removed:
                    print(
                        f"gc: removed {len(removed)} sealed run(s)",
                        file=sys.stderr,
                    )

        _threading.Thread(
            target=_gc_loop, name="repro-serve-gc", daemon=True
        ).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _parse_spec(args) -> dict:
    """Build a job spec from ``repro360 submit`` arguments."""
    if args.spec:
        spec = json.loads(args.spec)
        if not isinstance(spec, dict):
            raise ValueError("--spec must be a JSON object")
    elif args.kind:
        spec = {"kind": args.kind}
    else:
        raise ValueError("give a job KIND or --spec JSON")
    for pair in args.set or []:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"--set needs key=value, got {pair!r}")
        try:
            spec[key] = json.loads(raw)
        except ValueError:
            spec[key] = raw  # bare strings (scenario names, schemes...)
    return spec


def cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        spec = _parse_spec(args)
        job = client.submit(spec)
        if args.wait and job["state"] not in ("done", "failed", "cancelled"):
            job = client.wait(job["id"], timeout=args.timeout)
    except (ValueError, ServiceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(job, indent=1))
    else:
        hit = " (cache hit)" if job.get("cache_hit") else ""
        print(f"{job['id']} {job['state']}{hit}")
        if job.get("run_dir"):
            print(f"  run dir: {job['run_dir']}")
        if job.get("error"):
            print(f"  error: {job['error']}")
    return 0 if job["state"] in ("queued", "running", "done") else 1


def cmd_jobs(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.action == "cancel":
            if not args.id:
                print("error: cancel needs a job id", file=sys.stderr)
                return 2
            cancelled = client.cancel(args.id)
            print(f"{args.id} {'cancelled' if cancelled else 'not active'}")
            return 0
        if args.action == "show":
            if not args.id:
                print("error: show needs a job id", file=sys.stderr)
                return 2
            print(json.dumps(client.job(args.id), indent=1))
            return 0
        rows = client.jobs()
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    if not rows:
        print("no jobs")
        return 0
    for job in rows:
        progress = ""
        if job.get("total"):
            progress = f" {job['done']}/{job['total']}"
            if job.get("eta_s") is not None:
                progress += f" eta {job['eta_s']:g}s"
        hit = " cache-hit" if job.get("cache_hit") else ""
        print(f"  {job['id']}  {job['kind']:<8} {job['state']:<10}{hit}{progress}")
    return 0


def cmd_runs(args) -> int:
    from pathlib import Path

    from repro.obs.ledger import (
        DEFAULT_RUN_ROOT,
        DEFAULT_STALE_AFTER_S,
        gc_runs,
        list_runs,
        resolve_run_root,
    )

    root = resolve_run_root(args.root)
    if root is None:
        root = Path(DEFAULT_RUN_ROOT)
    stale = (
        args.stale_after if args.stale_after is not None else DEFAULT_STALE_AFTER_S
    )
    if args.runs_command == "gc":
        removed, kept = gc_runs(
            root,
            keep_days=args.keep_days,
            dry_run=args.dry_run,
            stale_after_s=stale,
        )
        verb = "would remove" if args.dry_run else "removed"
        for info in removed:
            print(f"  {verb} {info.run_dir} ({info.status})")
        print(
            f"{verb} {len(removed)} run(s), kept {len(kept)} "
            f"(cutoff {args.keep_days:g} day(s))"
        )
        return 0
    runs = list_runs(root, stale_after_s=stale)
    if args.json:
        print(json.dumps([info.to_dict() for info in runs], indent=1))
        return 0
    if not runs:
        print(f"no runs under {root}")
        return 0
    for info in runs:
        age = info.age_s
        span = (
            f"{age:.0f}s" if age < 120 else
            f"{age / 60:.0f}m" if age < 7200 else
            f"{age / 3600:.1f}h"
        )
        print(
            f"  {info.run_id:<44} {info.status:<10} age {span:>6}  "
            f"{info.size_bytes / 1e3:8.1f} kB  {info.heartbeats} beat(s)"
        )
    return 0


def _watch_render(run_dir) -> str:
    """One full ``repro360 watch`` report of a run directory."""
    from repro.obs.ledger import (
        read_heartbeats,
        read_manifest,
        snapshot_paths,
    )

    manifest = read_manifest(run_dir)
    beats = read_heartbeats(run_dir)
    snapshots = snapshot_paths(run_dir)
    lines = [
        f"run {manifest.get('run_id')}  command={manifest.get('command')}  "
        f"status={manifest.get('status')}",
        f"  started {manifest.get('started_iso')}"
        + (
            f"  finished after {manifest['elapsed_s']:g} s"
            if "elapsed_s" in manifest
            else ""
        ),
    ]
    if manifest.get("code_salt"):
        lines.append(f"  code salt {manifest['code_salt']}")
    # Last parent-side record per stream kind (session/cell/leg beats
    # carry done/total/eta; cohort beats are keyed per (pid, cohort)).
    parents = {}
    cohorts = {}
    for record in beats:
        kind = record.get("kind")
        if kind == "cohort":
            cohorts[(record.get("pid"), record.get("cohort"))] = record
        else:
            parents[kind] = record
    lines.append(f"heartbeats: {len(beats)} record(s)")
    for kind, record in sorted(parents.items()):
        done, total = record.get("done"), record.get("total")
        eta = record.get("eta_s")
        detail = "" if done is None else f" {done}/{total}"
        if record.get("leg"):
            detail += f" leg={record['leg']}"
        if eta is not None:
            detail += f" eta {eta:g} s"
        lines.append(f"  {kind:<8}{detail}  (elapsed {record.get('elapsed_s')} s)")
    for (pid, label), record in sorted(
        cohorts.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
    ):
        eta = record.get("eta_s")
        eta_txt = "" if eta is None else f" eta {eta:g} s"
        lines.append(
            f"  cohort pid={pid} label={label} tick {record.get('tick')}/"
            f"{record.get('ticks')} x{record.get('sessions')} sessions{eta_txt}"
        )
    if snapshots:
        lines.append(f"snapshots: {len(snapshots)} (latest {snapshots[-1].name})")
        lines.append("  headline counters (latest snapshot)")
        for raw in snapshots[-1].read_text().splitlines():
            if raw.startswith("#") or not raw.strip():
                continue
            name, _, value = raw.partition(" ")
            if name.endswith("_total") and name.startswith(
                ("repro_fleet_", "repro_batch_", "repro_session_")
            ):
                lines.append(f"    {name:<34} {value}")
    else:
        lines.append("snapshots: none yet")
    return "\n".join(lines)


def _watch_remote(args) -> int:
    """``repro360 watch --url``: follow a server job instead of a dir."""
    import time as _time

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    seen = 0
    try:
        while True:
            job = client.job(args.run_dir)
            progress = ""
            if job.get("total"):
                progress = f" {job['done']}/{job['total']}"
                if job.get("eta_s") is not None:
                    progress += f" eta {job['eta_s']:g}s"
            print(f"{job['id']} {job['kind']} {job['state']}{progress}")
            for record in client.events(args.run_dir, since=seen):
                seen += 1
                print(f"  {json.dumps(record, sort_keys=True)}")
            if job["state"] in ("done", "failed", "cancelled") or not args.follow:
                if job.get("error"):
                    print(f"error: {job['error']}", file=sys.stderr)
                return 0 if job["state"] in ("done", "queued", "running") else 1
            _time.sleep(args.interval)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def cmd_watch(args) -> int:
    import time as _time
    from pathlib import Path

    from repro.obs.ledger import MANIFEST_NAME, read_manifest

    if args.url:
        return _watch_remote(args)
    run_dir = Path(args.run_dir)
    if not (run_dir / MANIFEST_NAME).exists():
        print(f"error: no {MANIFEST_NAME} in {run_dir}", file=sys.stderr)
        return 2
    if not args.follow:
        print(_watch_render(run_dir))
        return 0
    while True:
        print(_watch_render(run_dir))
        print()
        if read_manifest(run_dir).get("status") != "running":
            return 0
        _time.sleep(args.interval)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro360", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one telephony session")
    _add_session_args(run_parser)
    run_parser.add_argument("--scheme", default="poi360", choices=SCHEMES)
    run_parser.add_argument("--transport", default="fbcc", choices=TRANSPORTS)
    run_parser.add_argument("--json", action="store_true")
    run_parser.add_argument("--export", metavar="FILE.json", default=None)
    run_parser.add_argument("--export-csv", metavar="FILE.csv", default=None)
    run_parser.set_defaults(func=cmd_run)

    trace_parser = sub.add_parser(
        "trace", help="run one session with event tracing and dump the trace"
    )
    trace_parser.add_argument("--scenario", default="cellular", choices=sorted(SCENARIOS))
    trace_parser.add_argument("--duration", type=float, default=30.0)
    trace_parser.add_argument(
        "--warmup",
        type=float,
        default=0.0,
        help="seconds simulated before t=0 of the trace window (default 0: "
        "trace the whole run, including convergence)",
    )
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--scheme", default="poi360", choices=SCHEMES)
    trace_parser.add_argument("--transport", default="fbcc", choices=TRANSPORTS)
    trace_parser.add_argument(
        "--events",
        default=None,
        metavar="NAME[,NAME...]",
        help="only these catalogue events (default: all)",
    )
    trace_parser.add_argument("--since", type=float, default=None, metavar="SECONDS")
    trace_parser.add_argument("--until", type=float, default=None, metavar="SECONDS")
    trace_parser.add_argument(
        "--format", choices=("jsonl", "csv", "table", "summary"), default="jsonl"
    )
    trace_parser.add_argument("--output", metavar="FILE", default=None)
    trace_parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="trace ring size in events (default: repro.obs.DEFAULT_CAPACITY)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    metrics_parser = sub.add_parser(
        "metrics", help="metered sweep: fleet metrics registry + span timings"
    )
    _add_spec_args(metrics_parser, "metrics")
    _add_run_args(
        metrics_parser,
        "worker processes for the sweep (0 = all cores; default: "
        "REPRO_JOBS or serial)",
        unit="session",
    )
    metrics_parser.add_argument(
        "--format", choices=("summary", "openmetrics", "json"), default="summary"
    )
    metrics_parser.add_argument("--output", metavar="FILE", default=None)
    metrics_parser.add_argument(
        "--from-run",
        metavar="RUN_DIR",
        default=None,
        help="skip running: render the final registry artifact of a "
        "completed run directory instead",
    )
    metrics_parser.set_defaults(func=cmd_metrics)

    fleet_parser = sub.add_parser(
        "fleet", help="multi-UE shared-cell capacity sweep (docs/FLEET.md)"
    )
    _add_spec_args(fleet_parser, "fleet")
    _add_run_args(
        fleet_parser,
        "worker processes; whole cells shard (0 = all cores; default: "
        "REPRO_JOBS or serial)",
        unit="cell",
    )
    fleet_parser.add_argument("--json", action="store_true")
    fleet_parser.add_argument(
        "--metrics-output",
        metavar="FILE.json",
        default=None,
        help="write the merged fleet registry (counters + histograms "
        "only — deterministic, serial == sharded) as JSON",
    )
    fleet_parser.set_defaults(func=cmd_fleet)

    sweep_parser = sub.add_parser("sweep", help="all scheme/transport combos")
    _add_session_args(sweep_parser)
    sweep_parser.add_argument("--json", action="store_true")
    sweep_parser.set_defaults(func=cmd_sweep)

    list_parser = sub.add_parser("scenarios", help="list named scenarios")
    list_parser.set_defaults(func=cmd_scenarios)

    report_parser = sub.add_parser("report", help="paper-vs-measured report")
    report_parser.add_argument("--scale", choices=("quick", "paper"), default="quick")
    report_parser.add_argument("--only", default=None)
    report_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for session fan-out (0 = all cores; "
        "default: REPRO_JOBS or serial)",
    )
    report_parser.set_defaults(func=cmd_report)

    cache_parser = sub.add_parser("cache", help="persistent result cache")
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry count, size, code salt")
    cache_sub.add_parser("clear", help="delete every cached condition")
    cache_parser.set_defaults(func=cmd_cache)

    profile_parser = sub.add_parser("profile", help="cProfile one session")
    _add_session_args(profile_parser)
    profile_parser.add_argument("--scheme", default="poi360", choices=SCHEMES)
    profile_parser.add_argument("--transport", default="gcc", choices=TRANSPORTS)
    profile_parser.add_argument(
        "--sort", default="cumulative", choices=("cumulative", "tottime", "ncalls")
    )
    profile_parser.add_argument("--limit", type=int, default=25)
    profile_parser.add_argument("--output", metavar="FILE.prof", default=None)
    profile_parser.set_defaults(func=cmd_profile)

    perf_parser = sub.add_parser("perf", help="perf microbenchmark -> BENCH_perf.json")
    _add_spec_args(perf_parser, "perf")
    _add_run_args(
        perf_parser, "worker count for the parallel leg (0 = all cores; default 4)"
    )
    perf_parser.add_argument("--output", metavar="FILE.json", default="BENCH_perf.json")
    perf_parser.set_defaults(func=cmd_perf)

    watch_parser = sub.add_parser(
        "watch", help="inspect (or tail) a run-ledger directory or server job"
    )
    watch_parser.add_argument(
        "run_dir",
        metavar="RUN_DIR_OR_JOB",
        help="a run directory holding manifest.json (or, with --url, a "
        "server job id)",
    )
    watch_parser.add_argument(
        "--follow",
        action="store_true",
        help="re-render every --interval seconds until the run finishes",
    )
    watch_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --follow renders (default 2)",
    )
    watch_parser.add_argument(
        "--url",
        metavar="URL",
        default=None,
        help="watch a job on a repro360 serve instance instead of a "
        "local run directory (positional becomes the job id)",
    )
    watch_parser.set_defaults(func=cmd_watch)

    serve_parser = sub.add_parser(
        "serve",
        help="long-running job-queue server with live telemetry "
        "(docs/OBSERVABILITY.md, Service mode)",
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; exposing the simulator "
        "beyond the host is an explicit choice)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8360,
        help="TCP port (0 = ephemeral; the resolved URL is printed on "
        "stdout either way)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent jobs (worker threads; default 2)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes *per job* for session fan-out (0 = all "
        "cores; default: REPRO_JOBS or serial)",
    )
    serve_parser.add_argument(
        "--run-root",
        metavar="DIR",
        default=None,
        help="run root for job ledgers (default: REPRO_RUN_DIR or "
        ".repro_runs)",
    )
    serve_parser.add_argument(
        "--gc-keep-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="prune sealed job runs older than DAYS in the background "
        "(default: never)",
    )
    serve_parser.add_argument(
        "--gc-interval",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="seconds between background GC passes (default 3600)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit a job to a repro360 serve instance"
    )
    submit_parser.add_argument(
        "kind",
        nargs="?",
        choices=("metrics", "fleet", "perf"),
        help="job kind (omit when giving the full --spec)",
    )
    submit_parser.add_argument(
        "--url", required=True, help="server base URL (repro360 serve output)"
    )
    submit_parser.add_argument(
        "--spec",
        metavar="JSON",
        default=None,
        help='full job spec as JSON, e.g. \'{"kind": "fleet", "calls": [1, 2]}\'',
    )
    submit_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one spec field (VALUE parsed as JSON, else "
        "string); repeatable",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the job reaches a terminal state",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up --wait after SECONDS (job keeps running server-side)",
    )
    submit_parser.add_argument(
        "--json", action="store_true", help="print the full job record"
    )
    submit_parser.set_defaults(func=cmd_submit)

    jobs_parser = sub.add_parser(
        "jobs", help="list/show/cancel jobs on a repro360 serve instance"
    )
    jobs_parser.add_argument(
        "action",
        nargs="?",
        default="list",
        choices=("list", "show", "cancel"),
    )
    jobs_parser.add_argument("id", nargs="?", default=None, help="job id")
    jobs_parser.add_argument(
        "--url", required=True, help="server base URL (repro360 serve output)"
    )
    jobs_parser.add_argument("--json", action="store_true")
    jobs_parser.set_defaults(func=cmd_jobs)

    runs_parser = sub.add_parser(
        "runs", help="list or prune run-ledger directories"
    )
    runs_sub = runs_parser.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="every run under the root: status, age, size"
    )
    runs_gc = runs_sub.add_parser(
        "gc", help="prune sealed (or stale) runs older than --keep-days"
    )
    for sub_parser in (runs_list, runs_gc):
        sub_parser.add_argument(
            "--root",
            metavar="DIR",
            default=None,
            help="run root (default: REPRO_RUN_DIR or .repro_runs)",
        )
        sub_parser.add_argument(
            "--stale-after",
            type=float,
            default=None,
            metavar="SECONDS",
            help="age beyond which a 'running' run counts as abandoned "
            "(default 900)",
        )
    runs_list.add_argument("--json", action="store_true")
    runs_gc.add_argument(
        "--keep-days",
        type=float,
        default=7.0,
        metavar="DAYS",
        help="retention window for sealed runs (default 7)",
    )
    runs_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting",
    )
    runs_parser.set_defaults(func=cmd_runs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
