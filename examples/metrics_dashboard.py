#!/usr/bin/env python3
"""Run-health dashboard for a metered sweep (fleet metrics + spans).

Fans a small multi-user sweep across worker processes with per-session
metering enabled, merges every worker's metrics registry into one fleet
registry, and renders the run-health report the paper's evaluation
reasons about in distribution form (§6, Figs. 11-17): freeze ratio,
the mismatch-M histogram, frame-delay and PSNR distributions,
compression mode switches, plus the wall-clock span profile and the
straggler (slowest session) of the sweep.

Pointed at a completed **run directory** (a ledgered run's artifact
directory, see docs/OBSERVABILITY.md "Run ledger & live telemetry"),
it skips the sweep and renders the same report from the run's final
``registry.json``, prefixed with the manifest's identity line.

Usage::

    python examples/metrics_dashboard.py [sessions] [jobs]
    python examples/metrics_dashboard.py .repro_runs/<run-id>
"""

import sys
from pathlib import Path

from repro.experiments.parallel import SessionTask, merged_meter, resolve_jobs, run_tasks
from repro.obs import METRIC_CATALOGUE, load_registry, read_manifest
from repro.plotting import bar_chart
from repro.roi.users import USER_PROFILES

DURATION = 30.0
WARMUP = 5.0

#: Histograms worth a sketch in the health report, in display order.
SKETCHES = ("receiver.mismatch_s", "receiver.delay_s", "receiver.psnr_db")


def render(fleet, tasks=None) -> None:
    """The run-health report for one fleet registry."""
    counters = fleet.counters

    print("\n=== run health ===")
    frames = counters.get("receiver.frames", 0.0)
    freezes = counters.get("receiver.freezes", 0.0)
    print(f"sessions merged    {counters.get('fleet.sessions', 0):g}")
    print(f"frames displayed   {frames:g}")
    print(f"freeze ratio       {freezes / frames if frames else 0.0:.4f}")
    print(f"mode switches      {counters.get('compression.mode_switches', 0):g}")
    print(f"congestion events  {counters.get('fbcc.congestion_events', 0):g}")
    print(f"nacks              {counters.get('receiver.nacks', 0):g}")
    print(f"uplink drops       {counters.get('lte.drops', 0):g}")

    for name in SKETCHES:
        hist = fleet.histogram(name)
        if hist is None or not hist.count:
            continue
        unit = METRIC_CATALOGUE[name].unit
        print(f"\n{name} ({unit}): count={hist.count} mean={hist.sum / hist.count:.3f}")
        labels = [f"<={bound:g}" for bound in hist.buckets] + ["+Inf"]
        print(bar_chart(labels, [float(count) for count in hist.counts]))

    print("\n=== span profile (wall clock) ===")
    for name, stats in fleet.as_dict()["spans"].items():
        print(
            f"  {name:<22} count={stats['count']:<8} "
            f"mean={stats['mean_s'] * 1e3:8.3f} ms  total={stats['total_s']:.3f} s"
        )
    straggler = fleet.gauges.get("fleet.straggler_index")
    if straggler is not None and tasks is not None:
        task = tasks[int(straggler)]
        print(
            f"\nstraggler: task {int(straggler)} "
            f"(profile {task.profile_name}, seed {task.seed}) at "
            f"{fleet.gauges['fleet.straggler_s']:.2f} s wall clock"
        )


def main() -> None:
    if len(sys.argv) > 1 and Path(sys.argv[1]).is_dir():
        run_dir = Path(sys.argv[1])
        manifest = read_manifest(run_dir)
        print(
            f"run {manifest.get('run_id')}  command={manifest.get('command')}  "
            f"status={manifest.get('status')}"
        )
        render(load_registry(run_dir))
        return
    sessions = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    workers = resolve_jobs(jobs)
    profiles = [profile.name for profile in USER_PROFILES]
    tasks = [
        SessionTask(
            scenario_name="cellular",
            scheme="poi360",
            transport="fbcc",
            duration=DURATION,
            warmup=WARMUP,
            seed=1 + index,
            profile_name=profiles[index % len(profiles)],
            meter=True,
        )
        for index in range(sessions)
    ]
    print(f"running {sessions} metered session(s) across {workers} worker(s)...")
    results = run_tasks(
        tasks,
        jobs=jobs,
        progress=lambda done, total, _r: print(f"  {done}/{total} sessions done"),
    )
    render(merged_meter(results, workers=workers), tasks=tasks)


if __name__ == "__main__":
    main()
