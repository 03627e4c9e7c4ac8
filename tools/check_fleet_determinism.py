#!/usr/bin/env python3
"""Serial == sharded fleet-registry gate (CI ``fleet-smoke`` helper).

The fleet determinism contract (docs/FLEET.md) says worker count may
change wall clock only: a sweep sharded across a process pool must
produce the exact results of the serial run.  This helper enforces the
contract end to end through the CLI — it runs the same ``repro360
fleet`` sweep twice, at ``--jobs 1`` and ``--jobs 2``, captures each
run's deterministic registry snapshot (``--metrics-output``, which
writes counters + histograms only; see
:func:`repro.experiments.fleet.deterministic_registry_dict`), and fails
unless the two files are byte-for-byte identical::

    python tools/check_fleet_determinism.py            # event engine
    python tools/check_fleet_determinism.py --batch    # batched cells

``--batch`` checks the batched cell engine's sharding unit instead
(whole cell blocks, :class:`repro.experiments.parallel.CellBlockTask`)
— same contract, different partition: the sweep's cells are split into
contiguous blocks per worker, so the gate proves block boundaries never
leak into results.  With several ``--calls`` values the blocks mix
member counts (``--batch --calls 1,3,8 --cells 3`` compares one ragged
serial block with two sharded ones).  ``--prb-budget``,
``--background-ues`` and ``--background-load`` pass through to the
sweep, so the gate also covers the scheduled background crowd and a
budget tight enough to run out.

Exits 0 when the registries match, 1 on divergence or a failed sweep.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_sweep(args: argparse.Namespace, jobs: int, output: Path) -> int:
    """Run one fleet sweep through the CLI; returns the exit status."""
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "fleet",
        "--scenario",
        args.scenario,
        "--calls",
        args.calls,
        "--cells",
        str(args.cells),
        "--duration",
        str(args.duration),
        "--warmup",
        str(args.warmup),
        "--seed",
        str(args.seed),
        "--jobs",
        str(jobs),
        "--metrics-output",
        str(output),
    ]
    for name in ("prb_budget", "background_ues", "background_load"):
        value = getattr(args, name)
        if value is not None:  # unset: the CLI's own default
            command += ["--" + name.replace("_", "-"), str(value)]
    if args.batch:
        command.append("--batch")
    completed = subprocess.run(
        command,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        print(f"fleet determinism: sweep at --jobs {jobs} failed:")
        sys.stdout.write(completed.stderr)
    return completed.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="cellular")
    parser.add_argument("--calls", default="4", help="comma-separated calls-per-cell")
    parser.add_argument("--cells", type=int, default=2)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--prb-budget", type=int)
    parser.add_argument("--background-ues", type=int)
    parser.add_argument("--background-load", type=float)
    parser.add_argument(
        "--batch",
        action="store_true",
        help="check the batched cell engine (cell-block sharding)",
    )
    args = parser.parse_args(argv)
    engine = "batched cell engine" if args.batch else "event engine"
    with tempfile.TemporaryDirectory() as scratch:
        serial = Path(scratch) / "fleet_serial.json"
        sharded = Path(scratch) / "fleet_sharded.json"
        if run_sweep(args, jobs=1, output=serial) != 0:
            return 1
        if run_sweep(args, jobs=2, output=sharded) != 0:
            return 1
        serial_bytes = serial.read_bytes()
        sharded_bytes = sharded.read_bytes()
    if serial_bytes != sharded_bytes:
        print(f"fleet determinism ({engine}): FAIL — registries diverge")
        print(f"  serial:  {len(serial_bytes)} bytes")
        print(f"  sharded: {len(sharded_bytes)} bytes")
        return 1
    print(
        f"fleet determinism ({engine}): OK — serial and sharded "
        f"registries are byte-identical ({len(serial_bytes)} bytes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
