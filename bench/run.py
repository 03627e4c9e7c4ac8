"""Run the repository benchmark (see bench/README.md).

    python3 bench/run.py [--workload a,b] [--seed N] [--seconds S | --reps N]
                         [--trace 0|1] [--out FILE]

Every rep runs one workload in a fresh child process (``bench/child.py``),
one at a time.  Untraced reps give the end-to-end metrics; one traced
rep gives the per-layer metrics.  ``--trace 0`` skips the traced rep,
``--trace 1`` reports only per-layer metrics (with one untraced rep as
their reference), and no ``--trace`` reports both.  Times are in
reference seconds: host time rescaled by the core speed measured while
it passed (``bench/speed.py``).  Each metric is
printed as ``<workload> <metric> <value> <unit>``, the JSON record
(provenance included) is written to ``--out`` (default
``.bench/records/``), and the last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only if every output check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench"

#: A rep that has not finished by then has hung; it counts as failed, and
#: a workload runs no more children after its first failed one.
CHILD_TIMEOUT_S = 60.0

#: Roughly how long one rep of any workload takes on one core; a budget
#: of S seconds runs round(S / REP_SECONDS) untraced reps, whatever the
#: speed of the code under test.
REP_SECONDS = 10.0

#: setup_s is a median over at least this many child start-ups.
MIN_SETUPS = 5


def child_env() -> dict:
    """The child's environment: this checkout's sources, no REPRO_* overrides,
    fixed hashing, single-threaded numerical libraries.

    Bytecode is cached under ``.bench/pycache`` whatever the caller's
    ``PYTHONDONTWRITEBYTECODE``: every child after the first in a checkout
    imports compiled modules, as an installed CLI does, instead of
    compiling every module again during set-up (and during lazy imports
    inside the timed call).
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(workload: str, seed: int, trace: int = 0, setup_only: bool = False) -> dict:
    """One rep in a fresh process; ``{"error": ...}`` if it did not finish."""
    workdir = WORK / "work" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    command = [
        sys.executable, str(BENCH / "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(time.monotonic())],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}"}
    return json.loads(lines[-1])


def summarise(values) -> dict:
    """The median (the reported value), quartiles, sample count and the
    samples themselves."""
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def measure(workload: str, seed: int, trace, reps: int) -> dict:
    """``reps`` untraced reps; unless only per-layer metrics are wanted,
    set-up-only children up to :data:`MIN_SETUPS` start-ups; then, unless
    ``trace`` is 0, the traced rep.  Stops at the first failed child."""
    untraced = []
    for _ in range(reps):
        untraced.append(run_child(workload, seed))
        if "error" in untraced[-1]:
            break
    setups = [rep["setup_s"] for rep in untraced if "error" not in rep]
    failed = len(setups) < len(untraced)
    while not failed and trace != 1 and len(setups) < MIN_SETUPS:
        rep = run_child(workload, seed, setup_only=True)
        if "error" in rep:
            untraced.append(rep)
            failed = True
        else:
            setups.append(rep["setup_s"])
    traced = run_child(workload, seed, trace=1) if trace != 0 and not failed else None
    return {"untraced": untraced, "setups": setups, "traced": traced}


def end_to_end(run: dict) -> dict:
    """End-to-end metrics: medians over the untraced reps (set-up over
    every untraced child start-up), times in reference seconds."""
    done = [rep for rep in run["untraced"] if "error" not in rep]
    if not done:
        return {}
    return {
        "wall_s": summarise(rep["wall_s"] for rep in done),
        "sim_rate": summarise(rep["sizes"]["session_seconds"] / rep["wall_s"] for rep in done),
        "setup_s": summarise(run["setups"]),
        "peak_rss_mb": summarise(rep["peak_rss_mb"] for rep in done),
    }


def host_clock(run: dict) -> dict:
    """The untraced reps' wall time as the host clock read it and the
    core speed it was rescaled by: recorded, not metrics."""
    done = [rep for rep in run["untraced"] if "error" not in rep]
    if not done:
        return {}
    return {
        "host_wall_s": summarise(rep["host_wall_s"] for rep in done),
        "speed": summarise(rep["speed"] for rep in done),
    }


def per_layer(traced: dict, untraced_wall_s: float) -> dict:
    """The per-layer metric values of one traced rep.

    Shares stay in the layer table and the record but are not metrics:
    they sum to one, so no direction is better for all of them.
    """
    trace = traced["trace"]
    values = {}
    for layer, row in trace["layers"].items():
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
    events, ticks = trace["events"], trace["session_ticks"]
    values["sim.engine.events"] = events
    values["sim.engine.ns_per_event"] = untraced_wall_s * 1e9 / events if events else 0.0
    values["sim.batch.session_ticks"] = ticks
    values["sim.batch.ns_per_session_tick"] = untraced_wall_s * 1e9 / ticks if ticks else 0.0
    simulated = trace["simulated_subframes"]
    values["lte.ue.active_subframe_share"] = trace["ue_subframes"] / simulated if simulated else 0.0
    values["experiments.batch.fast_path_share"] = trace["batched_sessions"] / traced["sessions"]
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall_s
    values["trace.unattributed_share"] = trace["unattributed_share"]
    values["trace.wrapper_ns"] = trace["cost"]["wrapper_ns"]
    return values


def verdict(run: dict) -> dict:
    """Sessions attempted and failed, problems found, digest agreement."""
    reps = list(run["untraced"]) + ([run["traced"]] if run["traced"] else [])
    sizes = next((rep["sizes"] for rep in reps if "sizes" in rep), {"sessions": 1})
    attempted = failed = 0
    problems = []
    digests = set()
    for rep in reps:
        if "error" in rep:
            attempted += sizes["sessions"]
            failed += sizes["sessions"]
            problems.append(rep["error"])
            continue
        attempted += rep["sessions"]
        failed += rep["failed"]
        problems.extend(rep["problems"])
        digests.add(rep["digest"])
    if len(digests) > 1:
        problems.append(f"outputs differ between reps: {len(digests)} digests")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "digest": digests.pop() if len(digests) == 1 else None,
        "sizes": sizes,
    }


def provenance(spec_bytes: bytes) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:
            pass
        else:
            if head.returncode == 0 and status.returncode == 0:
                commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "benchmark_sha256": hashlib.sha256(spec_bytes).hexdigest(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def evaluate(run: dict) -> dict:
    """A workload's record entry: verdict, end-to-end and per-layer metrics
    and the traced rep's layer table."""
    entry = verdict(run)
    entry["end_to_end"] = end_to_end(run)
    entry["host_clock"] = host_clock(run)
    entry["per_layer"] = {}
    if run["traced"] and "trace" in run["traced"] and entry["end_to_end"]:
        entry["per_layer"] = per_layer(run["traced"], entry["end_to_end"]["wall_s"]["value"])
        entry["trace"] = run["traced"]["trace"]
    return entry


def print_entry(name: str, entry: dict, units: dict) -> None:
    """Every metric as ``<workload> <metric> <value> <unit>``, then the
    layer table and any failed check as ``#`` comments."""
    for metric, stats in entry["end_to_end"].items():
        print(f"{name} {metric} {stats['value']!r} {units[metric]}")
    for metric, value in entry["per_layer"].items():
        print(f"{name} {metric} {value!r} {units[metric]}")
    if entry["host_clock"]:
        print(f"# {name}: host wall {entry['host_clock']['host_wall_s']['value']:.4g} s "
              f"at core speed {entry['host_clock']['speed']['value']:.3f}")
    if "trace" in entry:
        print_layer_table(name, entry["trace"]["layers"])
    for problem in entry["problems"]:
        print(f"# {name}: {problem}")


def print_layer_table(name: str, layers: dict) -> None:
    """The layers a traced rep reached, largest self time first."""
    print(f"# {name}: per-layer self time (traced rep; wrapper cost removed)")
    print(f"# {'layer':<22} {'calls':>10} {'self_s':>9} {'share':>7}")
    for layer, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        if row["calls"]:
            print(f"# {layer:<22} {row['calls']:>10} {row['self_s']:>9.4f} {row['share']:>7.3f}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
        epilog="With neither --seconds nor --reps, the budget is BENCHMARK.json's "
        "run_seconds.  --trace 1 alone runs one untraced rep.",
    )
    parser.add_argument("--workload", "--workloads", default=",".join(workloads.NAMES),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float,
                        help=f"budget per workload: round(S / {REP_SECONDS:g}) untraced reps, "
                        "at least one")
    budget.add_argument("--reps", type=int, help="untraced reps per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer only; default: both")
    parser.add_argument("--out", type=Path, help="JSON record path")
    args = parser.parse_args(argv)
    args.workload = [name for name in args.workload.split(",") if name]
    unknown = sorted(set(args.workload) - set(workloads.NAMES))
    if unknown or not args.workload:
        parser.error(f"unknown workload(s) {unknown}; choose from {', '.join(workloads.NAMES)}")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: {ROOT} holds no src/repro package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec_bytes = SPEC_PATH.read_bytes()
    spec = json.loads(spec_bytes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.reps is not None:
        reps = args.reps
    elif args.trace == 1:
        reps = 1
    else:
        reps = max(1, round(seconds / REP_SECONDS))

    record = {
        "provenance": provenance(spec_bytes),
        "settings": {"seed": args.seed, "reps": reps, "seconds": seconds,
                     "trace": args.trace, "workloads": args.workload},
        "workloads": {},
    }
    for name in args.workload:
        run = measure(name, args.seed, args.trace, reps)
        entry = evaluate(run)
        record["workloads"][name] = entry
        for rep in run["untraced"]:
            if "numpy" in rep:
                record["provenance"]["numpy"] = rep["numpy"]
        print_entry(name, entry, units)
        sys.stdout.flush()

    out = args.out or WORK / "records" / (
        time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + f"-seed{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# record: {out}")

    entries = record["workloads"]
    wanted = [m["name"] for m in (
        spec["end_to_end"] if args.trace == 0
        else spec["per_layer"] if args.trace == 1
        else spec["end_to_end"] + spec["per_layer"]
    )]

    def metrics_of(entry):
        found = {metric: stats["value"] for metric, stats in entry["end_to_end"].items()}
        found.update(entry["per_layer"])
        return {m: {"value": found[m], "unit": units[m]} for m in wanted if m in found}

    metrics = (
        metrics_of(entries[args.workload[0]]) if len(entries) == 1
        else {name: metrics_of(entry) for name, entry in entries.items()}
    )
    correct = all(entry["correct"] for entry in entries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(entry["attempted"] for entry in entries.values()),
        "failed": sum(entry["failed"] for entry in entries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
