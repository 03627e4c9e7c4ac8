"""One benchmark rep, run by ``bench/run.py`` in a fresh process.

    python bench/child.py --workload NAME --seed N --workdir DIR
        --spawned T [--trace 0|1] [--setup-only]

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` counts interpreter start, imports and input
construction: everything a user pays before the entry call.  A
:class:`speed.SpeedClock` samples the core's speed from the start of set-up
to the end of the entry call, and both times are reported rescaled to
its reference speed.  The child prints one JSON object as its last line
of standard output.  A traced rep calibrates and installs :mod:`tracer`
before building the inputs and removes it before the output checks.
``--setup-only`` stops after set-up, before the entry call.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def rep(workload: str, seed: int, workdir: Path, trace: int, spawned: float,
        setup_only: bool = False) -> dict:
    """Set up and (unless ``setup_only``) run and check one rep.

    ``setup_s`` and ``wall_s`` are in reference seconds (see
    :mod:`speed`); ``host_setup_s`` and ``host_wall_s`` are as the host
    clock read them.
    """
    import speed

    clock = speed.SpeedClock()
    setup_mark = clock.mark()
    clock.start()
    tracing = None
    try:
        import numpy
        import workloads

        if trace:
            import tracer

            tracing = tracer.Tracer(tracer.calibrate())
            tracing.install()
        prepared = workloads.prepare(workload, seed, workdir)
        host_setup_s = time.monotonic() - spawned
        setup_s, setup_speed = clock.reference_s(host_setup_s, setup_mark)
        result = {
            "workload": workload,
            "seed": seed,
            "traced": bool(trace),
            "setup_s": setup_s,
            "host_setup_s": host_setup_s,
            "setup_speed": setup_speed,
            "sizes": prepared.sizes,
            "numpy": numpy.__version__,
        }
        if setup_only:
            return result
        entry_mark = clock.mark()
        start = time.perf_counter()
        output = prepared.entry()
        host_wall_s = time.perf_counter() - start
        wall_s, wall_speed = clock.reference_s(host_wall_s, entry_mark)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        clock.stop()
        if tracing is not None:
            tracing.uninstall()
    checked = prepared.check(output)
    result.update(
        wall_s=wall_s,
        host_wall_s=host_wall_s,
        speed=wall_speed,
        peak_rss_mb=peak_rss_mb,
        sessions=checked.sessions,
        failed=checked.failed,
        problems=checked.problems,
        digest=checked.digest,
    )
    if tracing is not None:
        result["trace"] = tracing.report(host_wall_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = rep(args.workload, args.seed, args.workdir, args.trace, args.spawned,
                 args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
