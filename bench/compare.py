"""Compare benchmark records of a parent and a change.

    python3 bench/compare.py PARENT.json CHANGE.json
    python3 bench/compare.py PARENT.json... -- CHANGE.json...

For every workload and end-to-end metric it prints each side's median
with quartiles (with several records, over the records' values; with
one, over its reps) and a verdict against the bound in BENCHMARK.json:

- ``unresolved``: the parent's spread (quartile distance over median) is
  wider than the bound and not every change value beats every parent one;
- ``worse``: the change's value is worse than the parent's by more than
  the bound;
- ``better``: the change's value is better by more than the parent's
  spread, and the change wins at least nine tenths of the record pairs
  (records pair up in the order given);
- ``same``: anything else.

It also prints ``failed_frac`` per side, whether the output digests of
records made with the same seed agree, and the per-layer table of both
sides (medians over records).  Layer shares get no verdict: they sum to
one, so a saving in one layer raises the others'.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def side_stats(records, workload, metric):
    """(values, median, q1, q3, spread) of one side.

    ``values`` are the records' reported values (each a median over that
    record's reps).  Several records give the median and quartiles over
    records; a single record gives its own reps' median and quartiles.
    ``spread`` is the quartile distance over that median.
    """
    rows = [record["workloads"][workload]["end_to_end"][metric] for record in records]
    values = [row["value"] for row in rows]
    if len(rows) == 1:
        q1, median, q3 = rows[0]["q1"], rows[0]["median"], rows[0]["q3"]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return values, median, q1, q3, (q3 - q1) / median


def judge(parent, change, better: str, bound: float) -> str:
    (a, a_center, _, _, spread), (b, b_center, _, _, _) = parent, change
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b_center - a_center) / a_center
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    if spread > bound and not all(beats(x, y) for x in b for y in a):
        return "unresolved"
    if worsening > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if -worsening > spread and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def layer_table(records, workload):
    """Median over records of every layer's calls, self_s and share."""
    tables = [record["workloads"][workload].get("trace", {}).get("layers", {})
              for record in records]
    return {
        layer: tuple(
            statistics.median(table.get(layer, {}).get(part, 0) for table in tables)
            for part in ("calls", "self_s", "share")
        )
        for layer in tables[0]
    }


def compare(parents, changes, spec) -> None:
    for side, records in (("parent", parents), ("change", changes)):
        for record in records:
            prov = record["provenance"]
            print(f"# {side}: commit {prov['git_commit']} dirty={prov['git_dirty']} "
                  f"seed={record['settings']['seed']} nproc={prov['nproc']}")
    if len({r["provenance"]["benchmark_sha256"] for r in parents + changes}) > 1:
        print("# warning: the records were made with different BENCHMARK.json files")
    shared = [w for w in parents[0]["workloads"]
              if all(w in record["workloads"] for record in parents + changes)]
    for workload in shared:
        print(f"\n== {workload}")
        print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
              f"{'change':>8}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = side_stats(parents, workload, name)
            b = side_stats(changes, workload, name)
            cells = [f"{s[1]:.4g} [{s[2]:.4g}, {s[3]:.4g}]" for s in (a, b)]
            print(f"{name:<12} {cells[0]:>30} {cells[1]:>30} {(b[1] - a[1]) / a[1]:>+8.2%}  "
                  f"{judge(a, b, metric['better'], metric['bound'])}")
        for side, records in (("parent", parents), ("change", changes)):
            entries = [record["workloads"][workload] for record in records]
            failed = sum(entry["failed"] for entry in entries)
            attempted = sum(entry["attempted"] for entry in entries)
            print(f"failed_frac {side}: {failed / attempted:.4g} ({failed}/{attempted})")
        by_seed = {}
        for record in parents + changes:
            by_seed.setdefault(record["settings"]["seed"], set()).add(
                record["workloads"][workload]["digest"]
            )
        shared_seeds = {r["settings"]["seed"] for r in parents} & {r["settings"]["seed"] for r in changes}
        differ = sorted(seed for seed in shared_seeds if len(by_seed[seed]) > 1)
        if not shared_seeds:
            print("digests: no seed in common")
        else:
            print(f"digests: {'DIFFERENT for seeds ' + str(differ) if differ else 'identical per seed'}")
        rows_a, rows_b = layer_table(parents, workload), layer_table(changes, workload)
        layers = [l for l in rows_a if rows_a[l][0] or rows_b.get(l, (0,))[0]]
        if not layers:
            continue
        print(f"{'layer':<22} {'calls parent>change':>23} {'self_s':>17} {'share':>13}")
        for layer in sorted(layers, key=lambda l: -rows_a[l][1]):
            (ca, sa, ha), (cb, sb, hb) = rows_a[layer], rows_b.get(layer, (0, 0.0, 0.0))
            print(f"{layer:<22} {ca:>11g}>{cb:<11g} {sa:>8.4f}>{sb:<8.4f} {ha:>6.3f}>{hb:<6.3f}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" in argv:
        cut = argv.index("--")
        parents, changes = argv[:cut], argv[cut + 1:]
    else:
        parents, changes = argv[:1], argv[1:]
    if not parents or not changes or ("--" not in argv and len(argv) != 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    load = lambda paths: [json.loads(Path(path).read_text()) for path in paths]  # noqa: E731
    compare(load(parents), load(changes), json.loads(SPEC_PATH.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
