#!/usr/bin/env python3
"""Validate a ``repro360 metrics --format openmetrics`` export.

A small OpenMetrics text-format parser plus a catalogue-drift gate, in
the same spirit as ``tools/check_doc_links.py``: CI runs a tiny metered
sweep, exports OpenMetrics, and this script fails the build when the
export stops parsing or drifts from ``repro.obs``'s METRIC_CATALOGUE
(renamed metric, changed kind, broken histogram invariants, missing
``# EOF``).

Checks:

- every line is a valid ``# TYPE`` / ``# HELP`` comment or sample;
- the file ends with ``# EOF`` (the OpenMetrics terminator);
- every family maps back to a catalogue metric or span name and its
  advertised type matches the catalogue kind (counter/gauge/histogram,
  spans are summaries);
- counter samples use the ``_total`` suffix;
- histogram ``_bucket`` series are cumulative (non-decreasing over
  increasing ``le``), end with ``le="+Inf"``, and the +Inf bucket
  equals ``_count``.

Usage::

    PYTHONPATH=src python tools/check_metrics.py metrics.txt
    ... | PYTHONPATH=src python tools/check_metrics.py -

Exits 0 when the export is clean, 1 otherwise (listing every problem).
"""

import re
import sys
from pathlib import Path

# Allow running from the repo root without PYTHONPATH.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.metrics.export import openmetrics_family  # noqa: E402
from repro.obs.metrics import METRIC_CATALOGUE  # noqa: E402

TYPE_RE = re.compile(r"^# TYPE (?P<family>[a-zA-Z_:][a-zA-Z0-9_:]*) (?P<type>\w+)$")
HELP_RE = re.compile(r"^# HELP (?P<family>[a-zA-Z_:][a-zA-Z0-9_:]*) .*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)$"
)
LE_RE = re.compile(r'^le="(?P<le>[^"]+)"$')

VALID_TYPES = ("counter", "gauge", "histogram", "summary")


def expected_families():
    """Family name → (kind, catalogue name) for every catalogue entry."""
    table = {}
    for name, spec in METRIC_CATALOGUE.items():
        if spec.kind == "span":
            table[openmetrics_family("span." + name) + "_seconds"] = ("summary", name)
        else:
            table[openmetrics_family(name, spec.unit)] = (spec.kind, name)
    return table


def _parse_value(text):
    if text == "+Inf":
        return float("inf")
    return float(text)


def check(text):
    """Return a list of problem strings for one OpenMetrics document."""
    problems = []
    known = expected_families()
    declared = {}  # family -> advertised type
    buckets = {}  # family -> list of (le, value) in file order
    scalars = {}  # sample name -> value
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        problems.append("document does not end with '# EOF'")
    for number, line in enumerate(lines, start=1):
        if not line.strip() or line.strip() == "# EOF":
            continue
        if line.startswith("# TYPE "):
            match = TYPE_RE.match(line)
            if not match:
                problems.append(f"line {number}: malformed TYPE comment: {line!r}")
                continue
            family, kind = match.group("family"), match.group("type")
            if kind not in VALID_TYPES:
                problems.append(f"line {number}: unknown type {kind!r} for {family}")
            if family in declared:
                problems.append(f"line {number}: duplicate TYPE for {family}")
            declared[family] = kind
            if family not in known:
                problems.append(
                    f"line {number}: family {family} not derived from "
                    f"METRIC_CATALOGUE (catalogue drift?)"
                )
            elif known[family][0] != kind:
                problems.append(
                    f"line {number}: {family} advertised as {kind} but the "
                    f"catalogue says {known[family][0]}"
                )
            continue
        if line.startswith("# HELP "):
            if not HELP_RE.match(line):
                problems.append(f"line {number}: malformed HELP comment: {line!r}")
            continue
        if line.startswith("#"):
            problems.append(f"line {number}: unexpected comment: {line!r}")
            continue
        match = SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {number}: malformed sample line: {line!r}")
            continue
        name, labels, raw = match.group("name"), match.group("labels"), match.group("value")
        try:
            value = _parse_value(raw)
        except ValueError:
            problems.append(f"line {number}: non-numeric sample value {raw!r}")
            continue
        if value < 0:
            problems.append(f"line {number}: negative sample {name} = {value}")
        if labels:
            le = LE_RE.match(labels)
            if not le or not name.endswith("_bucket"):
                problems.append(f"line {number}: unexpected labels {labels!r} on {name}")
                continue
            family = name[: -len("_bucket")]
            buckets.setdefault(family, []).append((le.group("le"), value))
        else:
            scalars[name] = value
        # Resolve which declared family this sample belongs to.
        base = name
        for suffix in ("_bucket", "_total", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        if base not in declared and name not in declared:
            problems.append(f"line {number}: sample {name} has no TYPE declaration")
    # Per-family shape checks.
    for family, kind in declared.items():
        if kind == "counter" and f"{family}_total" not in scalars:
            problems.append(f"{family}: counter without a _total sample")
        if kind == "gauge" and family not in scalars:
            problems.append(f"{family}: gauge without a sample")
        if kind in ("histogram", "summary"):
            for suffix in ("_sum", "_count"):
                if f"{family}{suffix}" not in scalars:
                    problems.append(f"{family}: {kind} missing {family}{suffix}")
        if kind == "histogram":
            series = buckets.get(family, [])
            if not series:
                problems.append(f"{family}: histogram without _bucket samples")
                continue
            if series[-1][0] != "+Inf":
                problems.append(f"{family}: last bucket is not le=\"+Inf\"")
            values = [v for _, v in series]
            if any(b < a for a, b in zip(values, values[1:])):
                problems.append(f"{family}: bucket series is not cumulative")
            count = scalars.get(f"{family}_count")
            if count is not None and values and values[-1] != count:
                problems.append(
                    f"{family}: +Inf bucket ({values[-1]:g}) != _count ({count:g})"
                )
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__.strip().splitlines()[0])
        print("usage: check_metrics.py <metrics.txt | ->")
        return 2
    text = sys.stdin.read() if argv[0] == "-" else Path(argv[0]).read_text()
    problems = check(text)
    for problem in problems:
        print(problem)
    families = len(re.findall(r"^# TYPE ", text, flags=re.M))
    print(f"{families} metric families checked, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
