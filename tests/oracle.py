"""Write the reports that pin superhol's output, one file per report.

    PYTHONPATH=src python tests/oracle.py OUTDIR
    PYTHONPATH=src python tests/oracle.py --compare DIR

The reports are `selftest`; every problem in tests/data, once as `run`
gives it and once with `--steps 200`; `tables F --max-dim 4` for each
family; and round 0 of the three benchmark workloads (bench/workloads.py)
for seeds 1 and 101, run as the benchmark runs them.  A refactor that must
not change output is checked by writing them at the parent commit and
running `--compare` on that directory at the change: it writes the reports
to a temporary directory, compares each with the file of the same name in
DIR, prints the first report and line that differ (or a report that only
one side has) and exits with 1, or with 0 when all match.  pytest does not
collect it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import workloads as wl  # noqa: E402
from superhol import cli  # noqa: E402
from superhol.reportio import dumps_report  # noqa: E402

TABLE_FAMILIES = ("gl", "sl", "osp", "pe", "spe", "q")
SEEDS = (1, 101)


def reports():
    """(file name, report) for every pinned report, in a fixed order."""
    yield "selftest.json", cli.run_selftest()[0]
    for name in sorted(f for f in os.listdir(DATA) if f.endswith(".json")):
        with open(os.path.join(DATA, name)) as fh:
            doc = json.load(fh)
        stem = name[: -len(".json")]
        yield "data-%s.json" % stem, cli.run_problem(doc)[0]
        yield "data-%s-steps%d.json" % (stem, wl.TRANSPORT_STEPS), cli.run_problem(doc, steps=wl.TRANSPORT_STEPS)[0]
    for family in TABLE_FAMILIES:
        yield "tables-%s.json" % family, cli.tables_report(family, 4)
    for workload in wl.WORKLOADS:
        pool = None if workload == "berger-algebras" else wl.load_pool(workload)
        steps = wl.TRANSPORT_STEPS if workload == "holonomy-tower" else None
        for seed in SEEDS:
            for k, (doc, _) in enumerate(wl.make_round(workload, seed, 0, pool)):
                yield "%s-seed%d-%03d.json" % (workload, seed, k), cli.run_problem(doc, steps=steps)[0]


def write_reports(out):
    """Write every report into the directory `out`; their names, in order."""
    os.makedirs(out, exist_ok=True)
    names = []
    for name, report in reports():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(dumps_report(report))
        names.append(name)
    return names


def read_lines(path):
    """The lines of a file, each with its line ending."""
    with open(path, newline="") as fh:
        return fh.read().splitlines(keepends=True)


def compare(want_dir):
    """Write the reports to a temporary directory and compare each with its
    file in `want_dir`: 0 when every report matches, else 1 after printing
    the first difference."""
    with tempfile.TemporaryDirectory() as got_dir:
        names = write_reports(got_dir)
        for name in names + sorted(set(os.listdir(want_dir)) - set(names)):
            paths = [os.path.join(d, name) for d in (got_dir, want_dir)]
            if not all(os.path.isfile(path) for path in paths):
                print("%s: only %s has it" % (name, "this checkout" if os.path.isfile(paths[0]) else want_dir))
                return 1
            got, want = (read_lines(path) for path in paths)
            if got != want:
                k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
                at = [lines[k] if k < len(lines) else "(end of file)" for lines in (want, got)]
                print("%s differs at line %d:\n  %s: %r\n  here: %r" % (name, k + 1, want_dir, *at))
                return 1
    print("%d reports match %s" % (len(names), want_dir))
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--compare":
        return compare(argv[1])
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tests/oracle.py OUTDIR | --compare DIR", file=sys.stderr)
        return 2
    names = write_reports(argv[0])
    print("%d reports written to %s" % (len(names), argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
