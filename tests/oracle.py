"""Write the reports that pin superhol's output, one file per report.

    PYTHONPATH=src python tests/oracle.py OUTDIR

The reports are `selftest`; every problem in tests/data, once as `run`
gives it and once with `--steps 200`; `tables F --max-dim 4` for each
family; and round 0 of the three benchmark workloads (bench/workloads.py)
for seeds 1 and 101, run as the benchmark runs them.  A refactor that must
not change output is checked by running this at the parent commit and at
the change and comparing with `diff -r`.  pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import sys

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


def main(argv):
    if len(argv) != 1:
        print("usage: python tests/oracle.py OUTDIR", file=sys.stderr)
        return 2
    out = argv[0]
    os.makedirs(out, exist_ok=True)
    count = 0
    for name, report in reports():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(dumps_report(report))
        count += 1
    print("%d reports written to %s" % (count, out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
