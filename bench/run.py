"""superhol benchmark: one closed-loop client, one problem at a time.

    python3 bench/run.py --workload holonomy-tower --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each problem goes through the batch path of `superhol run` in-process:
`cli.run_problem` followed by `reportio.dumps_report`.  The fixed reference
kernel (refkernel.py) is timed before the first problem and after each one,
and every reported time is divided by the host factor measured around it.
Outputs are checked by checks.py outside the timed interval.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced round and one
profiled round.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")

import checks  # noqa: E402
import refkernel  # noqa: E402
import workloads as wl  # noqa: E402
from refkernel import host_factor  # noqa: E402

SETUP_SPAWNS = 5
IMPORT_PROBES = 3
IMPORT_SNIPPET = "import sys; sys.path.insert(0, %r); import superhol.cli, superhol.reportio"


def import_superhol():
    if not os.path.isfile(os.path.join(SRC, "superhol", "__init__.py")):
        raise ImportError("superhol sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    import superhol
    from superhol import cli, reportio

    if os.path.dirname(os.path.abspath(superhol.__file__)) != os.path.join(SRC, "superhol"):
        raise ImportError("imported superhol from %s, not from %s" % (superhol.__file__, SRC))
    return cli, reportio


# ---------------------------------------------------------------- set-up


def measure_setup():
    """Median (normalized, raw) wall time of a fresh interpreter that imports
    superhol's batch front end, over SETUP_SPAWNS spawns."""
    norm, raw = [], []
    for _ in range(SETUP_SPAWNS):
        before = refkernel.measure()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET % SRC], check=True, timeout=120)
        dt = time.perf_counter() - t0
        raw.append(dt)
        norm.append(dt / host_factor(before, refkernel.measure()))
    return statistics.median(norm), statistics.median(raw)


def measure_imports():
    """Normalized cumulative import seconds of superhol and numpy, from
    -X importtime, median over IMPORT_PROBES fresh interpreters."""
    found = {"superhol": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        before = refkernel.measure()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_SNIPPET % SRC],
            check=True, timeout=120, capture_output=True, text=True,
        )
        factor = host_factor(before, refkernel.measure())
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6 / factor)
    return {name: statistics.median(vals) if vals else 0.0 for name, vals in found.items()}


# ---------------------------------------------------------------- problems


class Runner:
    def __init__(self, workload, cli, reportio):
        self.workload = workload
        self.cli = cli
        self.reportio = reportio
        self.steps = wl.TRANSPORT_STEPS if workload == "holonomy-tower" else None
        self.verdicts = {"ok": 0, "failed": 0, "wrong": 0}
        self.wrong = []

    def solve(self, index, doc):
        report, _ = self.cli.run_problem(doc, steps=self.steps)
        return self.reportio.dumps_report(report)

    def judge(self, text, doc, meta):
        report = json.loads(text)
        if meta["kind"] in ("connection", "metric") and "result" in report:
            ref = meta["ref"]
            dim = report["result"].get("holonomy_dim")

            def containment(order):
                # The stored closure also covers a report that stops at
                # another order with the same algebra dimension.
                if order == ref["order"] + 1 or dim == ref["containment"]:
                    return ref["containment"]
                return checks.containment_dims(doc, order)

            if checks.plateau_fault(report, meta, containment):
                self.verdicts["failed"] += 1
                return
        bad = checks.check_report(report, meta)
        if bad:
            self.verdicts["wrong"] += 1
            self.wrong.append({"input": doc, "problems": bad})
        else:
            self.verdicts["ok"] += 1

    def run_items(self, items, records, solve=None):
        """Solve, time and check each item; append
        [raw seconds, kernel before, kernel after, problem id] per item."""
        solve = solve or self.solve
        before = refkernel.measure()
        for index, (doc, meta) in enumerate(items):
            gc.collect()
            t0 = time.perf_counter()
            text = solve(index, doc)
            raw = time.perf_counter() - t0
            self.judge(text, doc, meta)
            after = refkernel.measure()
            records.append([raw, before, after, meta["id"]])
            before = after


def normalized(records):
    return [r[0] / host_factor(r[1], r[2]) for r in records]


def normalized_sum(per_item, records):
    """Sum of per-item {key: seconds}, each divided by its item's host factor."""
    out = defaultdict(float)
    for values, r in zip(per_item, records):
        factor = host_factor(r[1], r[2])
        for key, secs in values.items():
            out[key] += secs / factor
    return out


def tail_percentile(least):
    """Highest whole percentile with at least ten problems beyond it in a run
    of `least` problems, the fewest any run of the workload holds."""
    return (100 * (least - 10)) // least


def timed_run(runner, pool, seed, seconds):
    records = []
    rounds = 0
    min_rounds = wl.MIN_ROUNDS[runner.workload]
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        runner.run_items(wl.make_round(runner.workload, seed, rounds, pool), records)
        rounds += 1
    norm = normalized(records)
    raw = [r[0] for r in records]
    least = len(records) // rounds * min_rounds
    q = tail_percentile(least)
    factors = [host_factor(r[1], r[2]) for r in records]
    return {
        "rounds": rounds,
        "least": least,
        "wall_s": time.perf_counter() - start,
        "tail_q": q,
        "host_factor": (min(factors), statistics.median(factors), max(factors)),
        "problems_per_s": (len(norm) / sum(norm), len(raw) / sum(raw)),
        "latency_p50_s": (statistics.median(norm), statistics.median(raw)),
        "latency_tail_s": (statistics.quantiles(norm, n=100)[q - 1], statistics.quantiles(raw, n=100)[q - 1]),
        "records": records,
    }


def traced_run(runner, items):
    """Round `items` once under tracing.Recorder and once under cProfile."""
    import tracing

    rec = tracing.Recorder()
    deltas = []

    def traced(index, doc):
        rec.problem = index
        start = dict(rec.self_s)
        text = runner.solve(index, doc)
        deltas.append({k: v - start.get(k, 0.0) for k, v in rec.self_s.items()})
        return text

    traced_records = []
    rec.install()
    try:
        runner.run_items(items, traced_records, traced)
    finally:
        rec.uninstall()

    profiles = []

    def profiled(index, doc):
        profile = cProfile.Profile()
        profile.enable()
        try:
            return runner.solve(index, doc)
        finally:
            profile.disable()
            profiles.append(profile)

    profiled_records = []
    runner.run_items(items, profiled_records, profiled)
    profile_s = normalized_sum([tracing.profile_self_seconds(p) for p in profiles], profiled_records)
    return rec, normalized_sum(deltas, traced_records), profile_s, traced_records, profiled_records


# ---------------------------------------------------------------- output


def write_out(name, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(payload, fh)


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(runner, pool, seed, tag):
    import tracing

    imports = measure_imports()
    items = wl.make_round(runner.workload, seed, 0, pool)
    rec, self_s, profile_s, traced, profiled = traced_run(runner, items)
    write_out("trace-%s.json" % tag, {
        "spans": rec.spans, "counts": dict(rec.counts), "self_s": self_s,
        "profile_self_s": profile_s, "traced_records": traced, "profiled_records": profiled,
    })
    print("%s: one round of %d problems; solve time %.2f s traced, %.2f s profiled (normalized)"
          % (tag, len(items), sum(normalized(traced)), sum(normalized(profiled))))
    metrics = tracing.per_layer_metrics(self_s, rec.counts, profile_s, imports)
    return {name: metric(value, tracing.unit_of(name)) for name, value in metrics.items()}


def end_to_end(runner, pool, seed, seconds, tag):
    setup = measure_setup()
    res = timed_run(runner, pool, seed, seconds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [
        ("problems_per_s", "1/s", res["problems_per_s"]),
        ("latency_p50_s", "s", res["latency_p50_s"]),
        ("latency_tail_s", "s", res["latency_tail_s"]),
        ("setup_s", "s", setup),
    ]
    write_out("run-%s.json" % tag, {
        "rounds": res["rounds"], "records": res["records"], "setup": setup, "peak_rss_mb": rss,
        "verdicts": runner.verdicts, "wrong": runner.wrong,
    })
    lo, mid, hi = res["host_factor"]
    problems = len(res["records"])
    least = res["least"]
    print("%s: %d rounds, %d problems in %.1f s wall; host factor %.3f (min %.3f, max %.3f)"
          % (tag, res["rounds"], problems, res["wall_s"], mid, lo, hi))
    print("  %-16s %12s %12s" % ("metric", "normalized", "raw"))
    for name, unit, (norm, raw) in rows:
        print("  %-16s %12.5f %12.5f %s" % (name, norm, raw, unit))
    print("  %-16s %12.1f %12s MB" % ("peak_rss_mb", rss, ""))
    print("  latency_tail_s is p%d: every run holds at least %d problems, %d beyond it"
          % (res["tail_q"], least, least * (100 - res["tail_q"]) // 100))
    out = {name: metric(norm, unit) for name, unit, (norm, _) in rows}
    out["peak_rss_mb"] = metric(rss, "MB")
    return out


def run_workload(args):
    try:
        cli, reportio = import_superhol()
        pool = None if args.workload == "berger-algebras" else wl.load_pool(args.workload)
    except (ImportError, OSError) as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 2
    runner = Runner(args.workload, cli, reportio)
    runner.solve(0, wl.warmup_problem(args.workload))
    tag = "%s-seed%d" % (args.workload, args.seed)
    if args.trace:
        metrics = per_layer(runner, pool, args.seed, tag)
    else:
        metrics = end_to_end(runner, pool, args.seed, args.seconds, tag)
    v = runner.verdicts
    attempted = v["ok"] + v["failed"] + v["wrong"]
    print("  attempted %d, failed %d (plateau fault), wrong %d" % (attempted, v["failed"], v["wrong"]))
    for item in runner.wrong[:5]:
        sys.stderr.write("check failed: %s\n" % "; ".join(item["problems"]))
    print(json.dumps({"correct": v["wrong"] == 0, "attempted": attempted, "failed": v["failed"],
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Run every workload, each in its own process, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, val in res["metrics"].items():
            merged["metrics"]["%s/%s" % (workload, name)] = val
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
