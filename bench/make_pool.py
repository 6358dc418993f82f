"""Regenerate the committed problem pools in bench/pool/.

    python3 bench/make_pool.py            # both pools
    python3 bench/make_pool.py levi-civita

Candidates are drawn from a fixed master seed.  A candidate joins the pool
when the program solves it without error, its host-normalized time lies in
the workload's COST_WINDOW, its class still has room, and every check in checks.py passes
on it, including the plateau containment check.  The time window makes a
regenerated pool depend slightly on the host; the committed pool is the
one runs use.  For each member the pool stores
the stabilization order k and the graded dim of the closure of the order
<= k+1 derivatives, so runs need not recompute that closure.  Candidates that
the program gets wrong are counted and printed, not kept: the plateau fault
is represented in every round by the fixed reproducer in workloads.py.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import refkernel  # noqa: E402
import workloads as wl  # noqa: E402
from superhol import cli, reportio  # noqa: E402

MASTER_SEED = 1
# Pool members per class.  Connections are classed by (odd chart dim m,
# stabilization order), so the round median falls inside the middle class
# rather than in a gap between classes; metrics by chart, products last.
HOLONOMY_CLASSES = {(2, 2): 6, (3, 2): 8, (3, 3): 6}
METRIC_CLASSES = {(1, 2): 4, (2, 2): 4, (1, 4): 4, (2, 4): 4, "product": 4}
# Host-normalized seconds (refkernel.py) a member may take.  Metrics stop
# at 1.0 s so that a run holds three rounds of them in the same time.
COST_WINDOW = {"holonomy-tower": (0.08, 1.5), "levi-civita": (0.08, 1.0)}


def _signed(terms):
    out = ""
    for coef, mono in terms:
        mag = abs(coef)
        body = mono if (mag == 1 and mono) else (str(mag) + ("*" + mono if mono else ""))
        if out:
            out += (" - " if coef < 0 else " + ") + body
        else:
            out = ("-" if coef < 0 else "") + body
    return out


def random_superfunction(rng, n, m, parity):
    """1-3 monomials of the given Grassmann parity, even exponents <= 1."""
    masks = [mk for mk in range(1 << m) if bin(mk).count("1") % 2 == parity]
    terms = []
    for _ in range(rng.randint(1, 3)):
        mask = rng.choice(masks)
        fac = ["x%d" % (i + 1) for i in range(n) if rng.randint(0, 1)]
        fac += ["xi%d" % (j + 1) for j in range(m) if mask >> j & 1]
        terms.append((rng.choice([-2, -1, 1, 2]), "*".join(fac)))
    return _signed(terms)


def random_connection(rng):
    """Sparse connection on a non-tangent free sheaf of rank 2|2."""
    n, m, p, q = 2, rng.choice([2, 3]), 2, 2
    keys = set()
    count = rng.randint(4, 5)
    while len(keys) < count:
        keys.add((rng.randint(1, n + m), rng.randint(1, p + q), rng.randint(1, p + q)))
    gamma = {}
    for a, b, c in sorted(keys):
        parity = ((a > n) + (b > p) + (c > p)) % 2
        gamma["%d,%d,%d" % (a, b, c)] = random_superfunction(rng, n, m, parity)
    return {"kind": "connection", "chart": {"n": n, "m": m}, "rank": {"p": p, "q": q},
            "gamma": gamma, "options": {"point": [0] * n}}


def _odd_term(rng, n, m, parity):
    """Odd-coordinate monomial of the given parity, optionally times an x."""
    size = rng.choice([s for s in range(1, m + 1) if s % 2 == parity])
    fac = ["xi%d" % j for j in sorted(rng.sample(range(1, m + 1), size))]
    if n and rng.randint(0, 1):
        fac.insert(0, "x%d" % rng.randint(1, n))
    return rng.choice([-2, -1, 1, 2, 3]), "*".join(fac)


def random_metric_entries(rng, n, m):
    """{(a, b): [(coef, monomial)]}: constant body plus nilpotent part."""
    t = n + m
    entries = {(a, a): [(1, "")] for a in range(1, n + 1)}
    for k in range(m // 2):
        entries[(n + 2 * k + 1, n + 2 * k + 2)] = [(1, "")]
    slots = [(a, b) for a in range(1, t + 1) for b in range(a, t + 1) if not (a == b and a > n)]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(slots)
        entries.setdefault((a, b), []).append(_odd_term(rng, n, m, ((a > n) + (b > n)) % 2))
    return entries


def metric_doc(n, m, entries):
    g = {"%d,%d" % key: _signed(terms) for key, terms in sorted(entries.items())}
    return {"kind": "metric", "chart": {"n": n, "m": m}, "g": g, "options": {"point": [0] * n}}


def product_metric(rng):
    """Block product of two 1|2 metrics on the 2|4 chart: the first factor
    uses x1, xi1, xi2, the second x2, xi3, xi4."""
    first = random_metric_entries(rng, 1, 2)
    second = random_metric_entries(rng, 1, 2)
    coord = {1: 2, 2: 5, 3: 6}
    entries = {}
    for (a, b), terms in first.items():
        entries[(1 if a == 1 else a + 1, 1 if b == 1 else b + 1)] = terms
    for (a, b), terms in second.items():
        renamed = [(c, wl.rename_vars(mono, {1: 2}, {1: 3, 2: 4})) for c, mono in terms]
        entries[(coord[a], coord[b])] = renamed
    return metric_doc(2, 4, entries)


def timed_report(doc):
    """Report and host-normalized seconds of one problem."""
    steps = wl.TRANSPORT_STEPS if doc["kind"] == "connection" else None
    before = refkernel.measure()
    t0 = time.perf_counter()
    report, _ = cli.run_problem(doc, steps=steps)
    raw = time.perf_counter() - t0
    factor = refkernel.host_factor(before, refkernel.measure())
    return json.loads(reportio.dumps_report(report)), raw / factor


def vet(doc, meta, wanted, window):
    """(ref, reason): ref when the candidate joins the pool, else a reason.
    `wanted(order)` says whether the candidate's class still has room."""
    report, cost = timed_report(doc)
    if "error" in report:
        return None, "error"
    res = report["result"]
    if "holonomy_dim" not in res:
        return None, "invalid metric"
    k = res["stabilized_at_order"]
    if res["holonomy_status"] != "stabilized" or res["holonomy_dim"] == [0, 0]:
        return None, "flat or capped"
    if not window[0] <= cost <= window[1]:
        return None, "outside the cost window"
    if not wanted(k):
        return None, "class full"
    ref = {"order": k, "dim": res["holonomy_dim"], "containment": checks.containment_dims(doc, k + 1),
           "cost_s": round(cost, 3)}
    meta = dict(meta, ref=ref)
    if checks.plateau_fault(report, meta, lambda order: ref["containment"]):
        return None, "plateau fault"
    bad = checks.check_report(report, meta)
    if bad:
        return None, "check failed: " + bad[0]
    return ref, None


def _fill(classes, draw, class_of, meta_of, window, rejected):
    """Draw candidates until every class holds its quota; members in class order."""
    members = {cls: [] for cls in classes}
    while any(len(members[c]) < n for c, n in classes.items()):
        doc, extra = draw()

        def wanted(order):
            cls = class_of(doc, extra, order)
            return cls in members and len(members[cls]) < classes[cls]

        ref, why = vet(doc, meta_of(doc, extra), wanted, window)
        if ref is None:
            if why != "class full":
                rejected[why] = rejected.get(why, 0) + 1
            continue
        cls = class_of(doc, extra, ref["order"])
        entry = {"doc": doc, "ref": ref}
        entry.update(extra)
        members[cls].append(entry)
        print("  %-12s dim %s order %d, %.3f s" % (cls, ref["dim"], ref["order"], ref["cost_s"]), flush=True)
    return [e for cls in classes for e in members[cls]]


def build_holonomy_pool():
    rng = random.Random("holonomy-tower/%d" % MASTER_SEED)
    rejected = {}
    members = _fill(
        HOLONOMY_CLASSES,
        lambda: (random_connection(rng), {}),
        lambda doc, extra, order: (doc["chart"]["m"], order),
        lambda doc, extra: wl.connection_meta({"ref": None}, doc),
        COST_WINDOW["holonomy-tower"],
        rejected,
    )
    rep_ref = {"order": 1, "dim": [0, 1], "containment": checks.containment_dims(wl.REPRODUCER, 2)}
    return {"workload": "holonomy-tower", "master_seed": MASTER_SEED, "rejected": rejected,
            "problems": members, "reproducer": {"doc": wl.REPRODUCER, "ref": rep_ref}}


def build_metric_pool():
    rng = random.Random("levi-civita/%d" % MASTER_SEED)
    rejected = {}
    charts = [c for c in METRIC_CLASSES if c != "product"]

    def draw():
        if rng.random() < 0.2:
            return product_metric(rng), {"product": True}
        n, m = rng.choice(charts)
        return metric_doc(n, m, random_metric_entries(rng, n, m)), {}

    members = _fill(
        METRIC_CLASSES,
        draw,
        lambda doc, extra, order: "product" if extra else (doc["chart"]["n"], doc["chart"]["m"]),
        lambda doc, extra: wl.metric_meta(dict(extra, ref=None), doc),
        COST_WINDOW["levi-civita"],
        rejected,
    )
    return {"workload": "levi-civita", "master_seed": MASTER_SEED, "rejected": rejected,
            "problems": members}


def main(argv):
    names = argv or ["holonomy-tower", "levi-civita"]
    os.makedirs(wl.POOL_DIR, exist_ok=True)
    for name in names:
        print(name, flush=True)
        pool = build_holonomy_pool() if name == "holonomy-tower" else build_metric_pool()
        print("  rejected:", pool["rejected"], flush=True)
        with open(os.path.join(wl.POOL_DIR, name + ".json"), "w") as fh:
            json.dump(pool, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
