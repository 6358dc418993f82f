"""Seeded problem generation for the three benchmark workloads.

Every problem is a JSON document of the kind `superhol run` reads.  The
connection and metric problems come from committed pools (`pool/*.json`,
regenerated by `make_pool.py`); a run seed relabels each pool problem by a
random permutation of coordinates and fibre basis vectors inside each
parity class, and shuffles the round.  A relabeled problem is isomorphic to
its pool entry, so its algebra has the same graded dimension and the run
does the same amount of work whatever the seed, while the documents change
from round to round.
"""

from __future__ import annotations

import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_DIR = os.path.join(HERE, "pool")
WORKLOADS = ("holonomy-tower", "levi-civita", "berger-algebras")

# Float transport validation steps, as `superhol run --steps` passes them.
TRANSPORT_STEPS = 200

# Rounds every run solves at least.  holonomy-tower gets a third: its tail
# percentile falls among its longest problems (1-1.4 s raw), which the
# reference kernel samples least well, so they need one more sample each.
MIN_ROUNDS = {"holonomy-tower": 3, "levi-civita": 2, "berger-algebras": 2}

# The plateau-fault reproducer: holonomy.infinitesimal_holonomy stops at
# order 1 with 0|1, while the closure of the order <= 2 derivatives is 1|1.
# It is fixed (it does not depend on the seed) and runs once in every round.
REPRODUCER = {
    "kind": "connection",
    "chart": {"n": 2, "m": 2},
    "rank": {"p": 2, "q": 2},
    "gamma": {
        "1,3,3": "2 + x2*xi1*xi2",
        "3,4,1": "-2",
        "4,3,2": "-x1*x2 - 1 - 2*x1*x2*xi1*xi2 - x1*xi1*xi2",
    },
    "options": {"point": [0, 0]},
}

# berger-algebras.  Most problems take about 0.15-0.55 normalized s, so the
# reference kernel samples the host often; gl(2|2) and sl(2|2) (about 0.75 s)
# are the smallest gl and sl rows whose full certificate is not too short.
# Named families: the full certificate (curvature space, Berger check,
# derivative space, prolongation to order 2, Spencer identity).
BERGER_ALGEBRAS = [
    ("osp", [2, 2]), ("osp_sk", [2, 2]), ("q", [2]), ("pe", [2]), ("spe", [2]), ("cosp", [2, 2]),
    ("cpe", [2]), ("cspe", [2]), ("gl", [2, 2]), ("sl", [2, 2]),
]
# Prolongations of the infinite-type gl and sl.
BERGER_PROLONGATIONS = [
    ("gl", [3, 3], 3), ("sl", [3, 3], 3), ("gl", [4, 2], 3), ("sl", [4, 2], 3), ("gl", [3, 2], 4),
    ("sl", [3, 2], 4), ("gl", [2, 3], 4), ("sl", [2, 3], 4), ("gl", [4, 1], 4), ("sl", [4, 1], 4),
    ("gl", [2, 4], 4), ("sl", [2, 4], 4), ("gl", [1, 5], 4),
]
# Parity-reversed adjoint profiles of simple algebras.
BERGER_PI_ADJOINT = [("sl", [2, 1]), ("sl", [1, 2]), ("osp", [2, 2]), ("sl", [3, 0])]

_VAR = re.compile(r"(xi|x)(\d+)")


def load_pool(workload):
    with open(os.path.join(POOL_DIR, workload + ".json")) as fh:
        return json.load(fh)


def rename_vars(text, even_map, odd_map):
    def sub(mo):
        table = odd_map if mo.group(1) == "xi" else even_map
        return "%s%d" % (mo.group(1), table[int(mo.group(2))])

    return _VAR.sub(sub, text)


def _perm(rng, n):
    """Random permutation of 1..n as a dict."""
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return dict(zip(range(1, n + 1), image))


def relabel_connection(doc, rng):
    """Permute even coordinates, odd coordinates, even fibre vectors and odd
    fibre vectors, each within its own class."""
    n, m = doc["chart"]["n"], doc["chart"]["m"]
    p, q = doc["rank"]["p"], doc["rank"]["q"]
    ev, od = _perm(rng, n), _perm(rng, m)
    fe, fo = _perm(rng, p), _perm(rng, q)

    def coord(a):
        return ev[a] if a <= n else n + od[a - n]

    def fibre(b):
        return fe[b] if b <= p else p + fo[b - p]

    gamma = {}
    for key, text in doc["gamma"].items():
        a, b, c = (int(x) for x in key.split(","))
        gamma["%d,%d,%d" % (coord(a), fibre(b), fibre(c))] = rename_vars(text, ev, od)
    out = dict(doc)
    out["gamma"] = dict(sorted(gamma.items()))
    return out


def relabel_metric(doc, rng):
    """Permute even coordinates and the symplectic pairs (xi1,xi2), (xi3,xi4)
    of odd coordinates: both keep the body identity (+) standard symplectic."""
    n, m = doc["chart"]["n"], doc["chart"]["m"]
    ev = _perm(rng, n)
    pairs = _perm(rng, m // 2)
    od = {2 * k - 1 + j: 2 * pairs[k] - 1 + j for k in pairs for j in (0, 1)}

    def coord(a):
        return ev[a] if a <= n else n + od[a - n]

    g = {}
    for key, text in doc["g"].items():
        a, b = (int(x) for x in key.split(","))
        g["%d,%d" % (coord(a), coord(b))] = rename_vars(text, ev, od)
    out = dict(doc)
    out["g"] = dict(sorted(g.items()))
    return out


def metric_body(n, m):
    """Body at the base point: identity (+) standard symplectic pairs."""
    t = n + m
    body = [[0] * t for _ in range(t)]
    for a in range(n):
        body[a][a] = 1
    for k in range(m // 2):
        a = n + 2 * k
        body[a][a + 1] = 1
        body[a + 1][a] = -1
    return body


def connection_meta(entry, doc):
    p, q = doc["rank"]["p"], doc["rank"]["q"]
    return {
        "kind": "connection",
        "ref": entry["ref"],
        "full_dim": [p * p + q * q, 2 * p * q],
    }


def metric_meta(entry, doc):
    n, m = doc["chart"]["n"], doc["chart"]["m"]
    return {
        "kind": "metric",
        "ref": entry["ref"],
        "full_dim": [n * n + m * m, 2 * n * m],
        "body": metric_body(n, m),
        "product": entry.get("product", False),
    }


def make_round(workload, seed, index, pool=None):
    """Problems of round `index` for `seed`: a list of (doc, meta).

    Every round holds the same problems up to relabeling and order, so all
    rounds of all runs do the same work and fail on the same operations.
    """
    rng = random.Random("%s/%d/%d" % (workload, seed, index))
    items = []
    if workload == "holonomy-tower":
        for k, entry in enumerate(pool["problems"]):
            doc = relabel_connection(entry["doc"], rng)
            items.append((doc, dict(connection_meta(entry, doc), id=k)))
        rep = pool["reproducer"]
        items.append((rep["doc"], dict(connection_meta(rep, rep["doc"]), id="reproducer")))
    elif workload == "levi-civita":
        for k, entry in enumerate(pool["problems"]):
            doc = relabel_metric(entry["doc"], rng)
            items.append((doc, dict(metric_meta(entry, doc), id=k)))
    elif workload == "berger-algebras":
        for name, params in BERGER_ALGEBRAS:
            doc = {"kind": "algebra", "algebra": {"name": name, "params": params}}
            items.append((doc, {"kind": "algebra", "name": name, "params": params, "id": "%s%s" % (name, params)}))
        for name, params, order in BERGER_PROLONGATIONS:
            doc = {"kind": "prolongation", "algebra": {"name": name, "params": params},
                   "options": {"order": order}}
            items.append((doc, {"kind": "prolongation", "name": name, "params": params, "order": order,
                                "id": "%s%s/%d" % (name, params, order)}))
        for name, params in BERGER_PI_ADJOINT:
            doc = {"kind": "pi_adjoint", "algebra": {"name": name, "params": params}}
            items.append((doc, {"kind": "pi_adjoint", "name": name, "params": params, "id": "pi %s%s" % (name, params)}))
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(items)
    return items


def warmup_problem(workload):
    """A small untimed problem that loads every code path the workload uses."""
    if workload == "berger-algebras":
        return {"kind": "algebra", "algebra": {"name": "gl", "params": [1, 1]}}
    if workload == "levi-civita":
        return {"kind": "metric", "chart": {"n": 0, "m": 2}, "g": {"1,2": "1 + 3*xi1*xi2"}}
    return REPRODUCER
