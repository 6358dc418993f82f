"""Each benchmark checker accepts a real report and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from superhol import cli, reportio  # noqa: E402

_CACHE = {}


def solve(doc, steps=None):
    key = json.dumps([doc, steps], sort_keys=True)
    if key not in _CACHE:
        report, _ = cli.run_problem(doc, steps=steps)
        _CACHE[key] = json.loads(reportio.dumps_report(report))
    return copy.deepcopy(_CACHE[key])


def pool_entry(workload, predicate):
    return next(e for e in wl.load_pool(workload)["problems"] if predicate(e))


def connection_case():
    entry = pool_entry("holonomy-tower", lambda e: e["ref"]["dim"][0] >= 2 and e["doc"]["chart"]["m"] == 2)
    return solve(entry["doc"], wl.TRANSPORT_STEPS), wl.connection_meta(entry, entry["doc"]), entry


def product_case():
    entry = pool_entry("levi-civita", lambda e: e.get("product") and e["ref"]["dim"][0] >= 3)
    return solve(entry["doc"]), wl.metric_meta(entry, entry["doc"])


def test_closed_forms_match_quoted_values():
    assert checks.classical_forms("gl", 2, 2)["R"] == (40, 40)
    assert checks.classical_forms("gl", 2, 1)["g"](3) == (14, 13)


def test_closure_rejects_non_closed_and_dependent_bases():
    report, meta, _ = connection_case()
    alg = report["result"]["algebra"]
    assert checks.check_closure(alg) == []
    t = alg["dim"]["p"] + alg["dim"]["q"]
    broken = copy.deepcopy(alg)
    first = [Fraction(s) for s in broken["even"][0]]
    first[1] += 1  # an even entry (0, 1) that leaves the algebra
    broken["even"][0] = [str(v) for v in first]
    assert len(first) == t * t
    assert any("closed" in msg for msg in checks.check_closure(broken))
    dependent = copy.deepcopy(alg)
    dependent["even"].append(dependent["even"][0])
    assert any("dependent" in msg for msg in checks.check_closure(dependent))


def test_invariants_reject_a_vector_the_algebra_moves():
    report, meta, _ = connection_case()
    res = report["result"]
    assert checks.check_invariants(res["algebra"], res["invariants"]) == []
    t = res["algebra"]["dim"]["p"] + res["algebra"]["dim"]["q"]
    moved = copy.deepcopy(res["invariants"])
    p = res["algebra"]["dim"]["p"]
    for par, cols in (("even", range(p)), ("odd", range(p, t))):
        for c in cols:
            vec = ["0"] * t
            vec[c] = "1"
            moved[par] = [vec]
            if checks.check_invariants(res["algebra"], moved):
                return
    raise AssertionError("no coordinate vector was rejected")


def test_plateau_fault_flags_the_reproducer_only():
    report = solve(wl.REPRODUCER, wl.TRANSPORT_STEPS)
    meta = wl.connection_meta({"ref": None}, wl.REPRODUCER)
    assert checks.plateau_fault(report, meta, lambda order: checks.containment_dims(wl.REPRODUCER, order))
    good, gmeta, entry = connection_case()
    assert not checks.plateau_fault(good, gmeta, lambda order: entry["ref"]["containment"])


def test_levi_civita_checks_reject_corruptions():
    report, meta = product_case()
    assert checks.check_report(report, meta) == []
    res = report["result"]

    outside = copy.deepcopy(report)
    t = len(meta["body"])
    identity = ["1" if a == b else "0" for a in range(t) for b in range(t)]
    outside["result"]["algebra"]["even"][0] = identity
    assert checks.check_osp(outside["result"]["algebra"], meta["body"])

    bianchi = copy.deepcopy(report)
    bianchi["result"]["second_bianchi"] = False
    assert checks.check_report(bianchi, meta)

    swapped = copy.deepcopy(report)
    dec = swapped["result"]["decomposable"]
    dec["witness"][0], dec["complement"][0] = dec["complement"][0], dec["witness"][0]
    assert checks.check_decomposition(res["algebra"], dec, meta["body"])

    status = copy.deepcopy(report)
    status["result"]["decomposable"] = {"status": "inconclusive"}
    assert checks.check_report(status, meta)


def test_berger_checks_reject_corruptions():
    meta = {"kind": "algebra", "name": "gl", "params": [2, 1]}
    report = solve({"kind": "algebra", "algebra": {"name": "gl", "params": [2, 1]}})
    assert checks.check_report(report, meta) == []
    for path, value in ((("dims", "R"), [12, 11]), (("dims", "g2"), [11, 11]), (("ideal_ok",), False),
                        (("exactness_ok",), False), (("dims", "H22_derived"), 1)):
        bad = copy.deepcopy(report)
        target = bad["result"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert checks.check_report(bad, meta), path


def test_prolongation_and_pi_adjoint_checks_reject_corruptions():
    meta = {"kind": "prolongation", "name": "sl", "params": [2, 1], "order": 3}
    report = solve({"kind": "prolongation", "algebra": {"name": "sl", "params": [2, 1]}, "options": {"order": 3}})
    assert checks.check_report(report, meta) == []
    report["result"]["levels"][2]["dim"] = [10, 9]
    assert checks.check_report(report, meta)

    meta = {"kind": "pi_adjoint", "name": "sl", "params": [2, 1]}
    report = solve({"kind": "pi_adjoint", "algebra": {"name": "sl", "params": [2, 1]}})
    assert checks.check_report(report, meta) == []
    report["result"]["generator_matches"] = False
    assert checks.check_report(report, meta)


def test_error_and_malformed_reports_are_rejected():
    assert checks.check_report({"error": "boom"}, {"kind": "algebra"})
    report, meta, _ = connection_case()
    del report["result"]["invariants"]
    assert checks.check_report(report, meta)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
