"""The benchmark's tracing targets still exist in the package.

bench/tracing.py wraps package functions by (module, attribute) name, so a
rename or a deleted function would silently break `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
import os

from superhol import cli, geometry, holonomy
from superhol.geometry import DerivativeTable
from superhol.reportio import decode_connection

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = load_tracing()
    targets = [pair for pairs in tracing.TIMED.values() for pair in pairs]
    targets += list(tracing.COUNTED.values())
    missing = []
    for owner, attr in targets:
        modname, _, cls = owner.partition(".")
        target = importlib.import_module("superhol." + modname)
        if cls:
            target = getattr(target, cls, None)
        if not callable(getattr(target, attr, None)):
            missing.append((owner, attr))
    for modname in tracing.MODULES:
        importlib.import_module("superhol." + modname)
    assert not missing


def test_holonomy_builds_the_tower_through_its_own_global(monkeypatch):
    # tracing times the tower by replacing holonomy._next_derivative only
    calls = []
    original = holonomy._next_derivative

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(holonomy, "_next_derivative", counted)
    # the curvature vanishes at 0 and its first derivative does not: the run
    # goes on to order 2, which needs the order-1 table
    conn = decode_connection({
        "chart": {"n": 2, "m": 0},
        "gamma": {"1,1,2": "0-x2^2", "1,2,1": "x2^2"},
    })
    hol = holonomy.infinitesimal_holonomy(conn, [0, 0])
    assert hol.stabilized_at_order == 2
    assert calls


def test_transport_validation_builds_no_second_tower(monkeypatch):
    # the transport check evaluates the tables the holonomy run built; this
    # run stops at order 1, which it evaluates from order 0 without building
    # its table, so the transport check builds order 1 once, from the
    # canonical order 0.  Both modules' _next_derivative are spied on, so a
    # full tower (`covariant_derivatives` steps through geometry's) or a
    # second canonical one would show as another step or a full table.
    steps = []
    original = geometry._next_derivative

    def counted(conn, prev):
        steps.append(prev)
        return original(conn, prev)

    monkeypatch.setattr(holonomy, "_next_derivative", counted)
    monkeypatch.setattr(geometry, "_next_derivative", counted)
    doc = {"kind": "connection", "chart": {"n": 2, "m": 0}, "gamma": {"1,1,2": "0-x2", "1,2,1": "x2"}}
    holonomy.infinitesimal_holonomy(decode_connection(doc), [0, 0])
    assert steps == []
    rep, ok = cli.run_problem(doc, steps=200)
    assert ok and rep["result"]["transport_validation"]["ok"]
    assert len(steps) == 1
    seed = DerivativeTable.holonomy_seed(decode_connection(doc))
    assert (steps[0].order, steps[0].canonical, steps[0].components) == (0, True, seed.components)
