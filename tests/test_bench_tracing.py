"""The benchmark's tracing targets still exist in the package.

bench/tracing.py wraps package functions by (module, attribute) name, so a
rename or a deleted function would silently break `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
import os

from superhol import cli, holonomy
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
    conn = decode_connection({
        "chart": {"n": 2, "m": 0},
        "gamma": {"1,1,2": "0-x2", "1,2,1": "x2"},
    })
    holonomy.infinitesimal_holonomy(conn, [0, 0])
    assert calls


def test_transport_validation_builds_no_second_tower(monkeypatch):
    # the transport check evaluates the tables the holonomy run built
    full, orders = [], []
    original, order_zero = holonomy._next_derivative, DerivativeTable.order_zero

    def counted(conn, prev):
        orders.append(prev.order)
        return original(conn, prev)

    monkeypatch.setattr(DerivativeTable, "order_zero", staticmethod(lambda conn: full.append(conn) or order_zero(conn)))
    monkeypatch.setattr(holonomy, "_next_derivative", counted)
    doc = {"kind": "connection", "chart": {"n": 2, "m": 0}, "gamma": {"1,1,2": "0-x2", "1,2,1": "x2"}}
    holonomy.infinitesimal_holonomy(decode_connection(doc), [0, 0])
    alone, orders[:] = list(orders), []
    rep, ok = cli.run_problem(doc, steps=200)
    assert ok and rep["result"]["transport_validation"]["ok"]
    assert not full
    assert orders == alone == [0]
