"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; exact claims are asserted with equality on
exact arithmetic, the transport criterion carries the only float tolerances.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from superhol import berger as bg
from superhol import cli
from superhol import geometry as geo
from superhol import holonomy as hl
from superhol.linalg import span_echelon
from superhol.superfunc import ChartSignature, Superfunction
from superhol.superlin import (
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    classical_superalgebra,
    superbracket,
    supertrace,
)

from conftest import (
    dense_curvature,
    random_homogeneous_matrix,
    random_superfunction,
    random_torsion_free_connection,
    random_unipotent_gauge,
)


def _report(number, ok, detail=""):
    line = "[%s] acceptance criterion %d%s" % (
        "PASS" if ok else "FAIL",
        number,
        ": " + detail if detail else "",
    )
    print(line)
    assert ok, line


def r01_connection():
    sig = ChartSignature(0, 1)
    chart = geo.Chart.tangent(sig)
    return geo.ConnectionData.from_entries(
        chart, {(1, 1, 1): Superfunction.odd_var(sig, 1)}
    )


def test_criterion_1_r01_example():
    t0 = time.monotonic()
    conn = r01_connection()
    curv = geo.curvature(conn).components
    hol = hl.infinitesimal_holonomy(conn, [])
    elapsed = time.monotonic() - t0
    ok = (
        curv == {((), 0, 0): {(0, 0): Superfunction.constant(ChartSignature(0, 1), 2)}}
        and hol.algebra.graded_dim == (1, 0)
        and hol.algebra == classical_superalgebra("gl", (0, 1))
        and hol.stabilized_at_order is not None
        and hol.stabilized_at_order <= 1
        and elapsed < 1.0
    )
    _report(1, ok, "hol = gl(0|1), order %s, %.3fs" % (hol.stabilized_at_order, elapsed))


def test_criterion_2_flatness_corollary():
    rng = random.Random(2024)
    sig = ChartSignature(2, 2)
    chart = geo.Chart(sig, SuperDim(2, 2))
    flat_count = 0
    for _ in range(20):
        gauge = random_unipotent_gauge(rng, sig, chart.rank, maxdeg=1)
        conn = geo.pure_gauge_connection(chart, gauge)
        assert geo.curvature(conn).components == {}
        hol = hl.infinitesimal_holonomy(conn, [0, 0])
        assert hol.algebra.total_dim == 0 and hol.stabilized_at_order == 0
        flat_count += 1
    # non-gauge perturbations must produce explicit non-flat witnesses
    witnesses = 0
    for _ in range(5):
        gauge = random_unipotent_gauge(rng, sig, chart.rank, maxdeg=1)
        conn = geo.pure_gauge_connection(chart, gauge)
        for _ in range(8):
            a = rng.randrange(sig.total)
            A = rng.randrange(4)
            B = rng.randrange(4)
            want = (chart.coord_parity(a) + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
            bump = random_superfunction(rng, sig, want, maxdeg=1)
            if bump.is_zero():
                continue
            gamma = [dict(g) for g in conn.gamma]
            gamma[a][(A, B)] = gamma[a].get((A, B), Superfunction.zero(sig)) + bump
            perturbed = geo.ConnectionData(chart, gamma)
            cert = hl.flatness_certificate(perturbed)
            if not cert["flat"]:
                assert cert["witness"] is not None
                witnesses += 1
                break
    ok = flat_count == 20 and witnesses == 5
    _report(2, ok, "20 gauge connections flat, %d perturbed witnesses" % witnesses)


def test_criterion_3_parallel_sections():
    rng = random.Random(3033)
    sig = ChartSignature(1, 2)
    chart = geo.Chart(sig, SuperDim(1, 1))
    cases = [(geo.ConnectionData.zero(chart), None)]
    for _ in range(3):
        gauge = random_unipotent_gauge(rng, sig, chart.rank, maxdeg=1)
        cases.append((geo.pure_gauge_connection(chart, gauge), gauge))
    values = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(2), Fraction(-3)]]
    for conn, gauge in cases:
        for value in values:
            first = hl.reconstruct_parallel_section(conn, [Fraction(0)], value, gauge=gauge)
            second = hl.reconstruct_parallel_section(conn, [Fraction(0)], value, gauge=gauge)
            assert first.ok, first.reason
            assert hl.check_parallel(conn, first.section)
            assert first.section.value([Fraction(0)]) == value
            assert [f.terms for f in first.section.components] == [
                f.terms for f in second.section.components
            ]
    bad = r01_connection()
    for v in (Fraction(1), Fraction(-2), Fraction(1, 2)):
        res = hl.reconstruct_parallel_section(bad, [], [v])
        assert res.status == "rejected" and res.obstruction is not None
    # structural form of "every v != 0 is rejected": the holonomy algebra
    # contains the identity, whose kernel is zero
    hol = hl.infinitesimal_holonomy(bad, [])
    assert hol.algebra.contains_matrix(SuperMatrix.identity(SuperDim(0, 1)))
    _report(3, True, "4 flat connections x 3 values, uniqueness bit-exact, 0|1 rejects all v != 0")


BERGER_TRUE = [
    ("gl", (1, 1)),
    ("gl", (2, 1)),
    ("sl", (2, 1)),
    ("osp", (2, 2)),
    ("osp", (3, 2)),
    ("pe", 3),
    ("spe", 3),
    ("q", 2),
]
BERGER_FALSE = [("gl", (0, 1)), ("gl", (1, 0))]


def test_criterion_4_berger_table_rows():
    timings = []
    for name, params in BERGER_TRUE:
        t0 = time.monotonic()
        alg = classical_superalgebra(name, params)
        res = bg.berger_check(alg)
        dt = time.monotonic() - t0
        timings.append(dt)
        assert res["is_berger"], "%s%s should be Berger" % (name, params)
        assert dt < 60.0
    for name, params in BERGER_FALSE:
        alg = classical_superalgebra(name, params)
        assert not bg.berger_check(alg)["is_berger"]
    _report(4, True, "8 Berger rows + 2 negatives, max %.2fs" % max(timings))


def test_criterion_5_prolongation_rows():
    from test_berger import naive_prolongation_dims

    g0 = classical_superalgebra("cosp", (2, 2))
    dim = SuperDim(2, 2)
    tower = bg.cartan_prolongation(g0, 2)
    assert tower.levels[0].graded_dim == (2, 2)
    assert tower.levels[1].graded_dim == (0, 0)
    naive, _ = naive_prolongation_dims(dim, g0, 2)
    assert [lvl.total_dim for lvl in tower.levels] == naive
    # oracle agreement on the other prolongation data used in acceptance
    for name, params, vdim in (("gl", (1, 1), SuperDim(1, 1)), ("osp", (2, 2), SuperDim(2, 2))):
        g = classical_superalgebra(name, params)
        t = bg.cartan_prolongation(g, 2)
        assert [lvl.total_dim for lvl in t.levels] == naive_prolongation_dims(vdim, g, 2)[0]
    _report(5, True, "cosp(2|2): g1 = 2|2, g2 = 0, naive enumerator agrees")


def test_criterion_6_pi_adjoint_proposition():
    for name, params in (("sl", (2, 0)), ("sl", (1, 2))):
        res = bg.pi_adjoint_test(classical_superalgebra(name, params))
        assert res["g1_dim"] == (0, 1), name
        assert res["g2_dim"] == (0, 0), name
        assert res["generator_matches"], name
        assert res["is_berger"], name
    _report(6, True, "sl(2) and sl(1|2): g1 = 0|1 spanned by phi_1, g2 = 0, Berger")


def test_criterion_7_spencer_exactness():
    checked = 0
    for name, params in BERGER_TRUE + BERGER_FALSE + [("sl", (2, 0)), ("sl", (1, 2))]:
        alg = classical_superalgebra(name, params)
        rep = bg.spencer_rank_identity(alg)
        assert rep["exactness_ok"], "%s%s" % (name, params)
        checked += 1
        if name == "gl" and params in ((1, 1), (2, 1)):
            assert rep["h22_total"] == 0
    rep = bg.spencer_rank_identity(classical_superalgebra("sl", (0, 2)))
    assert rep["h22_total"] == 1
    assert rep["h22_raw"] == (1, 0)
    assert rep["h22_pi_twisted"] == (0, 1)
    _report(7, True, "%d algebras exact; gl rows H22 = 0; sl(0|2) total 1 (pi: 0|1)" % checked)


def test_criterion_8_ricci_kahler():
    from superhol.cli import kahler_test_metric, ricci_kahler_identity_holds, default_candidates

    outcomes = []
    for lam in (0, 1, -1, 2):
        metric, j = kahler_test_metric(lam)
        lc = geo.levi_civita(metric)
        parallel = not any(geo.nabla_endomorphism(lc, j, a) for a in range(4))
        assert parallel, "family member lam=%d lost the parallel structure" % lam
        assert ricci_kahler_identity_holds(lc, j)
        ric_zero = geo.ricci(lc) == {}
        hol = hl.infinitesimal_holonomy(lc, [])
        cands = default_candidates(SuperDim(0, 4), "rational", metric_body=metric.body([]))
        report = hl.classify_geometry(hol.algebra, cands)
        in_su = next(e["contained"] for e in report if e["structure"].startswith("special unitary"))
        assert ric_zero == in_su, "lam=%d breaks the equivalence" % lam
        outcomes.append((lam, ric_zero))
    assert any(z for _, z in outcomes) and any(not z for _, z in outcomes)
    _report(8, True, "identity exact on 4 family members; Ric=0 <=> hol in su")


def test_criterion_9_product_decomposition():
    sig = ChartSignature(0, 4)
    chart = geo.Chart.tangent(sig)
    xs = [Superfunction.odd_var(sig, i + 1) for i in range(4)]
    one = Superfunction.constant(sig, 1)
    metric = geo.MetricData.from_entries(
        chart,
        {(1, 2): one + (xs[0] * xs[1]).scale(3), (3, 4): one + (xs[2] * xs[3]).scale(5)},
    )
    hol = hl.infinitesimal_holonomy(geo.levi_civita(metric), [])

    def factor_hol(scale):
        fsig = ChartSignature(0, 2)
        fchart = geo.Chart.tangent(fsig)
        f1, f2 = Superfunction.odd_var(fsig, 1), Superfunction.odd_var(fsig, 2)
        entry = Superfunction.constant(fsig, 1) + (f1 * f2).scale(scale)
        fmetric = geo.MetricData.from_entries(fchart, {(1, 2): entry})
        return hl.infinitesimal_holonomy(geo.levi_civita(fmetric), []).algebra

    h1, h2 = factor_hol(3), factor_hol(5)
    assert hol.algebra.graded_dim == (
        h1.graded_dim[0] + h2.graded_dim[0],
        h1.graded_dim[1] + h2.graded_dim[1],
    )
    for m in hol.algebra.basis():
        for a in range(4):
            for b in range(4):
                if (a < 2) != (b < 2):
                    assert not m.entries[a][b]
    dec = hl.decomposability_certificate(hol.algebra, metric.body([]))
    assert dec["status"] == "decomposable"
    support = {i for v in dec["witness"] for i, x in enumerate(v) if x}
    assert support in ({0, 1}, {2, 3})
    _report(9, True, "block holonomy 3|0 + 3|0, witness block %s" % sorted(support))


def test_criterion_10_numeric_transport():
    sig = ChartSignature(2, 0)
    chart = geo.Chart(sig, SuperDim(2, 0))
    x2 = Superfunction.even_var(sig, 2)
    conn = geo.ConnectionData(chart, [{(0, 1): -x2, (1, 0): x2}, {}])
    table = dense_curvature(conn)
    x0 = [0.5, 0.5]
    pt = [Fraction(1, 2), Fraction(1, 2)]
    r_body = np.array(
        [[float(table[(0, 1)][a][b].value(pt)) for b in range(2)] for a in range(2)]
    )
    eps_list = (0.1, 0.05, 0.025)
    residuals = []
    for eps in eps_list:
        loop = [
            x0,
            [x0[0] + eps, x0[1]],
            [x0[0] + eps, x0[1] + eps],
            [x0[0], x0[1] + eps],
            x0,
        ]
        op = hl.numeric_parallel_transport(conn, loop, 4000)
        residuals.append(float(np.max(np.abs(op.matrix - (np.eye(2) - eps ** 2 * r_body)))))
    c_fit = residuals[0] / eps_list[0] ** 3
    assert all(res <= c_fit * eps ** 3 * 1.0001 for res, eps in zip(residuals, eps_list))
    orders = [
        np.log2(residuals[i] / residuals[i + 1]) for i in range(len(residuals) - 1)
    ]
    assert all(o >= 2.7 for o in orders)

    hol = hl.infinitesimal_holonomy(conn, pt)
    tables = hl.transport_tables(conn, hol)
    assert [tab.order for tab in tables] == [0, 1]
    gens = hl.conjugated_generators(
        conn, x0, [[x0, [0.8, 0.5], [0.8, 0.8]]], tables, steps=10000
    )
    residual = hl.span_embedding_residual(gens, hol.algebra)
    assert residual < 1e-6
    _report(
        10,
        True,
        "orders %s, conjugation residual %.2e"
        % ([round(float(o), 2) for o in orders], residual),
    )


def test_criterion_11_property_suites_and_selftest():
    rng = random.Random(1111)
    count = 0

    sig = ChartSignature(2, 3)
    for _ in range(400):
        pf, pg = rng.randint(0, 1), rng.randint(0, 1)
        f = random_superfunction(rng, sig, pf)
        g = random_superfunction(rng, sig, pg)
        assert f * g == (g * f).scale((-1) ** (pf * pg))
        count += 1
    for _ in range(100):
        pf = rng.randint(0, 1)
        f = random_superfunction(rng, sig, pf)
        g = random_superfunction(rng, sig)
        for a in range(1, sig.total + 1):
            pa = int(a > sig.n)
            assert (f * g).partial(a) == f.partial(a) * g + (f * g.partial(a)).scale(
                (-1) ** (pa * pf)
            )
        count += 1
    dim = SuperDim(2, 1)
    for _ in range(200):
        pa, pb, pc = (rng.randint(0, 1) for _ in range(3))
        a = random_homogeneous_matrix(rng, dim, pa)
        b = random_homogeneous_matrix(rng, dim, pb)
        c = random_homogeneous_matrix(rng, dim, pc)
        lhs = superbracket(a, superbracket(b, c))
        rhs = superbracket(superbracket(a, b), c) + superbracket(
            b, superbracket(a, c)
        ).scale((-1) ** (pa * pb))
        assert (lhs - rhs).is_zero()
        count += 1
    for _ in range(200):
        a = random_homogeneous_matrix(rng, dim, rng.randint(0, 1))
        b = random_homogeneous_matrix(rng, dim, rng.randint(0, 1))
        assert supertrace(superbracket(a, b)) == 0
        count += 1
    for _ in range(10):
        conn = random_torsion_free_connection(rng, ChartSignature(1, 2))
        assert geo.check_first_bianchi(conn)
        count += 1
    from superhol.superlin import generate_subalgebra

    for _ in range(100):
        gens = [
            random_homogeneous_matrix(rng, dim, rng.randint(0, 1)) for _ in range(2)
        ]
        alg = generate_subalgebra(gens, dim)
        assert generate_subalgebra(alg.basis(), dim) == alg
        count += 1

    t0 = time.monotonic()
    report, ok = cli.run_selftest()
    selftest_time = time.monotonic() - t0
    assert ok, [c for c in report["cases"] if not c["pass"]]
    assert selftest_time < 300.0
    assert count >= 1000
    _report(
        11,
        True,
        "%d randomized cases, selftest %.1fs (%d cases)" % (count, selftest_time, len(report["cases"])),
    )
