import itertools
import random
from fractions import Fraction

import pytest

from superhol import cli
from superhol import geometry as geo
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational, field_zero
from superhol.superfunc import ChartSignature, Superfunction, mask_to_indices, parse_superfunction
from superhol.superlin import (
    SuperDim,
    SuperMatrix,
    cyclic_terms,
    stabilizer_algebra,
    standard_even_form,
)
from superhol.geometry import (
    Chart,
    ConnectionData,
    MatrixInversionError,
    MetricData,
    TensorSpace,
    check_first_bianchi,
    check_second_bianchi,
    covariant_derivatives,
    curvature,
    levi_civita,
    nabla_metric,
    nabla_section,
    pure_gauge_connection,
    ricci,
    sfmat_inverse,
    sfmat_mul,
    sfmat_partial,
    sfmat_value,
    sfmat_zeros,
    tensor_extension,
    torsion,
    validate_metric,
)

from conftest import (
    flat_of,
    is_canonical_rational,
    random_connection,
    random_sparse_connection,
    random_superfunction,
    random_torsion_free_connection,
    random_unipotent_gauge,
)


def r01_connection():
    sig = ChartSignature(0, 1)
    chart = Chart.tangent(sig)
    return ConnectionData.from_entries(chart, {(1, 1, 1): Superfunction.odd_var(sig, 1)})


def unit_section(chart, b):
    return [
        Superfunction.constant(chart.sig, 1 if a == b else 0)
        for a in range(chart.rank.total)
    ]


def curvature_operator_oracle(conn, a, b, col):
    """R(d_a, d_b) e_col via the commutator of covariant derivatives."""
    ch = conn.chart
    s = unit_section(ch, col)
    ab = nabla_section(conn, nabla_section(conn, s, b), a)
    ba = nabla_section(conn, nabla_section(conn, s, a), b)
    sign = (-1) ** (ch.coord_parity(a) * ch.coord_parity(b))
    return [x - y.scale(sign) for x, y in zip(ab, ba)]


class TestCurvature:
    def test_flat(self):
        sig = ChartSignature(1, 1)
        chart = Chart(sig, SuperDim(1, 1))
        assert curvature(ConnectionData.zero(chart)).is_zero()

    def test_r01_example(self):
        table = curvature(r01_connection())
        assert table.mats[(0, 0)][0][0] == Superfunction.constant(ChartSignature(0, 1), 2)

    def test_pure_gauge_is_flat(self):
        rng = random.Random(21)
        sig = ChartSignature(2, 2)
        chart = Chart(sig, SuperDim(2, 2))
        for _ in range(3):
            g = random_unipotent_gauge(rng, sig, chart.rank)
            conn = pure_gauge_connection(chart, g)
            assert curvature(conn).is_zero()

    @pytest.mark.parametrize("make", [random_connection, random_sparse_connection], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize(
        "chart_dims, rank_dims",
        [((2, 2), (2, 2)), ((0, 1), (0, 1)), ((1, 2), (1, 2)), ((2, 1), (2, 1)), ((2, 1), (1, 2))],
        ids=lambda d: "%d|%d" % d,
    )
    def test_matches_operator_definition(self, chart_dims, rank_dims, field, make):
        rng = random.Random(22)
        sig = ChartSignature(*chart_dims, field)
        chart = Chart(sig, SuperDim(*rank_dims))
        t, rk = sig.total, chart.rank.total
        for _ in range(3):
            conn = make(rng, chart)
            table = curvature(conn)
            for a in range(t):
                for b in range(t):
                    for col in range(rk):
                        want = curvature_operator_oracle(conn, a, b, col)
                        for row in range(rk):
                            assert table.mats[(a, b)][row][col] == want[row]


def reference_nabla_endomorphism(conn, j, a):
    """(nabla_a J) for a constant even J as its own sum, the body
    `nabla_endomorphism` had before it became one covariant step."""
    sig = conn.chart.sig
    t = sig.total
    out = sfmat_zeros(sig, t, t)
    for d in range(t):
        for c in range(t):
            acc = Superfunction.zero(sig)
            for b in range(t):
                jv = j.entries[b][c]
                if jv:
                    acc = acc + conn.gamma[a][d][b].scale(jv)
                jv = j.entries[d][b]
                if jv:
                    acc = acc - conn.gamma[a][b][c].scale(jv)
            out[d][c] = acc
    return out


class TestNablaEndomorphism:
    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (0, 4)])
    def test_matches_the_direct_sum(self, n, m, field):
        rng = random.Random("nabla J %d|%d %s" % (n, m, field))
        sig = ChartSignature(n, m, field)
        chart = Chart.tangent(sig)
        dim = SuperDim(n, m)
        t = sig.total

        def scalar():
            if field == GAUSSIAN:
                return GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
            return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

        nonzero = 0
        for make in (random_connection, random_sparse_connection):
            for _ in range(2):
                conn = make(rng, chart)
                rows = [
                    [scalar() if dim.parity(r) == dim.parity(c) else field_zero(field) for c in range(t)]
                    for r in range(t)
                ]
                j = SuperMatrix(dim, rows, field)
                assert j.parity == 0
                for a in range(t):
                    got = geo.nabla_endomorphism(conn, j, a)
                    assert got == reference_nabla_endomorphism(conn, j, a)
                    nonzero += any(not f.is_zero() for row in got for f in row)
        assert nonzero


def reference_product(f, g):
    """f·g with each odd sign found by sorting the concatenated index lists
    by adjacent swaps, independent of `superfunc.merge_sign`."""
    terms = {}
    for mi, pi in f.terms.items():
        for mj, pj in g.terms.items():
            if mi & mj:
                continue
            order = list(mask_to_indices(mi)) + list(mask_to_indices(mj))
            swaps = 0
            for i in range(len(order)):
                for j in range(len(order) - 1 - i):
                    if order[j] > order[j + 1]:
                        order[j], order[j + 1] = order[j + 1], order[j]
                        swaps += 1
            for ke, ve in pi.items():
                for kf, vf in pj.items():
                    prod = {tuple(a + b for a, b in zip(ke, kf)): (-1) ** swaps * ve * vf}
                    terms = (Superfunction(f.sig, terms) + Superfunction(f.sig, {mi | mj: prod})).terms
    return Superfunction(f.sig, terms)


def dense_covariant_step(conn, c, mat, par):
    """The covariant step as the dense sum it was before it scattered from
    nonzero entries: every entry [A][B] sums over every C, and products go
    through `reference_product`."""
    chart = conn.chart
    rk = chart.rank.total
    gamma = conn.gamma[c]
    pc = chart.coord_parity(c)
    fiber = [chart.fiber_parity(A) for A in range(rk)]
    new = sfmat_zeros(chart.sig, rk, rk)
    for A in range(rk):
        for B in range(rk):
            fB = fiber[B]
            term = mat[A][B].partial(c + 1)
            for C in range(rk):
                fC = fiber[C]
                g2 = gamma[A][C]
                if not (mat[C][B].is_zero() or g2.is_zero()):
                    term = term + reference_product(mat[C][B], g2).scale((-1) ** (pc * (par + fB + fC)))
                g1 = gamma[C][B]
                if not (g1.is_zero() or mat[A][C].is_zero()):
                    term = term - reference_product(g1, mat[A][C]).scale((-1) ** ((fC + fB) * par))
            new[A][B] = term
    return new


class TestSparseCovariantStep:
    """The scattered covariant step against the dense sum, entry by entry."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(1, 1), (1, 2), (2, 2)], ids=lambda d: "%d|%d" % d)
    @pytest.mark.parametrize("pq", [(1, 1), (2, 1), (1, 2)], ids=lambda d: "%d|%d" % d)
    def test_matches_the_dense_step(self, nm, pq, field):
        rng = random.Random("sparse step %d|%d %d|%d %s" % (nm + pq + (field,)))
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        t, rk = sig.total, chart.rank.total
        unit = GaussianRational(1, 1) if field == GAUSSIAN else 1

        def entry(par, A, B, maxdeg=2):
            want = (par + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
            return random_superfunction(rng, sig, want, maxdeg).scale(unit)

        nonzero = 0
        for make in (random_connection, random_sparse_connection):
            for _ in range(2):
                conn = make(rng, chart)
                for par in (0, 1):
                    mats = [sfmat_zeros(sig, rk, rk)]
                    for A, B in itertools.product(range(rk), repeat=2):
                        one = sfmat_zeros(sig, rk, rk)
                        one[A][B] = entry(par, A, B)
                        mats.append(one)
                    mats.append([[entry(par, A, B) for B in range(rk)] for A in range(rk)])
                    sparse = sfmat_zeros(sig, rk, rk)
                    for _ in range(2):
                        A, B = rng.randrange(rk), rng.randrange(rk)
                        sparse[A][B] = entry(par, A, B)
                    mats.append(sparse)
                    for mat in mats:
                        for c in range(t):
                            got = geo._covariant_step(conn, c, flat_of(mat), par)
                            want = dense_covariant_step(conn, c, mat, par)
                            # the step keeps exactly the nonzero entries, sorted
                            assert got == flat_of(want) and list(got) == sorted(got), c
                            dense = geo.sfmat_from_flat(sig, rk, got)
                            for A in range(rk):
                                for B in range(rk):
                                    assert dense[A][B] == want[A][B], (c, A, B)
                            nonzero += not geo.sfmat_is_zero(dense)
        assert nonzero

    def test_zero_component_steps_to_no_entries(self):
        chart = Chart(ChartSignature(2, 2), SuperDim(2, 2))
        conn = random_sparse_connection(random.Random(4), chart, 2)
        got = geo._covariant_step(conn, 0, flat_of(sfmat_zeros(chart.sig, 4, 4)), 0)
        assert geo.sfmat_is_zero(geo.sfmat_from_flat(chart.sig, 4, got))
        assert got == {}


def unfolded_curvature(conn):
    """Every R_ab as ∇_a Γ_b from the dense step, with −(−1)^{|a||b|} ∂_b Γ_a
    then added entry by entry as a superfunction of its own."""
    chart = conn.chart
    t, rk = chart.sig.total, chart.rank.total
    mats = {}
    for a, b in itertools.product(range(t), repeat=2):
        pa, pb = chart.coord_parity(a), chart.coord_parity(b)
        mat = dense_covariant_step(conn, a, conn.gamma[b], pb)
        for A, B in itertools.product(range(rk), repeat=2):
            mat[A][B] = mat[A][B] - conn.gamma[a][A][B].partial(b + 1).scale((-1) ** (pa * pb))
        mats[(a, b)] = mat
    return mats


class TestFoldedCurvature:
    """`curvature` adds ∂_b Γ_a into the covariant step's accumulators; it
    must equal the step followed by the separate sum."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize(
        "nm, pq", [((1, 1), (1, 1)), ((1, 2), (1, 2)), ((2, 2), (2, 2)), ((2, 1), (1, 2)), ((0, 3), (2, 1))],
        ids=lambda d: "%d|%d" % d,
    )
    def test_matches_the_unfolded_sum(self, nm, pq, field):
        rng = random.Random("folded curvature %d|%d %d|%d %s" % (nm + pq + (field,)))
        chart = Chart(ChartSignature(*nm, field), SuperDim(*pq))
        nonzero = 0
        for make in (random_connection, random_sparse_connection):
            conn = make(rng, chart)
            got, want = curvature(conn).mats, unfolded_curvature(conn)
            assert got.keys() == want.keys()
            for key, mat in want.items():
                assert got[key] == mat, key
                nonzero += not geo.sfmat_is_zero(mat)
        assert nonzero


def dense_tower(conn, order, canonical):
    """Every key's component as dense rows, orders 0..order, the zero
    components kept: order 0 from `unfolded_curvature`, each later order by
    `dense_covariant_step` in every direction its key allows (a canonical
    tower prepends a_{r+1} <= a_r, strictly when it is odd)."""
    par = conn.chart.coord_parity
    t = conn.chart.sig.total
    curv = unfolded_curvature(conn)
    tables = [{((), a, b): m for (a, b), m in curv.items() if not canonical or a < b or (a == b and par(a))}]
    for _ in range(order):
        nxt = {}
        for (dirs, a, b), mat in tables[-1].items():
            total = sum(par(d) for d in dirs + (a, b)) % 2
            stop = dirs[0] + 1 - par(dirs[0]) if canonical and dirs else t
            for c in range(stop):
                nxt[((c,) + dirs, a, b)] = dense_covariant_step(conn, c, mat, total)
        tables.append(nxt)
    return tables


def sparse_tower(conn, order, canonical):
    first = geo.DerivativeTable.holonomy_seed(conn) if canonical else geo.DerivativeTable.order_zero(conn)
    tables = [first]
    for _ in range(order):
        tables.append(geo._next_derivative(conn, tables[-1]))
    return tables


def tower_mismatches(conn, dense, order, canonical, point):
    """Where the sparse tower of `conn` differs from its dense tower: its
    keys must be exactly the nonzero dense components, in the same order,
    each with the nonzero entries of the dense one in sorted (A, B) order,
    the same values at the point and the parity of its coordinate indices."""
    chart = conn.chart
    rk, par = chart.rank.total, chart.coord_parity
    pt = chart.sig.coerce_point(point)
    bad = []
    for r, (tab, want) in enumerate(zip(sparse_tower(conn, order, canonical), dense)):
        nonzero = [key for key, mat in want.items() if not geo.sfmat_is_zero(mat)]
        if list(tab.components) != nonzero:
            bad.append((r, "keys"))
        for key in nonzero:
            flat = tab.components.get(key, {})
            if flat != flat_of(want[key]) or list(flat) != sorted(flat):
                bad.append((r, key, "entries"))
            body = sfmat_value(want[key], pt)
            values = {A * rk + B: v for A, row in enumerate(body) for B, v in enumerate(row) if v}
            if geo.values_at(flat, pt, rk) != values:
                bad.append((r, key, "values"))
            dirs, a, b = key
            if key in tab.components and tab.parities[key] != sum(par(d) for d in dirs + (a, b)) % 2:
                bad.append((r, key, "parity"))
    return bad


class TestSparseTower:
    """The sparse derivative tables, against dense towers built entry by
    entry with `dense_covariant_step`, on seeded connections over both
    fields: every kept component symbolically and by its values at a
    seeded point, the dropped keys, and the dense `covariant_derivatives`."""

    # field, chart n|m, rank p|q, Christoffel entries, top order
    CASES = [
        (RATIONAL, (1, 1), (1, 1), 4, 3),
        (GAUSSIAN, (1, 1), (1, 1), 4, 3),
        (RATIONAL, (2, 1), (1, 1), 4, 2),
        (GAUSSIAN, (1, 2), (1, 1), 4, 2),
        (RATIONAL, (0, 2), (2, 1), 4, 3),
    ]

    @staticmethod
    def connections(field, nm, pq, entries):
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        rng = random.Random("sparse tower %d|%d %d|%d %s" % (nm + pq + (field,)))
        unit = GaussianRational(Fraction(1, 2), 1) if field == GAUSSIAN else Fraction(1, 3)
        for _ in range(3):
            conn = random_sparse_connection(rng, chart, entries, maxdeg=2)
            yield conn, [unit * rng.randint(-2, 2) for _ in range(sig.n)]

    @pytest.mark.parametrize("field, nm, pq, entries, order", CASES)
    def test_matches_the_dense_tower(self, field, nm, pq, entries, order):
        dropped = kept = 0
        for conn, point in self.connections(field, nm, pq, entries):
            for canonical in (True, False):
                dense = dense_tower(conn, order, canonical)
                assert tower_mismatches(conn, dense, order, canonical, point) == []
                for tab, want in zip(sparse_tower(conn, order, canonical), dense):
                    # the dropped keys are exactly the zero components
                    gone = want.keys() - tab.components.keys()
                    assert all(geo.sfmat_is_zero(want[key]) for key in gone)
                    dropped += len(gone)
                    kept += len(tab.components)
            # covariant_derivatives keeps every key, as dense rows
            rk = conn.chart.rank.total
            full = dense_tower(conn, order, False)
            for tab, want in zip(covariant_derivatives(conn, None, order), full):
                assert list(tab.components) == list(want)
                for key, mat in tab.components.items():
                    assert len(mat) == rk and all(len(row) == rk for row in mat)
                    assert mat == want[key], key
        assert dropped and kept

    def mutant_killed(self, monkeypatch, name, mutant):
        caught = 0
        for field, nm, pq, entries, order in self.CASES:
            for conn, point in self.connections(field, nm, pq, entries):
                curvature(conn)  # the order-0 table is built before the mutant
                dense = [dense_tower(conn, order, canonical) for canonical in (True, False)]
                with monkeypatch.context() as m:
                    m.setattr(geo, name, mutant(getattr(geo, name)))
                    for canonical, tower in zip((True, False), dense):
                        caught += bool(tower_mismatches(conn, tower, order, canonical, point))
        return caught

    def test_a_dropped_nonzero_entry_is_caught(self, monkeypatch):
        def mutant(step):
            def dropping(*args):
                out = step(*args)
                if out:
                    del out[next(iter(out))]
                return out
            return dropping

        assert self.mutant_killed(monkeypatch, "_gamma_step", mutant)

    def test_a_flipped_step_sign_is_caught(self, monkeypatch):
        def mutant(signs):
            def flipped(chart, c, par):
                fiber, left, right = signs(chart, c, par)
                return fiber, (left[0], -left[1]), right
            return flipped

        assert self.mutant_killed(monkeypatch, "_step_signs", mutant)


class TestCurvatureKept:
    def test_same_table_on_every_call(self):
        chart = Chart(ChartSignature(1, 1), SuperDim(1, 1))
        conn = random_connection(random.Random(5), chart)
        assert curvature(conn) is curvature(conn)

    def test_one_build_per_problem(self, monkeypatch):
        built = []

        class CountingTable(geo.CurvatureTable):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(geo, "CurvatureTable", CountingTable)
        doc = {
            "kind": "connection",
            "chart": {"n": 2, "m": 0},
            "gamma": {"1,1,2": "0-x2", "1,2,1": "x2"},
            "options": {"point": ["1/2", "1/2"]},
        }
        rep, ok = cli.run_problem(doc, steps=200)
        assert ok
        res = rep["result"]
        assert not res["flat"] and "ricci" in res and "transport_validation" in res
        assert len(built) == 1

    def test_same_torsion_on_every_call(self):
        conn = random_connection(random.Random(5), Chart.tangent(ChartSignature(1, 1)))
        assert torsion(conn) is torsion(conn)

    def test_one_torsion_build_per_metric_problem(self, monkeypatch):
        # Levi-Civita's own check, torsion_free and the second Bianchi check
        built = []

        class CountingTable(geo.TorsionTable):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(geo, "TorsionTable", CountingTable)
        doc = {"kind": "metric", "chart": {"n": 0, "m": 2}, "g": {"1,2": "1 + 3*xi1*xi2"}}
        rep, ok = cli.run_problem(doc)
        assert ok
        res = rep["result"]
        assert res["torsion_free"] and res["second_bianchi"] and not res["flat"]
        assert len(built) == 1


class TestEvaluation:
    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_sfmat_value_matches_entrywise_value(self, field):
        rng = random.Random(41)
        sig = ChartSignature(2, 2, field)

        def scalar():
            re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            return re if field == RATIONAL else GaussianRational(re, rng.randint(-2, 2))

        for _ in range(30):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            mat = [
                [random_superfunction(rng, sig, maxdeg=2).scale(scalar()) for _ in range(cols)]
                for _ in range(rows)
            ]
            point = [rng.randint(-2, 2), scalar()]
            got = sfmat_value(mat, point)
            assert got == [[f.value(point) for f in row] for row in mat]
            if field == RATIONAL:
                assert all(is_canonical_rational(v) for row in got for v in row)
            else:
                assert all(type(v) is GaussianRational for row in got for v in row)
            for bad in ([1], [1, 2, 3]):
                with pytest.raises(ValueError):
                    sfmat_value(mat, bad)


class TestCovariantDerivatives:
    def test_flat_tables_vanish(self):
        sig = ChartSignature(1, 1)
        chart = Chart(sig, SuperDim(1, 1))
        tables = covariant_derivatives(ConnectionData.zero(chart), None, 2)
        for tab in tables:
            for mat in tab.components.values():
                assert all(f.is_zero() for row in mat for f in row)

    def test_matches_operator_recursion(self):
        # oracle: expand the defining recursion on sections, flat reference
        rng = random.Random(23)
        sig = ChartSignature(1, 2)
        chart = Chart(sig, SuperDim(1, 1))
        conn = random_connection(rng, chart)
        tables = covariant_derivatives(conn, None, 2)

        def op_derivative(dirs, a, b, comps):
            ch = conn.chart
            if not dirs:
                return curvature_operator_oracle_comps(comps, a, b)
            ar, rest = dirs[0], dirs[1:]
            inner = op_derivative(rest, a, b, comps)
            first = nabla_section(conn, inner, ar)
            tail = sum(ch.coord_parity(d) for d in rest) + ch.coord_parity(a) + ch.coord_parity(b)
            sign = (-1) ** (ch.coord_parity(ar) * tail)
            second = op_derivative(rest, a, b, nabla_section(conn, comps, ar))
            return [x - y.scale(sign) for x, y in zip(first, second)]

        def curvature_operator_oracle_comps(comps, a, b):
            ch = conn.chart
            ab = nabla_section(conn, nabla_section(conn, comps, b), a)
            ba = nabla_section(conn, nabla_section(conn, comps, a), b)
            sign = (-1) ** (ch.coord_parity(a) * ch.coord_parity(b))
            return [x - y.scale(sign) for x, y in zip(ab, ba)]

        t, rk = sig.total, chart.rank.total
        for order in (1, 2):
            comp = tables[order].components
            for dirs in itertools.product(range(t), repeat=order):
                for a in range(t):
                    for b in range(t):
                        for col in range(rk):
                            want = op_derivative(dirs, a, b, unit_section(chart, col))
                            for row in range(rk):
                                assert comp[(dirs, a, b)][row][col] == want[row]

    def test_r01_derivative_stays_in_identity_span(self):
        conn = r01_connection()
        tables = covariant_derivatives(conn, None, 1)
        mat = tables[1].components[((0,), 0, 0)]
        value = mat[0][0].value([])
        assert is_canonical_rational(value)  # one component: trivially in span{id}


def dense_sfmat_mul(a, b):
    """The matrix product as the dense sum of every a[i][k]·b[k][j]."""
    zero = Superfunction.zero(a[0][0].sig)
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_sf_matrix(rng, sig, rows, cols, zeros=0.4, soul_only=False):
    """Seeded superfunction entries of mixed parity, about a `zeros` share of
    them zero; `soul_only` drops every body term."""
    unit = GaussianRational(1, 1) if sig.field == GAUSSIAN else 1
    mat = sfmat_zeros(sig, rows, cols)
    for i, j in itertools.product(range(rows), range(cols)):
        if rng.random() >= zeros:
            f = random_superfunction(rng, sig)
            if soul_only:
                f = Superfunction(sig, {k: v for k, v in f.terms.items() if k})
            mat[i][j] = f.scale(unit)
    return mat


def random_invertible_sf_matrix(rng, sig, t):
    """Constant invertible body plus nilpotent rest: the body is lower
    triangular with a nonzero constant diagonal, and above the diagonal and on
    it every other term is soul."""
    mat = random_sf_matrix(rng, sig, t, t)
    upper = random_sf_matrix(rng, sig, t, t, soul_only=True)
    for i, j in itertools.product(range(t), repeat=2):
        if i <= j:
            mat[i][j] = upper[i][j]
        if i == j:
            mat[i][j] = mat[i][j] + Superfunction.constant(sig, rng.choice([1, -1, 2, Fraction(1, 3)]))
    return mat


class TestSparseMatrixProducts:
    """`sfmat_mul` scatters from nonzero entries; `sfmat_inverse` runs its
    Neumann series through it.  Both against dense references."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(2, 0), (0, 2), (1, 2), (2, 2)], ids=lambda d: "%d|%d" % d)
    def test_mul_matches_the_dense_sum(self, nm, field):
        rng = random.Random("sfmat mul %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        for zeros in (0.0, 0.5, 0.9, 1.0):
            for _ in range(4):
                rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
                a = random_sf_matrix(rng, sig, rows, inner, zeros)
                b = random_sf_matrix(rng, sig, inner, cols, zeros)
                assert sfmat_mul(a, b) == dense_sfmat_mul(a, b)

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(2, 0), (0, 2), (1, 2), (2, 2), (1, 4)], ids=lambda d: "%d|%d" % d)
    def test_inverse_is_a_two_sided_inverse(self, nm, field):
        rng = random.Random("sfmat inverse %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        for t in (1, 2, 3, 4):
            a = random_invertible_sf_matrix(rng, sig, t)
            inv = sfmat_inverse(a, sig)
            one = [[Superfunction.constant(sig, int(i == j)) for j in range(t)] for i in range(t)]
            assert dense_sfmat_mul(a, inv) == one
            assert dense_sfmat_mul(inv, a) == one

    @pytest.mark.parametrize(
        "entries", [[["1 + x1"]], [["1", "x1"], ["x1", "1"]], [["2", "0"], ["0", "x1*x2"]]], ids=str
    )
    def test_non_nilpotent_body_rejected(self, entries):
        sig = ChartSignature(2, 1)
        a = [[parse_superfunction(text, sig) for text in row] for row in entries]
        with pytest.raises(MatrixInversionError):
            sfmat_inverse(a, sig)


class TestTorsionAndBianchi:
    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(2, 0), (0, 2), (1, 2), (2, 2)], ids=lambda d: "%d|%d" % d)
    def test_torsion_is_the_entrywise_difference(self, nm, field):
        rng = random.Random("torsion %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        chart = Chart.tangent(sig)
        t = sig.total
        nonzero = 0
        for conn in (random_connection(rng, chart), random_sparse_connection(rng, chart),
                     random_torsion_free_connection(rng, sig)):
            comps = torsion(conn).comps
            assert comps.keys() == set(itertools.product(range(t), repeat=2))
            for (a, b), vec in comps.items():
                sign = (-1) ** (chart.coord_parity(a) * chart.coord_parity(b))
                assert vec == [conn.gamma[a][c][b] - conn.gamma[b][c][a].scale(sign) for c in range(t)]
                nonzero += sum(map(bool, vec))
        assert nonzero

    def test_classical_symmetric_torsion_free(self):
        rng = random.Random(25)
        sig = ChartSignature(2, 0)
        conn = random_torsion_free_connection(rng, sig)
        assert torsion(conn).is_zero()

    def test_r01_torsion(self):
        sig = ChartSignature(0, 1)
        t = torsion(r01_connection())
        assert t.comps[(0, 0)][0] == Superfunction.odd_var(sig, 1).scale(2)

    def test_levi_civita_torsion_free(self):
        metric = curved_02_metric()
        assert torsion(levi_civita(metric)).is_zero()

    def test_first_bianchi_constant_metric(self):
        sig = ChartSignature(2, 2)
        chart = Chart.tangent(sig)
        metric = MetricData.from_entries(
            chart,
            {
                (1, 1): Superfunction.constant(sig, 1),
                (2, 2): Superfunction.constant(sig, 1),
                (3, 4): Superfunction.constant(sig, 1),
            },
        )
        conn = levi_civita(metric)
        assert check_first_bianchi(conn)
        assert check_second_bianchi(conn)

    def test_r01_first_bianchi_fails(self):
        assert not check_first_bianchi(r01_connection())

    def test_first_bianchi_random_torsion_free(self):
        rng = random.Random(26)
        for _ in range(5):
            sig = ChartSignature(1, 2)
            conn = random_torsion_free_connection(rng, sig)
            assert torsion(conn).is_zero()
            assert check_first_bianchi(conn)
            assert check_second_bianchi(conn)


def second_bianchi_oracle(conn):
    """The second Bianchi flag from the first covariant derivatives themselves.

    (∇_x R)(y,z), with the connection as its own reference on the directions,
    is the flat-reference component of `covariant_derivatives` minus
    sum_c Γ^c_{xy} R_{cz} and minus the signed sum_c Γ^c_{xz} R_{yc}.  The flag
    says whether the cyclic sum of these vanishes entry by entry.
    """
    par = conn.chart.coord_parity
    t, rk = conn.chart.sig.total, conn.chart.rank.total
    gamma = conn.gamma
    curv, first = (tab.components for tab in covariant_derivatives(conn, None, 1))
    nabla = {}
    for x, y, z in itertools.product(range(t), repeat=3):
        mat = [row[:] for row in first[((x,), y, z)]]
        for c in range(t):
            sign = (-1) ** ((par(c) + par(z)) * par(y))
            for A in range(rk):
                for B in range(rk):
                    mat[A][B] = mat[A][B] - gamma[x][c][y] * curv[((), c, z)][A][B]
                    mat[A][B] = mat[A][B] - (gamma[x][c][z] * curv[((), y, c)][A][B]).scale(sign)
        nabla[(x, y, z)] = mat
    for x, y, z in itertools.product(range(t), repeat=3):
        s2 = (-1) ** (par(x) * (par(y) + par(z)))
        s3 = (-1) ** (par(z) * (par(x) + par(y)))
        for A in range(rk):
            for B in range(rk):
                s = nabla[(x, y, z)][A][B] + nabla[(y, z, x)][A][B].scale(s2)
                if not (s + nabla[(z, x, y)][A][B].scale(s3)).is_zero():
                    return False
    return True


def dense_first_bianchi(conn):
    """The first Bianchi flag from every ordered triple and every entry."""
    chart = conn.chart
    mats = curvature(conn).mats
    t = chart.sig.total
    for a, b, c in itertools.product(range(t), repeat=3):
        _, *rest = cyclic_terms(chart.coord_parity, a, b, c)
        for A in range(t):
            s = mats[(a, b)][A][c]
            for (u, v, w), sign in rest:
                s = s + mats[(u, v)][A][w].scale(sign)
            if not s.is_zero():
                return False
    return True


def dense_second_bianchi(conn):
    """The flag of 𝔖 R(T(x,y),z) = 0 from a dense table of every R(T(x,y),z)."""
    chart = conn.chart
    tor = torsion(conn)
    mats = curvature(conn).mats
    sig = chart.sig
    t, rk = sig.total, chart.rank.total
    rt = {}
    for (x, y), vec in tor.comps.items():
        for z in range(t):
            mat = sfmat_zeros(sig, rk, rk)
            for c, coef in enumerate(vec):
                if not coef.is_zero():
                    mat = geo.sfmat_add(mat, [[coef * f for f in row] for row in mats[(c, z)]])
            rt[(x, y, z)] = mat
    for x, y, z in itertools.product(range(t), repeat=3):
        _, *rest = cyclic_terms(chart.coord_parity, x, y, z)
        for A in range(rk):
            for B in range(rk):
                s = rt[(x, y, z)][A][B]
                for uvw, sign in rest:
                    s = s + rt[uvw][A][B].scale(sign)
                if not s.is_zero():
                    return False
    return True


class TestSecondBianchiOracle:
    """Both Bianchi checks, over sorted triples and read off the torsion,
    against the direct cyclic sum and the dense all-triples loops."""

    # field, chart n|m, connection, seed, second flag, first flag.  The
    # sparse ones have one Christoffel entry ("sparse3" three), and "gauge"
    # is a flat connection; every connection but the torsion-free ones has
    # torsion, so a True flag there comes from the sum, not the early return.
    CASES = [
        (field, nm, kind, seed, flag, first)
        for field in (RATIONAL, GAUSSIAN)
        for nm, kind, seed, flag, first in [
            ((0, 1), "dense", 1, False, False),
            ((0, 1), "torsion-free", 1, True, True),
            ((1, 1), "dense", 1, False, False),
            ((1, 1), "sparse", 0, True, True),
            ((1, 1), "sparse", 1, False, False),
            ((1, 1), "torsion-free", 1, True, True),
            ((1, 2), "sparse", 8, True, False),
            ((1, 2), "sparse", 0, False, False),
            ((1, 2), "torsion-free", 1, True, True),
            ((2, 2), "sparse", 1, True, False),
            ((2, 2), "sparse", 0, False, False),
            ((0, 3), "dense", 1, False, False),
            ((0, 3), "sparse", 0, False, False),
            ((0, 3), "torsion-free", 1, True, True),
            ((0, 2), "gauge", 0, True, True),
            ((1, 2), "gauge", 0, True, True),
            ((2, 1), "sparse", 0, True, True),
            ((2, 1), "sparse", 3, True, False),
            ((1, 3), "sparse3", 0, False, False),
            ((1, 3), "gauge", 0, True, True),
        ]
    ]

    @pytest.mark.parametrize(
        "field, nm, kind, seed, flag, first", CASES, ids=["%s-%d|%d-%s-%d" % (c[0], *c[1], *c[2:4]) for c in CASES]
    )
    def test_matches_direct_cyclic_sum(self, field, nm, kind, seed, flag, first):
        sig = ChartSignature(*nm, field)
        chart = Chart.tangent(sig)
        rng = random.Random(seed)
        if kind == "dense":
            conn = random_connection(rng, chart)
        elif kind == "sparse":
            conn = random_sparse_connection(rng, chart, 1)
        elif kind == "sparse3":
            conn = random_sparse_connection(rng, chart, 3)
        elif kind == "gauge":
            conn = pure_gauge_connection(chart, random_unipotent_gauge(rng, sig, chart.rank))
            assert curvature(conn).is_zero()
        else:
            conn = random_torsion_free_connection(rng, sig)
        assert torsion(conn).is_zero() == (kind == "torsion-free")
        assert second_bianchi_oracle(conn) == flag
        assert dense_second_bianchi(conn) == flag
        assert check_second_bianchi(conn) == flag
        assert dense_first_bianchi(conn) == first
        assert check_first_bianchi(conn) == first


def curved_02_metric(scale=3):
    sig = ChartSignature(0, 2)
    chart = Chart.tangent(sig)
    xi1, xi2 = Superfunction.odd_var(sig, 1), Superfunction.odd_var(sig, 2)
    entry = Superfunction.constant(sig, 1) + (xi1 * xi2).scale(scale)
    return MetricData.from_entries(chart, {(1, 2): entry})


class TestRicci:
    def test_flat(self):
        sig = ChartSignature(1, 1)
        conn = ConnectionData.zero(Chart.tangent(sig))
        assert all(f.is_zero() for f in ricci(conn).values())

    def test_r01_value(self):
        assert ricci(r01_connection())[(0, 0)] == Superfunction.constant(
            ChartSignature(0, 1), 2
        )

    def test_kahler_identity(self):
        from superhol.cli import kahler_test_metric, ricci_kahler_identity_holds

        metric, j = kahler_test_metric(1)
        lc = levi_civita(metric)
        assert ricci_kahler_identity_holds(lc, j)


def reference_nabla_metric_component(metric, conn, a, b, c):
    """(nabla_a g)(d_b, d_c) summed term by term, each term a new
    superfunction."""
    chart = metric.chart
    pa, pb = chart.coord_parity(a), chart.coord_parity(b)
    term = metric.g[b][c].partial(a + 1)
    for d in range(chart.sig.total):
        gam = conn.gamma[a][d][b]
        if not (gam.is_zero() or metric.g[d][c].is_zero()):
            term = term - gam * metric.g[d][c]
        gam = conn.gamma[a][d][c]
        if not (gam.is_zero() or metric.g[b][d].is_zero()):
            sign = (-1) ** (pb * (pa + chart.coord_parity(c) + chart.coord_parity(d)) + pa * pb)
            term = term - (gam * metric.g[b][d]).scale(sign)
    return term


def metric_derivatives(metric, a):
    """The nonzero d_a g_bc as `nabla_metric` reads them: row b maps c to it."""
    rows = ({c: f.partial(a + 1) for c, f in enumerate(row)} for row in metric.g)
    return [{c: d for c, d in row.items() if d} for row in rows]


def random_soul_metric(rng, sig):
    """A metric with a constant standard body (m even) plus a seeded soul:
    random supersymmetric entries with every body term dropped, scaled by a
    non-real unit over the Gaussian field."""
    chart = Chart.tangent(sig)
    n, t = sig.n, sig.total
    unit = GaussianRational(1, 1) if sig.field == GAUSSIAN else 1
    g = sfmat_zeros(sig, t, t)
    for i in range(n):
        g[i][i] = Superfunction.constant(sig, rng.choice([1, -1, 2]))
    for k in range(n, t - 1, 2):
        g[k][k + 1] = Superfunction.constant(sig, 1)
        g[k + 1][k] = Superfunction.constant(sig, -1)
    for b in range(t):
        for c in range(b, t):
            pb, pc = chart.coord_parity(b), chart.coord_parity(c)
            if b == c and pb:
                continue  # g(b, b) = -g(b, b) for odd b
            soul = random_superfunction(rng, sig, (pb + pc) % 2)
            soul = Superfunction(sig, {k: v for k, v in soul.terms.items() if k}).scale(unit)
            g[b][c] = g[b][c] + soul
            if b != c:
                g[c][b] = g[b][c].scale((-1) ** (pb * pc))
    return MetricData(chart, g)


class TestLeviCivita:
    def test_constant_metric_gives_zero(self):
        sig = ChartSignature(2, 2)
        chart = Chart.tangent(sig)
        metric = MetricData.from_entries(
            chart,
            {
                (1, 1): Superfunction.constant(sig, 1),
                (2, 2): Superfunction.constant(sig, 1),
                (3, 4): Superfunction.constant(sig, 1),
            },
        )
        assert levi_civita(metric).is_zero()

    def test_half_factor_stays_exact(self):
        # Gamma = 1/2 K g^-1, and d_1 g_11 = xi1*xi2 gives Gamma^1_11 = 1/2 xi1*xi2:
        # the 1/2 must be a Fraction, as int / int would give a float
        sig = ChartSignature(1, 2)
        chart = Chart.tangent(sig)
        metric = MetricData.from_entries(
            chart, {(1, 1): parse_superfunction("1 + x1*xi1*xi2", sig), (2, 3): Superfunction.constant(sig, 1)}
        )
        conn = levi_civita(metric)
        assert conn.gamma[0][0][0] == parse_superfunction("1/2*xi1*xi2", sig)
        coefficients = [
            v for plane in conn.gamma for row in plane for f in row for poly in f.terms.values() for v in poly.values()
        ]
        assert coefficients and all(type(v) in (int, Fraction) for v in coefficients)
        assert Fraction(1, 2) in coefficients

    def test_classical_koszul_oracle_gaussian_surface(self):
        # m = 0 metric over the gaussian field with polynomial exact inverse:
        # g = I + x1 * N with N = [[1, i], [i, -1]] nilpotent symmetric
        sig = ChartSignature(2, 0, "gaussian-rational")
        chart = Chart.tangent(sig)
        i = GaussianRational(0, 1)
        x1 = Superfunction.even_var(sig, 1)
        one = Superfunction.constant(sig, 1)
        g11 = one + x1
        g12 = x1.scale(i)
        g22 = one - x1
        metric = MetricData.from_entries(chart, {(1, 1): g11, (1, 2): g12, (2, 2): g22})
        conn = levi_civita(metric)

        # independent classical oracle: explicit adjugate inverse (det = 1)
        ginv = [[g22, -g12], [-g12, g11]]
        gm = metric.g
        for k in range(2):
            for a in range(2):
                for b in range(2):
                    koszul = Superfunction.zero(sig)
                    for l in range(2):
                        term = (
                            gm[b][l].partial(a + 1)
                            + gm[a][l].partial(b + 1)
                            - gm[a][b].partial(l + 1)
                        )
                        koszul = koszul + term * ginv[l][k]
                    assert conn.gamma[a][k][b] == koszul.scale(Fraction(1, 2))
        assert torsion(conn).is_zero()

    def test_soul_perturbed_metric_postconditions(self):
        sig = ChartSignature(2, 2)
        chart = Chart.tangent(sig)
        x1 = Superfunction.even_var(sig, 1)
        xi1, xi2 = Superfunction.odd_var(sig, 1), Superfunction.odd_var(sig, 2)
        one = Superfunction.constant(sig, 1)
        metric = MetricData.from_entries(
            chart,
            {
                (1, 1): one + (xi1 * xi2) * x1,
                (2, 2): one,
                (3, 4): one + (xi1 * xi2) * x1.scale(2),
                (1, 3): x1 * xi1,
            },
        )
        conn = levi_civita(metric)
        assert torsion(conn).is_zero()
        for a in range(4):
            assert nabla_metric(metric, conn, a, metric_derivatives(metric, a)) == {}
            for b in range(4):
                for c in range(4):
                    assert reference_nabla_metric_component(metric, conn, a, b, c).is_zero()

    @pytest.mark.parametrize("n, m", [(1, 1), (0, 2), (2, 1), (1, 2), (2, 2), (0, 3)])
    def test_nabla_metric_is_supersymmetric(self, n, m):
        # (nabla_a g)(b, c) = (-1)^{|b||c|} (nabla_a g)(c, b) for any connection
        # and any even supersymmetric g, so nabla_metric gives b <= c only
        sig = ChartSignature(n, m)
        chart = Chart.tangent(sig)
        t = sig.total
        rng = random.Random(10 * n + m)
        for _ in range(2):
            conn = random_connection(rng, chart)
            g = sfmat_zeros(sig, t, t)
            for b in range(t):
                for c in range(b, t):
                    pb, pc = chart.coord_parity(b), chart.coord_parity(c)
                    if b == c and pb:
                        continue  # g(b, b) = -g(b, b) for odd b
                    g[b][c] = random_superfunction(rng, sig, (pb + pc) % 2)
                    g[c][b] = g[b][c].scale((-1) ** (pb * pc))
            metric = MetricData(chart, g, validate=False)
            for a in range(t):
                for b in range(t):
                    for c in range(b, t):
                        sign = (-1) ** (chart.coord_parity(b) * chart.coord_parity(c))
                        bc = reference_nabla_metric_component(metric, conn, a, b, c)
                        assert bc == reference_nabla_metric_component(metric, conn, a, c, b).scale(sign)
                        if b == c and chart.coord_parity(b):
                            assert bc.is_zero()

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("n, m", [(2, 0), (0, 2), (1, 2), (2, 2), (1, 4)])
    def test_nabla_metric_matches_the_term_by_term_sum(self, n, m, field):
        sig = ChartSignature(n, m, field)
        chart = Chart.tangent(sig)
        t = sig.total
        rng = random.Random("nabla g %d|%d %s" % (n, m, field))
        metric = random_soul_metric(rng, sig)
        # a metric connection, and connections that are not
        conns = [levi_civita(metric), random_connection(rng, chart), random_sparse_connection(rng, chart)]
        nonzero = 0
        for conn in conns:
            for a in range(t):
                got = nabla_metric(metric, conn, a, metric_derivatives(metric, a))
                assert all(b <= c and f for (b, c), f in got.items())
                for b in range(t):
                    for c in range(b, t):
                        want = reference_nabla_metric_component(metric, conn, a, b, c)
                        assert got.get((b, c), Superfunction.zero(sig)) == want, (a, b, c)
                nonzero += len(got)
        assert nonzero

    def test_non_nilpotent_body_rejected(self):
        # the classical surface metric diag(1, (1+x1)^2) has no polynomial
        # inverse; it must be rejected with a diagnostic
        sig = ChartSignature(2, 0)
        chart = Chart.tangent(sig)
        one = Superfunction.constant(sig, 1)
        g22 = parse_superfunction("1 + 2*x1 + x1^2", sig)
        metric = MetricData.from_entries(chart, {(1, 1): one, (2, 2): g22})
        with pytest.raises(MatrixInversionError):
            levi_civita(metric)


class TestValidateMetric:
    def test_standard_valid(self):
        sig = ChartSignature(1, 2)
        chart = Chart.tangent(sig)
        metric = MetricData.from_entries(
            chart,
            {(1, 1): Superfunction.constant(sig, 1), (2, 3): Superfunction.constant(sig, 1)},
        )
        report = validate_metric(metric)
        assert report["valid"]
        assert report["even_signature"] == (1, 0)

    def test_even_odd_body_block_invalid(self):
        sig = ChartSignature(1, 2)
        chart = Chart.tangent(sig)
        g = sfmat_zeros(sig, 3, 3)
        g[0][0] = Superfunction.constant(sig, 1)
        g[1][2] = Superfunction.constant(sig, 1)
        g[2][1] = Superfunction.constant(sig, -1)
        g[0][1] = Superfunction.constant(sig, 1)  # even-odd block, wrong parity
        g[1][0] = Superfunction.constant(sig, 1)
        report = validate_metric(MetricData(chart, g, validate=False))
        assert not report["valid"]

    def test_symmetric_odd_block_invalid(self):
        sig = ChartSignature(0, 2)
        chart = Chart.tangent(sig)
        g = sfmat_zeros(sig, 2, 2)
        g[0][1] = Superfunction.constant(sig, 1)
        g[1][0] = Superfunction.constant(sig, 1)  # symmetric, must be skew
        report = validate_metric(MetricData(chart, g, validate=False))
        assert any("supersymmetry" in f for f in report["failures"])

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(2, 0), (0, 2), (1, 2), (2, 2)], ids=lambda d: "%d|%d" % d)
    def test_supersymmetry_failures_in_pair_order(self, nm, field):
        # a soul metric with some entries negated, copied to the transpose or
        # changed: every ordered pair whose entry is not the signed transpose
        # is listed, in row-major order
        rng = random.Random("supersymmetry %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        chart = Chart.tangent(sig)
        t = sig.total
        for _ in range(4):
            g = [row[:] for row in random_soul_metric(rng, sig).g]
            for _ in range(2):
                a, b = rng.randrange(t), rng.randrange(t)
                g[a][b] = rng.choice([-g[a][b], g[b][a], g[a][b] + Superfunction.constant(sig, 1)])
            want = [
                "supersymmetry fails at (%d,%d)" % (a + 1, b + 1)
                for a, b in itertools.product(range(t), repeat=2)
                if g[a][b] != g[b][a].scale((-1) ** (chart.coord_parity(a) * chart.coord_parity(b)))
            ]
            failures = validate_metric(MetricData(chart, g, validate=False))["failures"]
            assert [f for f in failures if f.startswith("supersymmetry")] == want

    def test_signature_count(self):
        sig = ChartSignature(3, 0)
        chart = Chart.tangent(sig)
        metric = MetricData.from_entries(
            chart,
            {
                (1, 1): Superfunction.constant(sig, 2),
                (2, 2): Superfunction.constant(sig, -3),
                (3, 3): Superfunction.constant(sig, -1),
            },
        )
        assert validate_metric(metric)["even_signature"] == (1, 2)


class TestTensorExtension:
    def test_identity_on_1_1_tensors_is_zero(self):
        dim = SuperDim(1, 1)
        big, _ = tensor_extension(SuperMatrix.identity(dim), 1, 1)
        assert big.is_zero()

    def test_dual_action_pairing_invariance(self):
        # <A* phi, X> + (-1)^{|A||phi|} <phi, A X> = 0
        rng = random.Random(27)
        dim = SuperDim(1, 2)
        from conftest import random_homogeneous_matrix

        for tau in (0, 1):
            a = random_homogeneous_matrix(rng, dim, tau)
            big, space = tensor_extension(a, 0, 1)
            t = dim.total
            for phi in range(t):
                for x in range(t):
                    # a* e^phi = sum_c big[(c,)][(phi,)] e^c
                    lhs = big.entries[space.index[(x,)]][space.index[(phi,)]]
                    rhs = ((-1) ** (tau * dim.parity(phi))) * a.entries[phi][x]
                    assert lhs + rhs == 0

    def test_metric_annihilated_by_its_stabilizer(self):
        dim = SuperDim(1, 2)
        tensor = standard_even_form(1, 2)
        stab = stabilizer_algebra(tensor)
        space = TensorSpace(dim, 0, 2)
        g = tensor.data
        # encode the bilinear form with the Koszul evaluation convention
        vec = [Fraction(0)] * space.dim.total
        for c in range(dim.total):
            for d in range(dim.total):
                if g.entries[c][d]:
                    sign = (-1) ** (dim.parity(c) * dim.parity(d))
                    vec[space.index[(c, d)]] = sign * g.entries[c][d]
        for a in stab.basis():
            big, _ = tensor_extension(a, 0, 2, space)
            image = big.apply(vec)
            assert all(not v for v in image)


class TestTensorExtensionLaws:
    def test_extension_is_a_lie_homomorphism(self):
        rng = random.Random(78)
        from superhol.superlin import superbracket
        from conftest import random_homogeneous_matrix

        dim = SuperDim(1, 1)
        for (r, s) in ((1, 1), (0, 2), (2, 0)):
            space = TensorSpace(dim, r, s)
            for _ in range(25):
                pa, pb = rng.randint(0, 1), rng.randint(0, 1)
                a = random_homogeneous_matrix(rng, dim, pa)
                b = random_homogeneous_matrix(rng, dim, pb)
                br = superbracket(a, b)
                if br.parity is None:
                    continue
                ext_a, _ = tensor_extension(a, r, s, space)
                ext_b, _ = tensor_extension(b, r, s, space)
                ext_br, _ = tensor_extension(br, r, s, space)
                assert (ext_br - superbracket(ext_a, ext_b)).is_zero()
