import itertools
import random
from fractions import Fraction

import pytest

from superhol import cli
from superhol import geometry as geo
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational, field_zero
from superhol.superfunc import ChartSignature, Superfunction, parse_superfunction
from superhol.superlin import (
    SuperDim,
    SuperMatrix,
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

    def test_matches_operator_definition(self):
        rng = random.Random(22)
        for _ in range(3):
            sig = ChartSignature(2, 2)
            chart = Chart(sig, SuperDim(2, 2))
            conn = random_connection(rng, chart)
            table = curvature(conn)
            for a in range(4):
                for b in range(4):
                    for col in range(4):
                        want = curvature_operator_oracle(conn, a, b, col)
                        for row in range(4):
                            assert table.mats[(a, b)][row][col] == want[row]


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
            assert all(type(v) is type(field_zero(field)) for row in got for v in row)
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
        assert isinstance(value, Fraction)  # one component: trivially in span{id}


class TestTorsionAndBianchi:
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


class TestSecondBianchiOracle:
    """check_second_bianchi, read off the torsion, against the direct cyclic sum."""

    # field, chart n|m, connection, seed, flag; the sparse ones have one
    # Christoffel entry, and those with flag True have torsion
    CASES = [
        (field, nm, kind, seed, flag)
        for field in (RATIONAL, GAUSSIAN)
        for nm, kind, seed, flag in [
            ((0, 1), "dense", 1, False),
            ((0, 1), "torsion-free", 1, True),
            ((1, 1), "dense", 1, False),
            ((1, 1), "sparse", 0, True),
            ((1, 1), "sparse", 1, False),
            ((1, 1), "torsion-free", 1, True),
            ((1, 2), "sparse", 8, True),
            ((1, 2), "sparse", 0, False),
            ((1, 2), "torsion-free", 1, True),
            ((2, 2), "sparse", 1, True),
            ((2, 2), "sparse", 0, False),
            ((0, 3), "dense", 1, False),
            ((0, 3), "sparse", 0, False),
            ((0, 3), "torsion-free", 1, True),
        ]
    ]

    @pytest.mark.parametrize(
        "field, nm, kind, seed, flag", CASES, ids=["%s-%d|%d-%s-%d" % (c[0], *c[1], *c[2:4]) for c in CASES]
    )
    def test_matches_direct_cyclic_sum(self, field, nm, kind, seed, flag):
        sig = ChartSignature(*nm, field)
        rng = random.Random(seed)
        if kind == "dense":
            conn = random_connection(rng, Chart.tangent(sig))
        elif kind == "sparse":
            conn = random_sparse_connection(rng, Chart.tangent(sig), 1)
        else:
            conn = random_torsion_free_connection(rng, sig)
        assert torsion(conn).is_zero() == (kind == "torsion-free")
        assert second_bianchi_oracle(conn) == flag
        assert check_second_bianchi(conn) == flag


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
        from superhol.geometry import nabla_metric_component

        for a in range(4):
            for b in range(4):
                for c in range(4):
                    assert nabla_metric_component(metric, conn, a, b, c).is_zero()

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
