import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from superhol import cli
from superhol import holonomy as hl
from superhol.superfunc import ChartSignature, Superfunction, parse_superfunction
from superhol.superlin import (
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    generate_subalgebra,
    stabilizer_algebra,
    standard_even_form,
)
from superhol.geometry import (
    Chart,
    ConnectionData,
    DerivativeTable,
    MetricData,
    TensorSpace,
    _next_derivative,
    covariant_derivatives,
    curvature,
    levi_civita,
    pure_gauge_connection,
    sfmat_value,
    sfmat_zeros,
    tensor_extension,
    torsion,
)
from superhol.holonomy import (
    SectionData,
    _float_matrix,
    check_parallel,
    classify_geometry,
    conjugated_generators,
    decomposability_certificate,
    flatness_certificate,
    infinitesimal_holonomy,
    invariant_vectors,
    numeric_parallel_transport,
    reconstruct_parallel_section,
    span_embedding_residual,
    test_invariant_subspace as check_invariant_subspace,
)
from superhol.berger import CurvatureElement, canonical_pairs, curvature_space
from superhol.linalg import span_echelon
from superhol.reportio import encode_algebra
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational

from conftest import random_sparse_connection, random_torsion_free_connection, random_unipotent_gauge


def r01_connection():
    sig = ChartSignature(0, 1)
    chart = Chart.tangent(sig)
    return ConnectionData.from_entries(chart, {(1, 1, 1): Superfunction.odd_var(sig, 1)})


def curved_02_metric(scale=3):
    sig = ChartSignature(0, 2)
    chart = Chart.tangent(sig)
    xi1, xi2 = Superfunction.odd_var(sig, 1), Superfunction.odd_var(sig, 2)
    entry = Superfunction.constant(sig, 1) + (xi1 * xi2).scale(scale)
    return MetricData.from_entries(chart, {(1, 2): entry})


class TestInfinitesimalHolonomy:
    def test_flat(self):
        sig = ChartSignature(1, 1)
        res = infinitesimal_holonomy(ConnectionData.zero(Chart(sig, SuperDim(1, 1))), [0])
        assert res.algebra.total_dim == 0
        assert res.stabilized_at_order == 0
        assert res.status == "stabilized"

    def test_r01_equals_gl01(self):
        res = infinitesimal_holonomy(r01_connection(), [])
        assert res.algebra.graded_dim == (1, 0)
        assert res.stabilized_at_order <= 1
        assert res.algebra.contains_matrix(SuperMatrix.identity(SuperDim(0, 1)))

    def test_generator_log_members(self):
        res = infinitesimal_holonomy(r01_connection(), [])
        assert res.generator_log
        for order, label, mat in res.generator_log:
            assert res.algebra.contains_matrix(mat)

    def test_product_metric_block_sum(self):
        sig = ChartSignature(0, 4)
        chart = Chart.tangent(sig)
        xs = [Superfunction.odd_var(sig, i + 1) for i in range(4)]
        one = Superfunction.constant(sig, 1)
        metric = MetricData.from_entries(
            chart,
            {(1, 2): one + (xs[0] * xs[1]).scale(3), (3, 4): one + (xs[2] * xs[3]).scale(5)},
        )
        hol = infinitesimal_holonomy(levi_civita(metric), [])
        # factor holonomies computed on their own charts
        h1 = infinitesimal_holonomy(levi_civita(curved_02_metric(3)), [])
        h2 = infinitesimal_holonomy(levi_civita(curved_02_metric(5)), [])
        assert hol.algebra.graded_dim == (
            h1.algebra.graded_dim[0] + h2.algebra.graded_dim[0],
            h1.algebra.graded_dim[1] + h2.algebra.graded_dim[1],
        )
        # block embedding: every product generator is block-diagonal
        for m in hol.algebra.basis():
            for a in range(4):
                for b in range(4):
                    if (a < 2) != (b < 2):
                        assert not m.entries[a][b]

    def test_curvature_generators_satisfy_bianchi_in_r_of_hol(self):
        # evaluated curvature of a torsion-free connection lies in the
        # curvature space of its own holonomy algebra
        metric = curved_02_metric()
        conn = levi_civita(metric)
        assert torsion(conn).is_zero()
        hol = infinitesimal_holonomy(conn, [])
        table = curvature(conn)
        dim = hol.algebra.dim
        values = {}
        for (a, b) in canonical_pairs(dim):
            mat = [
                [table.mats[(a, b)][A][B].value([]) for B in range(dim.total)]
                for A in range(dim.total)
            ]
            values[(a, b)] = SuperMatrix(dim, mat, None, hol.algebra.field)
        elem = CurvatureElement(dim, 0, values, hol.algebra.field)
        rspace = curvature_space(hol.algebra)
        span = span_echelon([e.flatten() for e in rspace.basis])
        assert span.contains(elem.flatten())


class TestTransport:
    def rotation_connection(self):
        sig = ChartSignature(2, 0)
        chart = Chart(sig, SuperDim(2, 0))
        gamma = [sfmat_zeros(sig, 2, 2) for _ in range(2)]
        x2 = Superfunction.even_var(sig, 2)
        gamma[0][0][1] = -x2
        gamma[0][1][0] = x2
        return ConnectionData(chart, gamma)

    def test_flat_loop_identity(self):
        sig = ChartSignature(2, 0)
        conn = ConnectionData.zero(Chart(sig, SuperDim(2, 0)))
        op = numeric_parallel_transport(conn, [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], 400)
        assert np.max(np.abs(op.matrix - np.eye(2))) < 1e-12

    def test_square_loop_curvature_expansion(self):
        conn = self.rotation_connection()
        table = curvature(conn)
        x0 = [0.5, 0.5]
        r_body = np.array(
            [[float(table.mats[(0, 1)][a][b].value([Fraction(1, 2), Fraction(1, 2)])) for b in range(2)] for a in range(2)]
        )
        residuals = []
        for eps in (0.1, 0.05, 0.025):
            loop = [
                x0,
                [x0[0] + eps, x0[1]],
                [x0[0] + eps, x0[1] + eps],
                [x0[0], x0[1] + eps],
                x0,
            ]
            op = numeric_parallel_transport(conn, loop, 4000)
            residuals.append(np.max(np.abs(op.matrix - (np.eye(2) - eps ** 2 * r_body))))
        order1 = np.log2(residuals[0] / residuals[1])
        order2 = np.log2(residuals[1] / residuals[2])
        assert order1 >= 2.7 and order2 >= 2.7

    def test_reversal_composes_to_identity(self):
        conn = self.rotation_connection()
        path = [[0.5, 0.5], [1.0, 0.5], [1.0, 1.0]]
        fwd = numeric_parallel_transport(conn, path, 2000).matrix
        bwd = numeric_parallel_transport(conn, list(reversed(path)), 2000).matrix
        assert np.max(np.abs(fwd @ bwd - np.eye(2))) < 1e-9

    def test_conjugated_generators_embed(self):
        conn = self.rotation_connection()
        hol = infinitesimal_holonomy(conn, [Fraction(1, 2), Fraction(1, 2)])
        assert [tab.order for tab in hol.tables] == [0, 1]
        gens = conjugated_generators(
            conn, [0.5, 0.5], [[[0.5, 0.5], [0.9, 0.6], [0.7, 0.9]]], hol.tables, steps=5000
        )
        assert gens
        assert span_embedding_residual(gens, hol.algebra) < 1e-6

    def test_trivial_loop_gives_plain_curvature(self):
        conn = self.rotation_connection()
        hol = infinitesimal_holonomy(conn, [Fraction(1, 2), Fraction(1, 2)])
        gens = conjugated_generators(conn, [0.5, 0.5], [[[0.5, 0.5]]], hol.tables[:1])
        table = curvature(conn)
        want = np.array(
            [[float(table.mats[(0, 1)][a][b].value([Fraction(1, 2), Fraction(1, 2)])) for b in range(2)] for a in range(2)]
        )
        got = min(gens, key=lambda g: np.max(np.abs(g - want)))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_flat_conjugated_all_zero(self):
        sig = ChartSignature(2, 0)
        conn = ConnectionData.zero(Chart(sig, SuperDim(2, 0)))
        gens = conjugated_generators(
            conn, [0.0, 0.0], [[[0.0, 0.0], [1.0, 1.0]]], covariant_derivatives(conn, None, 1)
        )
        assert gens == []


def full_table_generators(conn, point, loops, max_order=1, steps=2000):
    """The transport check's generators as they were before it took the
    holonomy run's tables: full tables of orders <= max_order, built afresh."""
    tables = [DerivativeTable.order_zero(conn)]
    for _ in range(max_order):
        tables.append(_next_derivative(conn, tables[-1]))
    out = []
    for path in loops:
        if list(path) and list(path[0]) != list(point):
            raise ValueError("loops must start at the base point")
        tau = numeric_parallel_transport(conn, path, steps).matrix
        tau_inv = np.linalg.inv(tau)
        end = np.asarray(path[-1], dtype=float) if len(path) else np.asarray(point, float)
        for tab in tables:
            for key in sorted(tab.components):
                g = _float_matrix(tab.components[key], end)
                if np.max(np.abs(g)) > 0:
                    out.append(tau_inv @ g @ tau)
    return out


class TestTransportReusesTheTower:
    """cli.transport_validation on the holonomy run's canonical tables,
    against the full tables it built before.

    The full tables add only ± copies (R_ba = −(−1)^{|a||b|} R_ab) and zero
    components, and negating a matrix leaves its least-squares residual as
    it is, so the residual must come out exactly the same.
    """

    # chart n|m, rank p|q, Christoffel entries; over seeds 0..7 these give
    # zero curvature (1|0, and 2|0 seed 2), all of gl(1|1) at order 0 (2|1
    # seeds 3 and 4), and runs that build order 1
    CASES = [((1, 0), (1, 1), 3), ((2, 0), (2, 0), 3), ((2, 1), (1, 1), 4), ((2, 2), (2, 2), 5)]

    def test_same_residual_as_the_full_tables(self, monkeypatch):
        kept = set()
        for nm, pq, entries in self.CASES:
            chart = Chart(ChartSignature(*nm), SuperDim(*pq))
            point = [Fraction(1, 2)] * nm[0]
            for seed in range(8):
                conn = random_sparse_connection(random.Random(seed), chart, entries)
                hol = infinitesimal_holonomy(conn, point)
                kept.add(len(hol.tables))
                got = cli.transport_validation(conn, point, hol, 200)
                loops = []

                def oracle(conn, point, paths, tables, steps):
                    loops.extend(paths)
                    return full_table_generators(conn, point, paths, steps=steps)

                with monkeypatch.context() as m:
                    m.setattr(hl, "conjugated_generators", oracle)
                    want = cli.transport_validation(conn, point, hol, 200)
                assert repr(got["residual"]) == repr(want["residual"]) and got["ok"] == want["ok"]
                end = loops[0][-1]
                nonzero = sum(
                    bool(np.max(np.abs(_float_matrix(mat, end))) > 0)
                    for tab in _canonical_tower(conn, 1)
                    for mat in tab.components.values()
                )
                assert got["generators"] == nonzero
        # zero curvature, all of gl at order 0, and a run past order 0
        assert kept == {0, 1, 2}


class TestInvariantObjects:
    def test_zero_algebra_full_space(self):
        even, odd = invariant_vectors(SubSuperalgebra.zero(SuperDim(2, 1)))
        assert len(even) == 2 and len(odd) == 1

    def test_gl01_no_invariants(self):
        hol = infinitesimal_holonomy(r01_connection(), [])
        even, odd = invariant_vectors(hol.algebra)
        assert not even and not odd

    def test_metric_tensor_is_invariant_vector_of_stabilizer(self):
        dim = SuperDim(1, 2)
        tensor = standard_even_form(1, 2)
        stab = stabilizer_algebra(tensor)
        space = TensorSpace(dim, 0, 2)
        big_mats = [tensor_extension(a, 0, 2, space)[0] for a in stab.basis()]
        big_alg = SubSuperalgebra.from_matrices(space.dim, big_mats, stab.field)
        even, odd = invariant_vectors(big_alg)
        g = tensor.data
        vec = [Fraction(0)] * space.dim.total
        for c in range(dim.total):
            for d in range(dim.total):
                if g.entries[c][d]:
                    vec[space.index[(c, d)]] = (
                        (-1) ** (dim.parity(c) * dim.parity(d))
                    ) * g.entries[c][d]
        span = span_echelon([{i: v for i, v in enumerate(w) if v} for w in even])
        assert span.contains({i: v for i, v in enumerate(vec) if v})

    def test_invariant_subspace_whole_space(self):
        hol = infinitesimal_holonomy(r01_connection(), [])
        assert check_invariant_subspace(hol.algebra, [[Fraction(1)]])

    def test_random_line_not_invariant_under_gl(self):
        from superhol.superlin import full_gl

        gl = full_gl(SuperDim(2, 0))
        assert not check_invariant_subspace(gl, [[Fraction(1), Fraction(2)]])

    def test_product_block_invariant(self):
        sig = ChartSignature(0, 4)
        chart = Chart.tangent(sig)
        xs = [Superfunction.odd_var(sig, i + 1) for i in range(4)]
        one = Superfunction.constant(sig, 1)
        metric = MetricData.from_entries(
            chart,
            {(1, 2): one + (xs[0] * xs[1]).scale(3), (3, 4): one + (xs[2] * xs[3]).scale(5)},
        )
        hol = infinitesimal_holonomy(levi_civita(metric), [])
        z = Fraction(0)
        block = [[Fraction(1), z, z, z], [z, Fraction(1), z, z]]
        assert check_invariant_subspace(hol.algebra, block)


class TestParallelSections:
    def test_flat_constant_section(self):
        sig = ChartSignature(1, 1)
        conn = ConnectionData.zero(Chart(sig, SuperDim(1, 1)))
        res = reconstruct_parallel_section(conn, [Fraction(0)], [Fraction(2), Fraction(3)])
        assert res.ok
        assert [f.value([Fraction(0)]) for f in res.section.components] == [2, 3]
        assert check_parallel(conn, res.section)

    def test_pure_gauge_reconstruction_and_uniqueness(self):
        rng = random.Random(31)
        sig = ChartSignature(1, 2)
        chart = Chart(sig, SuperDim(1, 1))
        gauge = random_unipotent_gauge(rng, sig, chart.rank)
        conn = pure_gauge_connection(chart, gauge)
        value = [Fraction(1), Fraction(-2)]
        first = reconstruct_parallel_section(conn, [Fraction(0)], value, gauge=gauge)
        second = reconstruct_parallel_section(conn, [Fraction(0)], value, gauge=gauge)
        assert first.ok and check_parallel(conn, first.section)
        assert [f.terms for f in first.section.components] == [
            f.terms for f in second.section.components
        ]
        assert first.section.value([Fraction(0)]) == value

    def test_r01_rejection(self):
        res = reconstruct_parallel_section(r01_connection(), [], [Fraction(1)])
        assert res.status == "rejected"
        assert res.obstruction is not None

    def test_needs_numeric_status(self):
        sig = ChartSignature(1, 0)
        chart = Chart(sig, SuperDim(1, 0))
        gamma = [sfmat_zeros(sig, 1, 1)]
        gamma[0][0][0] = Superfunction.even_var(sig, 1)
        conn = ConnectionData(chart, gamma)
        res = reconstruct_parallel_section(conn, [Fraction(0)], [Fraction(1)])
        assert res.status == "needs_numeric"

    def test_check_parallel_examples(self):
        sig = ChartSignature(1, 1)
        flat = ConnectionData.zero(Chart(sig, SuperDim(1, 1)))
        const = SectionData(
            [Superfunction.constant(sig, 1), Superfunction.constant(sig, 2)]
        )
        assert check_parallel(flat, const)
        sig01 = ChartSignature(0, 1)
        const01 = SectionData([Superfunction.constant(sig01, 1)])
        assert not check_parallel(r01_connection(), const01)


class TestCertificates:
    def test_flat_certificates(self):
        rng = random.Random(32)
        sig = ChartSignature(2, 2)
        chart = Chart(sig, SuperDim(2, 2))
        assert flatness_certificate(ConnectionData.zero(chart))["flat"]
        gauge = random_unipotent_gauge(rng, sig, chart.rank)
        assert flatness_certificate(pure_gauge_connection(chart, gauge))["flat"]

    def test_r01_witness(self):
        cert = flatness_certificate(r01_connection())
        assert not cert["flat"]
        assert cert["witness"] == (1, 1, 1, 1)

    def test_classify_zero_contained_everywhere(self):
        from superhol.cli import default_candidates

        cands = default_candidates(SuperDim(2, 2), "rational")
        report = classify_geometry(SubSuperalgebra.zero(SuperDim(2, 2)), cands)
        assert report and all(entry["contained"] for entry in report)

    def test_classify_stabilizer_contains_itself(self):
        tensor = standard_even_form(0, 2)
        stab = stabilizer_algebra(tensor)
        report = classify_geometry(stab, [{"label": "own metric", "tensor": tensor}])
        assert report[0]["contained"]

    def test_decomposability_product(self):
        sig = ChartSignature(0, 4)
        chart = Chart.tangent(sig)
        xs = [Superfunction.odd_var(sig, i + 1) for i in range(4)]
        one = Superfunction.constant(sig, 1)
        metric = MetricData.from_entries(
            chart,
            {(1, 2): one + (xs[0] * xs[1]).scale(3), (3, 4): one + (xs[2] * xs[3]).scale(5)},
        )
        hol = infinitesimal_holonomy(levi_civita(metric), [])
        body = sfmat_value(metric.g, [])
        res = decomposability_certificate(hol.algebra, body)
        assert res["status"] == "decomposable"
        support = {i for v in res["witness"] for i, x in enumerate(v) if x}
        assert support in ({0, 1}, {2, 3})

    def test_full_stabilizer_weakly_irreducible(self):
        stab = stabilizer_algebra(standard_even_form(0, 4))
        body = standard_even_form(0, 4).data.entries
        res = decomposability_certificate(stab, body)
        assert res["status"] == "weakly_irreducible"

    def test_zero_algebra_decomposable(self):
        body = standard_even_form(2, 2).data.entries
        res = decomposability_certificate(SubSuperalgebra.zero(SuperDim(2, 2)), body)
        assert res["status"] == "decomposable"


class TestCrossModuleInvariants:
    def test_first_derivative_blocks_lie_in_r_of_hol(self):
        # for torsion-free connections the evaluated first derivative of the
        # curvature, at fixed direction, is again an algebraic curvature
        # tensor of the holonomy algebra
        metric = curved_02_metric()
        conn = levi_civita(metric)
        hol = infinitesimal_holonomy(conn, [])
        from superhol.geometry import covariant_derivatives

        tables = covariant_derivatives(conn, None, 1)
        dim = hol.algebra.dim
        rspace = curvature_space(hol.algebra)
        span = span_echelon([e.flatten() for e in rspace.basis])
        t = dim.total
        for c in range(t):
            values = {}
            for (a, b) in canonical_pairs(dim):
                mat = tables[1].components[((c,), a, b)]
                values[(a, b)] = SuperMatrix(
                    dim,
                    [[mat[A][B].value([]) for B in range(t)] for A in range(t)],
                    None,
                    hol.algebra.field,
                )
            elem = CurvatureElement(dim, 1, values, hol.algebra.field)
            if not elem.is_zero():
                assert span.contains(elem.flatten())

    def test_gaussian_field_holonomy_end_to_end(self):
        from superhol.scalars import GaussianRational
        from superhol.superfunc import parse_superfunction

        sig = ChartSignature(2, 0, "gaussian-rational")
        chart = Chart.tangent(sig)
        one = Superfunction.constant(sig, 1)
        x1 = Superfunction.even_var(sig, 1)
        i = GaussianRational(0, 1)
        metric = MetricData.from_entries(
            chart,
            {(1, 1): one + x1, (1, 2): x1.scale(i), (2, 2): one - x1},
        )
        conn = levi_civita(metric)
        hol = infinitesimal_holonomy(conn, [0, 0])
        assert hol.status == "stabilized"
        # metric holonomy sits inside the stabilizer of the body metric
        body = sfmat_value(metric.g, [0, 0])
        from superhol.superlin import StructureTensor, stabilizer_algebra as stab_of

        form = StructureTensor(
            "even_bilinear_form",
            "supersymmetric",
            SuperMatrix(SuperDim(2, 0), body, None, sig.field),
        )
        assert stab_of(form).contains_algebra(hol.algebra)

    def test_covariant_derivatives_refuse_a_reference(self):
        conn = r01_connection()
        with pytest.raises(ValueError):
            covariant_derivatives(conn, conn, 1)


def _closures_by_order(tables, point, rank, field):
    """encode_algebra of the closure of the evaluated orders <= r, for each r."""
    gens, out = [], []
    for tab in tables:
        for key in sorted(tab.components):
            m = SuperMatrix(rank, sfmat_value(tab.components[key], point), None, field)
            if not m.is_zero():
                gens.append(m)
        out.append(encode_algebra(generate_subalgebra(gens, rank, field)))
    return out


def _canonical_tower(conn, order):
    tables = [DerivativeTable.holonomy_seed(conn)]
    for _ in range(order):
        tables.append(_next_derivative(conn, tables[-1]))
    return tables


def _canonical_keys(chart, order):
    """Canonical pairs times multisets of directions, odd ones at most once."""
    t = chart.sig.total
    odd = chart.coord_parity
    pairs = [(a, b) for a in range(t) for b in range(a, t) if a < b or odd(a)]
    tuples = [
        dirs
        for dirs in itertools.combinations_with_replacement(range(t), order)
        if not any(d == e and odd(d) for d, e in zip(dirs, dirs[1:]))
    ]
    return {(dirs, a, b) for dirs in tuples for (a, b) in pairs}


class TestCanonicalTower:
    """The tower infinitesimal_holonomy builds, against the full reference."""

    # field, chart n|m, rank p|q, top order, Christoffel entries, seeds; the
    # seeds give algebras that grow after order 0, need the odd diagonal
    # pairs (R_αα), or need a repeated even direction (rational 2|2, seed 6)
    CASES = [
        (RATIONAL, (1, 2), (1, 1), 3, 4, (9, 31)),
        (GAUSSIAN, (1, 2), (1, 1), 3, 4, (20, 24)),
        (RATIONAL, (2, 2), (2, 2), 2, 5, (6, 8)),
        (GAUSSIAN, (2, 2), (2, 2), 2, 5, (6, 14)),
        (RATIONAL, (0, 3), (2, 1), 3, 4, (1, 7)),
    ]

    @pytest.mark.parametrize("field, nm, pq, order, entries, seeds", CASES)
    def test_same_algebra_as_full_tower_at_every_order(self, field, nm, pq, order, entries, seeds):
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        point = [GaussianRational(Fraction(1, 2), 1) if field == GAUSSIAN else Fraction(1, 2)] * sig.n
        for seed in seeds:
            conn = random_sparse_connection(random.Random(seed), chart, entries)
            canonical = _canonical_tower(conn, order)
            for r, tab in enumerate(canonical):
                assert set(tab.components) == _canonical_keys(chart, r)
            full = covariant_derivatives(conn, None, order)
            assert _closures_by_order(canonical, point, chart.rank, field) == _closures_by_order(
                full, point, chart.rank, field
            )

    def test_sizes_on_2_2(self):
        chart = Chart(ChartSignature(2, 2), SuperDim(2, 2))
        conn = random_sparse_connection(random.Random(6), chart, 5)
        assert len(_canonical_tower(conn, 2)[2].components) == 64
        assert len(covariant_derivatives(conn, None, 2)[2].components) == 4 ** 2 * 4 ** 2

    def test_full_table_extends_to_every_direction(self):
        sig = ChartSignature(1, 2)
        conn = random_torsion_free_connection(random.Random(3), sig)
        assert len(_next_derivative(conn, DerivativeTable.order_zero(conn)).components) == 3 ** 3
