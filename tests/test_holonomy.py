import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from superhol import cli
from superhol import holonomy as hl
from superhol import reportio as rio
from superhol import superlin
from superhol.superfunc import ChartSignature, Superfunction, parse_superfunction
from superhol.superlin import (
    StructureTensor,
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    annihilator_rows,
    classical_superalgebra,
    generate_subalgebra,
    solve_algebra,
    stabilizer_algebra,
    standard_even_form,
    standard_odd_complex_structure,
    standard_odd_form,
    supertrace,
)
from superhol.geometry import (
    Chart,
    ConnectionData,
    DerivativeTable,
    MetricData,
    _derivative_at,
    _next_derivative,
    covariant_derivatives,
    curvature,
    gamma_at,
    levi_civita,
    pure_gauge_connection,
    torsion,
    values_at,
)
from superhol.holonomy import (
    SectionData,
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
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational, field_zero, parse_scalar, scalar_float

from conftest import (
    cut_by_functionals,
    defined_stabilizer,
    dense_curvature,
    dense_gamma,
    dense_is_zero,
    dense_of,
    dense_value,
    flat_curvature,
    flat_curvature_space,
    random_soul_metric,
    random_sparse_connection,
    random_torsion_free_connection,
    random_unipotent_gauge,
)


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
        assert torsion(conn) == {}
        hol = infinitesimal_holonomy(conn, [])
        table = dense_curvature(conn)
        dim = hol.algebra.dim
        t = dim.total
        entries = {}
        for (a, b) in canonical_pairs(dim):
            for A in range(t):
                for B in range(t):
                    v = table[(a, b)][A][B].value([])
                    if v:
                        entries[((a, b), A * t + B)] = v
        elem = CurvatureElement(dim, 0, entries, hol.algebra.field)
        span = flat_curvature_space(curvature_space(hol.algebra))
        assert span.contains(flat_curvature(elem))


class TestTransport:
    def rotation_connection(self):
        sig = ChartSignature(2, 0)
        chart = Chart(sig, SuperDim(2, 0))
        x2 = Superfunction.even_var(sig, 2)
        return ConnectionData(chart, [{(0, 1): -x2, (1, 0): x2}, {}])

    def test_flat_loop_identity(self):
        sig = ChartSignature(2, 0)
        conn = ConnectionData.zero(Chart(sig, SuperDim(2, 0)))
        tau = numeric_parallel_transport(conn, [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], 400)
        assert np.max(np.abs(tau - np.eye(2))) < 1e-12

    def test_square_loop_curvature_expansion(self):
        conn = self.rotation_connection()
        table = dense_curvature(conn)
        x0 = [0.5, 0.5]
        r_body = np.array(
            [[float(table[(0, 1)][a][b].value([Fraction(1, 2), Fraction(1, 2)])) for b in range(2)] for a in range(2)]
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
            tau = numeric_parallel_transport(conn, loop, 4000)
            residuals.append(np.max(np.abs(tau - (np.eye(2) - eps ** 2 * r_body))))
        order1 = np.log2(residuals[0] / residuals[1])
        order2 = np.log2(residuals[1] / residuals[2])
        assert order1 >= 2.7 and order2 >= 2.7

    @pytest.mark.parametrize("C", [10 ** 3, 10 ** 4])
    def test_large_rotation_matches_the_exact_transport(self, C):
        # Γ_1 = C·J, J = [[0, −1], [1, 0]]: along x1 from 0 to 1/4,
        # dX/dt = −(C/4)·J X, so X(1) is the rotation by −C/4.  At 200 steps
        # h·C/4 lies far outside RK4's stability interval; raised to C steps,
        # h·C/4 = 1/4 and each step's phase error is about (1/4)^5/120 < 1e-5
        sig = ChartSignature(2, 0)
        c = Superfunction.constant(sig, C)
        conn = ConnectionData(Chart(sig, SuperDim(2, 0)), [{(0, 1): -c, (1, 0): c}, {}])
        tau = numeric_parallel_transport(conn, [[0, 0], [0.25, 0]], 200)
        cos, sin = np.cos(-C / 4), np.sin(-C / 4)
        assert np.max(np.abs(tau - np.array([[cos, -sin], [sin, cos]]))) < C * 1e-5

    def test_entry_bound_holds_on_the_segment(self):
        # the bound is read at both ends of each coordinate's range, so it
        # holds where A peaks inside a segment or at its end alone
        rng = np.random.default_rng(5)
        for _ in range(50):
            exps = rng.integers(0, 3, size=(4, 2)).astype(float)
            body = (exps, rng.normal(size=(4, 3, 3)))
            p, q = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)
            t = np.linspace(0, 1, 101)
            values = hl._eval_body(body, p + t[:, None] * (q - p))
            assert np.max(np.abs(values)) <= hl._entry_bound(body, p, q) * (1 + 1e-12)
        # A = x1 from 0 to 1: zero at the start, 1 at the end
        body = (np.array([[1.0, 0.0]]), np.ones((1, 1, 1)))
        assert hl._entry_bound(body, np.array([0.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_reversal_composes_to_identity(self):
        conn = self.rotation_connection()
        path = [[0.5, 0.5], [1.0, 0.5], [1.0, 1.0]]
        fwd = numeric_parallel_transport(conn, path, 2000)
        bwd = numeric_parallel_transport(conn, list(reversed(path)), 2000)
        assert np.max(np.abs(fwd @ bwd - np.eye(2))) < 1e-9

    def test_conjugated_generators_embed(self):
        conn = self.rotation_connection()
        hol = infinitesimal_holonomy(conn, [Fraction(1, 2), Fraction(1, 2)])
        tables = hl.transport_tables(conn, hol)
        assert [tab.order for tab in tables] == [0, 1]
        assert hl.transport_tables(conn, hol) is tables
        gens = conjugated_generators(
            conn, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.6], [0.7, 0.9]], tables, steps=5000
        )
        assert gens
        assert span_embedding_residual(gens, hol.algebra) < 1e-6

    def test_trivial_loop_gives_plain_curvature(self):
        conn = self.rotation_connection()
        hol = infinitesimal_holonomy(conn, [Fraction(1, 2), Fraction(1, 2)])
        gens = conjugated_generators(conn, [0.5, 0.5], [[0.5, 0.5]], hol.tables[:1])
        table = dense_curvature(conn)
        want = np.array(
            [[float(table[(0, 1)][a][b].value([Fraction(1, 2), Fraction(1, 2)])) for b in range(2)] for a in range(2)]
        )
        got = min(gens, key=lambda g: np.max(np.abs(g - want)))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_flat_conjugated_all_zero(self):
        sig = ChartSignature(2, 0)
        conn = ConnectionData.zero(Chart(sig, SuperDim(2, 0)))
        zero = curvature(conn)
        gens = conjugated_generators(
            conn, [0.0, 0.0], [[0.0, 0.0], [1.0, 1.0]], [zero, _next_derivative(conn, zero)]
        )
        assert gens == []


def _float_matrix(flat, rk, point):
    """Body of a flat {(A, B): f} component at a float point, as a float
    matrix, from the compiled body that the transport check evaluates."""
    point = np.asarray(point, dtype=float)
    entries = [(A, B, f) for (A, B), f in flat.items()]
    return hl._eval_body(hl._compile_body(entries, (rk, rk), len(point)), point[None, :])[0]


def full_table_generators(conn, point, loops, max_order=1, steps=2000):
    """The transport check's generators as they were before it took the
    holonomy run's tables: full tables of orders <= max_order, built afresh."""
    tables = [curvature(conn)]
    for _ in range(max_order):
        tables.append(_next_derivative(conn, tables[-1]))
    out = []
    for path in loops:
        if list(path) and list(path[0]) != list(point):
            raise ValueError("loops must start at the base point")
        tau = numeric_parallel_transport(conn, path, steps)
        tau_inv = np.linalg.inv(tau)
        end = np.asarray(path[-1], dtype=float) if len(path) else np.asarray(point, float)
        for tab in tables:
            for key in sorted(tab.components):
                g = _float_matrix(tab.components[key], conn.chart.rank.total, end)
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

                def oracle(conn, point, path, tables, steps):
                    loops.append(path)
                    return full_table_generators(conn, point, [path], steps=steps)

                with monkeypatch.context() as m:
                    m.setattr(hl, "conjugated_generators", oracle)
                    want = cli.transport_validation(conn, point, hol, 200)
                assert repr(got["residual"]) == repr(want["residual"]) and got["ok"] == want["ok"]
                end = loops[0][-1]
                nonzero = sum(
                    bool(np.max(np.abs(_float_matrix(mat, chart.rank.total, end))) > 0)
                    for tab in _canonical_tower(conn, 1)
                    for mat in tab.components.values()
                )
                assert got["generators"] == nonzero
        # zero curvature, runs that keep only order 0, and a run past order 1
        assert kept == {0, 1, 2}


def reference_float_matrix(mat_sf, point):
    """Body of a superfunction matrix at a float point, entry by entry: the
    dict-walk evaluator that `_float_matrix` compiles."""
    rk = len(mat_sf)
    out = np.zeros((rk, rk))
    for A in range(rk):
        for B in range(rk):
            body = mat_sf[A][B].terms.get(0)
            if not body:
                continue
            acc = 0.0
            for exps, coef in body.items():
                term = scalar_float(coef)
                for x, e in zip(point, exps):
                    term *= x ** e
                acc += term
            out[A, B] = acc
    return out


def reference_transport(conn, path, steps):
    """RK4 that walks the Christoffel dicts for A(t) four times per step and
    advances X step by step: the transport the compiled one replaced."""
    chart = conn.chart
    rk = chart.rank.total
    pts = [np.asarray(p, dtype=float) for p in path]
    if len(pts) < 2:
        return np.eye(rk)
    lengths = [np.linalg.norm(q - p) for p, q in zip(pts, pts[1:])]
    total = sum(lengths) or 1.0
    u = np.eye(rk)
    gamma = dense_gamma(conn)
    for p, q, ell in zip(pts, pts[1:], lengths):
        nseg = max(1, int(round(steps * ell / total)))
        vel = q - p
        h = 1.0 / nseg

        def a_mat(t):
            x = p + t * vel
            m = np.zeros((rk, rk))
            for i in range(chart.sig.n):
                if vel[i]:
                    m += vel[i] * reference_float_matrix(gamma[i], x)
            return -m

        for k in range(nseg):
            t0 = k * h
            k1 = a_mat(t0) @ u
            k2 = a_mat(t0 + h / 2) @ (u + h / 2 * k1)
            k3 = a_mat(t0 + h / 2) @ (u + h / 2 * k2)
            k4 = a_mat(t0 + h) @ (u + h * k3)
            u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def real_gaussian_copy(conn):
    """The same connection over the Gaussian field, every coefficient real."""
    sig = conn.chart.sig
    gsig = ChartSignature(sig.n, sig.m, GAUSSIAN)

    def copy(f):
        return Superfunction(gsig, {mask: {e: GaussianRational(c) for e, c in poly.items()} for mask, poly in f.terms.items()})

    gamma = [{key: copy(f) for key, f in g.items()} for g in conn.gamma]
    return ConnectionData(Chart(gsig, conn.chart.rank), gamma)


class TestCompiledTransport:
    """numeric_parallel_transport and _float_matrix against the per-step,
    dict-walk RK4 they replaced, on seeded sparse connections."""

    # chart n|m, rank p|q (both parities), a polyline moving along several
    # directions at once and one at a time, and a single segment
    CASES = [
        ((1, 1), (1, 1), [[[0.1], [0.8], [0.3]], [[0.2], [0.9]]]),
        ((2, 0), (2, 1), [[[0.1, 0.2], [0.7, 0.2], [0.3, 0.9], [0.1, 0.2]], [[0.0, 0.0], [0.6, -0.4]]]),
        ((3, 1), (1, 2), [[[0.0, 0.0, 0.0], [0.5, 0.3, 0.0], [0.5, 0.3, 0.6], [0.1, -0.2, 0.4]], [[0.1, 0.1, 0.1], [0.4, 0.7, -0.2]]]),
    ]
    # step counts that are not multiples of the chunk, one below and one above it
    STEPS = (hl.TRANSPORT_CHUNK // 3 + 1, 2 * hl.TRANSPORT_CHUNK + 45)

    def connections(self, nm, pq):
        chart = Chart(ChartSignature(*nm), SuperDim(*pq))
        # seeds whose transports all move the frame (checked below)
        for seed in (1, 2):
            conn = random_sparse_connection(random.Random(seed), chart, 3 * nm[0] + 3, maxdeg=2)
            yield conn
            yield real_gaussian_copy(conn)

    def test_matches_per_step_rk4(self):
        for nm, pq, paths in self.CASES:
            for conn in self.connections(nm, pq):
                for path in paths:
                    for steps in self.STEPS:
                        tau = numeric_parallel_transport(conn, path, steps)
                        want = reference_transport(conn, path, steps)
                        assert np.max(np.abs(want - np.eye(len(want)))) > 1e-3
                        assert np.max(np.abs(tau - want)) <= 1e-12 * (1 + np.max(np.abs(want)))
                        # the even block structure survives the propagators exactly
                        p = pq[0]
                        assert not tau[:p, p:].any() and not tau[p:, :p].any()
                    x = np.asarray(path[-1], dtype=float)
                    for flat, mat in zip(conn.gamma, dense_gamma(conn)):
                        got = _float_matrix(flat, len(mat), x)
                        assert np.max(np.abs(got - reference_float_matrix(mat, x))) <= 1e-12 * (1 + np.max(np.abs(got)))

    def test_memory_is_bounded_in_steps(self):
        nm, pq, paths = self.CASES[2]
        conn = next(self.connections(nm, pq))
        peaks = []
        tracemalloc.start()
        try:
            for steps in (2000, 20000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                numeric_parallel_transport(conn, paths[0], steps)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_importing_the_front_end_loads_no_numpy(self):
        import superhol

        src = os.path.dirname(os.path.dirname(os.path.abspath(superhol.__file__)))
        code = "import sys; sys.path.insert(0, %r); import superhol.cli, superhol.reportio; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code % src], capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_a_rational_split_loads_no_numpy(self):
        import superhol

        src = os.path.dirname(os.path.dirname(os.path.abspath(superhol.__file__)))
        doc = {"kind": "metric", "chart": {"n": 0, "m": 4}, "g": {"1,2": "1 + 3*xi1*xi2", "3,4": "1 + 5*xi3*xi4"}}
        code = (
            "import sys; sys.path.insert(0, %r); from superhol import cli; "
            "rep, ok = cli.run_problem(%r); "
            "print(ok, rep['result']['decomposable']['status'], 'numpy' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code % (src, doc)], capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.split() == ["True", "decomposable", "False"]


class TensorSpace:
    """V^{tensor r} tensor (V*)^{tensor s} with an even-first basis order."""

    def __init__(self, dim: SuperDim, r: int, s: int):
        self.base = dim
        self.r = r
        self.s = s
        tuples = [()]
        for _ in range(r + s):
            tuples = [t + (i,) for t in tuples for i in range(dim.total)]
        even = [t for t in tuples if self._tuple_parity(t) == 0]
        odd = [t for t in tuples if self._tuple_parity(t) == 1]
        self.tuples = even + odd
        self.index = {t: i for i, t in enumerate(self.tuples)}
        self.dim = SuperDim(len(even), len(odd))

    def _tuple_parity(self, t) -> int:
        return sum(self.base.parity(i) for i in t) % 2


def tensor_extension(a_mat: SuperMatrix, r: int, s: int, space: TensorSpace):
    """Derivation action of a homogeneous matrix on (r,s) tensors, an
    independent reference for the stabilizer rows of `superlin`.

    The dual slots act by phi -> -(-1)^{|A||phi|} phi . A.  Returns the matrix
    together with the TensorSpace carrying the basis order.
    """
    dim = a_mat.dim
    tau = a_mat.parity
    flat = {}
    t = space.dim.total
    z = field_zero(a_mat.field)
    for col_tuple in space.tuples:
        col = space.index[col_tuple]
        for slot in range(r + s):
            passed = sum(dim.parity(i) for i in col_tuple[:slot]) % 2
            sign = (-1) ** (tau * passed)
            old = col_tuple[slot]
            for new in range(dim.total):
                if slot < r:
                    coef = a_mat.entries[new][old]
                else:
                    coef = a_mat.entries[old][new]
                    if coef:
                        coef = -((-1) ** (tau * dim.parity(old))) * coef
                if not coef:
                    continue
                row_tuple = col_tuple[:slot] + (new,) + col_tuple[slot + 1 :]
                pos = space.index[row_tuple] * t + col
                flat[pos] = flat.get(pos, z) + sign * coef
    return SuperMatrix.from_flat(space.dim, flat, a_mat.field), space


def stepwise_product(s):
    """The per-step fold that `_ordered_product` replaced: X = S_k X for each
    propagator S_k of the batch, in step order."""
    u = np.eye(s.shape[-1])
    for m in s:
        u = m @ u
    return u


class TestPairwiseProduct:
    """`_ordered_product` and the transport built on it, against the
    per-step fold, for batch and step counts around TRANSPORT_CHUNK."""

    COUNTS = (1, 2, 3, 255, 256, 257, 600)

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_the_stepwise_fold(self):
        rng = np.random.default_rng(32)
        for count in self.COUNTS:
            # steps I + h A_k whose A_k do not commute, as RK4 propagators are
            s = np.eye(3) + rng.normal(size=(count, 3, 3)) / count
            want = stepwise_product(s)
            assert np.max(np.abs(want - np.eye(3))) > 1e-3
            self.assert_close(hl._ordered_product(s), want)

    def test_transport_matches_the_stepwise_fold(self, monkeypatch):
        # at exactly the given step counts: the counts a stable RK4 would
        # raise them to are `test_a_raised_count_is_stepped_as_given`'s
        monkeypatch.setattr(hl, "TRANSPORT_STEP_MARGIN", math.inf)
        chart = Chart(ChartSignature(2, 1), SuperDim(2, 1))
        conn = random_sparse_connection(random.Random(3), chart, 9, maxdeg=2)
        pairwise = hl._ordered_product
        for path in ([[0.1, 0.2], [0.7, 0.5]], [[0.1, 0.2], [0.7, 0.2], [0.7, 0.9]]):
            for steps in self.COUNTS:
                batches = []
                monkeypatch.setattr(hl, "_ordered_product", lambda s: batches.append(len(s)) or pairwise(s))
                got = numeric_parallel_transport(conn, path, steps)
                monkeypatch.setattr(hl, "_ordered_product", stepwise_product)
                want = numeric_parallel_transport(conn, path, steps)
                assert np.max(np.abs(want - np.eye(3))) > 1e-3
                self.assert_close(got, want)
                # every step is in one batch, and no batch is above the chunk
                assert max(batches) <= hl.TRANSPORT_CHUNK
                if len(path) == 2:
                    assert sum(batches) == steps
                    assert max(batches) == min(steps, hl.TRANSPORT_CHUNK)

    def test_a_raised_count_is_stepped_as_given(self, monkeypatch):
        # a segment whose share of the steps puts h·rank·bound above the
        # margin is stepped as if it had been given the raised count
        chart = Chart(ChartSignature(2, 1), SuperDim(2, 1))
        conn = random_sparse_connection(random.Random(3), chart, 9, maxdeg=2)
        path = [[0.1, 0.2], [0.7, 0.5]]
        pairwise = hl._ordered_product
        batches = []
        monkeypatch.setattr(hl, "_ordered_product", lambda s: batches.append(len(s)) or pairwise(s))
        raised = []
        for steps in (1, 2, 3):
            batches.clear()
            got = numeric_parallel_transport(conn, path, steps)
            raised.append(sum(batches))
        assert raised[0] > 3 and raised == [raised[0]] * 3
        monkeypatch.setattr(hl, "TRANSPORT_STEP_MARGIN", math.inf)
        assert np.array_equal(got, numeric_parallel_transport(conn, path, raised[0]))


class TransportOperator:
    """The object `numeric_parallel_transport` returned before it returned
    the matrix itself; it checked the even block structure of the rank."""

    def __init__(self, matrix, path, steps, rank: SuperDim):
        self.matrix = matrix
        self.path = path
        self.steps = steps
        self.rank = rank
        p = rank.p
        if p and rank.q:
            if np.max(np.abs(matrix[:p, p:])) > 0 or np.max(np.abs(matrix[p:, :p])) > 0:
                raise AssertionError("transport lost the even block structure")


def operator_transport(conn, path, steps):
    """`numeric_parallel_transport` as it was with `TransportOperator`: an
    early return for a path of fewer than two points, and a segment that
    moves one direction scales that direction's body instead of
    concatenating the bodies of every moved direction."""
    chart = conn.chart
    n = chart.sig.n
    rk = chart.rank.total
    pts = [np.asarray(p, dtype=float) for p in path]
    if len(pts) < 2:
        return TransportOperator(np.eye(rk), path, steps, chart.rank)
    lengths = [np.linalg.norm(q - p) for p, q in zip(pts, pts[1:])]
    total = sum(lengths) or 1.0
    eye = np.eye(rk)
    u = eye
    bodies = {}
    for p, q, ell in zip(pts, pts[1:], lengths):
        nseg = max(1, int(round(steps * ell / total)))
        vel = q - p
        h = 1.0 / nseg
        moved = [i for i in range(n) if vel[i]]
        if not moved:
            continue
        for i in moved:
            if i not in bodies:
                entries = [(A, B, g) for (A, B), g in conn.gamma[i].items()]
                bodies[i] = hl._compile_body(entries, (rk, rk), n)
        if len(moved) == 1:
            body = (bodies[moved[0]][0], -vel[moved[0]] * bodies[moved[0]][1])
        else:
            body = (
                np.concatenate([bodies[i][0] for i in moved]),
                np.concatenate([-vel[i] * bodies[i][1] for i in moved]),
            )
        for start in range(0, nseg, hl.TRANSPORT_CHUNK):
            stop = min(nseg, start + hl.TRANSPORT_CHUNK)
            t = np.arange(2 * start, 2 * stop + 1) * (h / 2)
            a = hl._eval_body(body, p + t[:, None] * vel)
            a0, am, a1 = a[0:-1:2], a[1::2], a[2::2]
            k2 = am + h / 2 * (am @ a0)
            k3 = am + h / 2 * (am @ k2)
            k4 = a1 + h * (a1 @ k3)
            u = hl._ordered_product(eye + h / 6 * (a0 + 2 * k2 + 2 * k3 + k4)) @ u
    return TransportOperator(u, path, steps, chart.rank)


class TestTransportMatrix:
    """numeric_parallel_transport, which returns the bare matrix and builds
    every segment's A(t) by concatenation, against `operator_transport`:
    the floats must be bitwise the same."""

    # chart n|m, rank p|q; paths that move one direction per segment, that
    # move several, a one-point path and an empty path
    CASES = [
        ((2, 1), (2, 1), [[[0.1, 0.2], [0.7, 0.2], [0.7, 0.9]], [[0.1, 0.2], [0.7, 0.5], [0.3, 0.9]], [[0.4, 0.4]], []]),
        ((3, 1), (1, 2), [[[0.0, 0.1, 0.2], [0.0, 0.6, 0.2], [0.5, 0.6, 0.2]], [[0.0, 0.1, 0.2], [0.5, 0.3, 0.6]], [[0.3, 0.3, 0.3]], []]),
    ]

    def test_bitwise_equal_to_the_operator(self, monkeypatch):
        # at exactly the given step counts, which `operator_transport` takes
        monkeypatch.setattr(hl, "TRANSPORT_STEP_MARGIN", math.inf)
        moved = 0
        for nm, pq, paths in self.CASES:
            chart = Chart(ChartSignature(*nm), SuperDim(*pq))
            for seed in (1, 2, 3):
                conn = random_sparse_connection(random.Random(seed), chart, 3 * nm[0] + 3, maxdeg=2)
                for path in paths:
                    for steps in TestPairwiseProduct.COUNTS:
                        got = numeric_parallel_transport(conn, path, steps)
                        want = operator_transport(conn, path, steps).matrix
                        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
                        moved += bool(np.max(np.abs(got - np.eye(len(got)))) > 1e-3)
                        if len(path) < 2:
                            assert np.array_equal(got, np.eye(pq[0] + pq[1]))
        assert moved > 0

    def test_an_off_block_entry_raises(self, monkeypatch):
        chart = Chart(ChartSignature(2, 1), SuperDim(2, 1))
        conn = random_sparse_connection(random.Random(3), chart, 9, maxdeg=2)
        pairwise = hl._ordered_product
        leak = np.zeros((3, 3))
        leak[0, 2] = 1e-3  # even row, odd column
        monkeypatch.setattr(hl, "_ordered_product", lambda s: pairwise(s) + leak)
        with pytest.raises(AssertionError, match="transport lost the even block structure"):
            numeric_parallel_transport(conn, [[0.1, 0.2], [0.7, 0.5]], 100)


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
        gl = classical_superalgebra("gl", (2, 0))
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

    def test_a_value_of_the_wrong_length_is_refused(self):
        # the pure-gauge 1|1 connection of the selftest: a value of three
        # entries was read as its first two, and one of one entry raised
        # IndexError
        sig = ChartSignature(1, 1)
        one = Superfunction.constant(sig, 1)
        gauge = {(0, 0): one, (1, 0): parse_superfunction("xi1", sig), (1, 1): one}
        conn = pure_gauge_connection(Chart(sig, SuperDim(1, 1)), gauge)
        for value in ([1, 2, 3], [1], []):
            for g in (gauge, None):
                with pytest.raises(ValueError, match="value must have 2 entries"):
                    reconstruct_parallel_section(conn, [0], value, gauge=g)
        res = reconstruct_parallel_section(conn, [0], [1, 2], gauge=gauge)
        assert res.ok and res.section.value([0]) == [1, 2]

    def test_r01_rejection(self):
        res = reconstruct_parallel_section(r01_connection(), [], [Fraction(1)])
        assert res.status == "rejected"
        assert res.obstruction is not None

    def test_needs_numeric_status(self):
        sig = ChartSignature(1, 0)
        chart = Chart(sig, SuperDim(1, 0))
        conn = ConnectionData(chart, [{(0, 0): Superfunction.even_var(sig, 1)}])
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
        report = classify_geometry(stab, [{"label": "own metric", "rows": annihilator_rows(tensor)}])
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
        res = decomposability_certificate(hol.algebra, metric.body([]))
        assert res["status"] == "decomposable"
        support = {i for v in res["witness"] for i, x in enumerate(v) if x}
        assert support in ({0, 1}, {2, 3})

    def test_full_stabilizer_weakly_irreducible(self):
        stab = stabilizer_algebra(standard_even_form(0, 4))
        body = standard_even_form(0, 4).data
        res = decomposability_certificate(stab, body)
        assert res["status"] == "weakly_irreducible"

    def test_zero_algebra_decomposable(self):
        body = standard_even_form(2, 2).data
        res = decomposability_certificate(SubSuperalgebra.zero(SuperDim(2, 2)), body)
        assert res["status"] == "decomposable"

    @pytest.mark.parametrize(
        "n, m, g, status",
        [
            (1, 0, {"1,1": "1"}, "weakly_irreducible"),
            (0, 2, {"1,2": "1"}, "weakly_irreducible"),
            # a hyperbolic plane: no coordinate line is nondegenerate, but
            # e1 + e2 and e1 - e2 are
            (2, 0, {"1,2": "1"}, "decomposable"),
        ],
        ids=str,
    )
    def test_flat_metric_certificates(self, n, m, g, status):
        rep, ok = cli.run_problem({"kind": "metric", "chart": {"n": n, "m": m}, "g": g})
        assert ok and rep["result"]["holonomy_dim"] == [0, 0]
        dec = rep["result"]["decomposable"]
        assert dec["status"] == status
        if status == "decomposable":
            metric = rio.decode_metric({"chart": {"n": n, "m": m}, "g": g})
            assert_wu_split(SubSuperalgebra.zero(SuperDim(n, m)), dec, metric.body([0] * n), RATIONAL)

    def test_gaussian_product_metric_is_decomposable(self):
        doc = {
            "kind": "metric",
            "chart": {"n": 0, "m": 4, "field": "gaussian-rational"},
            "g": {"1,2": "1 + 3*i*xi1*xi2", "3,4": "1 + (2 - i)*xi3*xi4"},
        }
        rep, ok = cli.run_problem(doc)
        res = rep["result"]
        assert ok and res["holonomy_dim"] == [6, 0]
        metric = rio.decode_metric(doc)
        algebra = infinitesimal_holonomy(levi_civita(metric), []).algebra
        assert_wu_split(algebra, res["decomposable"], metric.body([]), GAUSSIAN)

    def test_wide_body_entries_split_exactly(self):
        # the entries 2^1000 and 2^-1000 have no float eigenvalues
        big = str(2**1000)
        rep, ok = cli.run_problem({"kind": "metric", "chart": {"n": 2, "m": 0}, "g": {"1,1": big, "2,2": "1/" + big}})
        assert ok and "internal_error" not in rep
        dec = rep["result"]["decomposable"]
        assert dec == {"status": "decomposable", "witness": [["1", "0"]], "complement": [["0", "1"]]}

    def test_wide_gaussian_body_entries_split_exactly(self):
        # over the Gaussian rationals the real candidates are exact too, and
        # entries out of float range name no non-real candidate
        big = str(2**1000)
        doc = {"kind": "metric", "chart": {"n": 2, "m": 0, "field": GAUSSIAN}, "g": {"1,1": big, "2,2": "1/" + big}}
        rep, ok = cli.run_problem(doc)
        assert ok and "internal_error" not in rep
        dec = rep["result"]["decomposable"]
        assert dec == {"status": "decomposable", "witness": [["1", "0"]], "complement": [["0", "1"]]}

    def test_inconclusive_names_its_reason(self, monkeypatch):
        monkeypatch.setattr(superlin, "SPLIT_DRAWS", 0)
        rep, ok = cli.run_problem({"kind": "metric", "chart": {"n": 2, "m": 0}, "g": {"1,2": "1"}})
        dec = rep["result"]["decomposable"]
        assert ok and dec["status"] == "inconclusive" and "dim A/rad A = 4" in dec["reason"]


def assert_wu_split(algebra, dec, body, field):
    """The reported witness and complement are invariant, orthogonal for the
    body G (a `SuperMatrix`) and span V together."""
    body = body.entries
    assert dec["status"] == "decomposable"
    witness, complement = (
        [[parse_scalar(x, field) for x in vec] for vec in dec[key]] for key in ("witness", "complement")
    )
    t = algebra.dim.total
    assert witness and complement
    assert check_invariant_subspace(algebra, witness) and check_invariant_subspace(algebra, complement)
    for w in witness:
        for c in complement:
            assert not sum(w[a] * body[a][b] * c[b] for a in range(t) for b in range(t))
    assert span_echelon([dict(enumerate(v)) for v in witness + complement]).rank == t == len(witness + complement)


class TestSelfAdjointCommutant:
    @staticmethod
    def metrics(field):
        """Seeded soul metrics at the origin and at a nonzero point, and
        products of two 0|2 soul metrics, whose holonomy splits."""
        rng = random.Random("self-adjoint commutant %s" % field)
        for nm in [(1, 0), (2, 0), (0, 2), (1, 2), (2, 2), (0, 4)]:
            sig = ChartSignature(*nm, field)
            for point in ([0] * sig.n, [Fraction(2, 5)] * sig.n):
                yield random_soul_metric(rng, sig), point
        sig = ChartSignature(0, 4, field)
        xs = [Superfunction.odd_var(sig, i + 1) for i in range(4)]
        one = Superfunction.constant(sig, 1)
        unit = GaussianRational(2, -1) if field == GAUSSIAN else 1
        for c, d in ((3, 5), (-1, 7)):
            entries = {(1, 2): one + (xs[0] * xs[1]).scale(c * unit), (3, 4): one + (xs[2] * xs[3]).scale(d)}
            yield MetricData.from_entries(Chart.tangent(sig), entries), []

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_the_identity_lies_in_its_span(self, field, monkeypatch):
        # so the closure of S alone is the unital algebra that S and 1 generate
        closed = []
        closure = hl.associative_closure
        monkeypatch.setattr(hl, "associative_closure", lambda mats, dim: closed.append(mats) or closure(mats, dim))
        seen = set()
        for metric, point in self.metrics(field):
            hol = infinitesimal_holonomy(levi_civita(metric), point)
            decomposability_certificate(hol.algebra, metric.body(point))
            (sym,) = closed
            closed.clear()
            dim = hol.algebra.dim
            identity = SuperMatrix.identity(dim, field)
            assert span_echelon(m.flatten() for m in sym).contains(identity.flatten())
            assert closure(sym, dim).basis() == closure(sym + [identity], dim).basis()
            seen.add((hol.algebra.total_dim > 0, len(sym) > 1))
        # zero and nonzero holonomy, with a commutant of one dimension and of more
        assert seen >= {(False, True), (True, False), (True, True)}


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
        span = flat_curvature_space(curvature_space(hol.algebra))
        t = dim.total
        for c in range(t):
            entries = {}
            for (a, b) in canonical_pairs(dim):
                mat = tables[1].components[((c,), a, b)]
                for A in range(t):
                    for B in range(t):
                        v = mat[A][B].value([])
                        if v:
                            entries[((a, b), A * t + B)] = v
            elem = CurvatureElement(dim, 1, entries, hol.algebra.field)
            if not elem.is_zero():
                assert span.contains(flat_curvature(elem))

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
        from superhol.superlin import StructureTensor, stabilizer_algebra as stab_of

        form = StructureTensor("even_bilinear_form", "supersymmetric", metric.body([0, 0]))
        assert stab_of(form).contains_algebra(hol.algebra)

    def test_covariant_derivatives_refuse_a_reference(self):
        conn = r01_connection()
        with pytest.raises(ValueError):
            covariant_derivatives(conn, conn, 1)


def _dense(tab):
    """The components of a table as dense rows: a sparse table's flat ones
    filled out, those of `covariant_derivatives` as they are."""
    if tab.parities is None:
        return tab.components
    sig, rk = tab.chart.sig, tab.chart.rank.total
    return {key: dense_of(sig, rk, flat) for key, flat in tab.components.items()}


def _closures_by_order(tables, point, rank, field):
    """encode_algebra of the closure of the evaluated orders <= r, for each r."""
    gens, out = [], []
    for tab in tables:
        comps = _dense(tab)
        for key in sorted(comps):
            m = SuperMatrix(rank, dense_value(comps[key], point), field)
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
            full = covariant_derivatives(conn, None, order)
            for r, tab in enumerate(canonical):
                # the canonical keys, less those whose full component is zero
                nonzero = {key for key in _canonical_keys(chart, r) if not dense_is_zero(full[r].components[key])}
                assert set(tab.components) == nonzero
            assert _closures_by_order(canonical, point, chart.rank, field) == _closures_by_order(
                full, point, chart.rank, field
            )

    def test_sizes_on_2_2(self):
        chart = Chart(ChartSignature(2, 2), SuperDim(2, 2))
        conn = random_sparse_connection(random.Random(6), chart, 5)
        full = covariant_derivatives(conn, None, 2)[2].components
        assert len(_canonical_keys(chart, 2)) == 64
        assert len(_canonical_tower(conn, 2)[2].components) == sum(
            not dense_is_zero(full[key]) for key in _canonical_keys(chart, 2)
        )
        assert len(full) == 4 ** 2 * 4 ** 2

    def test_full_table_extends_to_every_direction(self):
        sig = ChartSignature(1, 2)
        conn = random_torsion_free_connection(random.Random(3), sig)
        full = covariant_derivatives(conn, None, 1)[1].components
        assert len(full) == 3 ** 3
        got = _next_derivative(conn, curvature(conn)).components
        assert set(got) == {key for key, mat in full.items() if not dense_is_zero(mat)}


def scratch_holonomy(conn, log):
    """The holonomy loop before the closure grew across orders: each order
    closes every generator of the log up to it from scratch.  Returns the
    algebra, the stop order, the status and the closure of each order but
    the plateau order, whose generators all lie in the algebra already."""
    rk, field = conn.chart.rank, conn.chart.sig.field
    if not curvature(conn).components:
        return SubSuperalgebra.zero(rk, field), 0, "stabilized", []
    full_dims = (rk.p ** 2 + rk.q ** 2, 2 * rk.p * rk.q)
    gens = [m for order, _, m in log if order == 0]
    algebra = generate_subalgebra(gens, rk, field)
    closures = [algebra]
    if algebra.graded_dim == full_dims:
        return algebra, 1, "stabilized", closures
    for order in range(1, hl.default_order_cap(conn.chart) + 1):
        gens += [m for r, _, m in log if r == order]
        bigger = generate_subalgebra(gens, rk, field)
        if bigger.total_dim == algebra.total_dim:
            return algebra, order, "stabilized", closures
        closures.append(bigger)
        algebra = bigger
        if algebra.graded_dim == full_dims:
            return algebra, order + 1, "stabilized", closures
    return algebra, None, "capped", closures


class TestClosureGrowsAcrossOrders:
    """Each order's closure, grown from the order before, is the closure from
    scratch of the generator log up to that order; the plateau order, whose
    generators the algebra already holds, closes nothing."""

    # field, chart n|m, rank p|q, Christoffel entries
    CASES = [
        (RATIONAL, (1, 2), (1, 1), 4),
        (GAUSSIAN, (1, 2), (1, 1), 4),
        (RATIONAL, (2, 2), (2, 2), 5),
        (GAUSSIAN, (2, 2), (2, 2), 5),
        (RATIONAL, (0, 3), (2, 1), 4),
    ]

    @pytest.mark.parametrize("field, nm, pq, entries", CASES)
    def test_each_order_is_the_closure_from_scratch(self, monkeypatch, field, nm, pq, entries):
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        point = [GaussianRational(Fraction(1, 2), 1) if field == GAUSSIAN else Fraction(1, 2)] * sig.n
        grown = []
        original = hl.generate_subalgebra

        def recorded(*args):
            alg = original(*args)
            grown.append(encode_algebra(alg))
            return alg

        monkeypatch.setattr(hl, "generate_subalgebra", recorded)
        grew = 0
        for seed in range(10):
            grown.clear()
            conn = random_sparse_connection(random.Random(seed), chart, entries)
            hol = infinitesimal_holonomy(conn, point)
            algebra, order, status, closures = scratch_holonomy(conn, hol.generator_log)
            assert grown == [encode_algebra(c) for c in closures]
            assert (encode_algebra(hol.algebra), hol.stabilized_at_order, hol.status) == (
                encode_algebra(algebra),
                order,
                status,
            )
            grew += len({c.total_dim for c in closures}) > 1
        # runs whose algebra grows after order 0
        assert grew


def dense_generator_log(conn, point, cap=None):
    """The generator log of `infinitesimal_holonomy`, each canonical component
    evaluated whole, entry by entry, and kept when the matrix is nonzero,
    under the same stopping rule."""
    chart = conn.chart
    rk, field = chart.rank, chart.sig.field
    if not curvature(conn).components:
        return []
    if cap is None:
        cap = hl.default_order_cap(chart)
    full_dims = (rk.p ** 2 + rk.q ** 2, 2 * rk.p * rk.q)
    log, algebra = [], None
    table = DerivativeTable.holonomy_seed(conn)
    for order in range(cap + 1):
        if order:
            table = _next_derivative(conn, table)
        gens = []
        comps = _dense(table)
        for dirs, a, b in sorted(comps):
            m = SuperMatrix(rk, dense_value(comps[(dirs, a, b)], point), field)
            if not m.is_zero():
                log.append((order, (tuple(d + 1 for d in dirs), a + 1, b + 1), m))
                gens.append(m)
        bigger = generate_subalgebra(gens, rk, field, algebra)
        if algebra is not None and bigger.total_dim == algebra.total_dim:
            break
        algebra = bigger
        if algebra.graded_dim == full_dims:
            break
    return log


class TestSparseHarvest:
    """The generators harvested from nonzero entries only, against whole
    components evaluated entry by entry."""

    @staticmethod
    def assert_same_log(hol, want):
        assert [(order, label) for order, label, _ in hol.generator_log] == [
            (order, label) for order, label, _ in want
        ]
        for (_, _, got), (_, _, m) in zip(hol.generator_log, want):
            assert got.entries == m.entries and got.parity == m.parity

    # field, chart n|m, rank p|q, Christoffel entries
    CASES = [
        (RATIONAL, (1, 2), (1, 1), 4),
        (GAUSSIAN, (1, 2), (1, 1), 4),
        (RATIONAL, (2, 2), (2, 2), 5),
        (GAUSSIAN, (2, 1), (1, 2), 5),
        (RATIONAL, (0, 3), (2, 1), 4),
    ]

    @pytest.mark.parametrize("field, nm, pq, entries", CASES)
    def test_seeded_connections(self, field, nm, pq, entries):
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        half = GaussianRational(Fraction(1, 2), 1) if field == GAUSSIAN else Fraction(1, 2)
        logged = 0
        for seed in range(6):
            conn = random_sparse_connection(random.Random(seed), chart, entries)
            for point in ([0] * sig.n, [half] * sig.n):
                hol = infinitesimal_holonomy(conn, point)
                self.assert_same_log(hol, dense_generator_log(conn, point))
                logged += len(hol.generator_log)
        assert logged

    def test_plateau_reproducer_with_vanishing_components(self):
        doc = {
            "kind": "connection",
            "chart": {"n": 2, "m": 2},
            "rank": {"p": 2, "q": 2},
            "gamma": {
                "1,3,3": "2 + x2*xi1*xi2",
                "3,4,1": "-2",
                "4,3,2": "-x1*x2 - 1 - 2*x1*x2*xi1*xi2 - x1*xi1*xi2",
            },
        }
        _, conn, _ = rio.decode_problem(doc)
        point = [0, 0]
        hol = infinitesimal_holonomy(conn, point)
        self.assert_same_log(hol, dense_generator_log(conn, point))
        # some canonical components are nonzero superfunction matrices whose
        # every value at the point is zero
        vanishing = [
            key
            for tab in _canonical_tower(conn, 1)
            for key, mat in _dense(tab).items()
            if not all(f.is_zero() for row in mat for f in row)
            and not any(v for row in dense_value(mat, point) for v in row)
        ]
        assert vanishing


def built_table_holonomy(conn, point, cap):
    """The holonomy loop that builds every order's table before it evaluates
    it, the last order too: (algebra, stop order, status, generator log)."""
    chart = conn.chart
    rk, field = chart.rank, chart.sig.field
    full_dims = (rk.p ** 2 + rk.q ** 2, 2 * rk.p * rk.q)
    if not curvature(conn).components:
        return SubSuperalgebra.zero(rk, field), 0, "stabilized", []
    table = DerivativeTable.holonomy_seed(conn)
    log = []
    pt = chart.sig.coerce_point(point)
    t = rk.total

    def harvest(tab, order):
        added = []
        for key in sorted(tab.components):
            flat = {}
            for (A, B), f in tab.components[key].items():
                v = f.body_value(pt)
                if v:
                    flat[A * t + B] = v
            if not flat:
                continue
            m = SuperMatrix.from_flat(rk, flat, field)
            dirs, a, b = key
            want = (sum(chart.coord_parity(d) for d in dirs) + chart.coord_parity(a) + chart.coord_parity(b)) % 2
            assert m.parity == want
            log.append((order, (tuple(d + 1 for d in dirs), a + 1, b + 1), m))
            added.append(m)
        return added

    algebra = generate_subalgebra(harvest(table, 0), rk, field)
    if algebra.graded_dim == full_dims:
        return algebra, 1, "stabilized", log
    for order in range(1, cap + 1):
        table = _next_derivative(conn, table)
        bigger = generate_subalgebra(harvest(table, order), rk, field, algebra)
        if bigger.total_dim == algebra.total_dim:
            return algebra, order, "stabilized", log
        algebra = bigger
        if algebra.graded_dim == full_dims:
            return algebra, order + 1, "stabilized", log
    return algebra, None, "capped", log


class TestEvaluatedOrders:
    """Each order evaluated at the point from the table before it, against
    the table of that order built whole and then evaluated."""

    # field, chart n|m, rank p|q, Christoffel entries
    CASES = [
        (RATIONAL, (0, 2), (2, 2), 5),
        (GAUSSIAN, (0, 2), (1, 1), 4),
        (RATIONAL, (1, 1), (1, 1), 4),
        (GAUSSIAN, (1, 1), (2, 1), 4),
        (RATIONAL, (2, 1), (2, 1), 4),
        (GAUSSIAN, (2, 1), (1, 1), 4),
        (RATIONAL, (1, 2), (1, 2), 4),
        (GAUSSIAN, (1, 2), (1, 1), 4),
        (RATIONAL, (2, 2), (2, 2), 5),
        (GAUSSIAN, (2, 2), (1, 1), 5),
    ]

    @staticmethod
    def points(sig):
        far = [Fraction(3, 7), Fraction(-5, 11)][: sig.n]
        return [[0] * sig.n, far] if sig.n else [[]]

    @pytest.mark.parametrize("field, nm, pq, entries", CASES)
    def test_same_run_as_the_built_tables(self, field, nm, pq, entries):
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        past_order_one = 0
        for seed in range(4):
            conn = random_sparse_connection(random.Random(seed), chart, entries)
            for point in self.points(sig):
                for cap in (1, 2, 3):
                    hol = infinitesimal_holonomy(conn, point, cap)
                    algebra, order, status, log = built_table_holonomy(conn, point, cap)
                    assert hol.algebra.basis() == algebra.basis()
                    assert (hol.stabilized_at_order, hol.status) == (order, status)
                    assert [(r, label) for r, label, _ in hol.generator_log] == [(r, label) for r, label, _ in log]
                    assert [m for _, _, m in hol.generator_log] == [m for _, _, m in log]
                    past_order_one += len(hol.tables) == 2
        assert past_order_one

    @pytest.mark.parametrize("field, nm, pq, entries", CASES)
    def test_each_key_is_the_built_table_at_the_point(self, field, nm, pq, entries):
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        for seed in range(2):
            conn = random_sparse_connection(random.Random(seed), chart, entries)
            tower = _canonical_tower(conn, 3)
            for point in self.points(sig):
                pt = sig.coerce_point(point)
                gamma = gamma_at(conn, pt)
                rk = chart.rank.total
                values = [{key: values_at(flat, pt, rk) for key, flat in tab.components.items()} for tab in tower]
                for k in (1, 2, 3):
                    got = _derivative_at(conn, tower[k - 1], values[k - 1], pt, gamma)
                    # the built table drops the zero components, which have no values
                    kept = {key: vals for key, vals in got.items() if key in values[k]}
                    assert list(kept) == list(values[k])
                    assert kept == values[k]
                    assert not any(vals for key, vals in got.items() if key not in values[k])


class TestStabilizerBound:
    """A Levi-Civita run with the graded dim of stab(g_p) as its bound,
    against the same run without it, on seeded metrics over both fields:
    soul metrics, with a constant standard body, which often reach osp, at
    the origin and at a nonzero point, and two metrics that do not."""

    NM = [(0, 2), (1, 2), (2, 2), (0, 4)]

    @classmethod
    def metrics(cls, field):
        for nm in cls.NM:
            sig = ChartSignature(*nm, field)
            rng = random.Random("stabilizer bound %d|%d %s" % (nm + (field,)))
            for _ in range(2):
                metric = random_soul_metric(rng, sig)
                yield metric, [0] * sig.n
                if sig.n:
                    yield metric, [Fraction(3, 7)] + [Fraction(-5, 11)] * (sig.n - 1)
        if field == RATIONAL:
            yield cli.product_test_metric(), []
            yield curved_02_metric(), []

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_the_bound_changes_no_run(self, field):
        stopped_early = short_of_the_bound = at_the_bound = 0
        for metric, point in self.metrics(field):
            conn = levi_civita(metric)
            rank = conn.chart.rank
            rows = cli.default_candidates(rank, field, metric.body(point))[0]["rows"]
            bound = superlin.solved_dim(rank, rows, field)
            assert bound == solve_algebra(rank, rows, field).graded_dim
            for cap in (0, 1, None):
                free = infinitesimal_holonomy(conn, point, cap)
                bounded = infinitesimal_holonomy(conn, point, cap, bound)
                assert bounded.algebra.basis() == free.algebra.basis()
                assert (bounded.stabilized_at_order, bounded.status) == (free.stabilized_at_order, free.status)
                # the bounded run stops no later, on the same generators
                log = bounded.generator_log
                assert [(r, label) for r, label, _ in log] == [(r, label) for r, label, _ in free.generator_log[: len(log)]]
                stopped_early += len(log) < len(free.generator_log)
                short_of_the_bound += free.algebra.graded_dim != bound
                at_the_bound += free.algebra.graded_dim == bound
        assert stopped_early and short_of_the_bound and at_the_bound


def defined_candidate(label, dim, field, metric_body=None):
    """The stabilizer a `cli.default_candidates` label names, solved from the
    definition of its tensors, rebuilt here from the label; the su cut is
    then cut by str(J·A) = 0."""
    p, q = dim
    kind = label[label.index("(") + 1:label.index(" type)")]

    def form():
        if metric_body is None:
            return standard_even_form(p, q, field=field)
        return StructureTensor("even_bilinear_form", "supersymmetric", metric_body)

    j = cli._pairwise_j(dim, field)
    complex_structure = StructureTensor("even_endomorphism", "none", j)
    tensors = {
        "osp": lambda: (form(),),
        "osp_sk": lambda: (standard_even_form(p, q, skew=True, field=field),),
        "gl_C": lambda: (complex_structure,),
        "pe": lambda: (standard_odd_form(p, field=field),),
        "q": lambda: (standard_odd_complex_structure(p, field=field),),
        "u": lambda: (form(), complex_structure),
        "su": lambda: (form(), complex_structure),
    }
    stab = defined_stabilizer(*tensors[kind]())
    if kind == "su":
        stab = cut_by_functionals(stab, [lambda m: supertrace(j.matmul(m))])
    return stab


def stabilizer_containment(algebra, candidates):
    """`classify_geometry` the old way: solve each candidate's rows and test
    containment."""
    return [
        {"structure": cand["label"], "contained": solve_algebra(algebra.dim, cand["rows"], algebra.field).contains_algebra(algebra)}
        for cand in candidates
    ]


def seeded_subalgebras(rng, dim, field, stabilizers):
    """Subalgebras generated by seeded combinations of each stabilizer's
    basis, alone and with a seeded unit matrix added, and by two seeded
    unit matrices."""
    t = dim.total
    out = []
    for stab in stabilizers:
        basis = stab.basis()
        for _ in range(2):
            picks = rng.sample(basis, min(2, len(basis)))
            inside = [superlin.combination(dim, [(rng.randint(-2, 2) or 1, m) for m in picks[:k + 1]], field) for k in range(len(picks))]
            out.append(generate_subalgebra(inside, dim, field))
            unit = SuperMatrix.unit(dim, rng.randrange(t), rng.randrange(t), field)
            out.append(generate_subalgebra(inside[:1] + [unit], dim, field))
    units = [SuperMatrix.unit(dim, rng.randrange(t), rng.randrange(t), field) for _ in range(2)]
    out.append(generate_subalgebra(units, dim, field))
    return out


class TestClassifyByEvaluation:
    """`classify_geometry` evaluates each candidate's rows on the basis of
    the algebra; it must agree with solving the rows and testing
    containment, and the solved rows with the definition of the structure
    the candidate's label names."""

    DIMS = [(p, q) for p in range(5) for q in range(5) if 0 < p + q <= 4]

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("pq", DIMS, ids=lambda d: "%d|%d" % d)
    def test_seeded_subalgebras_and_the_stabilizers(self, pq, field):
        dim = SuperDim(*pq)
        cands = cli.default_candidates(dim, field)
        stabilizers = [solve_algebra(dim, cand["rows"], field) for cand in cands]
        for cand, stab in zip(cands, stabilizers):
            assert stab == defined_candidate(cand["label"], dim, field)
        algebras = stabilizers + seeded_subalgebras(random.Random(pq[0] * 5 + pq[1]), dim, field, stabilizers)
        algebras += [SubSuperalgebra.zero(dim, field), classical_superalgebra("gl", pq, field)]
        outcomes = set()
        for algebra in algebras:
            report = classify_geometry(algebra, cands)
            assert report == stabilizer_containment(algebra, cands)
            outcomes.update(entry["contained"] for entry in report)
        assert outcomes == ({True, False} if cands else set())

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_kahler_family_u_and_su(self, field):
        seen = set()
        for lam in (0, 1, -1, 2):
            metric, _ = cli.kahler_test_metric(lam, field)
            body = metric.body([])
            cands = cli.default_candidates(SuperDim(0, 4), field, metric_body=body)
            assert [c["label"].split(" (")[0] for c in cands[-2:]] == ["unitary cut", "special unitary cut"]
            stabilizers = [solve_algebra(SuperDim(0, 4), cand["rows"], field) for cand in cands]
            for cand, stab in zip(cands, stabilizers):
                assert stab == defined_candidate(cand["label"], SuperDim(0, 4), field, body)
            hol = infinitesimal_holonomy(levi_civita(metric), [])
            for algebra in [hol.algebra] + stabilizers:
                report = classify_geometry(algebra, cands)
                assert report == stabilizer_containment(algebra, cands)
                seen.add(tuple(entry["contained"] for entry in report[-2:]))
        # the family's holonomy lies in u, in su exactly when Ric = 0, and
        # the u stabilizer itself leaves su
        assert {(True, True), (True, False)} <= seen
