import itertools
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from superhol import cli
from superhol import geometry as geo
from superhol import reportio as rio
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational, field_zero
from superhol.superfunc import (
    ChartSignature,
    Superfunction,
    accumulated,
    add_into,
    mask_to_indices,
    mul_into,
    parse_superfunction,
    partials_into,
)
from superhol.holonomy import flatness_certificate
from superhol.superlin import (
    SuperDim,
    SuperMatrix,
    cyclic_terms,
)
from superhol.geometry import (
    Chart,
    ConnectionData,
    MatrixInversionError,
    MetricData,
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
    torsion,
    validate_metric,
)

from conftest import (
    dense_curvature,
    dense_gamma,
    dense_is_zero,
    dense_of,
    dense_value,
    dense_zeros,
    flat_of,
    is_canonical_rational,
    random_block_product,
    random_connection,
    random_soul_metric,
    random_sparse_connection,
    random_superfunction,
    random_torsion_free_connection,
    random_unipotent_gauge,
    reference_levi_civita,
    reference_partial,
    reference_sum,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from workloads import TRANSPORT_STEPS, load_pool, make_round  # noqa: E402


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
        assert curvature(ConnectionData.zero(chart)).components == {}

    def test_r01_example(self):
        two = Superfunction.constant(ChartSignature(0, 1), 2)
        assert curvature(r01_connection()).components == {((), 0, 0): {(0, 0): two}}

    def test_pure_gauge_is_flat(self):
        rng = random.Random(21)
        sig = ChartSignature(2, 2)
        chart = Chart(sig, SuperDim(2, 2))
        for _ in range(3):
            g = random_unipotent_gauge(rng, sig, chart.rank)
            conn = pure_gauge_connection(chart, g)
            assert curvature(conn).components == {}

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
            table = dense_curvature(conn)
            for a in range(t):
                for b in range(t):
                    for col in range(rk):
                        want = curvature_operator_oracle(conn, a, b, col)
                        for row in range(rk):
                            assert table[(a, b)][row][col] == want[row]


def reference_nabla_endomorphism(conn, j, a):
    """(nabla_a J) for a constant even J as its own sum, the body
    `nabla_endomorphism` had before it became one covariant step."""
    sig = conn.chart.sig
    t = sig.total
    gamma = dense_gamma(conn)[a]
    out = dense_zeros(sig, t, t)
    for d in range(t):
        for c in range(t):
            acc = Superfunction.zero(sig)
            for b in range(t):
                jv = j.entries[b][c]
                if jv:
                    acc = acc + gamma[d][b].scale(jv)
                jv = j.entries[d][b]
                if jv:
                    acc = acc - gamma[b][c].scale(jv)
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
                    # the nonzero entries of the dense sum, sorted
                    assert got == flat_of(reference_nabla_endomorphism(conn, j, a)) and list(got) == sorted(got)
                    nonzero += bool(got)
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
                    terms = reference_sum(Superfunction(f.sig, terms), Superfunction(f.sig, {mi | mj: prod})).terms
    return Superfunction(f.sig, terms)


def dense_covariant_step(conn, c, mat, par):
    """The covariant step as the dense sum it was before it scattered from
    nonzero entries: every entry [A][B] sums over every C, and products go
    through `reference_product`."""
    chart = conn.chart
    rk = chart.rank.total
    gamma = dense_gamma(conn)[c]
    pc = chart.coord_parity(c)
    fiber = [chart.fiber_parity(A) for A in range(rk)]
    new = dense_zeros(chart.sig, rk, rk)
    for A in range(rk):
        for B in range(rk):
            fB = fiber[B]
            term = reference_partial(mat[A][B], c + 1)
            for C in range(rk):
                fC = fiber[C]
                g2 = gamma[A][C]
                if not (mat[C][B].is_zero() or g2.is_zero()):
                    term = reference_sum(term, reference_product(mat[C][B], g2).scale((-1) ** (pc * (par + fB + fC))))
                g1 = gamma[C][B]
                if not (g1.is_zero() or mat[A][C].is_zero()):
                    term = reference_sum(term, reference_product(g1, mat[A][C]).scale(-((-1) ** ((fC + fB) * par))))
            new[A][B] = term
    return new


def covariant_step(conn, c, flat, par):
    """∇_c of one End(E)-valued component, given by its nonzero entries
    {(A, B): M^A_B} with coordinate indices of total parity `par`, in that
    form: the ∂_c M terms from `partials_into`, then `_gamma_step` adds
    Γ_c M − M Γ_c."""
    accs = [{} for _ in range(c + 1)]
    for key, m in flat.items():
        partials_into(accs, key, m, c + 1)
    return geo._gamma_step(conn, c, flat.items(), geo._step_signs(conn.chart, c, par), accs[c])


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
                    mats = [dense_zeros(sig, rk, rk)]
                    for A, B in itertools.product(range(rk), repeat=2):
                        one = dense_zeros(sig, rk, rk)
                        one[A][B] = entry(par, A, B)
                        mats.append(one)
                    mats.append([[entry(par, A, B) for B in range(rk)] for A in range(rk)])
                    sparse = dense_zeros(sig, rk, rk)
                    for _ in range(2):
                        A, B = rng.randrange(rk), rng.randrange(rk)
                        sparse[A][B] = entry(par, A, B)
                    mats.append(sparse)
                    for mat in mats:
                        for c in range(t):
                            got = covariant_step(conn, c, flat_of(mat), par)
                            want = dense_covariant_step(conn, c, mat, par)
                            # the step keeps exactly the nonzero entries, sorted
                            assert got == flat_of(want) and list(got) == sorted(got), c
                            dense = dense_of(sig, rk, got)
                            for A in range(rk):
                                for B in range(rk):
                                    assert dense[A][B] == want[A][B], (c, A, B)
                            nonzero += not dense_is_zero(dense)
        assert nonzero

    def test_zero_component_steps_to_no_entries(self):
        chart = Chart(ChartSignature(2, 2), SuperDim(2, 2))
        conn = random_sparse_connection(random.Random(4), chart, 2)
        got = covariant_step(conn, 0, flat_of(dense_zeros(chart.sig, 4, 4)), 0)
        assert dense_is_zero(dense_of(chart.sig, 4, got))
        assert got == {}


def leibniz_mismatches(field, signed=True, shifted=True):
    """(cases, failures) of the Leibniz rule of the tower step,
    ∇_c(f·M) = (∂_c f)·M + (−1)^{|c||f|} f·∇_c M, on seeded sparse
    connections, components M and homogeneous superfunctions f of both
    parities.  f·M is the entrywise product, stepped with the coordinate
    parity par(M) + |f|; both sides step through `partials_into` and
    `_gamma_step` (`covariant_step`).  The mutants: the sign left out when
    not `signed`, and f·M stepped with par(M) when not `shifted`."""
    cases = bad = 0
    unit = GaussianRational(1, 1) if field == GAUSSIAN else 1
    for nm, pq in (((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 1), (1, 2)), ((0, 2), (1, 1))):
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        rk = chart.rank.total
        zero = Superfunction.zero(sig)
        rng = random.Random("leibniz %d|%d %d|%d %s" % (nm + pq + (field,)))
        for _ in range(4):
            conn = random_sparse_connection(rng, chart, 4, maxdeg=2)
            for par, pf in itertools.product((0, 1), repeat=2):
                m = {}
                for A, B in itertools.product(range(rk), repeat=2):
                    want = (par + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
                    m[(A, B)] = random_superfunction(rng, sig, want, 2).scale(unit)
                m = {key: v for key, v in m.items() if v}
                f = random_superfunction(rng, sig, pf, 2).scale(unit)
                fm = {key: f * v for key, v in m.items() if f * v}
                for c in range(sig.total):
                    lhs = covariant_step(conn, c, fm, (par + pf) % 2 if shifted else par)
                    sign = (-1) ** (chart.coord_parity(c) * pf) if signed else 1
                    df, step = reference_partial(f, c + 1), covariant_step(conn, c, m, par)
                    rhs = {}
                    for key in sorted(set(m) | set(step)):
                        v = df * m.get(key, zero) + (f * step.get(key, zero)).scale(sign)
                        if v:
                            rhs[key] = v
                    cases += 1
                    bad += lhs != rhs
    return cases, bad


class TestTowerStepLeibniz:
    """The tower step is a derivation over superfunctions, with odd f and odd
    directions c included, over both fields."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_the_rule_holds(self, field):
        cases, bad = leibniz_mismatches(field)
        assert cases > 100 and bad == 0

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_a_dropped_sign_and_an_unshifted_parity_are_caught(self, field):
        assert leibniz_mismatches(field, signed=False)[1]
        assert leibniz_mismatches(field, shifted=False)[1]


def unfolded_curvature(conn):
    """Every R_ab as ∇_a Γ_b from the dense step, with −(−1)^{|a||b|} ∂_b Γ_a
    then added entry by entry as a superfunction of its own."""
    chart = conn.chart
    t, rk = chart.sig.total, chart.rank.total
    gamma = dense_gamma(conn)
    mats = {}
    for a, b in itertools.product(range(t), repeat=2):
        pa, pb = chart.coord_parity(a), chart.coord_parity(b)
        mat = dense_covariant_step(conn, a, gamma[b], pb)
        for A, B in itertools.product(range(rk), repeat=2):
            mat[A][B] = reference_sum(mat[A][B], reference_partial(gamma[a][A][B], b + 1).scale(-((-1) ** (pa * pb))))
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
            got, want = curvature(conn).components, unfolded_curvature(conn)
            # exactly the nonzero components, each with its nonzero entries
            assert got == {((), a, b): flat_of(mat) for (a, b), mat in want.items() if not dense_is_zero(mat)}
            assert list(got) == sorted(got) and all(list(flat) == sorted(flat) for flat in got.values())
            nonzero += len(got)
        assert nonzero


def metric_cases(rng, sig):
    """Metrics for the graded-symmetric halves: a block product whose first
    factor is x1 with xi1, xi2 (or xi1, xi2 alone), and up to n + m = 4 two
    soul metrics (beyond, their dense souls take seconds)."""
    first = ([0] if sig.n else []) + [sig.n, sig.n + 1]
    souls = [random_soul_metric(rng, sig) for _ in range(2)] if sig.total <= 4 else []
    return souls + [random_block_product(rng, sig, first)]


def pool_metrics():
    """The metrics of the levi-civita benchmark pool, block products included."""
    return [rio.decode_metric(entry["doc"]) for entry in load_pool("levi-civita")["problems"]]


def pair_kind(chart, a, b):
    """What kind of coordinate pair (a, b) is, for the tests' coverage."""
    odd = chart.coord_parity(a) + chart.coord_parity(b)
    if a == b:
        return "(α, α)" if odd else "even diagonal"
    return ("even-even", "mixed", "odd-odd")[odd]


HALF_CHARTS = [(0, 2), (1, 2), (0, 4), (2, 2), (2, 4)]


class TestCurvatureHalf:
    """`curvature` solves R_ab for a <= b and writes R_ba as the signed copy
    −(−1)^{|a||b|} R_ab: +R_ab when a and b are both odd, −R_ab otherwise.
    Its table must equal the unfolded sum, which forms every R_ab of the t²
    pairs on its own, on Levi-Civita connections of soul metrics and block
    products and on torsion-free connections, with nonzero odd–odd pairs,
    copied with +1, and nonzero (α, α), which nothing copies."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", HALF_CHARTS, ids=lambda d: "%d|%d" % d)
    def test_matches_the_unfolded_table(self, nm, field):
        rng = random.Random("curvature half %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        conns = [levi_civita(metric) for metric in metric_cases(rng, sig)]
        if sig.total <= 4:
            conns.append(random_torsion_free_connection(rng, sig))
        seen = Counter()
        for conn in conns:
            got = curvature(conn).components
            want = unfolded_curvature(conn)
            assert got == {((), a, b): flat_of(mat) for (a, b), mat in want.items() if not dense_is_zero(mat)}
            assert list(got) == sorted(got)
            seen.update(pair_kind(conn.chart, a, b) for _, a, b in got)
        assert seen["odd-odd"] and seen["(α, α)"] and not seen["even diagonal"]
        assert seen["mixed"] or not sig.n

    def test_pool_metrics_match_the_unfolded_table(self):
        seen = Counter()
        for metric in pool_metrics():
            conn = levi_civita(metric)
            got = curvature(conn).components
            want = unfolded_curvature(conn)
            assert got == {((), a, b): flat_of(mat) for (a, b), mat in want.items() if not dense_is_zero(mat)}
            seen.update(pair_kind(conn.chart, a, b) for _, a, b in got)
        assert seen["odd-odd"] and seen["(α, α)"] and seen["mixed"]

    def test_holonomy_seed_is_the_solved_half(self):
        rng = random.Random("holonomy seed half")
        sig = ChartSignature(1, 2)
        for metric in metric_cases(rng, sig):
            conn = levi_civita(metric)
            full = curvature(conn)
            seed = geo.DerivativeTable.holonomy_seed(conn)
            want = {
                key: flat
                for key, flat in full.components.items()
                if key[1] < key[2] or key[1] == key[2] and sig.n <= key[1]
            }
            assert seed.components == want and seed.canonical
            assert seed.parities == {key: full.parities[key] for key in want}


class TestFlatnessWitness:
    """`flatness_certificate` reads its witness off the sparse curvature: the
    first nonzero (a, b, A, B), 1-based, of a dense scan of every entry of
    `unfolded_curvature`, pairs and then entries in row-major order."""

    @staticmethod
    def dense_witness(conn):
        rk = conn.chart.rank.total
        curv = unfolded_curvature(conn)
        for a, b in sorted(curv):
            for A, B in itertools.product(range(rk), repeat=2):
                if not curv[(a, b)][A][B].is_zero():
                    return (a + 1, b + 1, A + 1, B + 1)
        return None

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize(
        "nm, pq, tangent",
        [((1, 1), (1, 1), True), ((1, 2), (1, 2), True), ((2, 1), (1, 2), False), ((0, 3), (2, 1), False)],
        ids=lambda d: "%d|%d" % d if isinstance(d, tuple) else ("tangent" if d else "free"),
    )
    def test_matches_the_dense_scan(self, nm, pq, tangent, field):
        rng = random.Random("flatness witness %d|%d %d|%d %s" % (nm + pq + (field,)))
        sig = ChartSignature(*nm, field)
        chart = Chart.tangent(sig) if tangent else Chart(sig, SuperDim(*pq))
        conns = [ConnectionData.zero(chart)]
        conns += [random_sparse_connection(rng, chart, entries) for entries in (1, 1, 2, 2, 3) for _ in range(2)]
        conns += [random_connection(rng, chart)]
        witnesses = []
        for conn in conns:
            want = self.dense_witness(conn)
            assert flatness_certificate(conn) == {"flat": want is None, "witness": want}
            witnesses.append(want)
        assert witnesses[0] is None and len(set(witnesses)) > 2


class TestNoStoredZeros:
    """The curvature, torsion and Ricci tensors keep their nonzero entries and
    nothing else, against dense references built entry by entry."""

    @staticmethod
    def dense_torsion(conn):
        par = conn.chart.coord_parity
        t = conn.chart.sig.total
        gamma = dense_gamma(conn)
        return {
            (a, b, c): gamma[a][c][b] - gamma[b][c][a].scale((-1) ** (par(a) * par(b)))
            for a, b, c in itertools.product(range(t), repeat=3)
        }

    @staticmethod
    def dense_ricci(conn):
        """Ric_ab = Σ_c (−1)^{|c| + |c||b|} R^c_{b,ac}, every c summed."""
        par = conn.chart.coord_parity
        t = conn.chart.sig.total
        curv = unfolded_curvature(conn)
        out = {}
        for a, b in itertools.product(range(t), repeat=2):
            acc = Superfunction.zero(conn.chart.sig)
            for c in range(t):
                acc = acc + curv[(a, c)][c][b].scale((-1) ** (par(c) + par(c) * par(b)))
            out[(a, b)] = acc
        return out

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(1, 1), (2, 1), (1, 2), (0, 3)], ids=lambda d: "%d|%d" % d)
    def test_only_nonzero_entries_are_kept(self, nm, field):
        rng = random.Random("no stored zeros %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        chart = Chart.tangent(sig)
        conns = [random_connection(rng, chart), random_sparse_connection(rng, chart, 2)]
        conns += [random_sparse_connection(rng, chart, 4)] + [random_torsion_free_connection(rng, sig) for _ in range(6)]
        kept = cancelled = 0
        for conn in conns:
            curv, tor, ric = curvature(conn).components, torsion(conn), ricci(conn)
            # the Ricci sums with a nonzero term that cancel to zero
            summed = {(a, b) for (_, a, c), flat in curv.items() for C, b in flat if C == c}
            cancelled += len(summed - ric.keys())
            stored = [f for flat in curv.values() for f in flat.values()]
            stored += [f for vec in tor.values() for f in vec.values()]
            stored += list(ric.values())
            assert all(not f.is_zero() for f in stored)
            assert all(curv.values()) and all(tor.values())
            kept += len(stored)
            want = unfolded_curvature(conn)
            assert {((), a, b, A, B): f for (_, a, b), flat in curv.items() for (A, B), f in flat.items()} == {
                ((), a, b, A, B): f
                for (a, b), mat in want.items()
                for A, row in enumerate(mat)
                for B, f in enumerate(row)
                if not f.is_zero()
            }
            assert {(a, b, c): f for (a, b), vec in tor.items() for c, f in vec.items()} == {
                key: f for key, f in self.dense_torsion(conn).items() if not f.is_zero()
            }
            assert ric == {key: f for key, f in self.dense_ricci(conn).items() if not f.is_zero()}
        assert kept
        # on these charts some seeded Ricci sums cancel, where a stored zero would show
        assert cancelled or nm not in ((1, 2), (0, 3))


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
    first = geo.DerivativeTable.holonomy_seed(conn) if canonical else curvature(conn)
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
        nonzero = [key for key, mat in want.items() if not dense_is_zero(mat)]
        if list(tab.components) != nonzero:
            bad.append((r, "keys"))
        for key in nonzero:
            flat = tab.components.get(key, {})
            if flat != flat_of(want[key]) or list(flat) != sorted(flat):
                bad.append((r, key, "entries"))
            body = dense_value(want[key], pt)
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
                    assert all(dense_is_zero(want[key]) for key in gone)
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

    def test_a_flipped_odd_derivative_sign_is_caught(self, monkeypatch):
        # the walk's ∂_c of an odd c with the opposite sign
        def mutant(walk):
            def flipped(accs, key, f, stop):
                walk(accs, key, f, stop)
                for c in range(f.sig.n, stop):
                    if key in accs[c]:
                        accs[c][key] = {mask: {k: -v for k, v in poly.items()} for mask, poly in accs[c][key].items()}
            return flipped

        assert self.mutant_killed(monkeypatch, "partials_into", mutant)


def stepwise_next(conn, prev):
    """The components and parities of the table after `prev`, stepped one
    direction at a time: `covariant_step` of each component in each
    direction its key allows, the zero steps dropped."""
    out, parities = {}, {}
    for (dirs, a, b), flat, par, stop in geo._tower_steps(conn.chart, prev):
        for c in range(stop):
            step = covariant_step(conn, c, flat, par)
            if step:
                out[((c,) + dirs, a, b)] = step
                parities[((c,) + dirs, a, b)] = par ^ conn.chart.coord_parity(c)
    return out, parities


class TestOnePassTower:
    """`_next_derivative` walks each component once for every direction,
    and `_derivative_at` reads every first partial's body from one pass:
    both against the per-direction steps, on seeded sparse connections
    over both fields, on free and tangent sheaves."""

    # field, chart n|m, rank p|q (None: the tangent sheaf), Christoffel entries
    CASES = [
        (RATIONAL, (1, 1), (1, 1), 4),
        (GAUSSIAN, (1, 1), (2, 1), 4),
        (RATIONAL, (2, 1), None, 5),
        (GAUSSIAN, (1, 2), None, 4),
        (RATIONAL, (0, 2), (1, 2), 4),
        (GAUSSIAN, (2, 2), (1, 1), 4),
    ]

    @staticmethod
    def connections(field, nm, pq, entries, maxdeg):
        sig = ChartSignature(*nm, field)
        chart = Chart.tangent(sig) if pq is None else Chart(sig, SuperDim(*pq))
        rng = random.Random("one-pass tower %d|%d %s %s %d" % (nm + (pq, field, maxdeg)))
        for _ in range(3):
            yield random_sparse_connection(rng, chart, entries, maxdeg)

    @pytest.mark.parametrize("field, nm, pq, entries", CASES)
    def test_tables_equal_the_stepwise_tables(self, field, nm, pq, entries):
        kept = 0
        for conn in self.connections(field, nm, pq, entries, 2):
            for canonical in (True, False):
                table = geo.DerivativeTable.holonomy_seed(conn) if canonical else curvature(conn)
                for order in (1, 2, 3):
                    want, parities = stepwise_next(conn, table)
                    table = geo._next_derivative(conn, table)
                    assert (table.order, table.canonical) == (order, canonical)
                    # key by key and in order, each flat entry by entry and in order
                    assert list(table.components) == list(want)
                    for key, flat in table.components.items():
                        assert list(flat.items()) == list(want[key].items()), key
                    assert table.parities == parities
                    kept += len(want)
        assert kept

    @pytest.mark.parametrize("field, nm, pq, entries", [case for case in CASES if case[1][0]])
    def test_point_step_at_a_nonzero_point(self, field, nm, pq, entries):
        # exponents up to 3 at a point with no zero coordinate: every even
        # partial's body takes powers of the coordinates
        scattered = squares = 0
        for conn in self.connections(field, nm, pq, entries, 3):
            sig, rk = conn.chart.sig, conn.chart.rank.total
            squares += any(
                max(exps) >= 2 for g in conn.gamma for f in g.values() for poly in f.terms.values() for exps in poly
            )
            pt = sig.coerce_point([Fraction(3, 7), Fraction(-5, 2)][: sig.n])
            gamma = geo.gamma_at(conn, pt)
            table = geo.DerivativeTable.holonomy_seed(conn)
            values = {key: geo.values_at(flat, pt, rk) for key, flat in table.components.items()}
            for _ in (1, 2):
                got = geo._derivative_at(conn, table, values, pt, gamma)
                scattered += sum(bool(values[key[0][1:], key[1], key[2]]) for key in got)
                table = geo._next_derivative(conn, table)
                values = {key: geo.values_at(flat, pt, rk) for key, flat in table.components.items()}
                # the built table's keys at the point, and no value elsewhere
                assert {key: vals for key, vals in got.items() if key in values} == values
                assert list(key for key in got if key in values) == list(values)
                assert not any(vals for key, vals in got.items() if key not in values)
        assert scattered and squares


class TestCurvatureKept:
    def test_same_table_on_every_call(self):
        chart = Chart(ChartSignature(1, 1), SuperDim(1, 1))
        conn = random_connection(random.Random(5), chart)
        assert curvature(conn) is curvature(conn)

    def test_one_build_per_problem(self, monkeypatch):
        # builds of the full order-0 table; the canonical seed is cut from it
        built = []

        class CountingTable(geo.DerivativeTable):
            def __init__(self, chart, order, components, canonical=False, parities=None):
                if order == 0 and not canonical:
                    built.append(components)
                super().__init__(chart, order, components, canonical, parities)

        monkeypatch.setattr(geo, "DerivativeTable", CountingTable)
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
        # round 0, seed 1, of the benchmark's connection and metric workloads:
        # flatness, holonomy, both Bianchi checks, Ricci and transport read
        # the one table each problem builds
        for workload in ("holonomy-tower", "levi-civita"):
            steps = TRANSPORT_STEPS if workload == "holonomy-tower" else None
            for doc, meta in make_round(workload, 1, 0, load_pool(workload)):
                built.clear()
                cli.run_problem(doc, steps=steps)
                assert len(built) == 1, (workload, meta["id"])

    def test_same_torsion_on_every_call(self):
        # one with torsion, and a torsion-free one whose kept table is empty
        conn = random_connection(random.Random(5), Chart.tangent(ChartSignature(1, 1)))
        lc = levi_civita(curved_02_metric())
        assert torsion(lc) == {}
        for c in (conn, lc):
            assert torsion(c) is torsion(c)

    def test_one_torsion_build_per_metric_problem(self, monkeypatch):
        # Levi-Civita's own check, torsion_free and the second Bianchi check
        # all read one table: every call on the connection returns the same
        # object, so no call built a second one
        results = []
        original = geo.torsion

        def recording(conn):
            out = original(conn)
            results.append((conn, out))
            return out

        monkeypatch.setattr(geo, "torsion", recording)
        doc = {"kind": "metric", "chart": {"n": 0, "m": 2}, "g": {"1,2": "1 + 3*xi1*xi2"}}
        rep, ok = cli.run_problem(doc)
        assert ok
        res = rep["result"]
        assert res["torsion_free"] and res["second_bianchi"] and not res["flat"]
        assert len(results) >= 3
        assert len({id(conn) for conn, _ in results}) == 1
        assert len({id(out) for _, out in results}) == 1


class TestEvaluation:
    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_values_at_matches_entrywise_value(self, field):
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
            got = geo.values_at(flat_of(mat), sig.coerce_point(point), cols)
            want = {A * cols + B: f.value(point) for A, row in enumerate(mat) for B, f in enumerate(row)}
            assert got == {pos: v for pos, v in want.items() if v}
            if field == RATIONAL:
                assert all(is_canonical_rational(v) for v in got.values())
            else:
                assert all(type(v) is GaussianRational for v in got.values())

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_metric_body_is_the_entrywise_value(self, field):
        # a supersymmetric g whose body depends on x, unvalidated
        rng = random.Random("metric body %s" % field)
        sig = ChartSignature(2, 2, field)
        chart = Chart.tangent(sig)
        for _ in range(10):
            g = {}
            for a, b in itertools.combinations_with_replacement(range(4), 2):
                pa, pb = chart.coord_parity(a), chart.coord_parity(b)
                if not (a == b and pa):
                    g[(a, b)] = random_superfunction(rng, sig, (pa + pb) % 2, maxdeg=2)
                    g[(b, a)] = g[(a, b)].scale((-1) ** (pa * pb))
            metric = MetricData(chart, g, validate=False)
            point = [rng.randint(-2, 2), Fraction(rng.randint(-3, 3), 2)]
            body = metric.body(point)
            assert body.field == field and body.dim == SuperDim(2, 2)
            assert body == SuperMatrix(SuperDim(2, 2), dense_value(dense_of(sig, 4, metric.g), point), field)
            for bad in ([1], [1, 2, 3]):
                with pytest.raises(ValueError):
                    metric.body(bad)


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
    mat = dense_zeros(sig, rows, cols)
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


def dense_neumann_inverse(a, sig):
    """The Neumann series inverse over dense matrices: N = A − A0 as t²
    subtractions, and every power of −A0⁻¹N added entry by entry, zeros
    included."""
    t = len(a)
    a0 = dense_value(a, [0] * sig.n)
    a0_inv_s = geo.scalar_matrix_inverse(a0, sig.field)
    a0_sf = [[Superfunction.constant(sig, v) for v in row] for row in a0]
    a0_inv = [[Superfunction.constant(sig, v) for v in row] for row in a0_inv_s]
    n_mat = [[a[i][j] - a0_sf[i][j] for j in range(t)] for i in range(t)]
    m_mat = [[-f for f in row] for row in dense_sfmat_mul(a0_inv, n_mat)]
    one = [[Superfunction.constant(sig, int(i == j)) for j in range(t)] for i in range(t)]
    total, term = one, one
    for _ in range(t * (sig.m + 1) + sig.m + 1):
        term = dense_sfmat_mul(term, m_mat)
        if dense_is_zero(term):
            return dense_sfmat_mul(total, a0_inv)
        total = [[x + y for x, y in zip(r, s)] for r, s in zip(total, term)]
    raise MatrixInversionError("not constant + nilpotent")


def flat_mul_mismatches(pairs, sig):
    """How many pairs (a, b) of dense factors have a flat product
    `geo.sfmat_mul` that is not the nonzero entries of the dense product in
    sorted order."""
    bad = 0
    for a, b in pairs:
        got = geo.sfmat_mul(flat_of(a), flat_of(b), sig)
        bad += got != flat_of(dense_sfmat_mul(a, b)) or list(got) != sorted(got)
    return bad


def flat_inverse_mismatches(mats, sig):
    """How many dense matrices have a flat inverse `geo.sfmat_inverse` that
    is not the nonzero entries of the dense Neumann series in sorted order."""
    bad = 0
    for a in mats:
        got = geo.sfmat_inverse(flat_of(a), len(a), sig)
        bad += got != flat_of(dense_neumann_inverse(a, sig)) or list(got) != sorted(got)
    return bad


class TestSparseMatrixProducts:
    """`sfmat_mul` scatters from the nonzero entries of two flats;
    `sfmat_inverse` runs its Neumann series through it.  Both against dense
    references."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(2, 0), (0, 2), (1, 2), (2, 2)], ids=lambda d: "%d|%d" % d)
    def test_mul_matches_the_dense_sum(self, nm, field):
        rng = random.Random("sfmat mul %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        pairs = []
        for zeros in (0.0, 0.5, 0.9, 1.0):
            for _ in range(4):
                rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
                a = random_sf_matrix(rng, sig, rows, inner, zeros)
                pairs.append((a, random_sf_matrix(rng, sig, inner, cols, zeros)))
        assert flat_mul_mismatches(pairs, sig) == 0

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(2, 0), (0, 2), (1, 2), (2, 2), (1, 4)], ids=lambda d: "%d|%d" % d)
    def test_inverse_is_a_two_sided_inverse(self, nm, field):
        rng = random.Random("sfmat inverse %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        for t in (1, 2, 3, 4):
            a = random_invertible_sf_matrix(rng, sig, t)
            inv = sfmat_inverse(flat_of(a), t, sig)
            one = [[Superfunction.constant(sig, int(i == j)) for j in range(t)] for i in range(t)]
            assert dense_sfmat_mul(a, dense_of(sig, t, inv)) == one
            assert dense_sfmat_mul(dense_of(sig, t, inv), a) == one

    @pytest.mark.parametrize(
        "entries", [[["1 + x1"]], [["1", "x1"], ["x1", "1"]], [["2", "0"], ["0", "x1*x2"]]], ids=str
    )
    def test_non_nilpotent_body_rejected(self, entries):
        sig = ChartSignature(2, 1)
        a = flat_of([[parse_superfunction(text, sig) for text in row] for row in entries])
        with pytest.raises(MatrixInversionError):
            sfmat_inverse(a, len(entries), sig)



class TestSparseInverse:
    """`sfmat_inverse` drops the constant monomial of each entry and adds
    only the nonzero entries of each power; it must agree with the dense
    Neumann series, and still reject a body that is not nilpotent."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(2, 0), (0, 2), (1, 2), (2, 2), (1, 3)], ids=lambda d: "%d|%d" % d)
    def test_matches_the_dense_series(self, nm, field):
        rng = random.Random("sparse inverse %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        mats = [random_invertible_sf_matrix(rng, sig, t) for t in (1, 2, 3, 4) for _ in range(3)]
        assert flat_inverse_mismatches(mats, sig) == 0

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(1, 0), (2, 1), (1, 2)], ids=lambda d: "%d|%d" % d)
    def test_non_nilpotent_body_raises_on_both(self, nm, field):
        rng = random.Random("non-nilpotent %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        x1 = Superfunction.even_var(sig, 1)
        for t in (1, 2, 3):
            a = random_invertible_sf_matrix(rng, sig, t)
            k = rng.randrange(t)
            a[k][k] = a[k][k] + x1  # the body of N now has x1 on its diagonal
            with pytest.raises(MatrixInversionError):
                dense_neumann_inverse(a, sig)
            with pytest.raises(MatrixInversionError):
                sfmat_inverse(flat_of(a), t, sig)

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_empty_matrix_is_its_own_inverse(self, field):
        assert sfmat_inverse({}, 0, ChartSignature(1, 0, field)) == {}


class TestFlatMatrixLayer:
    """`sfmat_mul` and `sfmat_inverse` take and return flats of nonzero
    entries.  Both against dense references: on seeded matrices with zero
    rows and zero columns, and on the matrices of seeded connections,
    metrics and gauges, over both fields."""

    CASES = [
        (RATIONAL, (2, 0)), (GAUSSIAN, (0, 2)), (RATIONAL, (1, 2)), (GAUSSIAN, (1, 2)), (RATIONAL, (2, 2)), (GAUSSIAN, (2, 2))
    ]

    @staticmethod
    def cases(field, nm):
        """The signature, the pairs of dense factors and the dense matrices
        to invert: seeded ones, each product with a zero row in its first
        factor and a zero column in its second; every Γ_a Γ_b of seeded
        connections; and seeded soul metrics and unipotent gauges, a gauge
        transposed too."""
        rng = random.Random("flat layer %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        chart = Chart.tangent(sig)
        t = sig.total
        products = []
        for zeros in (0.0, 0.5, 0.9, 1.0):
            for _ in range(3):
                rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
                a = random_sf_matrix(rng, sig, rows, inner, zeros)
                b = random_sf_matrix(rng, sig, inner, cols, zeros)
                a[rng.randrange(rows)] = [Superfunction.zero(sig)] * inner
                j = rng.randrange(cols)
                for row in b:
                    row[j] = Superfunction.zero(sig)
                products.append((a, b))
        inverses = [random_invertible_sf_matrix(rng, sig, k) for k in (1, 2, 3, 4)]
        for conn in (random_connection(rng, chart), random_sparse_connection(rng, chart)):
            gamma = dense_gamma(conn)
            products += [(gamma[a], gamma[b]) for a in range(t) for b in range(t)]
        for _ in range(2):
            g = dense_of(sig, t, random_soul_metric(rng, sig).g)
            gauge = dense_of(sig, t, random_unipotent_gauge(rng, sig, chart.rank))
            products += [(g, g), (g, gauge), (gauge, g)]
            inverses += [g, gauge, [list(col) for col in zip(*gauge)]]
        return sig, products, inverses

    @pytest.mark.parametrize("field, nm", CASES)
    def test_flats_match_the_dense_products_and_series(self, field, nm):
        sig, products, inverses = self.cases(field, nm)
        assert flat_mul_mismatches(products, sig) == 0
        assert flat_inverse_mismatches(inverses, sig) == 0
        for a in inverses:
            # a two-sided inverse, and no zero entry kept
            t = len(a)
            inv = sfmat_inverse(flat_of(a), t, sig)
            one = {(i, i): Superfunction.constant(sig, 1) for i in range(t)}
            assert sfmat_mul(flat_of(a), inv, sig) == one == sfmat_mul(inv, flat_of(a), sig)
            assert all(inv.values())

    def test_a_transposed_product_entry_is_caught(self, monkeypatch):
        mul = geo.sfmat_mul

        def transposing(a, b, sig):
            out = mul(a, b, sig)
            key = next((key for key in out if key[0] != key[1]), None)
            if key is not None:
                out[key[::-1]] = out.pop(key)
            return out

        monkeypatch.setattr(geo, "sfmat_mul", transposing)
        caught = []
        for case in self.CASES:
            sig, products, _ = self.cases(*case)
            caught.append(flat_mul_mismatches(products, sig))
        assert all(caught), caught

    def test_a_dropped_soul_term_in_the_inverse_is_caught(self, monkeypatch):
        inverse = geo.sfmat_inverse

        def dropping(a, t, sig):
            out = inverse(a, t, sig)
            key = next((key for key, f in out.items() if set(f.terms) - {0}), None)
            if key is not None:
                soul = min(set(out[key].terms) - {0})
                out[key] = Superfunction(sig, {mask: poly for mask, poly in out[key].terms.items() if mask != soul})
            return out

        monkeypatch.setattr(geo, "sfmat_inverse", dropping)
        caught = []
        for case in self.CASES:
            sig, _, inverses = self.cases(*case)
            # a signature with odd coordinates has soul terms to drop
            if sig.m:
                caught.append(flat_inverse_mismatches(inverses, sig))
        assert caught and all(caught), caught

    def test_a_zero_row_is_singular(self):
        # the size is not read from the flat: a 2x2 matrix with a zero row
        sig = ChartSignature(1, 1)
        with pytest.raises(MatrixInversionError):
            sfmat_inverse({(0, 0): Superfunction.constant(sig, 1)}, 2, sig)


def dense_nonzero_gamma(conn):
    """`nonzero_gamma` of every direction read off dense rows, as it was
    before the table became flats: column B lists (A, Γ^A_{cB}) and row A
    lists (B, Γ^A_{cB}) for the nonzero entries."""
    r = conn.chart.rank.total
    return [
        (
            [[(A, g[A][B]) for A in range(r) if g[A][B].terms] for B in range(r)],
            [[(B, f) for B, f in enumerate(row) if f.terms] for row in g],
        )
        for g in dense_gamma(conn)
    ]


class TestFlatChristoffelTable:
    """A connection built from flats and the same table given as every entry
    of its dense rows, zeros included and in reverse order, are one
    connection: the same flats, `nonzero_gamma`, curvature, torsion and
    tower tables."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(1, 2), (2, 1)], ids=lambda d: "%d|%d" % d)
    def test_flats_and_dense_rows_give_one_connection(self, nm, field):
        rng = random.Random("flat table %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        chart = Chart.tangent(sig)
        t = sig.total
        conns = [random_connection(rng, chart), random_sparse_connection(rng, chart, 5)]
        conns += [random_torsion_free_connection(rng, sig)]
        for conn in conns:
            rows = dense_gamma(conn)
            every = [
                {(A, B): mat[A][B] for A, B in reversed(list(itertools.product(range(t), repeat=2)))} for mat in rows
            ]
            dense = ConnectionData(chart, every)
            assert dense.gamma == conn.gamma == [flat_of(mat) for mat in rows]
            assert all(list(g) == sorted(g) and all(g.values()) for g in dense.gamma)
            assert [dense.nonzero_gamma(c) for c in range(t)] == dense_nonzero_gamma(conn)
            assert [conn.nonzero_gamma(c) for c in range(t)] == dense_nonzero_gamma(conn)
            assert curvature(dense).components == curvature(conn).components
            assert torsion(dense) == torsion(conn)
            for canonical in (True, False):
                for x, y in zip(sparse_tower(dense, 2, canonical), sparse_tower(conn, 2, canonical)):
                    assert list(x.components.items()) == list(y.components.items()) and x.parities == y.parities


def dense_validation_error(chart, gamma):
    """The message of the first Christoffel entry of the wrong parity, from a
    scan of every entry, the zero ones included; None when all are right."""
    for a in range(chart.sig.total):
        pa = chart.coord_parity(a)
        for A in range(chart.rank.total):
            for B in range(chart.rank.total):
                want = (pa + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
                par = gamma[a][A][B].parity()
                if par == "mixed" or (par == "even" and want == 1) or (par == "odd" and want == 0):
                    return "gamma[%d][%d][%d] must be homogeneous of parity %d" % (a, A, B, want)
    return None


class TestConnectionValidation:
    """`ConnectionData` checks only the nonzero entries, in sorted order
    whatever the order it is given them in; the first bad entry and its
    message must be those of the dense scan."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm, pq", [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((1, 2), (2, 0)), ((0, 2), (1, 1))], ids=str)
    def test_same_first_failure_as_the_dense_scan(self, nm, pq, field):
        rng = random.Random("validation %r %r %s" % (nm, pq, field))
        sig = ChartSignature(*nm, field)
        chart = Chart(sig, SuperDim(*pq))
        t, rk = sig.total, chart.rank.total
        failed = 0
        for _ in range(10):
            gamma = dense_gamma(random_sparse_connection(rng, chart, entries=3))
            assert dense_validation_error(chart, gamma) is None
            ConnectionData(chart, [flat_of(g) for g in gamma])
            for _ in range(rng.randint(1, 3)):
                a, A, B = rng.randrange(t), rng.randrange(rk), rng.randrange(rk)
                # an entry of the wrong parity, or of both parities
                wrong = (chart.coord_parity(a) + chart.fiber_parity(A) + chart.fiber_parity(B) + 1) % 2
                f = random_superfunction(rng, sig, wrong)
                gamma[a][A][B] = f + random_superfunction(rng, sig, 1 - wrong) if rng.random() < 0.3 else f
            want = dense_validation_error(chart, gamma)
            flats = [dict(reversed(list(flat_of(g).items()))) for g in gamma]
            if want is None:
                ConnectionData(chart, flats)
                continue
            failed += 1
            with pytest.raises(ValueError) as err:
                ConnectionData(chart, flats)
            assert str(err.value) == want
        assert failed

    def test_out_of_range_entries_and_direction_counts(self):
        sig = ChartSignature(1, 1)
        chart = Chart(sig, SuperDim(1, 1))
        x1 = Superfunction.even_var(sig, 1)
        for gamma in ([{}], [{}, {}, {}], [{(2, 0): x1}, {}], [{}, {(0, -1): x1}]):
            with pytest.raises(ValueError, match=r"^gamma must be \(n\+m\) x \(p\+q\) x \(p\+q\)$"):
                ConnectionData(chart, gamma)


def assert_canonical(f):
    """Every coefficient of f is nonzero, and over the rationals an int or a
    Fraction with denominator above 1."""
    for poly in f.terms.values():
        for v in poly.values():
            assert v
            if f.sig.field == RATIONAL:
                assert is_canonical_rational(v), repr(v)
            else:
                assert type(v) is GaussianRational, repr(v)


def halved(rng, sig, parity=None):
    """A seeded superfunction scaled by a factor with a denominator, so that
    sums and products of such functions often cancel it."""
    f = random_superfunction(rng, sig, parity, maxdeg=2)
    c = rng.choice([Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3), 2])
    return f.scale(GaussianRational(c, c) if sig.field == GAUSSIAN else c)


class TestCanonicalCoefficients:
    """No superfunction holds an integral Fraction: each coefficient an
    arithmetic, derivative or geometry kernel produces is an int when it is
    integral, and a Gaussian coefficient stays a GaussianRational."""

    def test_cancelled_halves_are_ints(self):
        sig = ChartSignature(1, 1)
        half = Superfunction.constant(sig, Fraction(1, 2))
        two = Superfunction.constant(sig, 2)
        x1 = Superfunction.even_var(sig, 1)
        acc = {}
        mul_into(acc, half, two)
        for f in (half * two, half + half, half.scale(3) - half, half.scale(2), (x1 * x1 * half).partial(1),
                  accumulated(sig, acc)):
            assert_canonical(f)
            assert any(type(v) is int for poly in f.terms.values() for v in poly.values())

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(1, 1), (2, 2), (1, 3)], ids=lambda d: "%d|%d" % d)
    def test_arithmetic(self, nm, field):
        rng = random.Random("canonical arithmetic %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        for _ in range(20):
            f, g = halved(rng, sig), halved(rng, sig)
            acc = {}
            mul_into(acc, f, g)
            add_into(acc, f.terms, -1)
            add_into(acc, g.terms)
            results = [f * g, g * f, f + g, f - g, f + f, f.scale(2), f.scale(Fraction(2, 3)), accumulated(sig, acc)]
            results += [f.partial(a) for a in range(1, sig.total + 1)]
            for h in results:
                assert_canonical(h)

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(0, 2), (1, 2)], ids=lambda d: "%d|%d" % d)
    def test_geometry_kernels(self, nm, field):
        rng = random.Random("canonical geometry %d|%d %s" % (nm + (field,)))
        sig = ChartSignature(*nm, field)
        point = sig.coerce_point([Fraction(1, 2)] * sig.n)
        for t in (1, 2, 3):
            for f in sfmat_inverse(flat_of(random_invertible_sf_matrix(rng, sig, t)), t, sig).values():
                assert_canonical(f)
        for _ in range(3):
            lc = levi_civita(random_soul_metric(rng, sig))
            for g in lc.gamma:
                for f in g.values():
                    assert_canonical(f)
            rk = lc.chart.rank.total
            tables = sparse_tower(lc, 1, False) + sparse_tower(lc, 2, True)
            for table in tables:
                for flat in table.components.values():
                    for f in flat.values():
                        assert_canonical(f)
            gamma = geo.gamma_at(lc, point)
            for table in tables:
                values = {key: geo.values_at(flat, point, rk) for key, flat in table.components.items()}
                for at in geo._derivative_at(lc, table, values, point, gamma).values():
                    assert all(is_canonical_rational(v) if field == RATIONAL else type(v) is GaussianRational
                               for v in at.values())

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
            gamma = dense_gamma(conn)
            want = {}
            for a, b in itertools.product(range(t), repeat=2):
                sign = (-1) ** (chart.coord_parity(a) * chart.coord_parity(b))
                vec = {c: gamma[a][c][b] - gamma[b][c][a].scale(sign) for c in range(t)}
                if any(vec.values()):
                    want[(a, b)] = {c: f for c, f in vec.items() if f}
            # exactly the nonzero T^c_ab, every pair with one kept
            assert torsion(conn) == want
            nonzero += sum(map(len, want.values()))
        assert nonzero

    def test_classical_symmetric_torsion_free(self):
        rng = random.Random(25)
        sig = ChartSignature(2, 0)
        conn = random_torsion_free_connection(rng, sig)
        assert torsion(conn) == {}

    def test_r01_torsion(self):
        sig = ChartSignature(0, 1)
        assert torsion(r01_connection()) == {(0, 0): {0: Superfunction.odd_var(sig, 1).scale(2)}}

    def test_levi_civita_torsion_free(self):
        metric = curved_02_metric()
        assert torsion(levi_civita(metric)) == {}

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
            assert torsion(conn) == {}
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
    gamma = dense_gamma(conn)
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
    mats = dense_curvature(conn)
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
    mats = dense_curvature(conn)
    sig = chart.sig
    t, rk = sig.total, chart.rank.total
    rt = {}
    for x, y, z in itertools.product(range(t), repeat=3):
        mat = dense_zeros(sig, rk, rk)
        for c, coef in tor.get((x, y), {}).items():
            mat = [[x + coef * f for x, f in zip(r, row)] for r, row in zip(mat, mats[(c, z)])]
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
            assert curvature(conn).components == {}
        else:
            conn = random_torsion_free_connection(rng, sig)
        assert (torsion(conn) == {}) == (kind == "torsion-free")
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
        assert ricci(conn) == {}

    def test_r01_value(self):
        assert ricci(r01_connection()) == {(0, 0): Superfunction.constant(ChartSignature(0, 1), 2)}

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
    g, gamma = dense_of(chart.sig, chart.sig.total, metric.g), dense_gamma(conn)[a]
    term = reference_partial(g[b][c], a + 1)
    for d in range(chart.sig.total):
        gam = gamma[d][b]
        if not (gam.is_zero() or g[d][c].is_zero()):
            term = reference_sum(term, -(gam * g[d][c]))
        gam = gamma[d][c]
        if not (gam.is_zero() or g[b][d].is_zero()):
            sign = (-1) ** (pb * (pa + chart.coord_parity(c) + chart.coord_parity(d)) + pa * pb)
            term = reference_sum(term, (gam * g[b][d]).scale(-sign))
    return term


def metric_derivatives(metric, a):
    """The nonzero d_a g_bc as `nabla_metric` reads them: row b maps c to
    its terms."""
    t = metric.chart.sig.total
    rows = ({c: reference_partial(f, a + 1) for c, f in enumerate(row)} for row in dense_of(metric.chart.sig, t, metric.g))
    return [{c: d.terms for c, d in row.items() if d} for row in rows]


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
        assert conn.gamma[0][(0, 0)] == parse_superfunction("1/2*xi1*xi2", sig)
        coefficients = [
            v for plane in conn.gamma for f in plane.values() for poly in f.terms.values() for v in poly.values()
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
        gm, gamma = dense_of(sig, 2, metric.g), dense_gamma(conn)
        for k in range(2):
            for a in range(2):
                for b in range(2):
                    koszul = Superfunction.zero(sig)
                    for l in range(2):
                        term = reference_sum(
                            reference_sum(reference_partial(gm[b][l], a + 1), reference_partial(gm[a][l], b + 1)),
                            -reference_partial(gm[a][b], l + 1),
                        )
                        koszul = reference_sum(koszul, term * ginv[l][k])
                    assert gamma[a][k][b] == koszul.scale(Fraction(1, 2))
        assert torsion(conn) == {}

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
        assert torsion(conn) == {}
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
            g = {}
            for b in range(t):
                for c in range(b, t):
                    pb, pc = chart.coord_parity(b), chart.coord_parity(c)
                    if b == c and pb:
                        continue  # g(b, b) = -g(b, b) for odd b
                    g[(b, c)] = random_superfunction(rng, sig, (pb + pc) % 2)
                    g[(c, b)] = g[(b, c)].scale((-1) ** (pb * pc))
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

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", HALF_CHARTS, ids=lambda d: "%d|%d" % d)
    def test_matches_the_all_pairs_koszul_sum(self, nm, field):
        # Γ_{ab} is formed for a <= b and Γ^d_{ba} = (−1)^{|a||b|} Γ^d_{ab}
        # copied: −1 when a and b are both odd, +1 otherwise
        rng = random.Random("koszul half %d|%d %s" % (nm + (field,)))
        seen = Counter()
        for metric in metric_cases(rng, ChartSignature(*nm, field)):
            conn = levi_civita(metric)
            assert conn.gamma == reference_levi_civita(metric).gamma
            seen.update(pair_kind(metric.chart, a, b) for a, g in enumerate(conn.gamma) for _, b in g if a < b)
        # on 0|2, Γ_{ξ1 ξ2} vanishes
        assert seen["odd-odd"] or nm == (0, 2)
        assert seen["mixed"] or not nm[0]

    def test_pool_metrics_match_the_all_pairs_koszul_sum(self):
        seen = Counter()
        for metric in pool_metrics():
            conn = levi_civita(metric)
            assert conn.gamma == reference_levi_civita(metric).gamma
            seen.update(pair_kind(metric.chart, a, b) for a, g in enumerate(conn.gamma) for _, b in g if a < b)
        assert seen["odd-odd"] and seen["mixed"]

    def test_non_nilpotent_body_rejected(self):
        # the classical surface metric diag(1, (1+x1)^2) has no polynomial
        # inverse; it must be rejected with a diagnostic: when validated, as
        # an invalid metric, and unvalidated, by `levi_civita`
        sig = ChartSignature(2, 0)
        chart = Chart.tangent(sig)
        one = Superfunction.constant(sig, 1)
        g22 = parse_superfunction("1 + 2*x1 + x1^2", sig)
        with pytest.raises(ValueError, match="^invalid metric: matrix is not .constant invertible. . nilpotent"):
            MetricData.from_entries(chart, {(1, 1): one, (2, 2): g22})
        report = validate_metric(MetricData(chart, {(0, 0): one, (1, 1): g22}, validate=False))
        assert report["failures"] == ["matrix is not (constant invertible) + nilpotent; exact inversion unsupported"]
        assert report["nondegenerate_at_point"] and report["even_signature"] == (2, 0)
        with pytest.raises(MatrixInversionError):
            levi_civita(MetricData(chart, {(0, 0): one, (1, 1): g22}, validate=False))


def congruence_signature(block):
    """(positives, negatives) of a rational symmetric matrix by congruence:
    the diagonalization that `validate_metric` used before it read the
    signature from the characteristic polynomial."""
    m = [[Fraction(v) for v in row] for row in block]
    n = len(m)
    pos = neg = 0
    for k in range(n):
        if not m[k][k]:
            swap = None
            for r in range(k + 1, n):
                if m[r][r]:
                    swap = r
                    break
            if swap is not None:
                for a in range(n):
                    m[k][a], m[swap][a] = m[swap][a], m[k][a]
                for a in range(n):
                    m[a][k], m[a][swap] = m[a][swap], m[a][k]
            else:
                other = None
                for r in range(k + 1, n):
                    if m[k][r]:
                        other = r
                        break
                if other is None:
                    continue
                for a in range(n):
                    m[k][a] += m[other][a]
                for a in range(n):
                    m[a][k] += m[a][other]
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if m[r][k]:
                c = m[r][k] / d
                for a in range(n):
                    m[r][a] -= c * m[k][a]
                for a in range(n):
                    m[a][r] -= c * m[a][k]
    return (pos, neg)


def random_symmetric_block(rng, n):
    """A seeded rational symmetric n×n matrix.  In half of the draws one or
    more diagonal entries are zero, and in the other half none is."""
    zeros = set(rng.sample(range(n), rng.randint(1, n))) if rng.random() < 0.5 else set()
    block = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if a == b and a in zeros:
                continue
            numerator = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) if a == b else rng.randint(-4, 4)
            block[a][b] = block[b][a] = Fraction(numerator, rng.choice((1, 1, 2, 3)))
    return block


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
        one = Superfunction.constant(sig, 1)
        g = {(0, 0): one, (1, 2): one, (2, 1): -one}
        g[(0, 1)] = g[(1, 0)] = one  # even-odd block, wrong parity
        report = validate_metric(MetricData(chart, g, validate=False))
        assert not report["valid"]

    def test_symmetric_odd_block_invalid(self):
        sig = ChartSignature(0, 2)
        chart = Chart.tangent(sig)
        g = {(0, 1): Superfunction.constant(sig, 1), (1, 0): Superfunction.constant(sig, 1)}  # symmetric, must be skew
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
            g = dense_of(sig, t, random_soul_metric(rng, sig).g)
            for _ in range(2):
                a, b = rng.randrange(t), rng.randrange(t)
                g[a][b] = rng.choice([-g[a][b], g[b][a], g[a][b] + Superfunction.constant(sig, 1)])
            want = [
                "supersymmetry fails at (%d,%d)" % (a + 1, b + 1)
                for a, b in itertools.product(range(t), repeat=2)
                if g[a][b] != g[b][a].scale((-1) ** (chart.coord_parity(a) * chart.coord_parity(b)))
            ]
            failures = validate_metric(MetricData(chart, flat_of(g), validate=False))["failures"]
            assert [f for f in failures if f.startswith("supersymmetry")] == want

    def test_signature_matches_the_congruence_diagonalization(self):
        # the sign changes of the characteristic polynomial against the
        # congruence diagonalization, on nondegenerate blocks from 1x1 to 6x6
        rng = random.Random("signature")
        compared = Counter()
        for n in range(1, 7):
            sig = ChartSignature(n, 0)
            chart = Chart.tangent(sig)
            for _ in range(100):
                block = random_symmetric_block(rng, n)
                g = {(a, b): Superfunction.constant(sig, v) for a, row in enumerate(block) for b, v in enumerate(row)}
                report = validate_metric(MetricData(chart, g, validate=False))
                if report["nondegenerate_at_point"]:
                    assert report["even_signature"] == congruence_signature(block), block
                    compared[n, not all(block[a][a] for a in range(n))] += 1
        # every size is compared, with and without a zero diagonal entry
        assert all(compared[n, zero] >= 10 for n in range(2, 7) for zero in (False, True)), compared

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
