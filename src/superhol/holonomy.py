"""Infinitesimal holonomy, transport validation, parallel sections.

The exact engine evaluates covariant curvature derivatives at a point with
the flat coordinate reference connection and closes under the superbracket.
Float parallel transport is a validation layer only; it never extends the
exact algebra.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .geometry import (
    Chart,
    ConnectionData,
    DerivativeTable,
    _next_derivative,
    curvature,
    nabla_section,
    pure_gauge_connection,
    scalar_matrix_inverse,
    sfmat_value,
)
from .linalg import SparseEchelon, intersect_spans, solve_graded, solve_kernel, span_echelon
from .scalars import field_zero, scalar_float, to_field
from .superfunc import Superfunction
from .superlin import (
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    generate_subalgebra,
    stabilizer_algebra,
    superbracket,
)


class HolonomyResult:
    def __init__(self, algebra, stabilized_at_order, generator_log, status, tables=()):
        self.algebra = algebra
        self.stabilized_at_order = stabilized_at_order
        self.generator_log = generator_log
        self.status = status  # 'stabilized' | 'capped'
        self.tables = list(tables)  # canonical orders 0 and 1, as far as built

    def __repr__(self):
        return "HolonomyResult(dim %d|%d, order %s, %s)" % (
            *self.algebra.graded_dim,
            self.stabilized_at_order,
            self.status,
        )


def default_order_cap(chart: Chart) -> int:
    return 2 * chart.rank.total ** 2 + chart.sig.m


def infinitesimal_holonomy(conn: ConnectionData, point, cap=None) -> HolonomyResult:
    """Bracket closure of evaluated curvature derivatives at the point.

    The tower is canonical (`DerivativeTable.holonomy_seed`): sorted
    directions and one curvature pair of each swap, which close to the same
    algebra as the full tower at every order.  Stops at the first derivative
    order that adds no graded dimension after closure, or at the hard cap
    (status 'capped').
    """
    chart = conn.chart
    sig = chart.sig
    if len(point) != sig.n:
        raise ValueError("point must supply the %d even coordinates" % sig.n)
    if cap is None:
        cap = default_order_cap(chart)
    field = sig.field
    rk = chart.rank
    full_dims = (rk.p ** 2 + rk.q ** 2, 2 * rk.p * rk.q)

    if curvature(conn).is_zero():
        return HolonomyResult(SubSuperalgebra.zero(rk, field), 0, [], "stabilized")

    table = DerivativeTable.holonomy_seed(conn)
    tables = [table]
    log = []

    def harvest(tab, order):
        added = []
        for (dirs, a, b), mat in sorted(tab.components.items()):
            m = SuperMatrix(rk, sfmat_value(mat, point), field)
            if m.is_zero():
                continue
            want = (
                sum(chart.coord_parity(d) for d in dirs)
                + chart.coord_parity(a)
                + chart.coord_parity(b)
            ) % 2
            if m.parity != want:
                raise AssertionError("evaluated generator has unexpected parity")
            label = (tuple(d + 1 for d in dirs), a + 1, b + 1)
            log.append((order, label, m))
            added.append(m)
        return added

    gens = harvest(table, 0)
    algebra = generate_subalgebra(gens, rk, field)
    if algebra.graded_dim == full_dims:
        return HolonomyResult(algebra, 1, log, "stabilized", tables)

    for order in range(1, cap + 1):
        table = _next_derivative(conn, table)
        if order == 1:
            tables.append(table)
        new = harvest(table, order)
        gens.extend(new)
        bigger = generate_subalgebra(gens, rk, field)
        if bigger.total_dim == algebra.total_dim:
            return HolonomyResult(algebra, order, log, "stabilized", tables)
        algebra = bigger
        if algebra.graded_dim == full_dims:
            return HolonomyResult(algebra, order + 1, log, "stabilized", tables)
    return HolonomyResult(algebra, None, log, "capped", tables)


# ---------------------------------------------------------- float transport


class TransportOperator:
    """Float parallel displacement on the body bundle along a polyline."""

    def __init__(self, matrix, path, steps, rank: SuperDim):
        self.matrix = matrix
        self.path = path
        self.steps = steps
        self.rank = rank
        p = rank.p
        if p and rank.q:
            if np.max(np.abs(matrix[:p, p:])) > 0 or np.max(np.abs(matrix[p:, :p])) > 0:
                raise AssertionError("transport lost the even block structure")


def numeric_parallel_transport(conn: ConnectionData, path, steps: int) -> TransportOperator:
    """RK4 integration of dX/dt + Gamma(gamma')X = 0 on the body bundle."""
    chart = conn.chart
    rk = chart.rank.total
    pts = [np.asarray(p, dtype=float) for p in path]
    if len(pts) < 2:
        return TransportOperator(np.eye(rk), path, steps, chart.rank)
    lengths = [np.linalg.norm(q - p) for p, q in zip(pts, pts[1:])]
    total = sum(lengths) or 1.0
    u = np.eye(rk)
    for p, q, ell in zip(pts, pts[1:], lengths):
        nseg = max(1, int(round(steps * ell / total)))
        vel = q - p
        h = 1.0 / nseg

        def a_mat(t):
            x = p + t * vel
            m = np.zeros((rk, rk))
            for i in range(chart.sig.n):
                if vel[i]:
                    m += vel[i] * _float_matrix(conn.gamma[i], x)
            return -m

        for k in range(nseg):
            t0 = k * h
            k1 = a_mat(t0) @ u
            k2 = a_mat(t0 + h / 2) @ (u + h / 2 * k1)
            k3 = a_mat(t0 + h / 2) @ (u + h / 2 * k2)
            k4 = a_mat(t0 + h) @ (u + h * k3)
            u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return TransportOperator(u, path, steps, chart.rank)


def _float_matrix(mat_sf, point):
    """Body of a superfunction matrix at a float point, as a float matrix."""
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


def conjugated_generators(conn: ConnectionData, point, loops, tables, steps=2000):
    """Transport-conjugated components of the given derivative tables, as
    float matrices; the zero ones are left out.

    Only used to validate that their span embeds into the float image of the
    exact algebra; never used to extend it.
    """
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


def span_embedding_residual(float_mats, algebra: SubSuperalgebra):
    """Largest least-squares residual of float matrices against the algebra."""
    basis = algebra.basis()
    if not basis:
        worst = 0.0
        for g in float_mats:
            worst = max(worst, float(np.max(np.abs(g))))
        return worst
    cols = np.stack([
        np.array([[scalar_float(v) for v in row] for row in m.entries]).ravel()
        for m in basis
    ], axis=1)
    worst = 0.0
    for g in float_mats:
        vec = np.asarray(g, float).ravel()
        coef, *_ = np.linalg.lstsq(cols, vec, rcond=None)
        worst = max(worst, float(np.linalg.norm(cols @ coef - vec)))
    return worst


# ------------------------------------------------------- invariant objects


def _common_kernel(mats, dim: SuperDim, field):
    """Graded basis (even, odd) of the vectors all homogeneous matrices kill,
    as sparse dicts."""
    parity = {a: dim.parity(a) for a in range(dim.total)}
    return solve_graded(parity, (dict(enumerate(row)) for m in mats for row in m.entries), field)


def invariant_vectors(algebra: SubSuperalgebra):
    """Graded basis of the common kernel of all basis operators."""
    zero = field_zero(algebra.field)
    t = algebra.dim.total
    return tuple(
        [[vec.get(a, zero) for a in range(t)] for vec in part]
        for part in _common_kernel(algebra.basis(), algebra.dim, algebra.field)
    )


def test_invariant_subspace(algebra: SubSuperalgebra, basis_vectors) -> bool:
    """True iff A w stays in span(W) for all basis A and w."""
    ech = span_echelon([{i: v for i, v in enumerate(w) if v} for w in basis_vectors])
    for m in algebra.basis():
        for w in basis_vectors:
            img = m.apply(list(w))
            if not ech.contains({i: v for i, v in enumerate(img) if v}):
                return False
    return True


# ------------------------------------------------------- parallel sections


class SectionData:
    def __init__(self, components):
        self.components = list(components)

    def value(self, point):
        return sfmat_value([self.components], point)[0]


def check_parallel(conn: ConnectionData, section: SectionData) -> bool:
    """Exact test of the defining equations in all coordinate directions."""
    for a in range(conn.chart.sig.total):
        if any(not f.is_zero() for f in nabla_section(conn, section.components, a)):
            return False
    return True


class ReconstructionResult:
    def __init__(self, status, section=None, reason="", obstruction=None):
        self.status = status  # 'exact' | 'needs_numeric' | 'rejected'
        self.section = section
        self.reason = reason
        self.obstruction = obstruction

    @property
    def ok(self):
        return self.status == "exact"


def _fill_odd_coefficients(conn: ConnectionData, comps):
    """Solve the odd-direction equations degree by degree.

    comps start with the body coefficients; the equation for the smallest odd
    index present in a monomial determines each higher Grassmann coefficient.
    """
    sig = conn.chart.sig
    rk = conn.chart.rank.total
    m = sig.m
    comps = list(comps)
    for size in range(1, m + 1):
        new = {}
        for gi in range(1, m + 1):
            a = sig.n + gi - 1
            bit = 1 << (gi - 1)
            for A in range(rk):
                q = Superfunction.zero(sig)
                for B in range(rk):
                    gam = conn.gamma[a][A][B]
                    if gam.is_zero() or comps[B].is_zero():
                        continue
                    q = q + comps[B].sign_split(1) * gam
                for mask_t, poly in q.terms.items():
                    if bin(mask_t).count("1") != size - 1:
                        continue
                    if mask_t & bit or (mask_t & (bit - 1)):
                        continue  # need gi strictly below every index of T
                    new[(A, mask_t | bit)] = {k: -v for k, v in poly.items()}
        for (A, mask), poly in new.items():
            comps[A] = comps[A] + Superfunction(sig, {mask: poly})
    return comps


def reconstruct_parallel_section(conn: ConnectionData, point, value, gauge=None, cap=None):
    """Rebuild the parallel section with the given value at the point.

    The value must be annihilated by the infinitesimal holonomy; the body
    part needs either a flat body (even-direction tables with zero body) or a
    supplied polynomial gauge.  The output is verified exactly.
    """
    chart = conn.chart
    sig = chart.sig
    rk = chart.rank.total
    field = sig.field
    value = [to_field(v, field) for v in value]

    hol = infinitesimal_holonomy(conn, point, cap)
    for m in hol.algebra.basis():
        img = m.apply(value)
        if any(img):
            return ReconstructionResult(
                "rejected",
                reason="value is not annihilated by the holonomy algebra",
                obstruction=m,
            )

    if gauge is not None:
        expected = pure_gauge_connection(chart, gauge)
        for a in range(sig.total):
            for A in range(rk):
                for B in range(rk):
                    if conn.gamma[a][A][B] != expected.gamma[a][A][B]:
                        return ReconstructionResult(
                            "rejected", reason="supplied gauge does not produce this connection"
                        )
        gval_inv = scalar_matrix_inverse(sfmat_value(gauge, point), field)
        coeffs = [
            sum((gval_inv[B][C] * value[C] for C in range(rk)), field_zero(field))
            for B in range(rk)
        ]
        cand = []
        for A in range(rk):
            acc = Superfunction.zero(sig)
            for B in range(rk):
                if coeffs[B]:
                    acc = acc + gauge[A][B].scale(coeffs[B])
            cand.append(acc)
        section = SectionData(cand)
        if check_parallel(conn, section):
            return ReconstructionResult("exact", section)
        comps = [Superfunction(sig, {0: f.terms.get(0, {})}) for f in cand]
        comps = _fill_odd_coefficients(conn, comps)
        section = SectionData(comps)
        if not check_parallel(conn, section):
            raise AssertionError("gauge reconstruction failed verification")
        return ReconstructionResult("exact", section)

    body_flat = all(
        not conn.gamma[i][A][B].terms.get(0)
        for i in range(sig.n)
        for A in range(rk)
        for B in range(rk)
    )
    if not body_flat:
        return ReconstructionResult(
            "needs_numeric",
            reason="body connection is not recognizably pure gauge; supply a gauge "
            "or use numeric transport",
        )
    comps = [Superfunction.constant(sig, value[A]) for A in range(rk)]
    comps = _fill_odd_coefficients(conn, comps)
    section = SectionData(comps)
    if not check_parallel(conn, section):
        return ReconstructionResult(
            "rejected", reason="no parallel section with this value exists"
        )
    return ReconstructionResult("exact", section)


# ----------------------------------------------------------- certificates


def flatness_certificate(conn: ConnectionData):
    witness = curvature(conn).first_nonzero()
    return {"flat": witness is None, "witness": witness}


def classify_geometry(algebra: SubSuperalgebra, candidates):
    """Containment of the algebra in each candidate structure stabilizer."""
    report = []
    for cand in candidates:
        if "algebra" in cand:
            stab = cand["algebra"]
        else:
            stab = stabilizer_algebra(cand["tensor"])
        report.append(
            {"structure": cand["label"], "contained": stab.contains_algebra(algebra)}
        )
    return report


# ------------------------------------------------- decomposability search


def _subspace_key(vectors):
    ech = span_echelon(vectors)
    return tuple(
        (p, tuple(sorted((c, str(v)) for c, v in row.items())))
        for p, row in sorted(ech.pivot_rows.items())
    )


def _graded_parts(vec_dicts, p):
    even, odd = [], []
    for v in vec_dicts:
        if all(c < p for c in v):
            even.append(v)
        elif all(c >= p for c in v):
            odd.append(v)
        else:
            return None
    return even, odd


def _matrix_image_graded(m: SuperMatrix):
    t = m.dim.total
    out = []
    for B in range(t):
        col = {A: m.entries[A][B] for A in range(t) if m.entries[A][B]}
        if col:
            out.append(col)
    return out


def _gram_rank(vectors, body, field):
    k = len(vectors)
    rows = []
    for i in range(k):
        row = {}
        for j in range(k):
            acc = field_zero(field)
            for a, va in vectors[i].items():
                for b, vb in vectors[j].items():
                    gv = body[a][b]
                    if gv:
                        acc = acc + va * gv * vb
            if acc:
                row[j] = acc
        rows.append(row)
    return span_echelon(rows).rank


def _spin(seed, mats, t):
    ech = SparseEchelon()
    ech.insert(dict(seed))
    frontier = [seed]
    while frontier and ech.rank < t:
        nxt = []
        for v in frontier:
            dense = [field_zero(mats[0].field)] * t if mats else []
            for c, val in v.items():
                dense[c] = val
            for m in mats:
                img = m.apply(dense)
                vec = {i: w for i, w in enumerate(img) if w}
                if vec and ech.insert(vec):
                    nxt.append(vec)
        frontier = nxt
    return ech


def _norton_irreducible(algebra: SubSuperalgebra, tries=40) -> bool:
    """Certified irreducibility via nullity-one singular algebra elements."""
    basis = algebra.basis()
    if not basis:
        return False
    t = algebra.dim.total
    dim = algebra.dim
    field = algebra.field
    candidates = list(basis)
    for a, b in itertools.combinations(range(len(basis)), 2):
        candidates.append(basis[a].matmul(basis[b]))
    rng = random.Random(20240515)
    for _ in range(tries):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        acc = SuperMatrix.zeros(dim, field)
        for c, m in zip(coeffs, basis):
            if c:
                acc = acc + m.scale(c)
        candidates.append(acc)
    transposed = [
        SuperMatrix(dim, [[m.entries[b][a] for b in range(t)] for a in range(t)], field)
        for m in basis
    ]
    for z in candidates:
        ker = solve_kernel(range(t), [dict(enumerate(row)) for row in z.entries], field)
        if len(ker) != 1:
            continue
        ker_t = solve_kernel(range(t), [dict(enumerate(col)) for col in zip(*z.entries)], field)
        if len(ker_t) != 1:
            continue
        if _spin(ker[0], basis, t).rank == t and _spin(ker_t[0], transposed, t).rank == t:
            return True
    return False


def decomposability_certificate(algebra: SubSuperalgebra, metric_body, max_candidates=200):
    """Search for a nondegenerate invariant graded subspace.

    Returns {'status': 'decomposable', 'witness': ..., 'complement': ...} or
    {'status': 'weakly_irreducible'} (certified via an irreducibility test)
    or {'status': 'inconclusive'} when the candidate pool is exhausted.
    """
    dim = algebra.dim
    t = dim.total
    field = algebra.field

    def nondegenerate(vectors):
        parts = _graded_parts(vectors, dim.p)
        if parts is None:
            return False
        for part in parts:
            if part and _gram_rank(part, metric_body, field) != len(part):
                return False
        return True

    def orthogonal_complement(vectors):
        rows = []
        for w in vectors:
            row = {}
            for b in range(t):
                acc = field_zero(field)
                for a, va in w.items():
                    gv = metric_body[a][b]
                    if gv:
                        acc = acc + va * gv
                row[b] = acc
            rows.append(row)
        return solve_kernel(range(t), rows, field)

    def finish(vectors):
        comp = orthogonal_complement(vectors)
        wit = [vec_dense(v) for v in vectors]
        cmp_dense = [vec_dense(v) for v in comp]
        if not test_invariant_subspace(algebra, cmp_dense):
            return None
        if not nondegenerate(comp):
            return None
        if len(vectors) + len(comp) != t:
            return None
        return {
            "status": "decomposable",
            "witness": wit,
            "complement": cmp_dense,
        }

    def vec_dense(v):
        out = [field_zero(field)] * t
        for c, val in v.items():
            out[c] = to_field(val, field)
        return out

    basis = algebra.basis()
    ops = list(basis)
    for i, j in itertools.combinations(range(len(basis)), 2):
        br = superbracket(basis[i], basis[j])
        if not br.is_zero():
            ops.append(br)

    pool = []
    seen = set()

    def push(vectors):
        if not vectors or len(vectors) >= t:
            return
        # kernels, images, sums and intersections of graded pieces in reduced
        # echelon form have homogeneous rows
        if _graded_parts(vectors, dim.p) is None:
            raise AssertionError("candidate subspace is not graded")
        key = _subspace_key(vectors)
        if key in seen:
            return
        seen.add(key)
        pool.append([dict(v) for v in span_echelon(vectors).basis()])

    for op in ops:
        even, odd = _common_kernel([op], dim, field)
        push(even + odd)
        push(_matrix_image_graded(op))
    if not ops:
        # the zero algebra leaves every subspace invariant: try the
        # coordinate lines and planes
        one = to_field(1, field)
        planes = [*itertools.combinations(range(dim.p), 2), *itertools.combinations(range(dim.p, t), 2)]
        for coords in [(a,) for a in range(dim.p)] + planes:
            push([{a: one} for a in coords])
    snapshot = list(pool)
    for va, vb in itertools.combinations(snapshot, 2):
        if len(pool) >= max_candidates:
            break
        push(va + vb)
        push(intersect_spans(va, vb, t))
    pool = pool[:max_candidates]

    for cand in pool:
        dense = [vec_dense(v) for v in cand]
        if not test_invariant_subspace(algebra, dense):
            continue
        if not nondegenerate(cand):
            continue
        res = finish(cand)
        if res:
            return res

    if _norton_irreducible(algebra):
        return {"status": "weakly_irreducible"}
    return {"status": "inconclusive"}
