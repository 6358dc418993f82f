"""Infinitesimal holonomy, transport validation, parallel sections.

The exact engine evaluates covariant curvature derivatives at a point with
the flat coordinate reference connection and closes under the superbracket.
Float parallel transport is a validation layer only; it never extends the
exact algebra.
"""

from __future__ import annotations

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
from .linalg import same_span, solve_kernel, span_echelon
from .scalars import field_zero, scalar_float, to_field
from .superfunc import Superfunction
from .superlin import (
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    associative_closure,
    commutant,
    common_kernel,
    generate_subalgebra,
    radical,
    split,
    stabilizer_algebra,
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
    algebra as the full tower at every order.  Each order's generators grow
    the algebra closed at the order before.  Stops at the first derivative
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

    algebra = generate_subalgebra(harvest(table, 0), rk, field)
    if algebra.graded_dim == full_dims:
        return HolonomyResult(algebra, 1, log, "stabilized", tables)

    for order in range(1, cap + 1):
        table = _next_derivative(conn, table)
        if order == 1:
            tables.append(table)
        # the algebra so far is closed: only this order's generators are new
        bigger = generate_subalgebra(harvest(table, order), rk, field, algebra)
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


def invariant_vectors(algebra: SubSuperalgebra):
    """Graded basis of the common kernel of all basis operators."""
    zero = field_zero(algebra.field)
    t = algebra.dim.total
    return tuple(
        [[vec.get(a, zero) for a in range(t)] for vec in part]
        for part in common_kernel(algebra.basis(), algebra.dim, algebra.field)
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


def decomposability_certificate(algebra: SubSuperalgebra, metric_body):
    """Wu decomposition of V under an algebra that preserves the metric body G.

    S is the commutant of the algebra among the G-self-adjoint even matrices
    (X^T G = G X); the G-orthogonal projections onto the nondegenerate
    invariant graded subspaces are exactly the idempotents of S.  When the
    associative algebra A that S and 1 generate has dim A/rad A = 1, A is
    local, its only idempotents are 0 and 1, and the result is
    {'status': 'weakly_irreducible'}.  Otherwise `split` on S gives a witness
    and its complement, and the result is {'status': 'decomposable',
    'witness': ..., 'complement': ...} once both are checked exactly:
    invariant, each the G-orthogonal complement of the other, and together
    spanning V.  Failing that, {'status': 'inconclusive', 'reason': ...}.
    """
    dim = algebra.dim
    t = dim.total
    field = algebra.field
    g = metric_body
    selfadjoint = []
    for c in range(t):
        for d in range(t):
            # entry (c, d) of X^T G - G X
            row = {}
            for b in range(t):
                row[b * t + c] = row.get(b * t + c, 0) + g[b][d]
                row[b * t + d] = row.get(b * t + d, 0) - g[c][b]
            selfadjoint.append(row)
    sym = commutant(algebra.basis(), dim, field, selfadjoint)
    closure = associative_closure(sym + [SuperMatrix.identity(dim, field)], dim)
    quotient = closure.rank - len(radical(closure, dim, field))
    if quotient == 1:
        return {"status": "weakly_irreducible"}
    parts = split(sym, dim, field)
    if parts is None:
        return {
            "status": "inconclusive",
            "reason": "dim A/rad A = %d, but no seeded draw from the self-adjoint commutant "
            "has an eigenvalue in the field with a proper generalized eigenspace" % quotient,
        }

    def perp(vectors):
        return solve_kernel(range(t), ({b: sum(v * g[a][b] for a, v in w.items()) for b in range(t)} for w in vectors), field)

    witness, complement = parts
    dense = [[[vec.get(a, field_zero(field)) for a in range(t)] for vec in part] for part in parts]
    if (
        all(test_invariant_subspace(algebra, part) for part in dense)
        and same_span(perp(witness), complement)
        and same_span(perp(complement), witness)
        and span_echelon(witness + complement).rank == t
    ):
        return {"status": "decomposable", "witness": dense[0], "complement": dense[1]}
    return {"status": "inconclusive", "reason": "the split of the self-adjoint commutant failed its exact check"}
