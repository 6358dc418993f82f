"""Infinitesimal holonomy, transport validation, parallel sections.

The exact engine evaluates covariant curvature derivatives at a point with
the flat coordinate reference connection and closes under the superbracket.
Float parallel transport is a validation layer only; it never extends the
exact algebra.
"""

from __future__ import annotations

import math

from .geometry import (
    Chart,
    ConnectionData,
    DerivativeTable,
    _derivative_at,
    _next_derivative,
    curvature,
    gamma_at,
    nabla_section,
    pure_gauge_connection,
    scalar_matrix_inverse,
    values_at,
)
from .linalg import same_span, solve_kernel, span_echelon
from .reportio import MAX_TRANSPORT_STEPS
from .scalars import field_zero, scalar_float, to_field
from .superfunc import Superfunction
from .superlin import (
    SubSuperalgebra,
    SuperMatrix,
    associative_closure,
    commutant,
    common_kernel,
    generate_subalgebra,
    radical,
    sparse_lines,
    spin,
    split,
)


class HolonomyResult:
    def __init__(self, algebra, stabilized_at_order, generator_log, status, tables=()):
        self.algebra = algebra
        self.stabilized_at_order = stabilized_at_order
        self.generator_log = generator_log
        self.status = status  # 'stabilized' | 'capped'
        self.tables = list(tables)  # sparse canonical order 0, and order 1 once built

    def __repr__(self):
        return "HolonomyResult(dim %d|%d, order %s, %s)" % (
            *self.algebra.graded_dim,
            self.stabilized_at_order,
            self.status,
        )


def default_order_cap(chart: Chart) -> int:
    return 2 * chart.rank.total ** 2 + chart.sig.m


def infinitesimal_holonomy(conn: ConnectionData, point, cap=None, bound=None) -> HolonomyResult:
    """Bracket closure of evaluated curvature derivatives at the point.

    The tower is canonical (`DerivativeTable.holonomy_seed`): sorted
    directions and one curvature pair of each swap, which close to the same
    algebra as the full tower at every order.  Each order's generators that
    lie outside the algebra closed at the order before grow it.  Stops at
    the first derivative order whose generators all lie in the algebra, or
    at the hard cap (status 'capped').  An algebra that reaches the graded
    dim of gl(E), or `bound`, the graded dim of an algebra known to contain
    the holonomy algebra (stab(g_p) for a Levi-Civita connection), can grow
    no more: the run stops there and reports the next order, which it would
    have found adding nothing.  At `bound` it does so only when that order
    is within the cap, so the bound changes no result.

    Only the values at the point of each order are read: order k is
    evaluated at the point from the table of order k - 1 by one walk over
    each of its components (`_derivative_at`), and the table of order k is
    built, again one walk per component (`_next_derivative`), only when the
    run goes on to order k + 1.  `tables` holds order 0, and order 1 once
    it is built.
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
    most = sum(bound or full_dims)  # the closure stops at that dimension

    def complete(algebra, order):
        """Whether the algebra closed at `order` can grow no more: it has the
        graded dim of gl(E), or that of `bound` with order + 1 within the
        cap (past the cap the run is capped, with or without the bound)."""
        dims = algebra.graded_dim
        return dims == full_dims or (dims == bound and order < cap)

    if not curvature(conn).components:
        return HolonomyResult(SubSuperalgebra.zero(rk, field), 0, [], "stabilized")

    table = DerivativeTable.holonomy_seed(conn)
    tables = [table]
    log = []
    pt = sig.coerce_point(point)

    def harvest(values, order):
        added = []
        for key in sorted(values):
            # a component whose values at the point all vanish builds no matrix
            flat = values[key]
            if not flat:
                continue
            m = SuperMatrix.from_flat(rk, flat, field)
            dirs, a, b = key
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

    values = {key: values_at(flat, pt, rk.total) for key, flat in table.components.items()}
    algebra = generate_subalgebra(harvest(values, 0), rk, field, None, most)
    if complete(algebra, 0):
        return HolonomyResult(algebra, 1, log, "stabilized", tables)

    gamma = gamma_at(conn, pt)
    for order in range(1, cap + 1):
        if order > 1:
            table = _next_derivative(conn, table)
            if order == 2:
                tables.append(table)
        values = _derivative_at(conn, table, values, pt, gamma)
        # the algebra so far is closed: an order whose generators all lie in
        # it adds nothing, and the others grow it
        new = [m for m in harvest(values, order) if not algebra.contains_matrix(m)]
        if not new:
            return HolonomyResult(algebra, order, log, "stabilized", tables)
        algebra = generate_subalgebra(new, rk, field, algebra, most)
        if complete(algebra, order):
            return HolonomyResult(algebra, order + 1, log, "stabilized", tables)
    return HolonomyResult(algebra, None, log, "capped", tables)


def transport_tables(conn: ConnectionData, hol: HolonomyResult):
    """The canonical order-0 and order-1 tables of a holonomy run, for
    transport validation.  A run that stopped before it built order 1 gets
    it here, once: it is kept on `hol.tables`.  A flat connection has none."""
    if len(hol.tables) == 1:
        hol.tables.append(_next_derivative(conn, hol.tables[0]))
    return hol.tables


# ---------------------------------------------------------- float transport

# RK4 steps whose propagators are built in one batch: transport memory is
# O(TRANSPORT_CHUNK * rank^2) whatever the number of steps.
TRANSPORT_CHUNK = 256
# Largest h·rank·bound on |A(t)| entries at which a segment is stepped: a
# bound on h·‖A‖, well inside RK4's stability interval (about 2.8).
TRANSPORT_STEP_MARGIN = 0.5


class TransportStepsError(ArithmeticError):
    """The RK4 step count a stable transport needs is above the cap."""


def _compile_body(entries, shape, n):
    """The body of a superfunction matrix of the given shape, given as its
    nonzero entries (row, col, f), compiled for float evaluation: the
    exponents of its monomials, shape (M, n), and one float coefficient
    matrix per monomial, shape (M,) + shape.  Raises NotRealError on a
    non-real coefficient."""
    import numpy as np

    index = {}
    cells = []
    for A, B, f in entries:
        for exps, coef in f.terms.get(0, {}).items():
            cells.append((index.setdefault(exps, len(index)), A, B, scalar_float(coef)))
    coefs = np.zeros((len(index),) + shape)
    for k, A, B, c in cells:
        coefs[k, A, B] = c
    return np.array(list(index), dtype=float).reshape(len(index), n), coefs


def _eval_body(body, points):
    """A compiled body at float points of shape (N, n), as an array of shape
    (N, rows, columns)."""
    import numpy as np

    exps, coefs = body
    count, rows, columns = coefs.shape
    monomials = np.prod(points[:, None, :] ** exps, axis=2)
    return (monomials @ coefs.reshape(count, rows * columns)).reshape(len(points), rows, columns)


def _entry_bound(body, p, q):
    """A bound on every entry of a compiled body on the segment from p to q:
    Σ_k |c_k| Π_i max(|p_i|, |q_i|)^{e_ki}, the largest over the entries,
    since each |x_i|^e is largest at an end of the segment's range in x_i."""
    import numpy as np

    exps, coefs = body
    count, rows, columns = coefs.shape
    monomials = np.prod(np.maximum(np.abs(p), np.abs(q)) ** exps, axis=1)
    return float((monomials @ np.abs(coefs).reshape(count, rows * columns)).max(initial=0.0))


def _ordered_product(s):
    """The product s[-1] @ ... @ s[1] @ s[0] of a batch of square matrices,
    taken pairwise in step order: each pass multiplies s[2k + 1] @ s[2k] as
    one batched matmul and carries an odd last matrix to the next pass, so
    the batch takes about log2(len(s)) passes."""
    import numpy as np

    while len(s) > 1:
        pairs = s[1::2] @ s[0 : len(s) - 1 : 2]
        s = pairs if len(s) % 2 == 0 else np.concatenate([pairs, s[-1:]])
    return s[0]


def numeric_parallel_transport(conn: ConnectionData, path, steps: int):
    """RK4 integration of dX/dt + Gamma(gamma')X = 0 on the body bundle, as
    the float matrix X(1); a path of fewer than two points gives the identity.

    Each segment of the polyline gets its share of `steps`, by length, or
    more: its count is raised until h·rank·bound <= TRANSPORT_STEP_MARGIN,
    for the bound on every entry of A on the segment (`_entry_bound`).  A
    segment that would need more than MAX_TRANSPORT_STEPS raises
    TransportStepsError, and a bound beyond float range OverflowError.  The
    bodies of the Gamma_i that the path moves along are compiled once; the
    others are never read, so only those can raise NotRealError.  The ODE is
    linear, so each step is the propagator S_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
    with K1 = A0, K2 = Am (I + h/2 K1), K3 = Am (I + h/2 K2), K4 = A1 (I + h K3),
    A0, Am, A1 the matrix A(t) = -sum_i vel_i Gamma_i at the start, midpoint
    and end of the step.  For each chunk of TRANSPORT_CHUNK steps, A is
    evaluated at all of its nodes in one pass and the propagators are built
    as one batch; `_ordered_product` multiplies them pairwise in step order,
    and that product of the chunk is folded into X.  X must keep the even
    block structure of the rank, which is checked.
    """
    import numpy as np

    chart = conn.chart
    n = chart.sig.n
    rk = chart.rank.total
    pts = [np.asarray(p, dtype=float) for p in path]
    lengths = [np.linalg.norm(q - p) for p, q in zip(pts, pts[1:])]
    total = sum(lengths) or 1.0
    eye = np.eye(rk)
    u = eye
    bodies = {}
    for p, q, ell in zip(pts, pts[1:], lengths):
        nseg = max(1, int(round(steps * ell / total)))
        vel = q - p
        moved = [i for i in range(n) if vel[i]]
        if not moved:
            continue  # A = 0: every propagator is the identity
        for i in moved:
            if i not in bodies:
                entries = [(A, B, g) for (A, B), g in conn.gamma[i].items()]
                bodies[i] = _compile_body(entries, (rk, rk), n)
        # A(t) as one compiled body: the monomials of every moved direction
        body = (
            np.concatenate([bodies[i][0] for i in moved]),
            np.concatenate([-vel[i] * bodies[i][1] for i in moved]),
        )
        need = rk * _entry_bound(body, p, q) / TRANSPORT_STEP_MARGIN
        if not math.isfinite(need):
            raise OverflowError("the bound on A(t) on a path segment is not finite")
        if need > MAX_TRANSPORT_STEPS:
            raise TransportStepsError(
                "needs %.6g RK4 steps on a path segment, above the cap of %d" % (math.ceil(need), MAX_TRANSPORT_STEPS)
            )
        nseg = max(nseg, math.ceil(need))
        h = 1.0 / nseg
        for start in range(0, nseg, TRANSPORT_CHUNK):
            stop = min(nseg, start + TRANSPORT_CHUNK)
            # nodes j h/2: step k has its start, midpoint and end at j = 2k, 2k+1, 2k+2
            t = np.arange(2 * start, 2 * stop + 1) * (h / 2)
            a = _eval_body(body, p + t[:, None] * vel)
            a0, am, a1 = a[0:-1:2], a[1::2], a[2::2]
            k2 = am + h / 2 * (am @ a0)
            k3 = am + h / 2 * (am @ k2)
            k4 = a1 + h * (a1 @ k3)
            u = _ordered_product(eye + h / 6 * (a0 + 2 * k2 + 2 * k3 + k4)) @ u
    even = chart.rank.p
    if even and chart.rank.q and (np.max(np.abs(u[:even, even:])) > 0 or np.max(np.abs(u[even:, :even])) > 0):
        raise AssertionError("transport lost the even block structure")
    return u


def conjugated_generators(conn: ConnectionData, point, path, tables, steps=2000):
    """Transport-conjugated components of the given sparse derivative tables
    (`DerivativeTable`), as float matrices; the zero ones are left out.  The
    components are evaluated at the end of `path`, which starts at `point`
    (an empty path stays there).  Raises OverflowError when a component's
    body or the transport matrix or a conjugated component is not finite,
    and TransportStepsError when the transport needs too many steps.

    Only used to validate that their span embeds into the float image of the
    exact algebra; never used to extend it.
    """
    import numpy as np

    if len(path) and list(path[0]) != list(point):
        raise ValueError("the path must start at the base point")
    rk = conn.chart.rank.total
    mats = [tab.components[key] for tab in tables for key in sorted(tab.components)]
    # every component as one compiled body, component k in rows k*rk .. k*rk + rk - 1
    stacked = [(k * rk + A, B, f) for k, flat in enumerate(mats) for (A, B), f in flat.items()]
    body = _compile_body(stacked, (len(mats) * rk, rk), conn.chart.sig.n)
    tau = numeric_parallel_transport(conn, path, steps)
    end = np.asarray(path[-1] if len(path) else point, dtype=float)
    values = _eval_body(body, end[None, :]).reshape(len(mats), rk, rk)
    nonzero = values[np.abs(values).max(axis=(1, 2), initial=0.0) > 0]
    out = np.linalg.inv(tau) @ nonzero @ tau
    if not (np.isfinite(tau).all() and np.isfinite(out).all()):
        raise OverflowError("the transport matrix or a conjugated component is not finite")
    return list(out)


def span_embedding_residual(float_mats, algebra: SubSuperalgebra):
    """Largest least-squares residual of float matrices against the algebra,
    from one solve with every matrix as a right-hand side."""
    import numpy as np

    if not float_mats:
        return 0.0
    rhs = np.stack([np.asarray(g, float).ravel() for g in float_mats], axis=1)
    basis = algebra.basis()
    if not basis:
        return float(np.max(np.abs(rhs)))
    cols = np.zeros((len(rhs), len(basis)))
    for j, m in enumerate(basis):
        for pos, v in m._flat.items():
            cols[pos, j] = scalar_float(v)
    coef, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    return float(np.max(np.linalg.norm(cols @ coef - rhs, axis=0)))


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
    """True iff A w stays in span(W) for all basis A and w: the `spin` of W
    under the basis, stopped at rank W + 1, stays at rank W.  A vector whose
    length is not t is a ValueError."""
    t = algebra.dim.total
    if any(len(w) != t for w in basis_vectors):
        raise ValueError("vector must have %d entries" % t)
    vectors = [{i: v for i, v in enumerate(w) if v} for w in basis_vectors]
    ech = span_echelon(vectors)
    rank = ech.rank
    return spin(ech, vectors, [sparse_lines(m, rows=False) for m in algebra.basis()], rank + 1).rank == rank


# ------------------------------------------------------- parallel sections


class SectionData:
    def __init__(self, components):
        self.components = list(components)

    def value(self, point):
        return [f.value(point) for f in self.components]


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
    m = sig.m
    comps = list(comps)
    for size in range(1, m + 1):
        new = {}
        for gi in range(1, m + 1):
            a = sig.n + gi - 1
            bit = 1 << (gi - 1)
            q = [Superfunction.zero(sig)] * len(comps)
            for (A, B), gam in conn.gamma[a].items():
                if comps[B]:
                    q[A] = q[A] + comps[B].sign_split(1) * gam
            for A, f in enumerate(q):
                for mask_t, poly in f.terms.items():
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
    supplied polynomial gauge, the flat {(A, B): g^A_B} of its nonzero
    entries that `pure_gauge_connection` takes.  The output is verified
    exactly.  A value whose length is not the rank is a ValueError.
    """
    chart = conn.chart
    sig = chart.sig
    rk = chart.rank.total
    field = sig.field
    if len(value) != rk:
        raise ValueError("value must have %d entries, the rank" % rk)
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
        if conn.gamma != pure_gauge_connection(chart, gauge).gamma:
            return ReconstructionResult("rejected", reason="supplied gauge does not produce this connection")
        gval = SuperMatrix.from_flat(chart.rank, values_at(gauge, sig.coerce_point(point), rk), field)
        gval_inv = scalar_matrix_inverse(gval.entries, field)
        coeffs = [
            sum((gval_inv[B][C] * value[C] for C in range(rk)), field_zero(field))
            for B in range(rk)
        ]
        cand = [Superfunction.zero(sig)] * rk
        for (A, B), f in gauge.items():
            if coeffs[B]:
                cand[A] = cand[A] + f.scale(coeffs[B])
        # every gauge column is parallel (pure_gauge_connection checks it) and
        # the candidate is a constant combination of them, so this check holds
        section = SectionData(cand)
        if not check_parallel(conn, section):
            raise AssertionError("gauge reconstruction failed verification")
        return ReconstructionResult("exact", section)

    body_flat = all(0 not in f.terms for g in conn.gamma[: sig.n] for f in g.values())
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
    """Flat, or the first nonzero curvature entry (a, b, A, B), 1-based: the
    smallest key of the curvature and the first entry of that component."""
    comps = curvature(conn).components
    if not comps:
        return {"flat": True, "witness": None}
    key = min(comps)
    A, B = next(iter(comps[key]))
    return {"flat": False, "witness": (key[1] + 1, key[2] + 1, A + 1, B + 1)}


def classify_geometry(algebra: SubSuperalgebra, candidates):
    """Containment of the algebra in each candidate structure stabilizer.

    A structure is parallel exactly when every holonomy element annihilates
    it, so the algebra lies in a candidate's stabilizer when every basis
    element satisfies the candidate's "rows": linear conditions on the flat
    entries of a matrix, as `superlin.solve_algebra` takes them.
    """
    flats = [m.flatten() for m in algebra.basis()]
    return [
        {
            "structure": cand["label"],
            "contained": not any(
                sum(v * flat[pos] for pos, v in row.items() if pos in flat) for flat in flats for row in cand["rows"]
            ),
        }
        for cand in candidates
    ]


# ------------------------------------------------- decomposability search


def decomposability_certificate(algebra: SubSuperalgebra, metric_body):
    """Wu decomposition of V under an algebra that preserves the metric body
    G, a scalar `SuperMatrix` (`MetricData.body`).

    S is the commutant of the algebra among the G-self-adjoint even matrices
    (X^T G = G X); the G-orthogonal projections onto the nondegenerate
    invariant graded subspaces are exactly the idempotents of S.  The
    identity commutes with the algebra and is G-self-adjoint, so it lies in
    S, and the associative algebra A that S generates is unital.  When
    dim A/rad A = 1, A is local, its only idempotents are 0 and 1, and the
    result is {'status': 'weakly_irreducible'}.  Otherwise `split` on S
    gives a witness and its complement, and the result is
    {'status': 'decomposable', 'witness': ..., 'complement': ...} once both
    are checked exactly: invariant, each the G-orthogonal complement of the
    other, and together spanning V.  Failing that, {'status': 'inconclusive', 'reason': ...}.
    """
    dim = algebra.dim
    t = dim.total
    field = algebra.field
    g = metric_body.entries
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
    closure = associative_closure(sym, dim)
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
