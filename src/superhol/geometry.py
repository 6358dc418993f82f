"""Connections on free sheaves over a chart: curvature and friends.

Index conventions (all 0-based internally, 1-based at the JSON boundary):
coordinate index a in 0..n+m-1 with parity |a| = 0 for a < n; sheaf basis
index A in 0..p+q-1 with parity |A| = 0 for A < p.  Every superfunction
matrix is a flat {(A, B): Superfunction} of its nonzero entries in sorted
(A, B) order.  The Christoffel table stores one per coordinate a:
gamma[a][(A, B)] is the coefficient of e_A in the derivative of e_B along
coordinate a, homogeneous of parity |a|+|A|+|B|.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import span_echelon
from .scalars import RATIONAL, canonical, field_one, field_zero, to_field
from .superfunc import ChartSignature, Superfunction, accumulated, add_into, mul_into, partials_into
from .superlin import SuperDim, SuperMatrix, char_poly, cyclic_terms, sorted_cyclic_terms


class Chart:
    def __init__(self, sig: ChartSignature, sheaf_rank: SuperDim, tangent_sheaf=False):
        if tangent_sheaf and (sheaf_rank.p != sig.n or sheaf_rank.q != sig.m):
            raise ValueError("tangent sheaf must have rank n|m")
        self.sig = sig
        self.rank = sheaf_rank
        self.tangent_sheaf = tangent_sheaf

    @staticmethod
    def tangent(sig: ChartSignature) -> "Chart":
        return Chart(sig, SuperDim(sig.n, sig.m), tangent_sheaf=True)

    def coord_parity(self, a: int) -> int:
        return 0 if a < self.sig.n else 1

    def fiber_parity(self, A: int) -> int:
        return self.rank.parity(A)

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.sig == other.sig
            and self.rank == other.rank
            and self.tangent_sheaf == other.tangent_sheaf
        )


# ------------------------------------------------- superfunction matrices
#
# A superfunction matrix is a flat {(A, B): Superfunction} of its nonzero
# entries, in sorted (A, B) order: the form of a derivative-table component.
# Its size is not read from the dict, so a function that needs it takes it.


def sfmat_mul(a, b, sig: ChartSignature):
    """The product of two superfunction matrices, each product of a nonzero
    entry of `a` by one of `b` scattered into the raw accumulator of its
    entry.  Returns `_finished` of those."""
    b_rows = {}
    for (k, j), g in b.items():
        b_rows.setdefault(k, []).append((j, g))
    acc = {}
    for (i, k), f in a.items():
        for j, g in b_rows.get(k, ()):
            mul_into(acc.setdefault((i, j), {}), f, g)
    return _finished(sig, acc)


class MatrixInversionError(ValueError):
    """Raised when a superfunction matrix is not constant + nilpotent."""


def scalar_matrix_inverse(mat, field=RATIONAL):
    """Exact inverse of a square scalar matrix: the reduced echelon form of [A | I]."""
    t = len(mat)
    one = field_one(field)
    ech = span_echelon({**dict(enumerate(row)), t + i: one} for i, row in enumerate(mat))
    if any(p >= t for p in ech.pivot_rows):
        raise MatrixInversionError("singular scalar matrix")
    zero = field_zero(field)
    return [[ech.pivot_rows[i].get(t + j, zero) for j in range(t)] for i in range(t)]


def sfmat_inverse(a, t: int, sig: ChartSignature):
    """Invert a t x t constant + nilpotent superfunction matrix exactly.

    Writes A = A0 + N with A0 the constant part; the inverse is the finite
    Neumann series (sum of (-A0^{-1} N)^k) A0^{-1}, which terminates iff the
    body of N is nilpotent as a polynomial matrix.  Rejected otherwise.
    N is A with the constant monomial of each entry dropped, and the series
    adds only the nonzero entries of each power.
    """
    origin, none = (0,) * sig.n, {}
    consts = {key: f.terms.get(0, none).get(origin, 0) for key, f in a.items()}
    n_mat = {key: f - consts[key] if consts[key] else f for key, f in a.items()}
    a0 = [[consts.get((i, j), 0) for j in range(t)] for i in range(t)]
    a0_inv = {
        (i, j): Superfunction.constant(sig, v)
        for i, row in enumerate(scalar_matrix_inverse(a0, sig.field))
        for j, v in enumerate(row)
        if v
    }
    m_mat = sfmat_mul({key: -f for key, f in a0_inv.items()}, n_mat, sig)
    total = {(i, i): Superfunction.constant(sig, 1) for i in range(t)}
    term = m_mat
    cap = t * (sig.m + 1) + sig.m + 1
    for _ in range(cap):
        if not term:
            return sfmat_mul(total, a0_inv, sig)
        for key, f in term.items():
            total[key] = total[key] + f if key in total else f
        term = sfmat_mul(term, m_mat, sig)
    raise MatrixInversionError(
        "matrix is not (constant invertible) + nilpotent; exact inversion unsupported"
    )


# ------------------------------------------------------------- connections


class ConnectionData:
    """Christoffel table of a connection on a rank p|q free sheaf.

    gamma[c] is the matrix of direction c: the flat {(A, B): Γ^A_{cB}} of
    its nonzero entries, the coefficient of e_A in ∇_c e_B, in sorted (A, B)
    order.  The constructor keeps that form of any dicts it is given.  The
    table must not be modified after construction: `curvature` and
    `torsion` keep the tables they derive from it on the connection.
    """

    def __init__(self, chart: Chart, gamma, validate=True):
        self.chart = chart
        self._curvature = None
        self._torsion = None
        self._nonzero_gamma = None
        sig = chart.sig
        t, r = sig.total, chart.rank.total
        if len(gamma) != t or any(not (0 <= A < r and 0 <= B < r) for g in gamma for A, B in g):
            raise ValueError("gamma must be (n+m) x (p+q) x (p+q)")
        self.gamma = [{key: g[key] for key in sorted(g) if g[key]} for g in gamma]
        if validate:
            fiber = [chart.fiber_parity(A) for A in range(r)]
            for a, g in enumerate(self.gamma):
                pa = chart.coord_parity(a)
                for (A, B), f in g.items():
                    want = (pa + fiber[A] + fiber[B]) % 2
                    if not _parity_ok(f, want):
                        raise ValueError("gamma[%d][%d][%d] must be homogeneous of parity %d" % (a, A, B, want))

    @staticmethod
    def zero(chart: Chart) -> "ConnectionData":
        return ConnectionData(chart, [{} for _ in range(chart.sig.total)], validate=False)

    @staticmethod
    def from_entries(chart: Chart, entries) -> "ConnectionData":
        """entries: dict {(a, B, A): Superfunction} with 1-based indices."""
        gamma = [{} for _ in range(chart.sig.total)]
        for (a, B, A), f in entries.items():
            gamma[a - 1][(A - 1, B - 1)] = f
        return ConnectionData(chart, gamma)

    def is_zero(self) -> bool:
        return not any(self.gamma)

    def nonzero_gamma(self, c: int):
        """The nonzero Γ^A_{cB} of direction c, as (columns, rows): column B
        lists the pairs (A, Γ^A_{cB}), row A the pairs (B, Γ^A_{cB}).  Built
        for every direction on the first call and kept on the connection."""
        if self._nonzero_gamma is None:
            r = self.chart.rank.total
            self._nonzero_gamma = []
            for g in self.gamma:
                cols, rows = [[] for _ in range(r)], [[] for _ in range(r)]
                for (A, B), f in g.items():
                    cols[B].append((A, f))
                    rows[A].append((B, f))
                self._nonzero_gamma.append((cols, rows))
        return self._nonzero_gamma[c]


def pure_gauge_connection(chart: Chart, gauge) -> ConnectionData:
    """Flat connection whose parallel frame is the columns of the gauge, a
    flat {(A, B): g^A_B} of its nonzero entries.

    For an even invertible superfunction matrix g the Christoffel table is
    the unique solution of ∂_a g^A_B + Σ_C (−1)^{|a|(|C|+|B|)} g^C_B Γ^A_{aC}
    = 0; in the purely even case this reduces to the familiar −(∂_a g) g⁻¹.
    So Γ^A_{aC} is (−1)^{|a||C|} times entry (C, A) of (g^T)⁻¹ D, where
    D^B_A = −(−1)^{|a||B|} ∂_a g^A_B.  The parallel-frame property is
    re-verified before returning.
    """
    sig = chart.sig
    rk = chart.rank.total
    fiber = [chart.fiber_parity(A) for A in range(rk)]
    g_t_inv = sfmat_inverse({(B, A): f for (A, B), f in gauge.items()}, rk, sig)
    gamma = []
    for a in range(sig.total):
        pa = chart.coord_parity(a)
        rhs = {(B, A): f.partial(a + 1).scale(-((-1) ** (pa * fiber[B]))) for (A, B), f in gauge.items()}
        prod = sfmat_mul(g_t_inv, rhs, sig)
        gamma.append({(A, C): f.scale((-1) ** (pa * fiber[C])) for (C, A), f in prod.items()})
    conn = ConnectionData(chart, gamma)
    cols = [[Superfunction.zero(sig)] * rk for _ in range(rk)]
    for (A, B), f in gauge.items():
        cols[B][A] = f
    if any(any(nabla_section(conn, col, a)) for col in cols for a in range(sig.total)):
        raise AssertionError("gauge frame failed the parallel check")
    return conn


def nabla_section(conn: ConnectionData, comps, a: int):
    """Covariant derivative of a section along coordinate a (0-based).

    Component form: d_a X^A + sum_B (-1)^{|a||X^B|} X^B Γ^A_{aB}, the
    parity sign applied per homogeneous part of X^B (even part +, odd part
    sign-flipped when a is odd).
    """
    pa = conn.chart.coord_parity(a)
    out = [f.partial(a + 1) for f in comps]
    for (A, B), gam in conn.gamma[a].items():
        if comps[B]:
            out[A] = out[A] + comps[B].sign_split(pa) * gam
    return out


# --------------------------------------------------------------- curvature


class DerivativeTable:
    """Order-r covariant derivative components of the curvature; order 0 is
    the curvature itself (`curvature`).

    components maps (dirs, a, b), dirs a tuple (a_r,...,a_1) of 0-based
    coordinate indices, to the nonzero entries of a nonzero component: a flat
    {(A, B): Superfunction} in sorted (A, B) order.  A zero component is
    dropped, and so are its ∇_c, which are zero too.  parities maps each key
    to the total parity of its coordinate indices.

    A full table holds every pair (a, b), the b < a ones copied at order 0,
    and every direction tuple.  A canonical table (`holonomy_seed`) holds
    only the pairs a < b and (α, α) for odd α, and only the direction tuples
    with a_r <= ... <= a_1 in which no odd direction repeats.  With the flat
    coordinate reference, ∇_c∇_d − (−1)^{|c||d|}∇_d∇_c = [R_cd, ·] on
    End(E)-valued tensors, and ∇_α∇_α = ½[R_αα, ·] for odd α;
    R_ba = −(−1)^{|a||b|}R_ab, and R_aa = 0 for even a.  So at every order
    the dropped components lie in the bracket closure of the kept ones and
    of lower orders: both tables close to the same holonomy algebra.
    """

    def __init__(self, chart: Chart, order: int, components, canonical=False, parities=None):
        self.chart = chart
        self.order = order
        self.components = components
        self.canonical = canonical
        self.parities = parities

    @staticmethod
    def holonomy_seed(conn: ConnectionData) -> "DerivativeTable":
        """The canonical order-0 table, for the infinitesimal holonomy: the
        curvature's solved half a <= b, with no even (a, a) as R_aa = 0."""
        full = curvature(conn)
        comps = {key: flat for key, flat in full.components.items() if key[1] <= key[2]}
        return DerivativeTable(conn.chart, 0, comps, True, {key: full.parities[key] for key in comps})


def _parity_ok(f: Superfunction, want: int) -> bool:
    par = f.parity()
    return par == "zero" or (par == "even" and want == 0) or (par == "odd" and want == 1)


def _is_signed_copy(f: Superfunction, g: Superfunction, sign: int) -> bool:
    """Whether f = sign·g for sign ±1, compared coefficient by coefficient
    without building sign·g."""
    if sign > 0:
        return f.terms == g.terms
    if f.terms.keys() != g.terms.keys():
        return False
    for mask, poly in f.terms.items():
        other = g.terms[mask]
        if poly.keys() != other.keys() or any(v != -other[k] for k, v in poly.items()):
            return False
    return True


def curvature(conn: ConnectionData) -> DerivativeTable:
    """The curvature R_ab, R(d_a, d_b) e_B = R^A_{Bab} e_A, as the full
    order-0 table of the derivative tower: components {((), a, b): flat}
    for the nonzero R_ab, each flat holding the nonzero R^A_{Bab} at (A, B).
    R_ab is solved for a <= b, and R_ba written as its copy −(−1)^{|a||b|}R_ab.

    The table is built on the first call and kept on the connection; later
    calls return the same table.
    """
    if conn._curvature is not None:
        return conn._curvature
    chart = conn.chart
    t = chart.sig.total
    par = chart.coord_parity
    fiber = [0] * chart.rank.p + [1] * chart.rank.q
    # ∂_x Γ_y of every nonzero entry, from one walk over each Γ_y: dgamma[y][x]
    # maps (A, B) to the raw ∂_x Γ_y^A_B
    dgamma = [[{} for _ in range(t)] for _ in range(t)]
    for y, g in enumerate(conn.gamma):
        for key, f in g.items():
            partials_into(dgamma[y], key, f, t)
    comps = {}
    for a in range(t):
        pa = par(a)
        for b in range(a, t):
            pb = par(b)
            # R_ab = ∂_a Γ_b − (−1)^{|a||b|} ∂_b Γ_a + the Γ terms of ∇_a Γ_b
            sign = 1 if pa * pb else -1
            acc = {}
            for key, d in dgamma[b][a].items():
                add_into(acc.setdefault(key, {}), d)
            for key, d in dgamma[a][b].items():
                add_into(acc.setdefault(key, {}), d, sign)
            flat = _gamma_step(conn, a, conn.gamma[b].items(), _step_signs(chart, a, pb), acc)
            for (A, B), term in flat.items():
                if not _parity_ok(term, (pa + pb + fiber[A] + fiber[B]) % 2):
                    raise AssertionError("curvature parity law violated")
            if flat:
                comps[((), a, b)] = flat
                if a < b:
                    comps[((), b, a)] = dict(flat) if pa * pb else {key: -f for key, f in flat.items()}
    comps = dict(sorted(comps.items()))
    conn._curvature = DerivativeTable(chart, 0, comps, False, {key: par(key[1]) ^ par(key[2]) for key in comps})
    return conn._curvature


def _step_signs(chart: Chart, c: int, par: int):
    """The super signs of ∇_c on a component whose coordinate indices have
    total parity `par`, as (fiber, left, right): `fiber` lists the parity of
    each fiber index, and in entry [A][B] of the step the term
    M^C_B Γ^A_{cC} carries left[|B| ^ |C|] = (−1)^{|c|(par+|B|+|C|)} and the
    term Γ^C_{cB} M^A_C carries right[|C| ^ |B|] = −(−1)^{par(|C|+|B|)}."""
    pc = chart.coord_parity(c)
    fiber = [0] * chart.rank.p + [1] * chart.rank.q
    left = ((-1) ** (pc * par), (-1) ** (pc * (par + 1)))
    right = (-1, -((-1) ** par))
    return fiber, left, right


def _all_step_signs(chart: Chart):
    """`_step_signs(chart, c, par)` at [c][par], for every direction c and
    parity par: the signs of a whole tower step, formed once."""
    return [[_step_signs(chart, c, par) for par in (0, 1)] for c in range(chart.sig.total)]


def _gamma_step(conn: ConnectionData, c: int, entries, signs, acc):
    """∇_c of one End(E)-valued component over the flat coordinate
    reference, given its ∂_c M terms as the raw accumulators {(A, B): raw}
    of `acc`.  The component's nonzero entries M^C_B are the
    ((C, B), M^C_B) of `entries`, and `signs` are those `_step_signs` gives
    for the total parity par of its coordinate indices, so entry (A, B) has
    parity par + |A| + |B|.  Entry (A, B) of the step is
    ∂_c M^A_B + Σ_C (−1)^{|c|(par+|B|+|C|)} M^C_B Γ^A_{cC}
    − Σ_C (−1)^{par(|C|+|B|)} Γ^C_{cB} M^A_C, that is ∂_c M + Γ_c M − M Γ_c
    with the super signs of that grading.  The Γ_c M − M Γ_c terms are
    scattered from the nonzero entries of M and of Γ_c, each product added
    into its entry's accumulator.  Returns `_finished(acc)`."""
    gamma_cols, gamma_rows = conn.nonzero_gamma(c)
    fiber, left, right = signs
    for (C, B), m in entries:
        sign = left[fiber[B] ^ fiber[C]]
        for A, g in gamma_cols[C]:
            mul_into(acc.setdefault((A, B), {}), m, g, sign)
        for B2, g in gamma_rows[B]:
            mul_into(acc.setdefault((C, B2), {}), g, m, right[fiber[B] ^ fiber[B2]])
    return _finished(conn.chart.sig, acc)


def _finished(sig: ChartSignature, acc):
    """The nonzero entries of raw accumulators {(A, B): raw}, as a flat
    {(A, B): Superfunction} in sorted (A, B) order."""
    out = {}
    for key in sorted(acc):
        f = accumulated(sig, acc[key])
        if f:
            out[key] = f
    return out


def _tower_steps(chart: Chart, prev: DerivativeTable):
    """(key, flat, par, stop) for each component of `prev`: its key
    (dirs, a, b), its nonzero entries, the total parity of its coordinate
    indices, and the bound of the directions c < stop of the components
    ((c,) + dirs, a, b) that it gives at the next order, whose parity is
    par + |c|.  A canonical table prepends a_{r+1} <= a_r, strictly when it
    is odd."""
    t = chart.sig.total
    for key, flat in prev.components.items():
        dirs = key[0]
        stop = t
        if prev.canonical and dirs:
            stop = dirs[0] + 1 - chart.coord_parity(dirs[0])
        yield key, flat, prev.parities[key], stop


def _next_derivative(conn: ConnectionData, prev: DerivativeTable) -> DerivativeTable:
    """The table of order prev.order + 1: child ((c,) + dirs, a, b) is ∇_c
    of its parent, kept when nonzero.

    Each component is walked once.  One pass over the terms of its entries
    puts ∂_c of every entry into the raw accumulators of every direction c
    it steps in (`partials_into`).  Then `_gamma_step` scatters the
    Γ_c M − M Γ_c terms of each direction whose Γ_c has a nonzero entry;
    the other children are their ∂_c terms alone.
    """
    chart = conn.chart
    sig = chart.sig
    live = [bool(g) for g in conn.gamma]
    signs = _all_step_signs(chart)
    out, parities = {}, {}
    for (dirs, a, b), flat, par, stop in _tower_steps(chart, prev):
        accs = [{} for _ in range(stop)]
        for key, m in flat.items():
            partials_into(accs, key, m, stop)
        for c, acc in enumerate(accs):
            if live[c]:
                step = _gamma_step(conn, c, flat.items(), signs[c][par], acc)
            else:
                step = _finished(sig, acc)
            if step:
                key = ((c,) + dirs, a, b)
                out[key] = step
                parities[key] = par ^ chart.coord_parity(c)
    return DerivativeTable(chart, prev.order + 1, out, prev.canonical, parities)


def values_at(flat, point, cols: int):
    """The nonzero body values of a component's entries, a flat
    {(A, B): Superfunction}, at even coordinates already in the field, as a
    flat dict {A * cols + B: value}."""
    out = {}
    for (A, B), f in flat.items():
        v = f.body_value(point)
        if v:
            out[A * cols + B] = v
    return out


def gamma_at(conn: ConnectionData, point):
    """The nonzero bodies of the Γ_c at even coordinates already in the
    field, laid out as `nonzero_gamma` lays out the Γ_c themselves."""
    def nonzero(pairs):
        values = ((i, g.body_value(point)) for i, g in pairs)
        return [(i, v) for i, v in values if v]

    out = []
    for c in range(conn.chart.sig.total):
        cols, rows = conn.nonzero_gamma(c)
        out.append(([nonzero(col) for col in cols], [nonzero(row) for row in rows]))
    return out


def _derivative_at(conn: ConnectionData, prev: DerivativeTable, values, point, gamma):
    """The components of `_next_derivative(conn, prev)` at the point, as flat
    dicts {A * rank + B: value} of their nonzero values, without building
    that table; the zero components it drops are here too, with no values.
    `values` maps each key of `prev` to its values at the point
    (`values_at`), and `gamma` is `gamma_at(conn, point)`.

    The body of a product is the product of the bodies, so each term of a
    child's step is one product of scalars: the body of ∂_c M^C_B, or the
    value of M^C_B times that of an entry of Γ_c.  Each component is walked
    once: `partial_bodies` gives the bodies of every first partial of each
    entry, and every child reads its direction's.  A component with no
    nonzero value at the point gives children that are those bodies alone,
    with no scatter; the others scatter the Γ_c terms with the signs of
    `_step_signs`, as `_gamma_step` does.
    """
    chart = conn.chart
    t = chart.rank.total
    signs = _all_step_signs(chart)
    out = {}
    for (dirs, a, b), flat, par, stop in _tower_steps(chart, prev):
        bodies = [(C, B, C * t + B, m.partial_bodies(point)) for (C, B), m in flat.items()]
        vals = values[(dirs, a, b)]
        for c in range(stop):
            if not vals:
                out[((c,) + dirs, a, b)] = {k: d[c] for _, _, k, d in bodies if d[c]}
                continue
            gamma_cols, gamma_rows = gamma[c]
            fiber, left, right = signs[c][par]
            acc = {}
            for C, B, k, d in bodies:
                terms = [(k, d[c])] if d[c] else []
                v = vals.get(k)
                if v is not None:
                    lv = left[fiber[B] ^ fiber[C]] * v
                    terms += [(A * t + B, lv * g) for A, g in gamma_cols[C]]
                    terms += [(C * t + B2, right[fiber[B] ^ fiber[B2]] * (g * v)) for B2, g in gamma_rows[B]]
                for pos, x in terms:
                    w = acc.get(pos)
                    acc[pos] = x if w is None else w + x
            out[((c,) + dirs, a, b)] = {k: canonical(v) for k, v in acc.items() if v}
    return out


def covariant_derivatives(conn: ConnectionData, ref, order: int):
    """Full tables of covariant curvature derivatives for orders 0..order.

    Unlike the holonomy tower's, these tables hold every key, as dense rows
    [A][B] of superfunctions, and no parities: they are read, not stepped.
    The rows and the parameter `ref` stay for the benchmark's report checker
    (`bench/checks.py`), which reads each entry's value and calls this with
    None.  The directions are differentiated with the flat coordinate
    reference: any other `ref` raises ValueError.
    """
    if ref is not None:
        raise ValueError("covariant derivatives take only the flat coordinate reference (ref=None)")
    chart = conn.chart
    t, rk = chart.sig.total, chart.rank.total
    zero = Superfunction.zero(chart.sig)

    def rows(flat):
        out = [[zero] * rk for _ in range(rk)]
        for (A, B), f in flat.items():
            out[A][B] = f
        return out

    keys = [((), a, b) for a in range(t) for b in range(t)]
    table = curvature(conn)
    tables = []
    for r in range(order + 1):
        if r:
            table = _next_derivative(conn, table)
            keys = [((c,) + dirs, a, b) for dirs, a, b in keys for c in range(t)]
        tables.append(DerivativeTable(chart, r, {key: rows(table.components.get(key, {})) for key in keys}))
    return tables


# ------------------------------------------------------------------ torsion


def torsion(conn: ConnectionData):
    """Coordinate torsion T(d_a, d_b) = T^c_ab d_c as {(a, b): {c: T^c_ab}},
    nonzero entries only; kept on the connection like its curvature.

    T^c_ab = Γ^c_ab − (−1)^{|a||b|} Γ^c_ba, so each nonzero Γ^c_ab is added
    into T^c_ab and, with the sign −(−1)^{|a||b|}, into T^c_ba."""
    if conn._torsion is not None:
        return conn._torsion
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("torsion needs a tangent-sheaf connection")
    par = chart.coord_parity
    acc = {}
    for a, g in enumerate(conn.gamma):
        for (c, b), f in g.items():
            add_into(acc.setdefault((a, b), {}).setdefault(c, {}), f.terms)
            add_into(acc.setdefault((b, a), {}).setdefault(c, {}), f.terms, -((-1) ** (par(a) * par(b))))
    out = {}
    for key in sorted(acc):
        vec = _finished(chart.sig, acc[key])
        if vec:
            out[key] = vec
    conn._torsion = out
    return out


def _bianchi_holds(conn: ConnectionData, name: str, add_term) -> bool:
    """Whether a graded cyclic sum over coordinate fields vanishes, at once
    True on a torsion-free connection.  The summed term must be super-
    antisymmetric in its first two indices, so the sorted triples suffice;
    `add_term(acc, tor, curv, u, v, w, sign)` adds its signed entries at
    (u, v, w) into `acc`, a dict from entry to raw accumulator, reading the
    torsion and the curvature's components."""
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("%s Bianchi needs a tangent-sheaf connection" % name)
    tor = torsion(conn)
    if not tor:
        return True
    curv = curvature(conn).components
    for terms in sorted_cyclic_terms(chart.coord_parity, chart.sig.total):
        acc = {}
        for (u, v, w), sign in terms:
            add_term(acc, tor, curv, u, v, w, sign)
        if any(c for raw in acc.values() for poly in raw.values() for c in poly.values()):
            return False
    return True


def check_first_bianchi(conn: ConnectionData) -> bool:
    """Cyclic curvature identity 𝔖 R(x,y)z = 0 on coordinate fields.  It equals
    𝔖[T(T(x,y),z) + (∇_x T)(y,z)] (Kobayashi–Nomizu I, Thm III.5.3), so a
    torsion-free connection satisfies it."""

    def add_term(acc, tor, curv, u, v, w, sign):
        for (A, B), f in curv.get(((), u, v), {}).items():  # R^A_{w,uv}
            if B == w:
                add_into(acc.setdefault(A, {}), f.terms, sign)

    return _bianchi_holds(conn, "first", add_term)


def check_second_bianchi(conn: ConnectionData) -> bool:
    """Second Bianchi identity on coordinate fields, read off the torsion.

    Every connection satisfies 𝔖[(∇_x R)(y,z) + R(T(x,y),z)] = 0, the cyclic
    sum taken with the signs of `cyclic_terms` (Kobayashi–Nomizu I, Thm
    III.5.3, with super signs).  So the cyclic sum of the first covariant
    derivatives vanishes exactly when 𝔖 R(T(x,y),z) does, entry by entry.  A
    torsion-free connection, every Levi-Civita connection among them,
    satisfies it.
    """

    def add_term(acc, tor, curv, u, v, w, sign):
        # R(T(u,v), w) = Σ_c T^c_{uv} R_{cw}, the coefficient on the left
        for c, coef in tor.get((u, v), {}).items():
            for key, f in curv.get(((), c, w), {}).items():
                mul_into(acc.setdefault(key, {}), coef, f, sign)

    return _bianchi_holds(conn, "second", add_term)


def ricci(conn: ConnectionData):
    """Ricci components Ric[(a,b)] = str(X -> (-1)^{|X||b|} R(d_a, X) d_b),
    nonzero entries only."""
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("Ricci needs a tangent-sheaf connection")
    par = chart.coord_parity
    acc = {}
    for (_, a, c), flat in curvature(conn).components.items():
        pc = par(c)
        for (C, b), f in flat.items():
            if C == c:
                add_into(acc.setdefault((a, b), {}), f.terms, (-1) ** (pc + pc * par(b)))
    out = {}
    for key in sorted(acc):
        f = accumulated(chart.sig, acc[key])
        if f.terms:
            out[key] = f
    return out


# ------------------------------------------------------------------ metrics


class MetricData:
    """Even supersymmetric metric on the tangent sheaf of a chart.

    g is the flat {(a, b): g_ab} of its nonzero entries, in sorted (a, b)
    order; the constructor keeps that form of any dict it is given.  g must
    not be modified after construction: `inverse` keeps g⁻¹ on the metric.
    """

    def __init__(self, chart: Chart, g, validate=True):
        if not chart.tangent_sheaf:
            raise ValueError("metric lives on the tangent sheaf")
        self.chart = chart
        self.g = {key: g[key] for key in sorted(g) if g[key]}
        self._inverse = None
        # the `validate_metric` report, kept for reuse
        self.validation = None
        if validate:
            self.validation = validate_metric(self)
            if not self.validation["valid"]:
                raise ValueError("invalid metric: %s" % "; ".join(self.validation["failures"]))

    @staticmethod
    def from_entries(chart: Chart, entries) -> "MetricData":
        """entries: dict {(a,b): Superfunction}, 1-based, symmetric closure
        applied: an entry given at (a, b) and not at (b, a) is copied there
        with the sign (−1)^{|a||b|}."""
        par = chart.coord_parity
        g = {(a - 1, b - 1): f for (a, b), f in entries.items()}
        for (a, b), f in list(g.items()):
            if (b, a) not in g:
                g[(b, a)] = f.scale((-1) ** (par(a) * par(b)))
        return MetricData(chart, g)

    def body(self, point) -> SuperMatrix:
        """The body of g at a point of the even coordinates, as a scalar
        `SuperMatrix`."""
        sig = self.chart.sig
        return SuperMatrix.from_flat(self.chart.rank, values_at(self.g, sig.coerce_point(point), sig.total), sig.field)

    def inverse(self):
        """g⁻¹ as a flat of its nonzero entries (`sfmat_inverse`), built on
        the first call and kept on the metric."""
        if self._inverse is None:
            self._inverse = sfmat_inverse(self.g, self.chart.sig.total, self.chart.sig)
        return self._inverse


def validate_metric(metric: MetricData):
    """Structural checks, body nondegeneracy at the origin, and, when those
    pass, the exact inverse of g that `levi_civita` needs."""
    chart = metric.chart
    sig = chart.sig
    t, n = sig.total, sig.n
    par = chart.coord_parity
    g = metric.g
    failures = [
        "entry (%d,%d) has wrong parity" % (a + 1, b + 1)
        for (a, b), f in g.items()
        if not _parity_ok(f, (par(a) + par(b)) % 2)
    ]
    zero = Superfunction.zero(sig)
    for a, b in sorted(set(g) | {(b, a) for a, b in g}):
        if not _is_signed_copy(g.get((a, b), zero), g.get((b, a), zero), (-1) ** (par(a) * par(b))):
            failures.append("supersymmetry fails at (%d,%d)" % (a + 1, b + 1))
    rows = metric.body([0] * n).entries
    for a in range(n):
        for b in range(n, t):
            if rows[a][b] or rows[b][a]:
                failures.append("even-odd body block nonzero at (%d,%d)" % (a + 1, b + 1))
    even_block = [row[:n] for row in rows[:n]]
    odd_block = [row[n:] for row in rows[n:]]
    signature = None
    nondegenerate = True
    for name, block in (("even", even_block), ("odd", odd_block)):
        if not block:
            continue
        try:
            scalar_matrix_inverse(block, sig.field)
        except MatrixInversionError:
            nondegenerate = False
            failures.append("%s body block degenerate at the base point" % name)
    if sig.field == RATIONAL and even_block and nondegenerate:
        # the eigenvalues of a nondegenerate symmetric block are real and
        # nonzero, so the sign changes of the nonzero coefficients of the
        # characteristic polynomial of d·block, d the common denominator,
        # count the positive ones (Descartes' rule of signs)
        d = math.lcm(1, *(Fraction(v).denominator for row in even_block for v in row))
        coeffs = [c for c in char_poly([[int(v * d) for v in row] for row in even_block]) if c]
        positives = sum(a * b < 0 for a, b in zip(coeffs, coeffs[1:]))
        signature = (positives, n - positives)
    if not failures:
        try:
            metric.inverse()
        except MatrixInversionError as exc:
            failures.append(str(exc))
    return {
        "valid": not failures,
        "failures": failures,
        "nondegenerate_at_point": nondegenerate,
        "even_signature": signature,
    }


def nabla_metric(metric: MetricData, conn: ConnectionData, a: int, dg_a):
    """The nonzero components (∇_a g)(d_b, d_c) with b <= c, as {(b, c): f}.

    (∇_a g)(d_b, d_c) = ∂_a g_bc − Σ_d Γ^d_{ab} g_dc
    − Σ_d (−1)^{|b|(|a|+|c|+|d|)+|a||b|} Γ^d_{ac} g_bd, and it equals
    (−1)^{|b||c|} (∇_a g)(d_c, d_b) for every connection, so the components
    with b <= c give them all.  `dg_a[b]` maps each c with a nonzero ∂_a g_bc
    to the terms {mask: {exps: coef}} of that derivative, as `levi_civita`
    forms them.  Both sums are
    scattered from the nonzero Γ^d_{a·} and the nonzero entries of g into
    one raw accumulator per (b, c).
    """
    chart = metric.chart
    sig = chart.sig
    t = sig.total
    par = [chart.coord_parity(x) for x in range(t)]
    pa = par[a]
    g_rows, g_cols = [[] for _ in range(t)], [[] for _ in range(t)]
    for (b, c), f in metric.g.items():
        g_rows[b].append((c, f))
        g_cols[c].append((b, f))
    gamma_cols = conn.nonzero_gamma(a)[0]  # gamma_cols[b] lists (d, Γ^d_{ab})
    acc = {}
    for b in range(t):
        for c, f in dg_a[b].items():
            if b <= c:
                add_into(acc.setdefault((b, c), {}), f)
        for d, gam in gamma_cols[b]:
            for c, f in g_rows[d]:
                if b <= c:
                    mul_into(acc.setdefault((b, c), {}), gam, f, -1)
    for c in range(t):
        for d, gam in gamma_cols[c]:
            for b, f in g_cols[d]:
                if b <= c:
                    sign = (-1) ** (par[b] * (pa + par[c] + par[d]) + pa * par[b])
                    mul_into(acc.setdefault((b, c), {}), gam, f, -sign)
    return _finished(sig, acc)


def levi_civita(metric: MetricData) -> ConnectionData:
    """Torsion-free metric connection via the graded Koszul formula.

    Γ_{ab} is formed for a <= b, and Γ^d_{ba} written as its copy
    (−1)^{|a||b|} Γ^d_{ab}.  Both defining properties are re-verified before
    returning: ∇g = 0 on every Γ, and torsion-freeness, a real test where
    T^d_{αα} = 2Γ^d_{αα} for odd α.  Only the nonzero entries take part: the
    nonzero g_yz are differentiated, a Koszul sum K_abc is formed where one
    of its three ∂g terms is nonzero, and Γ^d_{ab} = Σ_c K_abc (g⁻¹)_cd
    reads d from the nonzero entries of row c of g⁻¹.
    """
    chart = metric.chart
    sig = chart.sig
    t = sig.total
    inv_rows = [[] for _ in range(t)]
    for (c, d), f in metric.inverse().items():
        inv_rows[c].append((d, f))
    half = to_field(Fraction(1, 2), sig.field)
    # dg[x][y] maps z to the raw d_x g_yz, for the nonzero ones, from one
    # walk over each g_yz
    dg = [[{} for _ in range(t)] for _ in range(t)]
    for (y, z), f in metric.g.items():
        partials_into([dg[x][y] for x in range(t)], z, f, t)
    gamma = [{} for _ in range(t)]
    for a in range(t):
        for b in range(a, t):
            acc = {}
            for c in range(t):
                terms = (dg[a][b].get(c), dg[b][c].get(a), dg[c][a].get(b))
                if not any(terms):
                    continue
                _, (_, s2), (_, s3) = cyclic_terms(chart.coord_parity, a, b, c)
                koszul = {}
                for f, sign in zip(terms, (1, s2, -s3)):
                    if f is not None:
                        add_into(koszul, f, sign)
                k = accumulated(sig, koszul).scale(half)
                if not k.terms:
                    continue
                for d, h in inv_rows[c]:
                    mul_into(acc.setdefault(d, {}), k, h)
            for d, raw in acc.items():
                f = accumulated(sig, raw)
                if f.terms:
                    gamma[a][(d, b)] = f
                    if a < b:
                        gamma[b][(d, a)] = -f if chart.coord_parity(a) * chart.coord_parity(b) else f
    conn = ConnectionData(chart, gamma)
    if torsion(conn):
        raise AssertionError("Koszul output failed the torsion-free check")
    for a in range(t):
        if nabla_metric(metric, conn, a, dg[a]):
            raise AssertionError("Koszul output failed the metric-parallel check")
    return conn


def nabla_endomorphism(conn: ConnectionData, j: SuperMatrix, a: int):
    """(nabla_a J) for a constant even endomorphism J of the tangent sheaf,
    as its nonzero entries {(A, B): Superfunction}."""
    chart = conn.chart
    t = chart.rank.total
    const = {divmod(pos, t): Superfunction.constant(chart.sig, v) for pos, v in j.flatten().items()}
    # a constant J has no ∂_a term
    return _gamma_step(conn, a, const.items(), _step_signs(chart, a, 0), {})
