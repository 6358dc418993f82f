"""Connections on free sheaves over a chart: curvature and friends.

Index conventions (all 0-based internally, 1-based at the JSON boundary):
coordinate index a in 0..n+m-1 with parity |a| = 0 for a < n; sheaf basis
index A in 0..p+q-1 with parity |A| = 0 for A < p.  The Christoffel table
stores gamma[a][A][B] = coefficient of e_A in the derivative of e_B along
coordinate a; each entry is homogeneous of parity |a|+|A|+|B|.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import span_echelon
from .scalars import RATIONAL, field_one, field_zero, to_field
from .superfunc import ChartSignature, Superfunction, accumulated, add_into, mul_into
from .superlin import SuperDim, SuperMatrix, cyclic_terms, sorted_cyclic_terms


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


def sfmat_zeros(sig: ChartSignature, rows: int, cols: int):
    z = Superfunction.zero(sig)
    return [[z] * cols for _ in range(rows)]


def sfmat_from_flat(sig: ChartSignature, rank: int, flat):
    """The dense rank x rank rows of a flat {(A, B): Superfunction}."""
    mat = sfmat_zeros(sig, rank, rank)
    for (A, B), f in flat.items():
        mat[A][B] = f
    return mat


def sfmat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sfmat_sig(a):
    """Chart signature of the first entry, or None for a matrix with none."""
    for row in a:
        for f in row:
            return f.sig
    return None


def sfmat_mul(a, b):
    """The product of two superfunction matrices, scattered from the nonzero
    entries of both factors into one raw accumulator per entry of a row."""
    sig = _sfmat_sig(a)
    cols = len(b[0])
    zero = Superfunction.zero(sig)
    b_rows = [[(j, g) for j, g in enumerate(row) if g.terms] for row in b]
    out = []
    for row in a:
        acc = {}
        for k, f in enumerate(row):
            if f.terms:
                for j, g in b_rows[k]:
                    mul_into(acc.setdefault(j, {}), f, g)
        new = [zero] * cols
        for j, raw in acc.items():
            new[j] = accumulated(sig, raw)
        out.append(new)
    return out


def sfmat_partial(a, idx: int):
    return [[f.partial(idx) for f in row] for row in a]


def sfmat_is_zero(a) -> bool:
    return all(f.is_zero() for row in a for f in row)


def sfmat_value(a, point):
    """Exact values of a superfunction matrix at a point of the even coordinates.

    The point is checked and coerced into the field once for the whole matrix.
    """
    sig = _sfmat_sig(a)
    if sig is None:
        return [[] for _ in a]
    point = sig.coerce_point(point)
    return [[f.body_value(point) for f in row] for row in a]


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


def sfmat_inverse(a, sig: ChartSignature):
    """Invert constant + nilpotent superfunction matrices exactly.

    Writes A = A0 + N with A0 the constant part; the inverse is the finite
    Neumann series (sum of (-A0^{-1} N)^k) A0^{-1}, which terminates iff the
    body of N is nilpotent as a polynomial matrix.  Rejected otherwise.
    """
    t = len(a)
    a0 = sfmat_value(a, [0] * sig.n)
    a0_inv_s = scalar_matrix_inverse(a0, sig.field)
    a0_sf = [[Superfunction.constant(sig, v) for v in row] for row in a0]
    a0_inv = [[Superfunction.constant(sig, v) for v in row] for row in a0_inv_s]
    n_mat = [[a[i][j] - a0_sf[i][j] for j in range(t)] for i in range(t)]
    m_mat = sfmat_mul(a0_inv, n_mat)
    m_mat = [[-f for f in row] for row in m_mat]
    total = [[Superfunction.constant(sig, 1) if i == j else Superfunction.zero(sig) for j in range(t)] for i in range(t)]
    term = [[Superfunction.constant(sig, 1) if i == j else Superfunction.zero(sig) for j in range(t)] for i in range(t)]
    cap = t * (sig.m + 1) + sig.m + 1
    for _ in range(cap):
        term = sfmat_mul(term, m_mat)
        if sfmat_is_zero(term):
            return sfmat_mul(total, a0_inv)
        total = sfmat_add(total, term)
    raise MatrixInversionError(
        "matrix is not (constant invertible) + nilpotent; exact inversion unsupported"
    )


# ------------------------------------------------------------- connections


class ConnectionData:
    """Christoffel table of a connection on a rank p|q free sheaf.

    The table must not be modified after construction: `curvature` and
    `torsion` keep the tables they derive from it on the connection.
    """

    def __init__(self, chart: Chart, gamma, validate=True):
        self.chart = chart
        self.gamma = gamma  # gamma[a][A][B], superfunctions
        self._curvature = None
        self._torsion = None
        self._nonzero_gamma = None
        sig = chart.sig
        t, r = sig.total, chart.rank.total
        if len(gamma) != t or any(len(g) != r or any(len(row) != r for row in g) for g in gamma):
            raise ValueError("gamma must be (n+m) x (p+q) x (p+q)")
        if validate:
            for a in range(t):
                pa = chart.coord_parity(a)
                for A in range(r):
                    for B in range(r):
                        f = gamma[a][A][B]
                        want = (pa + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
                        par = f.parity()
                        if par == "mixed" or (par == "even" and want == 1) or (par == "odd" and want == 0):
                            raise ValueError(
                                "gamma[%d][%d][%d] must be homogeneous of parity %d" % (a, A, B, want)
                            )

    @staticmethod
    def zero(chart: Chart) -> "ConnectionData":
        sig = chart.sig
        gamma = [sfmat_zeros(sig, chart.rank.total, chart.rank.total) for _ in range(sig.total)]
        return ConnectionData(chart, gamma, validate=False)

    @staticmethod
    def from_entries(chart: Chart, entries) -> "ConnectionData":
        """entries: dict {(a, B, A): Superfunction} with 1-based indices."""
        rk = chart.rank.total
        gamma = [sfmat_zeros(chart.sig, rk, rk) for _ in range(chart.sig.total)]
        for (a, B, A), f in entries.items():
            gamma[a - 1][A - 1][B - 1] = gamma[a - 1][A - 1][B - 1] + f
        return ConnectionData(chart, gamma)

    def is_zero(self) -> bool:
        return all(sfmat_is_zero(g) for g in self.gamma)

    def nonzero_gamma(self, c: int):
        """The nonzero Γ^A_{cB} of direction c, as (columns, rows): column B
        lists the pairs (A, Γ^A_{cB}), row A the pairs (B, Γ^A_{cB}).  Built
        for every direction on the first call and kept on the connection."""
        if self._nonzero_gamma is None:
            r = self.chart.rank.total
            self._nonzero_gamma = [
                (
                    [[(A, g[A][B]) for A in range(r) if g[A][B].terms] for B in range(r)],
                    [[(B, f) for B, f in enumerate(row) if f.terms] for row in g],
                )
                for g in self.gamma
            ]
        return self._nonzero_gamma[c]


def pure_gauge_connection(chart: Chart, gauge) -> ConnectionData:
    """Flat connection whose parallel frame is the columns of the gauge.

    For an even invertible superfunction matrix g the Christoffel table is
    the unique solution of d_a g[A][B] + sum_C (-1)^{|a|(|C|+|B|)}
    g[C][B] gamma[a][A][C] = 0; in the purely even case this reduces to the
    familiar -(d_a g) g^{-1}.  The parallel-frame property is re-verified
    before returning.
    """
    sig = chart.sig
    rk = chart.rank.total
    g_t = [[gauge[c][b] for c in range(rk)] for b in range(rk)]
    g_t_inv = sfmat_inverse(g_t, sig)
    gamma = []
    for a in range(sig.total):
        pa = chart.coord_parity(a)
        deriv = sfmat_partial(gauge, a + 1)
        mat = sfmat_zeros(sig, rk, rk)
        for A in range(rk):
            rhs = [
                deriv[A][B].scale(-((-1) ** (pa * chart.fiber_parity(B))))
                for B in range(rk)
            ]
            for C in range(rk):
                acc = Superfunction.zero(sig)
                for B in range(rk):
                    if not (g_t_inv[C][B].is_zero() or rhs[B].is_zero()):
                        acc = acc + g_t_inv[C][B] * rhs[B]
                mat[A][C] = acc.scale((-1) ** (pa * chart.fiber_parity(C)))
        gamma.append(mat)
    conn = ConnectionData(chart, gamma)
    for B in range(rk):
        col = [gauge[A][B] for A in range(rk)]
        for a in range(sig.total):
            if any(not f.is_zero() for f in nabla_section(conn, col, a)):
                raise AssertionError("gauge frame failed the parallel check")
    return conn


def nabla_section(conn: ConnectionData, comps, a: int):
    """Covariant derivative of a section along coordinate a (0-based).

    Component form: d_a X^A + sum_B (-1)^{|a||X^B|} X^B gamma[a][A][B], the
    parity sign applied per homogeneous part of X^B (even part +, odd part
    sign-flipped when a is odd).
    """
    chart = conn.chart
    pa = chart.coord_parity(a)
    out = []
    for A in range(chart.rank.total):
        acc = comps[A].partial(a + 1)
        for B in range(chart.rank.total):
            gam = conn.gamma[a][A][B]
            if gam.is_zero() or comps[B].is_zero():
                continue
            acc = acc + comps[B].sign_split(pa) * gam
        out.append(acc)
    return out


# --------------------------------------------------------------- curvature


class CurvatureTable:
    """Components R[(a,b)][A][B] with R(d_a, d_b) e_B = R^A_{Bab} e_A."""

    def __init__(self, chart: Chart, mats):
        self.chart = chart
        self.mats = mats

    def is_zero(self) -> bool:
        return all(sfmat_is_zero(m) for m in self.mats.values())

    def first_nonzero(self):
        chart = self.chart
        for (a, b), mat in sorted(self.mats.items()):
            for A in range(chart.rank.total):
                for B in range(chart.rank.total):
                    if not mat[A][B].is_zero():
                        return (a + 1, b + 1, A + 1, B + 1)
        return None


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


def curvature(conn: ConnectionData) -> CurvatureTable:
    """Coordinate curvature components from the Christoffel table.

    The table is built on the first call and kept on the connection; later
    calls return the same table.
    """
    if conn._curvature is not None:
        return conn._curvature
    chart = conn.chart
    t = chart.sig.total
    fiber = [0] * chart.rank.p + [1] * chart.rank.q
    # ∂_x Γ_y of every nonzero entry, formed once and read for R_xy and R_yx:
    # dgamma[y][x] lists (A, B, ∂_x Γ_y^A_B)
    nonzero = [[((A, B), g) for A, row in enumerate(conn.nonzero_gamma(y)[1]) for B, g in row] for y in range(t)]
    dgamma = [[[(key, g.partial(x + 1)) for key, g in entries] for x in range(t)] for entries in nonzero]
    mats = {}
    for a in range(t):
        pa = chart.coord_parity(a)
        for b in range(t):
            pb = chart.coord_parity(b)
            # R_ab = ∂_a Γ_b − (−1)^{|a||b|} ∂_b Γ_a + the Γ terms of ∇_a Γ_b
            sign = 1 if pa * pb else -1
            acc = {}
            for key, d in dgamma[b][a]:
                add_into(acc.setdefault(key, {}), d)
            for key, d in dgamma[a][b]:
                add_into(acc.setdefault(key, {}), d, sign)
            flat = _gamma_step(conn, a, nonzero[b], pb, acc)
            for (A, B), term in flat.items():
                if not _parity_ok(term, (pa + pb + fiber[A] + fiber[B]) % 2):
                    raise AssertionError("curvature parity law violated")
            mats[(a, b)] = sfmat_from_flat(chart.sig, chart.rank.total, flat)
    table = CurvatureTable(chart, mats)
    # R_ba = −(−1)^{|a||b|} R_ab, checked once for each unordered pair
    for a in range(t):
        for b in range(a, t):
            sign = 1 if chart.coord_parity(a) * chart.coord_parity(b) else -1
            for row_ab, row_ba in zip(mats[(a, b)], mats[(b, a)]):
                for x, y in zip(row_ab, row_ba):
                    if (x.terms or y.terms) and not _is_signed_copy(x, y, sign):
                        raise AssertionError("curvature super-antisymmetry violated")
    conn._curvature = table
    return table


class DerivativeTable:
    """Order-r covariant derivative components of the curvature.

    components maps (dirs, a, b), dirs a tuple (a_r,...,a_1) of 0-based
    coordinate indices, to the nonzero entries of a nonzero component: a flat
    {(A, B): Superfunction} in sorted (A, B) order.  A zero component is
    dropped, and so are its ∇_c, which are zero too.  parities maps each key
    to the total parity of its coordinate indices.

    A full table holds every pair (a, b) and every direction tuple.  A canonical table (`holonomy_seed`) holds only
    the pairs a < b and (α, α) for odd α, and only the direction tuples with
    a_r <= ... <= a_1 in which no odd direction repeats.  With the flat
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
    def order_zero(conn: ConnectionData) -> "DerivativeTable":
        """The curvature of the connection as the full order-0 table."""
        return _curvature_table(conn, False)

    @staticmethod
    def holonomy_seed(conn: ConnectionData) -> "DerivativeTable":
        """The canonical order-0 table, for the infinitesimal holonomy."""
        return _curvature_table(conn, True)


def _curvature_table(conn: ConnectionData, canonical: bool) -> DerivativeTable:
    """The nonzero curvature components as an order-0 table, cut from the
    dense `curvature(conn).mats`: every pair, or the canonical ones."""
    par = conn.chart.coord_parity
    comps = {}
    for (a, b), mat in curvature(conn).mats.items():
        flat = {(A, B): f for A, row in enumerate(mat) for B, f in enumerate(row) if f.terms}
        if flat and (not canonical or a < b or (a == b and par(a))):
            comps[((), a, b)] = flat
    return DerivativeTable(conn.chart, 0, comps, canonical, {key: par(key[1]) ^ par(key[2]) for key in comps})


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


def _covariant_step(conn: ConnectionData, c: int, flat, par: int):
    """∇_c of one End(E)-valued component over the flat coordinate reference.

    The component is given by its nonzero entries, a flat {(A, B): M^A_B},
    and the step is returned in that form.  `par` is the total parity of the
    component's coordinate indices, so entry (A, B) has parity
    par + |A| + |B|.  Entry (A, B) of the result is
    ∂_c M^A_B + Σ_C (−1)^{|c|(par+|B|+|C|)} M^C_B Γ^A_{cC}
    − Σ_C (−1)^{par(|C|+|B|)} Γ^C_{cB} M^A_C, that is ∂_c M + Γ_c M − M Γ_c
    with the super signs of that grading: the ∂_c M term, then `_gamma_step`.
    """
    acc = {}
    for key, m in flat.items():
        add_into(acc.setdefault(key, {}), m.partial(c + 1))
    return _gamma_step(conn, c, flat.items(), par, acc)


def _gamma_step(conn: ConnectionData, c: int, entries, par: int, acc):
    """`_covariant_step` of the matrix whose nonzero entries M^C_B are the
    ((C, B), M^C_B) of `entries`, with its ∂_c M term replaced by the raw
    accumulators {(A, B): raw} of `acc`: the Γ_c M − M Γ_c terms are scattered
    from those entries and the nonzero entries of Γ_c, each product added
    into its entry's accumulator.  Returns the nonzero entries of the
    result as a flat {(A, B): Superfunction} in sorted (A, B) order."""
    chart = conn.chart
    sig = chart.sig
    gamma_cols, gamma_rows = conn.nonzero_gamma(c)
    fiber, left, right = _step_signs(chart, c, par)
    for (C, B), m in entries:
        sign = left[fiber[B] ^ fiber[C]]
        for A, g in gamma_cols[C]:
            mul_into(acc.setdefault((A, B), {}), m, g, sign)
        for B2, g in gamma_rows[B]:
            mul_into(acc.setdefault((C, B2), {}), g, m, right[fiber[B] ^ fiber[B2]])
    out = {}
    for key in sorted(acc):
        f = accumulated(sig, acc[key])
        if f:
            out[key] = f
    return out


def _tower_steps(chart: Chart, prev: DerivativeTable):
    """(key, flat, par, directions) for each component of `prev`: its key
    (dirs, a, b), its nonzero entries, the total parity of its coordinate
    indices, and the directions c of the components ((c,) + dirs, a, b)
    that it gives at the next order, whose parity is par + |c|.  A canonical
    table prepends a_{r+1} <= a_r, strictly when it is odd."""
    t = chart.sig.total
    for key, flat in prev.components.items():
        dirs = key[0]
        stop = t
        if prev.canonical and dirs:
            stop = dirs[0] + 1 - chart.coord_parity(dirs[0])
        yield key, flat, prev.parities[key], range(stop)


def _next_derivative(conn: ConnectionData, prev: DerivativeTable) -> DerivativeTable:
    chart = conn.chart
    out, parities = {}, {}
    for (dirs, a, b), flat, par, directions in _tower_steps(chart, prev):
        for c in directions:
            step = _covariant_step(conn, c, flat, par)
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


def _covariant_step_at(conn: ConnectionData, c: int, flat, values, par: int, point, gamma_c):
    """`_covariant_step(conn, c, flat, par)` at the point, as a flat dict of
    its nonzero values, without building the step.

    The body of a product is the product of the bodies, so each term of the
    step is one product of scalars: `values` holds the body values of the
    entries at the point (`values_at`), `gamma_c` those of Γ_c (`gamma_at`),
    and the body of ∂_c M^C_B comes from `partial_body_value`.  The signs
    come from `_step_signs`, as in `_covariant_step`.
    """
    chart = conn.chart
    t = chart.rank.total
    gamma_cols, gamma_rows = gamma_c
    fiber, left, right = _step_signs(chart, c, par)
    acc = {}

    def add(k, v):
        w = acc.get(k)
        acc[k] = v if w is None else w + v

    for (C, B), m in flat.items():
        d = m.partial_body_value(c + 1, point)
        if d:
            add(C * t + B, d)
        v = values.get(C * t + B)
        if v is None:
            continue
        lv = left[fiber[B] ^ fiber[C]] * v
        for A, g in gamma_cols[C]:
            add(A * t + B, lv * g)
        for B2, g in gamma_rows[B]:
            add(C * t + B2, right[fiber[B] ^ fiber[B2]] * (g * v))
    return {k: v for k, v in acc.items() if v}


def _derivative_at(conn: ConnectionData, prev: DerivativeTable, values, point, gamma):
    """The components of `_next_derivative(conn, prev)` at the point, as flat
    dicts of their nonzero values, without building that table; the zero
    components it drops are here too, with no values.  `values` maps each
    key of `prev` to its values at the point, and `gamma` is `gamma_at(conn, point)`."""
    out = {}
    for key, flat, par, directions in _tower_steps(conn.chart, prev):
        dirs, a, b = key
        vals = values[key]
        for c in directions:
            out[((c,) + dirs, a, b)] = _covariant_step_at(conn, c, flat, vals, par, point, gamma[c])
    return out


def covariant_derivatives(conn: ConnectionData, ref, order: int):
    """Full tables of covariant curvature derivatives for orders 0..order.

    Unlike the holonomy tower's, these tables hold every key, as dense rows
    [A][B], and no parities: they are read, not stepped.  The directions are
    differentiated with the flat coordinate reference: `ref` must be None,
    and any other value raises ValueError.  The parameter stays because the
    benchmark's report checker (`bench/checks.py`) calls it with None.
    """
    if ref is not None:
        raise ValueError("covariant derivatives take only the flat coordinate reference (ref=None)")
    chart = conn.chart
    t = chart.sig.total
    keys = [((), a, b) for a in range(t) for b in range(t)]
    table = DerivativeTable.order_zero(conn)
    tables = []
    for r in range(order + 1):
        if r:
            table = _next_derivative(conn, table)
            keys = [((c,) + dirs, a, b) for dirs, a, b in keys for c in range(t)]
        comps = {key: sfmat_from_flat(chart.sig, chart.rank.total, table.components.get(key, {})) for key in keys}
        tables.append(DerivativeTable(chart, r, comps))
    return tables


# ------------------------------------------------------------------ torsion


class TorsionTable:
    def __init__(self, chart: Chart, comps):
        self.chart = chart
        self.comps = comps  # {(a,b): [T^c_{ab} over c]}

    def is_zero(self) -> bool:
        return all(f.is_zero() for vec in self.comps.values() for f in vec)


def torsion(conn: ConnectionData) -> TorsionTable:
    """Coordinate torsion components, kept on the connection like its curvature."""
    if conn._torsion is not None:
        return conn._torsion
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("torsion needs a tangent-sheaf connection")
    sig = chart.sig
    t = sig.total
    gamma = conn.gamma
    comps = {}
    for a in range(t):
        for b in range(t):
            sign = -((-1) ** (chart.coord_parity(a) * chart.coord_parity(b)))
            vec = []
            for c in range(t):
                # T^c_ab = Γ^c_ab − (−1)^{|a||b|} Γ^c_ba; a pair of zero
                # entries keeps the table's zero
                f, g = gamma[a][c][b], gamma[b][c][a]
                if f.terms or g.terms:
                    acc = {}
                    add_into(acc, f)
                    add_into(acc, g, sign)
                    f = accumulated(sig, acc)
                vec.append(f)
            comps[(a, b)] = vec
    conn._torsion = TorsionTable(chart, comps)
    return conn._torsion


def _bianchi_holds(conn: ConnectionData, name: str, add_term) -> bool:
    """Whether a graded cyclic sum over coordinate fields vanishes, at once
    True on a torsion-free connection.  The summed term must be super-
    antisymmetric in its first two indices, so the sorted triples suffice;
    `add_term(acc, tor, mats, u, v, w, sign)` adds its signed entries at
    (u, v, w) into `acc`, a dict from entry to raw accumulator."""
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("%s Bianchi needs a tangent-sheaf connection" % name)
    tor = torsion(conn)
    if tor.is_zero():
        return True
    mats = curvature(conn).mats
    for terms in sorted_cyclic_terms(chart.coord_parity, chart.sig.total):
        acc = {}
        for (u, v, w), sign in terms:
            add_term(acc, tor, mats, u, v, w, sign)
        if any(c for raw in acc.values() for poly in raw.values() for c in poly.values()):
            return False
    return True


def check_first_bianchi(conn: ConnectionData) -> bool:
    """Cyclic curvature identity 𝔖 R(x,y)z = 0 on coordinate fields.  It equals
    𝔖[T(T(x,y),z) + (∇_x T)(y,z)] (Kobayashi–Nomizu I, Thm III.5.3), so a
    torsion-free connection satisfies it."""

    def add_term(acc, tor, mats, u, v, w, sign):
        for A, row in enumerate(mats[(u, v)]):  # R^A_{w,uv}
            if row[w].terms:
                add_into(acc.setdefault(A, {}), row[w], sign)

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

    def add_term(acc, tor, mats, u, v, w, sign):
        # R(T(u,v), w) = Σ_c T^c_{uv} R_{cw}, the coefficient on the left
        for c, coef in enumerate(tor.comps[(u, v)]):
            if coef.terms:
                for A, row in enumerate(mats[(c, w)]):
                    for B, f in enumerate(row):
                        if f.terms:
                            mul_into(acc.setdefault((A, B), {}), coef, f, sign)

    return _bianchi_holds(conn, "second", add_term)


def ricci(conn: ConnectionData):
    """Ricci components Ric[(a,b)] = str(X -> (-1)^{|X||b|} R(d_a, X) d_b)."""
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("Ricci needs a tangent-sheaf connection")
    mats = curvature(conn).mats
    t = chart.sig.total
    out = {}
    for a in range(t):
        for b in range(t):
            pb = chart.coord_parity(b)
            acc = {}
            for c in range(t):
                f = mats[(a, c)][c][b]
                if f.terms:
                    pc = chart.coord_parity(c)
                    add_into(acc, f, (-1) ** (pc + pc * pb))
            out[(a, b)] = accumulated(chart.sig, acc)
    return out


# ------------------------------------------------------------------ metrics


class MetricData:
    """Even supersymmetric metric on the tangent sheaf of a chart."""

    def __init__(self, chart: Chart, g, validate=True):
        if not chart.tangent_sheaf:
            raise ValueError("metric lives on the tangent sheaf")
        self.chart = chart
        self.g = g  # g[a][b] superfunctions
        # the `validate_metric` report, kept for reuse
        self.validation = None
        if validate:
            self.validation = validate_metric(self)
            if not self.validation["valid"]:
                raise ValueError("invalid metric: %s" % "; ".join(self.validation["failures"]))

    @staticmethod
    def from_entries(chart: Chart, entries) -> "MetricData":
        """entries: dict {(a,b): Superfunction}, 1-based, symmetric closure applied."""
        sig = chart.sig
        t = sig.total
        g = sfmat_zeros(sig, t, t)
        seen = set()
        for (a, b), f in entries.items():
            g[a - 1][b - 1] = g[a - 1][b - 1] + f
            seen.add((a - 1, b - 1))
        for a in range(t):
            for b in range(a + 1, t):
                if (a, b) in seen and (b, a) not in seen:
                    sign = (-1) ** (chart.coord_parity(a) * chart.coord_parity(b))
                    g[b][a] = g[a][b].scale(sign)
                elif (b, a) in seen and (a, b) not in seen:
                    sign = (-1) ** (chart.coord_parity(a) * chart.coord_parity(b))
                    g[a][b] = g[b][a].scale(sign)
        return MetricData(chart, g)


def validate_metric(metric: MetricData):
    """Structural checks plus body nondegeneracy at the origin."""
    chart = metric.chart
    sig = chart.sig
    t = sig.total
    g = metric.g
    failures = []
    for a in range(t):
        for b in range(t):
            want = (chart.coord_parity(a) + chart.coord_parity(b)) % 2
            if not _parity_ok(g[a][b], want):
                failures.append("entry (%d,%d) has wrong parity" % (a + 1, b + 1))
    for a in range(t):
        for b in range(t):
            sign = (-1) ** (chart.coord_parity(a) * chart.coord_parity(b))
            if not _is_signed_copy(g[a][b], g[b][a], sign):
                failures.append("supersymmetry fails at (%d,%d)" % (a + 1, b + 1))
    body = sfmat_value(g, [0] * sig.n)
    n = sig.n
    for a in range(n):
        for b in range(n, t):
            if body[a][b] or body[b][a]:
                failures.append("even-odd body block nonzero at (%d,%d)" % (a + 1, b + 1))
    even_block = [row[:n] for row in body[:n]]
    odd_block = [row[n:] for row in body[n:]]
    signature = None
    nondegenerate = True
    for name, block in (("even", even_block), ("odd", odd_block)):
        if not block:
            continue
        try:
            scalar_matrix_inverse([list(r) for r in block], sig.field)
        except MatrixInversionError:
            nondegenerate = False
            failures.append("%s body block degenerate at the base point" % name)
    if sig.field == RATIONAL and even_block and nondegenerate:
        signature = _symmetric_signature(even_block)
    return {
        "valid": not failures,
        "failures": failures,
        "nondegenerate_at_point": nondegenerate,
        "even_signature": signature,
    }


def _symmetric_signature(block):
    """(positives, negatives) of a rational symmetric matrix by congruence."""
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


def nabla_metric(metric: MetricData, conn: ConnectionData, a: int, dg_a):
    """The nonzero components (∇_a g)(d_b, d_c) with b <= c, as {(b, c): f}.

    (∇_a g)(d_b, d_c) = ∂_a g_bc − Σ_d Γ^d_{ab} g_dc
    − Σ_d (−1)^{|b|(|a|+|c|+|d|)+|a||b|} Γ^d_{ac} g_bd, and it equals
    (−1)^{|b||c|} (∇_a g)(d_c, d_b) for every connection, so the components
    with b <= c give them all.  `dg_a[b]` maps each c with a nonzero ∂_a g_bc
    to that derivative, as `levi_civita` forms them.  Both sums are
    scattered from the nonzero Γ^d_{a·} and the nonzero entries of g into
    one raw accumulator per (b, c).
    """
    chart = metric.chart
    sig = chart.sig
    t = sig.total
    g = metric.g
    par = [chart.coord_parity(x) for x in range(t)]
    pa = par[a]
    g_rows = [[(c, f) for c, f in enumerate(row) if f.terms] for row in g]
    g_cols = [[(b, g[b][d]) for b in range(t) if g[b][d].terms] for d in range(t)]
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
    out = {}
    for key, raw in acc.items():
        f = accumulated(sig, raw)
        if f.terms:
            out[key] = f
    return out


def levi_civita(metric: MetricData) -> ConnectionData:
    """Torsion-free metric connection via the graded Koszul formula.

    Both defining properties are re-verified symbolically before returning.
    Only the nonzero entries take part: the nonzero g_yz are differentiated,
    a Koszul sum K_abc is formed where one of its three ∂g terms is nonzero,
    and Γ^d_{ab} = Σ_c K_abc (g⁻¹)_cd reads d from the nonzero entries of
    row c of g⁻¹.
    """
    chart = metric.chart
    sig = chart.sig
    t = sig.total
    g = metric.g
    g_inv = sfmat_inverse(g, sig)
    inv_rows = [[(d, f) for d, f in enumerate(row) if f.terms] for row in g_inv]
    half = to_field(Fraction(1, 2), sig.field)
    # dg[x][y] maps z to d_x g_yz, for the nonzero ones
    dg = [[{} for _ in range(t)] for _ in range(t)]
    for y, row in enumerate(g):
        for z, f in enumerate(row):
            if f.terms:
                for x in range(t):
                    d = f.partial(x + 1)
                    if d.terms:
                        dg[x][y][z] = d
    gamma = [sfmat_zeros(sig, t, t) for _ in range(t)]
    for a in range(t):
        for b in range(t):
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
                    gamma[a][d][b] = f
    conn = ConnectionData(chart, gamma)
    if not torsion(conn).is_zero():
        raise AssertionError("Koszul output failed the torsion-free check")
    for a in range(t):
        if nabla_metric(metric, conn, a, dg[a]):
            raise AssertionError("Koszul output failed the metric-parallel check")
    return conn


def nabla_endomorphism(conn: ConnectionData, j: SuperMatrix, a: int):
    """(nabla_a J) for a constant even endomorphism J of the tangent sheaf."""
    sig = conn.chart.sig
    const = {(A, B): Superfunction.constant(sig, v) for A, row in enumerate(j.entries) for B, v in enumerate(row) if v}
    return sfmat_from_flat(sig, conn.chart.rank.total, _covariant_step(conn, a, const, 0))


# ------------------------------------------------------- tensor extensions


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


def tensor_extension(a_mat: SuperMatrix, r: int, s: int, space: TensorSpace = None):
    """Derivation action of a homogeneous matrix on (r,s) tensors.

    The dual slots act by phi -> -(-1)^{|A||phi|} phi . A.  Returns the matrix
    together with the TensorSpace carrying the basis order.
    """
    if a_mat.parity is None:
        raise ValueError("tensor extension needs a homogeneous matrix")
    dim = a_mat.dim
    if space is None:
        space = TensorSpace(dim, r, s)
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
