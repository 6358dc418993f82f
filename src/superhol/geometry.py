"""Connections on free sheaves over a chart: curvature and friends.

Index conventions (all 0-based internally, 1-based at the JSON boundary):
coordinate index a in 0..n+m-1 with parity |a| = 0 for a < n; sheaf basis
index A in 0..p+q-1 with parity |A| = 0 for A < p.  The Christoffel table
stores gamma[a][A][B] = coefficient of e_A in the derivative of e_B along
coordinate a; each entry is homogeneous of parity |a|+|A|+|B|.
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


def sfmat_zeros(sig: ChartSignature, rows: int, cols: int):
    z = Superfunction.zero(sig)
    return [[z] * cols for _ in range(rows)]


def sfmat_from_flat(sig: ChartSignature, rank: int, flat):
    """The dense rank x rank rows of a flat {(A, B): Superfunction}."""
    mat = sfmat_zeros(sig, rank, rank)
    for (A, B), f in flat.items():
        mat[A][B] = f
    return mat


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
    N is A with the constant monomial of each entry dropped, and the series
    adds only the nonzero entries of each power.  The inverse of the 0x0
    matrix is itself.
    """
    t = len(a)
    if not t:
        return []
    origin, none = (0,) * sig.n, {}
    a0 = [[f.terms.get(0, none).get(origin, 0) for f in row] for row in a]
    n_mat = [[f - c if c else f for f, c in zip(row, consts)] for row, consts in zip(a, a0)]
    a0_inv = [[Superfunction.constant(sig, v) for v in row] for row in scalar_matrix_inverse(a0, sig.field)]
    m_mat = sfmat_mul([[-f for f in row] for row in a0_inv], n_mat)
    one, zero = Superfunction.constant(sig, 1), Superfunction.zero(sig)
    total = [[one if i == j else zero for j in range(t)] for i in range(t)]
    term = m_mat
    cap = t * (sig.m + 1) + sig.m + 1
    for _ in range(cap):
        if sfmat_is_zero(term):
            return sfmat_mul(total, a0_inv)
        for i, row in enumerate(term):
            for j, f in enumerate(row):
                if f.terms:
                    total[i][j] = total[i][j] + f
        term = sfmat_mul(term, m_mat)
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
            fiber = [chart.fiber_parity(A) for A in range(r)]
            for a in range(t):
                pa = chart.coord_parity(a)
                for A, row in enumerate(gamma[a]):
                    for B, f in enumerate(row):
                        if not f.terms:
                            continue  # a zero entry has every parity
                        want = (pa + fiber[A] + fiber[B]) % 2
                        if not _parity_ok(f, want):
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


class DerivativeTable:
    """Order-r covariant derivative components of the curvature; order 0 is
    the curvature itself (`curvature`).

    components maps (dirs, a, b), dirs a tuple (a_r,...,a_1) of 0-based
    coordinate indices, to the nonzero entries of a nonzero component: a flat
    {(A, B): Superfunction} in sorted (A, B) order.  A zero component is
    dropped, and so are its ∇_c, which are zero too.  parities maps each key
    to the total parity of its coordinate indices.

    A full table holds every pair (a, b) and every direction tuple.  A
    canonical table (`holonomy_seed`) holds only the pairs a < b and (α, α)
    for odd α, and only the direction tuples with a_r <= ... <= a_1 in
    which no odd direction repeats.  With the flat coordinate reference,
    ∇_c∇_d − (−1)^{|c||d|}∇_d∇_c = [R_cd, ·] on End(E)-valued tensors, and
    ∇_α∇_α = ½[R_αα, ·] for odd α; R_ba = −(−1)^{|a||b|}R_ab, and R_aa = 0
    for even a.  So at every order the dropped components lie in the
    bracket closure of the kept ones and of lower orders: both tables close
    to the same holonomy algebra.
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
        curvature's components at a < b and at (α, α) for odd α."""
        full = curvature(conn)
        par = conn.chart.coord_parity
        comps = {
            key: flat for key, flat in full.components.items() if key[1] < key[2] or (key[1] == key[2] and par(key[1]))
        }
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

    The table is built on the first call and kept on the connection; later
    calls return the same table.
    """
    if conn._curvature is not None:
        return conn._curvature
    chart = conn.chart
    t = chart.sig.total
    par = chart.coord_parity
    fiber = [0] * chart.rank.p + [1] * chart.rank.q
    # ∂_x Γ_y of every nonzero entry, from one walk over each Γ_y and read
    # for R_xy and R_yx: dgamma[y][x] maps (A, B) to the raw ∂_x Γ_y^A_B
    nonzero = [[((A, B), g) for A, row in enumerate(conn.nonzero_gamma(y)[1]) for B, g in row] for y in range(t)]
    dgamma = [[{} for _ in range(t)] for _ in range(t)]
    for y, entries in enumerate(nonzero):
        for key, g in entries:
            partials_into(dgamma[y], key, g, t)
    comps = {}
    for a in range(t):
        pa = par(a)
        for b in range(t):
            pb = par(b)
            # R_ab = ∂_a Γ_b − (−1)^{|a||b|} ∂_b Γ_a + the Γ terms of ∇_a Γ_b
            sign = 1 if pa * pb else -1
            acc = {}
            for key, d in dgamma[b][a].items():
                add_into(acc.setdefault(key, {}), d)
            for key, d in dgamma[a][b].items():
                add_into(acc.setdefault(key, {}), d, sign)
            flat = _gamma_step(conn, a, nonzero[b], _step_signs(chart, a, pb), acc)
            for (A, B), term in flat.items():
                if not _parity_ok(term, (pa + pb + fiber[A] + fiber[B]) % 2):
                    raise AssertionError("curvature parity law violated")
            if flat:
                comps[((), a, b)] = flat
    # R_ba = −(−1)^{|a||b|} R_ab, checked once for each unordered pair
    for a in range(t):
        for b in range(a, t):
            sign = 1 if par(a) * par(b) else -1
            ab, ba = comps.get(((), a, b), {}), comps.get(((), b, a), {})
            if ab.keys() != ba.keys() or not all(_is_signed_copy(f, ba[key], sign) for key, f in ab.items()):
                raise AssertionError("curvature super-antisymmetry violated")
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
    live = [any(conn.nonzero_gamma(c)[0]) for c in range(sig.total)]
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
    table = curvature(conn)
    tables = []
    for r in range(order + 1):
        if r:
            table = _next_derivative(conn, table)
            keys = [((c,) + dirs, a, b) for dirs, a, b in keys for c in range(t)]
        comps = {key: sfmat_from_flat(chart.sig, chart.rank.total, table.components.get(key, {})) for key in keys}
        tables.append(DerivativeTable(chart, r, comps))
    return tables


# ------------------------------------------------------------------ torsion


def torsion(conn: ConnectionData):
    """Coordinate torsion T(d_a, d_b) = T^c_ab d_c as {(a, b): {c: T^c_ab}},
    nonzero entries only; kept on the connection like its curvature."""
    if conn._torsion is not None:
        return conn._torsion
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("torsion needs a tangent-sheaf connection")
    sig = chart.sig
    t = sig.total
    gamma = conn.gamma
    out = {}
    for a in range(t):
        for b in range(t):
            sign = -((-1) ** (chart.coord_parity(a) * chart.coord_parity(b)))
            vec = {}
            for c in range(t):
                # T^c_ab = Γ^c_ab − (−1)^{|a||b|} Γ^c_ba
                f, g = gamma[a][c][b], gamma[b][c][a]
                if f.terms or g.terms:
                    acc = {}
                    add_into(acc, f.terms)
                    add_into(acc, g.terms, sign)
                    f = accumulated(sig, acc)
                    if f.terms:
                        vec[c] = f
            if vec:
                out[(a, b)] = vec
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
        # the eigenvalues of a nondegenerate symmetric block are real and
        # nonzero, so the sign changes of the nonzero coefficients of the
        # characteristic polynomial of d·block, d the common denominator,
        # count the positive ones (Descartes' rule of signs)
        d = math.lcm(1, *(Fraction(v).denominator for row in even_block for v in row))
        coeffs = [c for c in char_poly([[int(v * d) for v in row] for row in even_block]) if c]
        positives = sum(a * b < 0 for a, b in zip(coeffs, coeffs[1:]))
        signature = (positives, n - positives)
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
    # dg[x][y] maps z to the raw d_x g_yz, for the nonzero ones, from one
    # walk over each g_yz
    dg = [[{} for _ in range(t)] for _ in range(t)]
    for y, row in enumerate(g):
        for z, f in enumerate(row):
            partials_into([dg[x][y] for x in range(t)], z, f, t)
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
