"""Connections on free sheaves over a chart: curvature and friends.

Index conventions (all 0-based internally, 1-based at the JSON boundary):
coordinate index a in 0..n+m-1 with parity |a| = 0 for a < n; sheaf basis
index A in 0..p+q-1 with parity |A| = 0 for A < p.  The Christoffel table
stores gamma[a][A][B] = coefficient of e_A in the derivative of e_B along
coordinate a; each entry is homogeneous of parity |a|+|A|+|B|.
"""

from __future__ import annotations

from .linalg import span_echelon
from .scalars import RATIONAL, field_one, field_zero
from .superfunc import ChartSignature, Superfunction
from .superlin import SuperDim, SuperMatrix


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


def sfmat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sfmat_sig(a):
    """Chart signature of the first entry, or None for a matrix with none."""
    for row in a:
        for f in row:
            return f.sig
    return None


def sfmat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    sig = _sfmat_sig(a)
    out = [[Superfunction.zero(sig) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            f = a[i][k]
            if f.is_zero():
                continue
            for j in range(cols):
                g = b[k][j]
                if not g.is_zero():
                    out[i][j] = out[i][j] + f * g
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

    def component(self, a: int, b: int):
        return self.mats[(a, b)]

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


def curvature(conn: ConnectionData) -> CurvatureTable:
    """Coordinate curvature components from the Christoffel table.

    The table is built on the first call and kept on the connection; later
    calls return the same table.
    """
    if conn._curvature is not None:
        return conn._curvature
    chart = conn.chart
    sig = chart.sig
    t, rk = sig.total, chart.rank.total
    gamma = conn.gamma
    mats = {}
    for a in range(t):
        pa = chart.coord_parity(a)
        for b in range(t):
            pb = chart.coord_parity(b)
            mat = sfmat_zeros(sig, rk, rk)
            for A in range(rk):
                fA = chart.fiber_parity(A)
                for B in range(rk):
                    fB = chart.fiber_parity(B)
                    term = gamma[b][A][B].partial(a + 1)
                    for C in range(rk):
                        g1 = gamma[b][C][B]
                        g2 = gamma[a][A][C]
                        if g1.is_zero() or g2.is_zero():
                            continue
                        sign = (-1) ** (pa * (pb + fB + chart.fiber_parity(C)))
                        term = term + (g1 * g2).scale(sign)
                    other = gamma[a][A][B].partial(b + 1)
                    for C in range(rk):
                        g1 = gamma[a][C][B]
                        g2 = gamma[b][A][C]
                        if g1.is_zero() or g2.is_zero():
                            continue
                        sign = (-1) ** (pb * (pa + fB + chart.fiber_parity(C)))
                        other = other + (g1 * g2).scale(sign)
                    term = term + other.scale(-((-1) ** (pa * pb)))
                    want = (pa + pb + fA + fB) % 2
                    if not _parity_ok(term, want):
                        raise AssertionError("curvature parity law violated")
                    mat[A][B] = term
            mats[(a, b)] = mat
    table = CurvatureTable(chart, mats)
    for a in range(t):
        pa = chart.coord_parity(a)
        for b in range(t):
            pb = chart.coord_parity(b)
            sign = -((-1) ** (pa * pb))
            for A in range(rk):
                for B in range(rk):
                    if mats[(a, b)][A][B] != mats[(b, a)][A][B].scale(sign):
                        raise AssertionError("curvature super-antisymmetry violated")
    conn._curvature = table
    return table


class DerivativeTable:
    """Order-r covariant derivative components of the curvature.

    components maps (dirs, a, b) -> matrix [A][B], dirs a tuple (a_r,...,a_1)
    of 0-based coordinate indices.

    A full table holds every pair (a, b) and every direction tuple.  A
    canonical table (`holonomy_seed`) holds only the pairs a < b and (α, α)
    for odd α, and only the direction tuples with a_r <= ... <= a_1 in which
    no odd direction repeats.  With the flat coordinate reference,
    ∇_c∇_d − (−1)^{|c||d|}∇_d∇_c = [R_cd, ·] on End(E)-valued tensors, and
    ∇_α∇_α = ½[R_αα, ·] for odd α; R_ba = −(−1)^{|a||b|}R_ab, and R_aa = 0
    for even a.  So at every order the dropped components lie in the bracket
    closure of the kept ones and of lower orders: both tables close to the
    same holonomy algebra.
    """

    def __init__(self, chart: Chart, order: int, components, canonical=False):
        self.chart = chart
        self.order = order
        self.components = components
        self.canonical = canonical

    @staticmethod
    def order_zero(conn: ConnectionData) -> "DerivativeTable":
        """The curvature of the connection as the full order-0 table."""
        mats = curvature(conn).mats
        return DerivativeTable(conn.chart, 0, {((), a, b): m for (a, b), m in mats.items()})

    @staticmethod
    def holonomy_seed(conn: ConnectionData) -> "DerivativeTable":
        """The canonical order-0 table, for the infinitesimal holonomy."""
        chart = conn.chart
        mats = curvature(conn).mats
        comps = {
            ((), a, b): m
            for (a, b), m in mats.items()
            if a < b or (a == b and chart.coord_parity(a))
        }
        return DerivativeTable(chart, 0, comps, canonical=True)


def _next_derivative(conn: ConnectionData, prev: DerivativeTable) -> DerivativeTable:
    chart = conn.chart
    sig = chart.sig
    t, rk = sig.total, chart.rank.total
    gamma = conn.gamma
    out = {}
    for (dirs, a, b), mat in prev.components.items():
        base_par = sum(chart.coord_parity(d) for d in dirs) + chart.coord_parity(a) + chart.coord_parity(b)
        stop = t
        if prev.canonical and dirs:
            # prepend a_{r+1} <= a_r, strictly when it is odd
            stop = dirs[0] + 1 - chart.coord_parity(dirs[0])
        for ar in range(stop):
            par = chart.coord_parity(ar)
            new = sfmat_zeros(sig, rk, rk)
            for A in range(rk):
                fA = chart.fiber_parity(A)
                for B in range(rk):
                    fB = chart.fiber_parity(B)
                    term = mat[A][B].partial(ar + 1)
                    for C in range(rk):
                        fC = chart.fiber_parity(C)
                        g2 = gamma[ar][A][C]
                        if not (mat[C][B].is_zero() or g2.is_zero()):
                            sign = (-1) ** (par * (base_par + fB + fC))
                            term = term + (mat[C][B] * g2).scale(sign)
                        g1 = gamma[ar][C][B]
                        if not (g1.is_zero() or mat[A][C].is_zero()):
                            sign = (-1) ** ((fC + fB) * (base_par % 2))
                            term = term - (g1 * mat[A][C]).scale(sign)
                    new[A][B] = term
            out[((ar,) + dirs, a, b)] = new
    return DerivativeTable(chart, prev.order + 1, out, prev.canonical)


def covariant_derivatives(conn: ConnectionData, ref, order: int):
    """Full tables of covariant curvature derivatives for orders 0..order.

    The directions are differentiated with the flat coordinate reference:
    `ref` must be None, and any other value raises ValueError.  The parameter
    stays because the benchmark's report checker (`bench/checks.py`) calls
    `covariant_derivatives(conn, None, order)`.
    """
    if ref is not None:
        raise ValueError("covariant derivatives take only the flat coordinate reference (ref=None)")
    tables = [DerivativeTable.order_zero(conn)]
    for _ in range(order):
        tables.append(_next_derivative(conn, tables[-1]))
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
    t = chart.sig.total
    comps = {}
    for a in range(t):
        for b in range(t):
            sign = (-1) ** (chart.coord_parity(a) * chart.coord_parity(b))
            comps[(a, b)] = [
                conn.gamma[a][c][b] - conn.gamma[b][c][a].scale(sign) for c in range(t)
            ]
    conn._torsion = TorsionTable(chart, comps)
    return conn._torsion


def check_first_bianchi(conn: ConnectionData) -> bool:
    """Cyclic curvature identity on coordinate fields."""
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("first Bianchi needs a tangent-sheaf connection")
    table = curvature(conn)
    t = chart.sig.total
    for a in range(t):
        pa = chart.coord_parity(a)
        for b in range(t):
            pb = chart.coord_parity(b)
            for c in range(t):
                pc = chart.coord_parity(c)
                for A in range(t):
                    s = table.mats[(a, b)][A][c]
                    s = s + table.mats[(b, c)][A][a].scale((-1) ** (pa * (pb + pc)))
                    s = s + table.mats[(c, a)][A][b].scale((-1) ** (pc * (pa + pb)))
                    if not s.is_zero():
                        return False
    return True


def check_second_bianchi(conn: ConnectionData) -> bool:
    """Second Bianchi identity on coordinate fields, read off the torsion.

    Every connection satisfies 𝔖[(∇_x R)(y,z) + R(T(x,y),z)] = 0, the cyclic
    sum taken with the signs below (Kobayashi–Nomizu I, Thm III.5.3, with
    super signs).  So the cyclic sum of the first covariant derivatives
    vanishes exactly when 𝔖 R(T(x,y),z) does, entry by entry, and that sum
    needs only the curvature table and the torsion.  A torsion-free
    connection, every Levi-Civita connection among them, satisfies it.
    """
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("second Bianchi needs a tangent-sheaf connection")
    tor = torsion(conn)
    if tor.is_zero():
        return True
    mats = curvature(conn).mats
    sig = chart.sig
    t, rk = sig.total, chart.rank.total
    # R(T(x,y), z) = sum_c T^c_{xy} R_{cz}, the coefficient on the left
    rt = {}
    for (x, y), vec in tor.comps.items():
        for z in range(t):
            mat = sfmat_zeros(sig, rk, rk)
            for c, coef in enumerate(vec):
                if not coef.is_zero():
                    mat = sfmat_add(mat, [[coef * f for f in row] for row in mats[(c, z)]])
            rt[(x, y, z)] = mat
    for x in range(t):
        px = chart.coord_parity(x)
        for y in range(t):
            py = chart.coord_parity(y)
            for z in range(t):
                pz = chart.coord_parity(z)
                m1 = rt[(x, y, z)]
                m2 = rt[(y, z, x)]
                m3 = rt[(z, x, y)]
                s2 = (-1) ** (px * (py + pz))
                s3 = (-1) ** (pz * (px + py))
                for A in range(rk):
                    for B in range(rk):
                        s = m1[A][B] + m2[A][B].scale(s2) + m3[A][B].scale(s3)
                        if not s.is_zero():
                            return False
    return True


def ricci(conn: ConnectionData):
    """Ricci components Ric[(a,b)] = str(X -> (-1)^{|X||b|} R(d_a, X) d_b)."""
    chart = conn.chart
    if not chart.tangent_sheaf:
        raise ValueError("Ricci needs a tangent-sheaf connection")
    table = curvature(conn)
    t = chart.sig.total
    out = {}
    for a in range(t):
        for b in range(t):
            pb = chart.coord_parity(b)
            acc = Superfunction.zero(chart.sig)
            for c in range(t):
                pc = chart.coord_parity(c)
                sign = (-1) ** (pc + pc * pb)
                acc = acc + table.mats[(a, c)][c][b].scale(sign)
            out[(a, b)] = acc
    return out


# ------------------------------------------------------------------ metrics


class MetricData:
    """Even supersymmetric metric on the tangent sheaf of a chart."""

    def __init__(self, chart: Chart, g, validate=True):
        if not chart.tangent_sheaf:
            raise ValueError("metric lives on the tangent sheaf")
        self.chart = chart
        self.g = g  # g[a][b] superfunctions
        if validate:
            report = validate_metric(self)
            if not report["valid"]:
                raise ValueError("invalid metric: %s" % "; ".join(report["failures"]))

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


def validate_metric(metric: MetricData, point=None):
    """Structural checks plus body nondegeneracy at a point (default 0)."""
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
            if g[a][b] != g[b][a].scale(sign):
                failures.append("supersymmetry fails at (%d,%d)" % (a + 1, b + 1))
    if point is None:
        point = [0] * sig.n
    body = sfmat_value(g, point)
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
    from fractions import Fraction

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


def nabla_metric_component(metric: MetricData, conn: ConnectionData, a: int, b: int, c: int):
    """(nabla_a g)(d_b, d_c), which must vanish for a metric connection."""
    chart = metric.chart
    pa, pb = chart.coord_parity(a), chart.coord_parity(b)
    t = chart.sig.total
    term = metric.g[b][c].partial(a + 1)
    for d in range(t):
        gam = conn.gamma[a][d][b]
        if not (gam.is_zero() or metric.g[d][c].is_zero()):
            term = term - gam * metric.g[d][c]
        gam = conn.gamma[a][d][c]
        if not (gam.is_zero() or metric.g[b][d].is_zero()):
            sign = (-1) ** (pb * (pa + chart.coord_parity(c) + chart.coord_parity(d)) + pa * pb)
            term = term - (gam * metric.g[b][d]).scale(sign)
    return term


def levi_civita(metric: MetricData) -> ConnectionData:
    """Torsion-free metric connection via the graded Koszul formula.

    Both defining properties are re-verified symbolically before returning.
    """
    chart = metric.chart
    sig = chart.sig
    t = sig.total
    g = metric.g
    g_inv = sfmat_inverse(g, sig)
    half = field_one(sig.field) / 2
    gamma = [sfmat_zeros(sig, t, t) for _ in range(t)]
    for a in range(t):
        pa = chart.coord_parity(a)
        for b in range(t):
            pb = chart.coord_parity(b)
            k_row = []
            for c in range(t):
                pc = chart.coord_parity(c)
                term = g[b][c].partial(a + 1)
                term = term + g[c][a].partial(b + 1).scale((-1) ** (pa * (pb + pc)))
                term = term - g[a][b].partial(c + 1).scale((-1) ** (pc * (pa + pb)))
                k_row.append(term.scale(half))
            for d in range(t):
                acc = Superfunction.zero(sig)
                for c in range(t):
                    if not (k_row[c].is_zero() or g_inv[c][d].is_zero()):
                        acc = acc + k_row[c] * g_inv[c][d]
                gamma[a][d][b] = acc
    conn = ConnectionData(chart, gamma)
    if not torsion(conn).is_zero():
        raise AssertionError("Koszul output failed the torsion-free check")
    for a in range(t):
        for b in range(t):
            for c in range(t):
                if not nabla_metric_component(metric, conn, a, b, c).is_zero():
                    raise AssertionError("Koszul output failed the metric-parallel check")
    return conn


def nabla_endomorphism(conn: ConnectionData, j: SuperMatrix, a: int):
    """(nabla_a J) for a constant even endomorphism J of the tangent sheaf."""
    chart = conn.chart
    sig = chart.sig
    t = sig.total
    out = sfmat_zeros(sig, t, t)
    for d in range(t):
        for c in range(t):
            acc = Superfunction.zero(sig)
            for b in range(t):
                jv = j.entries[b][c]
                if jv:
                    acc = acc + conn.gamma[a][d][b].scale(jv)
                jv = j.entries[d][b]
                if jv:
                    acc = acc - conn.gamma[a][b][c].scale(jv)
            out[d][c] = acc
    return out


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
    big = SuperMatrix.zeros(space.dim, a_mat.field)
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
                row = space.index[row_tuple]
                big.entries[row][col] = big.entries[row][col] + sign * coef
    big.declared_parity = big._detect_parity()
    return big, space
