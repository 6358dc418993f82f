"""Independent checks of superhol reports, in the benchmark's own arithmetic.

Nothing here trusts the program's linear algebra: matrices are parsed from
the report strings into `fractions.Fraction`, and spans, brackets and closed
forms are computed from scratch.  Each `check_*` function returns a list of
problems found; an empty list means the report passed.

The one place that calls back into superhol is `containment_dims`, which
needs the program's covariant-derivative tower to produce the generators of
order `stabilized_at_order + 1`; their bracket closure is again computed here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# ------------------------------------------------------------ exact algebra


def parse_matrix(flat, t):
    if len(flat) != t * t:
        raise ValueError("expected %d entries, got %d" % (t * t, len(flat)))
    vals = [Fraction(s) for s in flat]
    return [vals[a * t:(a + 1) * t] for a in range(t)]


def block_parity(mat, p):
    """0 for even (block diagonal), 1 for odd (block off-diagonal), None if mixed or zero."""
    t = len(mat)
    even = odd = False
    for a in range(t):
        for b in range(t):
            if mat[a][b]:
                if (a < p) == (b < p):
                    even = True
                else:
                    odd = True
    if even and not odd:
        return 0
    if odd and not even:
        return 1
    return None


def matmul(x, y):
    t = len(x)
    return [[sum(x[a][c] * y[c][b] for c in range(t)) for b in range(t)] for a in range(t)]


def superbracket(x, px, y, py):
    xy, yx = matmul(x, y), matmul(y, x)
    sign = -1 if px * py == 0 else 1
    t = len(x)
    return [[xy[a][b] + sign * yx[a][b] for b in range(t)] for a in range(t)]


def flatten(mat):
    t = len(mat)
    return {a * t + b: mat[a][b] for a in range(t) for b in range(t) if mat[a][b]}


class Span:
    """Reduced echelon basis of sparse Fraction vectors."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        vec = {c: v for c, v in vec.items() if v}
        for piv in sorted(self.rows):
            coef = vec.get(piv)
            if coef:
                for c, v in self.rows[piv].items():
                    w = vec.get(c, 0) - coef * v
                    if w:
                        vec[c] = w
                    else:
                        vec.pop(c, None)
        return vec

    def insert(self, vec):
        res = self.reduce(vec)
        if not res:
            return False
        piv = min(res)
        inv = res[piv]
        row = {c: v / inv for c, v in res.items()}
        for other in self.rows.values():
            coef = other.get(piv)
            if coef:
                for c, v in row.items():
                    w = other.get(c, 0) - coef * v
                    if w:
                        other[c] = w
                    else:
                        other.pop(c, None)
        self.rows[piv] = row
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    @property
    def rank(self):
        return len(self.rows)


def nullity(rows, ncols):
    span = Span()
    for r in rows:
        span.insert(r)
    return ncols - span.rank


def closure_dims(generators, p):
    """Graded dimension of the Lie superalgebra generated by homogeneous parts."""
    t = len(generators[0]) if generators else 0
    spans = (Span(), Span())
    basis = []
    frontier = []

    def push(mat):
        added = []
        for par in (0, 1):
            part = [
                [mat[a][b] if ((a < p) != (b < p)) == bool(par) else Fraction(0) for b in range(t)]
                for a in range(t)
            ]
            if spans[par].insert(flatten(part)):
                added.append((part, par))
        basis.extend(added)
        return added

    for g in generators:
        frontier.extend(push(g))
    while frontier:
        nxt = []
        snapshot = list(basis)
        for x, px in frontier:
            for y, py in snapshot:
                nxt.extend(push(superbracket(x, px, y, py)))
        frontier = nxt
    return [spans[0].rank, spans[1].rank]


# ------------------------------------------------------------ closed forms


def _sym(n, k):
    if k < 0:
        return 0
    return comb(n + k - 1, k) if n else int(k == 0)


def _ext(n, k):
    return comb(n, k) if k >= 0 else 0


def super_sym(p, q, k):
    """Graded dimension of S^k of a p|q space."""
    out = [0, 0]
    for j in range(k + 1):
        out[j % 2] += _sym(p, k - j) * _ext(q, j)
    return tuple(out)


def super_ext(p, q, k):
    """Graded dimension of the super exterior power Lambda^k of a p|q space."""
    out = [0, 0]
    for j in range(k + 1):
        out[j % 2] += _ext(p, k - j) * _sym(q, j)
    return tuple(out)


def tensor(x, y):
    return (x[0] * y[0] + x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def minus(x, y):
    return (x[0] - y[0], x[1] - y[1])


def classical_forms(name, p, q):
    """Closed-form graded dims of gl(p|q) and sl(p|q).

    algebra: V (x) V*; R(gl) = Lambda^2 V* (x) gl - Lambda^3 V* (x) V (the
    Bianchi map is onto); g_k(gl) = S^(k+1) V* (x) V.  For sl the supertrace
    removes one even line from the algebra, a copy of Lambda^2 V* from R and
    a copy of S^k V* from g_k.
    """
    v = (p, q)
    gl = tensor(v, v)
    r_gl = minus(tensor(super_ext(p, q, 2), gl), tensor(super_ext(p, q, 3), v))

    def g_gl(k):
        return tensor(super_sym(p, q, k + 1), v)

    if name == "gl":
        return {"algebra": gl, "R": r_gl, "g": g_gl}
    if name == "sl":
        return {
            "algebra": minus(gl, (1, 0)),
            "R": minus(r_gl, super_ext(p, q, 2)),
            "g": lambda k: minus(g_gl(k), super_sym(p, q, k)),
        }
    return None


# ------------------------------------------------------------ report checks


def _algebra_mats(alg):
    p, q = alg["dim"]["p"], alg["dim"]["q"]
    t = p + q
    mats = []
    for par, key in ((0, "even"), (1, "odd")):
        for flat in alg[key]:
            mats.append((parse_matrix(flat, t), par))
    return p, t, mats


def check_closure(alg):
    """Basis homogeneous, linearly independent and closed under the superbracket."""
    bad = []
    p, t, mats = _algebra_mats(alg)
    span = Span()
    for k, (m, par) in enumerate(mats):
        got = block_parity(m, p)
        if got != par:
            bad.append("basis element %d is not homogeneous of parity %d" % (k, par))
        if not span.insert(flatten(m)):
            bad.append("basis element %d is linearly dependent" % k)
    for i, (x, px) in enumerate(mats):
        for y, py in mats[i:]:
            if not span.contains(flatten(superbracket(x, px, y, py))):
                bad.append("basis is not closed under the superbracket")
                return bad
    return bad


def check_invariants(alg, invariants):
    """Every reported invariant vector is killed by every basis matrix, and the
    reported vectors are a basis of the graded common kernel."""
    bad = []
    p, t, mats = _algebra_mats(alg)
    for par, key in ((0, "even"), (1, "odd")):
        cols = list(range(p)) if par == 0 else list(range(p, t))
        span = Span()
        for vec in invariants[key]:
            v = [Fraction(s) for s in vec]
            if len(v) != t or any(v[c] for c in range(t) if c not in cols):
                bad.append("%s invariant vector is not homogeneous" % key)
                continue
            for m, _ in mats:
                if any(sum(m[a][b] * v[b] for b in range(t)) for a in range(t)):
                    bad.append("%s invariant vector is not killed by the algebra" % key)
                    break
            if not span.insert({c: v[c] for c in range(t) if v[c]}):
                bad.append("%s invariant vectors are dependent" % key)
        rows = [{j: m[a][c] for j, c in enumerate(cols) if m[a][c]} for m, _ in mats for a in range(t)]
        want = nullity([r for r in rows if r], len(cols))
        if len(invariants[key]) != want:
            bad.append("%d %s invariant vectors reported, common kernel has dimension %d" % (len(invariants[key]), key, want))
    return bad


def check_osp(alg, body):
    """Each basis matrix M preserves the even form g: for homogeneous e_a,
    g(M e_a, e_b) + (-1)^(|M||a|) g(e_a, M e_b) = 0."""
    p, t, mats = _algebra_mats(alg)
    g = [[Fraction(v) for v in row] for row in body]
    for m, par in mats:
        for a in range(t):
            sign = -1 if par and a >= p else 1
            for b in range(t):
                lhs = sum(m[c][a] * g[c][b] for c in range(t))
                lhs += sign * sum(g[a][d] * m[d][b] for d in range(t))
                if lhs:
                    return ["holonomy is not contained in osp(g(x0))"]
    return []


def check_decomposition(alg, dec, body):
    """Witness and complement are invariant, g-orthogonal and span V."""
    if dec.get("status") != "decomposable":
        return ["block-product metric not reported decomposable (status %r)" % dec.get("status")]
    bad = []
    p, t, mats = _algebra_mats(alg)
    g = [[Fraction(v) for v in row] for row in body]
    wit = [[Fraction(s) for s in v] for v in dec["witness"]]
    comp = [[Fraction(s) for s in v] for v in dec["complement"]]
    for name, vecs in (("witness", wit), ("complement", comp)):
        span = Span()
        for v in vecs:
            span.insert({c: v[c] for c in range(t) if v[c]})
        if span.rank != len(vecs) or not vecs:
            bad.append("%s is empty or dependent" % name)
        for m, _ in mats:
            for v in vecs:
                img = [sum(m[a][b] * v[b] for b in range(t)) for a in range(t)]
                if not span.contains({a: img[a] for a in range(t) if img[a]}):
                    bad.append("%s is not invariant" % name)
                    break
    for w in wit:
        for c in comp:
            if sum(w[a] * g[a][b] * c[b] for a in range(t) for b in range(t)):
                bad.append("witness and complement are not g-orthogonal")
                break
    total = Span()
    for v in wit + comp:
        total.insert({c: v[c] for c in range(t) if v[c]})
    if total.rank != t or len(wit) + len(comp) != t:
        bad.append("witness and complement do not span V")
    return bad


def check_connection_result(res, meta):
    """Checks shared by holonomy-tower and levi-civita results."""
    alg = res["algebra"]
    bad = check_closure(alg)
    if [len(alg["even"]), len(alg["odd"])] != res["holonomy_dim"]:
        bad.append("holonomy_dim does not match the reported basis")
    bad += check_invariants(alg, res["invariants"])
    if meta.get("body") is not None:
        bad += check_osp(alg, meta["body"])
        for key in ("torsion_free", "first_bianchi", "second_bianchi"):
            if res.get(key) is not True:
                bad.append("%s is not true" % key)
        if meta.get("product"):
            bad += check_decomposition(alg, res["decomposable"], meta["body"])
    return bad


def check_berger_algebra(res, name, params):
    bad = []
    if not res.get("ideal_ok"):
        bad.append("ideal_ok is false")
    if not res.get("exactness_ok"):
        bad.append("exactness_ok is false")
    dims = res["dims"]
    alg_dim = res["algebra_dim"]
    v = tuple(params) if len(params) == 2 else (params[0], params[0])
    vg1 = tensor(v, tuple(dims["g1"]))
    rank = minus(vg1, tuple(dims["g2"]))
    h22 = minus(tuple(dims["R"]), rank)
    if list(h22) != dims["H22_graded_raw"] or sum(h22) != dims["H22_derived"]:
        bad.append("H22 is not dim R - rank of the Spencer map")
    forms = classical_forms(name, *v)
    if forms is not None:
        if tuple(alg_dim) != forms["algebra"]:
            bad.append("algebra dim differs from the closed form")
        if tuple(dims["R"]) != forms["R"]:
            bad.append("R dim differs from the closed form")
        for k, key in ((1, "g1"), (2, "g2")):
            if tuple(dims[key]) != forms["g"](k):
                bad.append("%s dim differs from the closed form" % key)
    return bad


def check_prolongation(res, name, params, order):
    bad = []
    forms = classical_forms(name, *params)
    if tuple(res["algebra_dim"]) != forms["algebra"]:
        bad.append("algebra dim differs from the closed form")
    levels = res["levels"]
    if [lvl["k"] for lvl in levels] != list(range(1, order + 1)):
        bad.append("prolongation levels are not 1..%d" % order)
    for lvl in levels:
        if tuple(lvl["dim"]) != forms["g"](lvl["k"]):
            bad.append("g_%d dim differs from the closed form" % lvl["k"])
    return bad


def check_pi_adjoint(res, name, params):
    """Parity-reversed adjoint of a simple algebra: g_1 is the odd line of the
    canonical generator, g_2 = 0, and the representation is Berger."""
    bad = []
    if res["g1_dim"] != [0, 1] or res["g2_dim"] != [0, 0]:
        bad.append("prolongation profile is not g1 = 0|1, g2 = 0")
    if not res["generator_matches"]:
        bad.append("g1 is not spanned by the canonical generator")
    if not res["is_berger"]:
        bad.append("Pi-adjoint representation is not Berger")
    forms = classical_forms(name, *params)
    if forms is not None and tuple(res["algebra_dim"]) != forms["algebra"]:
        bad.append("algebra dim differs from the closed form")
    return bad


def check_report(report, meta):
    """Dispatch on the problem kind; returns the list of problems found."""
    if "error" in report:
        return ["program error: %s" % report["error"]]
    kind = meta["kind"]
    try:
        res = report["result"]
        if kind in ("connection", "metric"):
            return check_connection_result(res, meta)
        if kind == "algebra":
            return check_berger_algebra(res, meta["name"], meta["params"])
        if kind == "prolongation":
            return check_prolongation(res, meta["name"], meta["params"], meta["order"])
        return check_pi_adjoint(res, meta["name"], meta["params"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return ["malformed report: %s %s" % (type(exc).__name__, exc)]


def plateau_fault(report, meta, containment):
    """True when the holonomy plateau rule stopped too early.

    That is the case when float transport validation fails, or when closing
    the order-(k+1) derivatives, k = stabilized_at_order, gives a larger
    algebra than the reported one.  `containment(k)` returns that graded dim.
    """
    res = report["result"]
    if "holonomy_dim" not in res:
        return False
    tv = res.get("transport_validation")
    if tv is not None and not tv["ok"]:
        return True
    if res["holonomy_status"] != "stabilized" or res["holonomy_dim"] == meta["full_dim"]:
        return False
    return containment(res["stabilized_at_order"] + 1) != res["holonomy_dim"]


# ------------------------------------------------------------ containment


def containment_dims(doc, order):
    """Graded dim of the closure of all evaluated curvature derivatives of
    order <= `order`, using the program's tower and this module's closure."""
    from superhol import geometry as geo
    from superhol import reportio as rio

    kind, payload, options = rio.decode_problem(doc)
    conn = geo.levi_civita(payload) if kind == "metric" else payload
    sig = conn.chart.sig
    point = rio.decode_point(options, sig)
    gens = []
    for tab in geo.covariant_derivatives(conn, None, order):
        for key in sorted(tab.components):
            mat = [[Fraction(f.value(point)) for f in row] for row in tab.components[key]]
            if any(any(row) for row in mat):
                gens.append(mat)
    if not gens:
        return [0, 0]
    return closure_dims(gens, conn.chart.rank.p)
