"""Spaces of algebraic curvature tensors, Berger certificates, prolongations.

All solves assemble explicit sparse constraint systems over the exact field
and take kernels; constraints are enumerated over homogeneous basis tuples,
which suffices by multilinearity.  Unknowns for curvature tensors are the
values on canonical argument pairs (a < b, plus a = b when a is odd), with
graded antisymmetry supplying the rest.
"""

from __future__ import annotations

from .linalg import same_span, solve_graded, span_echelon
from .scalars import field_zero, to_field
from .superlin import (
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    associative_closure,
    commutant,
    cyclic_terms,
    radical,
    split,
    superbracket,
)


def canonical_pairs(dim: SuperDim):
    t = dim.total
    pairs = []
    for a in range(t):
        for b in range(a, t):
            if a == b and dim.parity(a) == 0:
                continue
            pairs.append((a, b))
    return pairs


def reduce_pair(dim: SuperDim, a: int, b: int):
    """Canonical (pair, sign); sign 0 means the value vanishes identically."""
    if a == b and dim.parity(a) == 0:
        return None, 0
    if a <= b:
        return (a, b), 1
    return (b, a), -((-1) ** (dim.parity(a) * dim.parity(b)))


class CurvatureElement:
    """Algebraic curvature tensor stored on canonical pairs."""

    def __init__(self, dim: SuperDim, parity: int, values, field):
        self.dim = dim
        self.parity = parity
        self.values = values  # {(a,b) canonical: SuperMatrix}
        self.field = field

    def value(self, a: int, b: int) -> SuperMatrix:
        pair, sign = reduce_pair(self.dim, a, b)
        if sign == 0 or pair not in self.values:
            return SuperMatrix.zeros(self.dim, self.field)
        m = self.values[pair]
        return m if sign == 1 else m.scale(-1)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.values.values())

    def flatten(self) -> dict:
        t = self.dim.total
        out = {}
        for idx, pair in enumerate(canonical_pairs(self.dim)):
            m = self.values.get(pair)
            if m is None:
                continue
            for a in range(t):
                for b in range(t):
                    v = m.entries[a][b]
                    if v:
                        out[idx * t * t + a * t + b] = v
        return out


class LinearSolutionSpace:
    def __init__(self, ambient: str, basis, even_dim: int, odd_dim: int):
        self.ambient = ambient
        self.basis = basis
        self.even_dim = even_dim
        self.odd_dim = odd_dim

    @property
    def graded_dim(self):
        return (self.even_dim, self.odd_dim)

    @property
    def total_dim(self):
        return self.even_dim + self.odd_dim

    def __repr__(self):
        return "LinearSolutionSpace(%s, dim %d|%d)" % (self.ambient, self.even_dim, self.odd_dim)


def _sorted_triples(t):
    return [
        (x, y, z)
        for x in range(t)
        for y in range(x, t)
        for z in range(y, t)
    ]


def curvature_space(algebra: SubSuperalgebra) -> LinearSolutionSpace:
    """Solutions of the graded antisymmetry + cyclic identity valued in g."""
    dim = algebra.dim
    t = dim.total
    field = algebra.field
    pairs = canonical_pairs(dim)
    basis = algebra.basis()
    # unknowns: the coefficient of basis element gi in the value on a pair
    parity = {
        ((a, b), gi): (dim.parity(a) + dim.parity(b) + g.parity) % 2 for (a, b) in pairs for gi, g in enumerate(basis)
    }

    def rows():
        for (x, y, z) in _sorted_triples(t):
            terms = []
            for (u, v, w), s in cyclic_terms(dim.parity, x, y, z):
                pair, sign = reduce_pair(dim, u, v)
                if sign:
                    terms.append((pair, w, s * sign))
            for comp in range(t):
                row = {}
                for (pair, w, s) in terms:
                    for gi, g in enumerate(basis):
                        val = g.entries[comp][w]
                        if val:
                            lab = (pair, gi)
                            row[lab] = row.get(lab, 0) + s * val
                yield row

    kernels = solve_graded(parity, rows(), field)
    elements = []
    for sigma, kernel in enumerate(kernels):
        for vec in kernel:
            values = {}
            for (pair, gi), coef in vec.items():
                add = basis[gi].scale(coef)
                values[pair] = values[pair] + add if pair in values else add
            elements.append(CurvatureElement(dim, sigma, values, field))
    return LinearSolutionSpace("curvature tensors", elements, *map(len, kernels))


def check_curvature_element(algebra: SubSuperalgebra, elem: CurvatureElement) -> bool:
    """Re-check values-in-g plus the cyclic identity for a single element."""
    dim = algebra.dim
    t = dim.total
    for m in elem.values.values():
        if not algebra.contains_matrix(m):
            return False
    for (x, y, z) in _sorted_triples(t):
        terms = cyclic_terms(dim.parity, x, y, z)
        for comp in range(t):
            acc = field_zero(algebra.field)
            for (u, v, w), s in terms:
                acc = acc + s * elem.value(u, v).entries[comp][w]
            if acc:
                return False
    return True


def act_on_curvature(a_mat: SuperMatrix, elem: CurvatureElement) -> CurvatureElement:
    """Module action A . R on curvature tensors."""
    if a_mat.parity is None:
        raise ValueError("action needs a homogeneous matrix")
    dim = elem.dim
    t = dim.total
    tau = a_mat.parity
    rho = elem.parity
    values = {}
    for (a, b) in canonical_pairs(dim):
        rv = elem.value(a, b)
        out = superbracket(a_mat, rv) if rv.parity is not None else a_mat.matmul(rv) - rv.matmul(a_mat)
        for c in range(t):
            coef = a_mat.entries[c][a]
            if coef:
                out = out + elem.value(c, b).scale(-((-1) ** (tau * rho)) * coef)
            coef = a_mat.entries[c][b]
            if coef:
                out = out + elem.value(a, c).scale(
                    -((-1) ** (tau * (rho + dim.parity(a)))) * coef
                )
        values[(a, b)] = out
    return CurvatureElement(dim, (tau + rho) % 2, values, elem.field)


def berger_check(algebra: SubSuperalgebra, rspace: LinearSolutionSpace = None):
    """Span L of curvature values, the Berger property, and the ideal check."""
    if rspace is None:
        rspace = curvature_space(algebra)
    mats = []
    for elem in rspace.basis:
        mats.extend(elem.values.values())
    span = SubSuperalgebra.from_matrices(algebra.dim, mats, algebra.field)
    is_berger = span.graded_dim == algebra.graded_dim and algebra.contains_algebra(span)
    # L = g is an ideal of g because g is bracket-closed
    ideal_ok = is_berger or all(
        span.contains_matrix(superbracket(a, b)) for a in algebra.basis() for b in span.basis()
    )
    return {
        "L": span,
        "is_berger": is_berger,
        "ideal_ok": ideal_ok,
        "R_dim": rspace.graded_dim,
    }


def curvature_derivative_space(algebra: SubSuperalgebra, rspace: LinearSolutionSpace = None) -> LinearSolutionSpace:
    """Solutions S in V* tensor R(g) of the graded cyclic constraint."""
    if rspace is None:
        rspace = curvature_space(algebra)
    dim = algebra.dim
    t = dim.total
    field = algebra.field
    relems = rspace.basis
    # unknowns: the coefficient of basis tensor j in the derivative along d
    parity = {(d, j): (dim.parity(d) + r.parity) % 2 for d in range(t) for j, r in enumerate(relems)}

    def rows():
        for (x, y, z) in _sorted_triples(t):
            # (label, sign, entries of R_j on the canonical pair) per term
            terms = []
            for (d, u, v), s in cyclic_terms(dim.parity, x, y, z):
                pair, sign = reduce_pair(dim, u, v)
                if not sign:
                    continue
                for j, r in enumerate(relems):
                    m = r.values.get(pair)
                    if m is not None:
                        terms.append(((d, j), s * sign, m.entries))
            for A in range(t):
                for B in range(t):
                    row = {}
                    for (lab, s, entries) in terms:
                        val = entries[A][B]
                        if val:
                            row[lab] = row.get(lab, 0) + s * val
                    yield row

    kernels = solve_graded(parity, rows(), field)
    out = []
    for sigma, kernel in enumerate(kernels):
        for vec in kernel:
            comps = {}
            for (d, j), coef in vec.items():
                comps.setdefault(d, []).append((coef, relems[j]))
            out.append((sigma, comps))
    return LinearSolutionSpace("first curvature derivatives", out, *map(len, kernels))


def symmetric_berger_check(algebra: SubSuperalgebra):
    rspace = curvature_space(algebra)
    bc = berger_check(algebra, rspace)
    deriv = curvature_derivative_space(algebra, rspace)
    return {
        "is_berger": bc["is_berger"],
        "Rnabla_dim": deriv.graded_dim,
        "is_symmetric_berger": bc["is_berger"] and deriv.total_dim == 0,
    }


# --------------------------------------------------------- prolongations


class ProlongationLevel:
    """Basis of one prolongation level as coordinate multimaps.

    Each element maps a tuple of k direction indices to a matrix in the level
    zero algebra, stored flat as {(d_1,...,d_k, A, B): scalar}.  raw_coords
    are the solver coordinates over (direction, previous-level basis index).
    """

    def __init__(self, k: int, elements, parities, raw_coords):
        self.k = k
        self.elements = elements
        self.parities = parities
        self.raw_coords = raw_coords

    @property
    def graded_dim(self):
        even = sum(1 for p in self.parities if p == 0)
        return (even, len(self.parities) - even)

    @property
    def total_dim(self):
        return len(self.parities)


class ProlongationTower:
    def __init__(self, dim: SuperDim, g0: SubSuperalgebra, levels):
        self.dim = dim
        self.g0 = g0
        self.levels = levels  # list of ProlongationLevel for k = 1..

    def graded_dims(self):
        return [lvl.graded_dim for lvl in self.levels]


def _level0_elements(g0: SubSuperalgebra):
    elems = []
    parities = []
    for m in g0.basis():
        flat = {}
        t = m.dim.total
        for a in range(t):
            for b in range(t):
                if m.entries[a][b]:
                    flat[(a, b)] = m.entries[a][b]
        elems.append(flat)
        parities.append(m.parity)
    return elems, parities


def _apply(elem, k: int, y: int):
    """Apply a level-k multimap to the basis direction y, landing in level k-1."""
    if k == 0:
        return {(key[0],): v for key, v in elem.items() if key[1] == y}
    return {key[1:]: v for key, v in elem.items() if key[0] == y}


def _next_level(dim: SuperDim, prev_elems, prev_parities, k: int, field):
    """Solve the graded symmetry condition for level k+1 elements."""
    t = dim.total
    # unknowns: the coefficient of level-k element i along direction d
    parity = {(d, i): (dim.parity(d) + p) % 2 for d in range(t) for i, p in enumerate(prev_parities)}

    def rows():
        for x in range(t):
            for y in range(x, t):
                # the equations of the pair (x, y), one per entry they fix; no
                # other pair touches them
                eqs = {}
                sign = -((-1) ** (dim.parity(x) * dim.parity(y)))
                for d, e, s in ((x, y, 1), (y, x, sign)):
                    for i, elem in enumerate(prev_elems):
                        for key, v in _apply(elem, k, e).items():
                            row = eqs.setdefault(key, {})
                            row[(d, i)] = row.get((d, i), 0) + (v if s == 1 else s * v)
                yield from eqs.values()

    new_elems = []
    new_parities = []
    new_raw = []
    for sigma, kernel in enumerate(solve_graded(parity, rows(), field)):
        for vec in kernel:
            flat = {}
            for (d, i), coef in vec.items():
                for key, v in prev_elems[i].items():
                    full = (d,) + key
                    w = flat.get(full)
                    w = coef * v if w is None else w + coef * v
                    if w:
                        flat[full] = w
                    else:
                        flat.pop(full, None)
            new_elems.append(flat)
            new_parities.append(sigma)
            new_raw.append(vec)
    return new_elems, new_parities, new_raw


def cartan_prolongation(dim: SuperDim, g0: SubSuperalgebra, order: int) -> ProlongationTower:
    """Levels 1..order of the prolongation tower of g0 acting on V."""
    if order < 1:
        raise ValueError("order must be at least 1")
    prev_elems, prev_parities = _level0_elements(g0)
    levels = []
    for k in range(order):
        elems, parities, raw = _next_level(dim, prev_elems, prev_parities, k, g0.field)
        levels.append(ProlongationLevel(k + 1, elems, parities, raw))
        prev_elems, prev_parities = elems, parities
        if not elems:
            for k2 in range(k + 1, order):
                levels.append(ProlongationLevel(k2 + 1, [], [], []))
            break
    return ProlongationTower(dim, g0, levels)


# --------------------------------------------------- Spencer rank identity


def spencer_rank_identity(algebra: SubSuperalgebra, tower: ProlongationTower = None, rspace: LinearSolutionSpace = None):
    """Exactness of the prolongation sequence and the derived cohomology rank.

    Builds the map V* tensor g_1 -> curvature space, checks its kernel equals
    the embedded g_2, and reports dim R(g) - rank as the derived quantity.
    """
    dim = algebra.dim
    t = dim.total
    field = algebra.field
    if rspace is None:
        rspace = curvature_space(algebra)
    if tower is None:
        tower = cartan_prolongation(dim, algebra, 2)
    g1 = tower.levels[0]
    g2 = tower.levels[1] if len(tower.levels) > 1 else ProlongationLevel(2, [], [], [])
    pairs = canonical_pairs(dim)

    report = {
        "g1_dim": g1.graded_dim,
        "g2_dim": g2.graded_dim,
        "R_dim": rspace.graded_dim,
    }
    rspace_span = span_echelon([e.flatten() for e in rspace.basis])
    exactness_ok = True
    # unknowns: the coefficient of g_1 element j along direction d
    parity = {(d, j): (dim.parity(d) + p) % 2 for d in range(t) for j, p in enumerate(g1.parities)}
    rows = {}
    for (d, j) in parity:
        alpha = g1.elements[j]
        flat = {}
        for pi, (x, y) in enumerate(pairs):
            mat = {}
            if x == d:
                for key, v in _apply(alpha, 1, y).items():
                    mat[key[0:2]] = mat.get(key[0:2], 0) + v
            if y == d:
                sign = -((-1) ** (dim.parity(x) * dim.parity(y)))
                for key, v in _apply(alpha, 1, x).items():
                    mat[key[0:2]] = mat.get(key[0:2], 0) + sign * v
            for (a, b), v in mat.items():
                if v:
                    flat[pi * t * t + a * t + b] = v
        # the image must satisfy the curvature space constraints
        if flat and not rspace_span.contains(flat):
            exactness_ok = False
        for coord, v in flat.items():
            rows.setdefault(coord, {})[(d, j)] = v
    # rank of the map and its kernel, per parity
    kernels = solve_graded(parity, rows.values(), field)
    odd_cols = sum(parity.values())
    h22 = [
        r - (ncols - len(ker))
        for r, ncols, ker in zip(rspace.graded_dim, (len(parity) - odd_cols, odd_cols), kernels)
    ]
    # the kernel must be g_2, embedded through its solver coordinates
    if not same_span(kernels[0] + kernels[1], g2.raw_coords):
        exactness_ok = False
    report["exactness_ok"] = exactness_ok
    report["h22_raw"] = tuple(h22)
    report["h22_total"] = h22[0] + h22[1]
    # Table notation reports these modules with a parity shift
    report["h22_pi_twisted"] = (h22[1], h22[0])
    if not exactness_ok:
        raise AssertionError(
            "prolongation sequence failed exactness; the solver implementations disagree"
        )
    return report


# ------------------------------------------------------- abstract algebra


def structure_constants(algebra: SubSuperalgebra):
    """Basis and bracket coordinates; raises if the basis is not closed."""
    basis = algebra.basis()
    n = len(basis)
    table = {}
    for i in range(n):
        for j in range(n):
            coords = algebra.coordinates(superbracket(basis[i], basis[j]))
            if coords is None:
                raise ValueError("algebra basis is not bracket-closed")
            table[(i, j)] = coords
    return basis, table


def is_simple(algebra: SubSuperalgebra):
    """Simplicity of a Lie superalgebra g of dimension n, read from ad(g) on
    the parity reversal of g (`pi_adjoint_representation`).

    Exact checks first: a nonzero center and a proper derived algebra are
    proper ideals.  Then A, the associative algebra that ad(g) generates:
    - dim A = n²: A = End(g), so g has no proper ad-invariant subspace
      (Burnside) and is simple, with status 'certified';
    - rad A != 0: rad A·g is an ideal, nonzero, and proper because rad A
      is nilpotent;
    - a `split` of the even commutant of ad(g): its kernels are proper graded
      ideals.
    Otherwise g is reported simple with status 'heuristic'.  Returns
    {'simple', 'status', 'note', 'ideal'}; 'ideal' is the proper ideal the
    last two tests find, as a SubSuperalgebra, and None otherwise.
    """
    field = algebra.field
    if not algebra.total_dim:
        return _simplicity(False, "zero algebra")
    basis = algebra.basis()
    n = len(basis)
    vdim, rep_alg, ad, pos = pi_adjoint_representation(algebra)
    if rep_alg.total_dim < n:
        return _simplicity(False, "nontrivial center")
    # the columns of ad(x) span the derived algebra
    if span_echelon(dict(enumerate(col)) for m in ad for col in zip(*m.entries)).rank < n:
        return _simplicity(False, "derived subalgebra is proper")
    closure = associative_closure(ad, vdim)
    if closure.rank == n * n:
        return _simplicity(True, "ad(g) generates End(g) (Burnside)")
    order = sorted(pos, key=pos.get)

    def ideal(vectors):
        zero = SuperMatrix.zeros(algebra.dim, field)
        mats = [sum((basis[order[k]].scale(v) for k, v in vec.items()), zero) for vec in vectors]
        return SubSuperalgebra.from_matrices(algebra.dim, mats, field)

    rad = radical(closure, vdim, field)
    if rad:
        # the columns of the radical elements span rad A·g
        cols = [{k: r[k * n + j] for k in range(n) if k * n + j in r} for r in rad for j in range(n)]
        return _simplicity(False, "the radical of the algebra ad(g) generates moves g onto a proper ideal", ideal(cols))
    parts = split(commutant(ad, vdim, field), vdim, field)
    if parts is not None:
        return _simplicity(False, "the even commutant of ad(g) splits off a proper graded ideal", ideal(parts[0]))
    return _simplicity(
        True,
        "no proper ideal found: ad(g) generates %d < n² dimensions, with zero radical and no split "
        "of its even commutant (heuristic)" % closure.rank,
        status="heuristic",
    )


def _simplicity(simple, note, ideal=None, status="certified"):
    return {"simple": simple, "status": status, "note": note, "ideal": ideal}


def pi_adjoint_representation(algebra: SubSuperalgebra):
    """Adjoint action on the parity-reversed algebra as explicit matrices.

    Returns (V dim, representation subalgebra, images of the input basis in
    basis order, reorder map from input basis index to V basis index).
    """
    basis, table = structure_constants(algebra)
    n = len(basis)
    # V basis: parity of Pi(G_j) is |G_j| + 1; even-first ordering
    order = [j for j in range(n) if basis[j].parity == 1] + [
        j for j in range(n) if basis[j].parity == 0
    ]
    pos = {j: k for k, j in enumerate(order)}
    p_v = sum(1 for j in range(n) if basis[j].parity == 1)
    vdim = SuperDim(p_v, n - p_v)
    field = algebra.field
    rep = [
        SuperMatrix.from_flat(
            vdim,
            {pos[k] * n + pos[j]: to_field(v, field) for j in range(n) for k, v in table[(i, j)].items()},
            field,
        )
        for i in range(n)
    ]
    rep_alg = SubSuperalgebra.from_matrices(vdim, rep, field)
    return vdim, rep_alg, rep, pos


def pi_adjoint_test(algebra: SubSuperalgebra):
    """Prolongation profile of a simple algebra on its parity reversal."""
    simplicity = is_simple(algebra)
    if not simplicity["simple"]:
        raise ValueError("input algebra is not simple: %s" % simplicity["note"])
    basis = algebra.basis()
    vdim, rep_alg, rep, pos = pi_adjoint_representation(algebra)
    tower = cartan_prolongation(vdim, rep_alg, 2)
    g1, g2 = tower.levels[0], tower.levels[1]
    # expected generator x -> (-1)^{|x|} Pi(x)
    expected = {}
    for j, g in enumerate(basis):
        sign = (-1) ** (g.parity + 1)
        m = rep[j]
        t = vdim.total
        for a in range(t):
            for b in range(t):
                v = m.entries[a][b]
                if v:
                    expected[(pos[j], a, b)] = sign * v
    generator_matches = False
    if g1.total_dim == 1:
        elem = g1.elements[0]
        generator_matches = _proportional(elem, expected)
    bc = berger_check(rep_alg)
    return {
        "g1_dim": g1.graded_dim,
        "g2_dim": g2.graded_dim,
        "generator_matches": generator_matches,
        "is_berger": bc["is_berger"],
        "simplicity_note": simplicity["note"],
        "simplicity_status": simplicity["status"],
    }


def _proportional(flat_a: dict, flat_b: dict) -> bool:
    if not flat_a or not flat_b:
        return not flat_a and not flat_b
    if set(flat_a) != set(flat_b):
        return False
    key = next(iter(flat_a))
    ratio = flat_a[key] / flat_b[key]
    return all(flat_a[k] == ratio * flat_b[k] for k in flat_b)
