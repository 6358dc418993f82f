"""Spaces of algebraic curvature tensors, Berger certificates, prolongations.

All solves assemble explicit sparse constraint systems over the exact field
and take kernels; constraints are enumerated over homogeneous basis tuples,
which suffices by multilinearity.  Unknowns for curvature tensors are the
values on canonical argument pairs (a < b, plus a = b when a is odd), with
graded antisymmetry supplying the rest.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import cached_property
from itertools import permutations

from .linalg import combine, same_span, solve_graded, solve_kernel, span_echelon
from .scalars import GaussianRational, to_field
from .superlin import (
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    associative_closure,
    combination,
    commutant,
    cyclic_terms,
    radical,
    sorted_cyclic_terms,
    sparse_lines,
    spin,
    split,
    superbracket,
)

# Most unknowns one prolongation level may have.  gl(t|0) has C(t+k, k+1)·t
# of them at level k, each an entry of the level's system, so the bounds on
# t and on the order alone do not bound a level's memory: gl(16|0) would
# have 868,224 at level 5, and gl(14|0) has 379,848 there.
MAX_LEVEL_UNKNOWNS = 500_000


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
    """Algebraic curvature tensor of one parity, kept as its nonzero entries
    {(canonical pair, A * t + B): v}, v the entry (A, B) of its value on the
    pair: the form `spencer_delta` returns."""

    def __init__(self, dim: SuperDim, parity: int, entries, field):
        self.dim = dim
        self.parity = parity
        self.entries = entries
        self.field = field

    def value(self, a: int, b: int) -> SuperMatrix:
        pair, sign = reduce_pair(self.dim, a, b)
        flat = {pos: sign * v for (p, pos), v in self.entries.items() if p == pair}
        return SuperMatrix.from_flat(self.dim, flat, self.field)

    def is_zero(self) -> bool:
        return not self.entries


def _pair_values(elem: CurvatureElement):
    """The nonzero values of a tensor, each as its nonzero entries
    {A * t + B: v}, one per canonical pair."""
    out = {}
    for (pair, pos), v in elem.entries.items():
        out.setdefault(pair, {})[pos] = v
    return out.values()


class LinearSolutionSpace:
    """The kernel of a graded system, from the `linalg.GradedKernel` that
    `solve_graded` returns: its graded dim, read from the ranks, and a basis
    built on first read, one element(parity, vector) per kernel vector, even
    ones first."""

    def __init__(self, solution, element):
        self.solution = solution
        self._element = element
        self.graded_dim = solution.graded_dim

    @property
    def total_dim(self):
        return sum(self.graded_dim)

    @property
    def parities(self):
        return [sigma for sigma, n in enumerate(self.graded_dim) for _ in range(n)]

    @cached_property
    def basis(self):
        return [self._element(sigma, vec) for sigma, kernel in enumerate(self.solution.kernels) for vec in kernel]


def curvature_space(algebra: SubSuperalgebra) -> LinearSolutionSpace:
    """Solutions of the graded antisymmetry + cyclic identity valued in g."""
    dim = algebra.dim
    field = algebra.field
    pairs = canonical_pairs(dim)
    basis = algebra.basis()
    # unknowns: the coefficient of basis element gi in the value on a pair
    parity = {
        ((a, b), gi): (dim.parity(a) + dim.parity(b) + g.parity) % 2 for (a, b) in pairs for gi, g in enumerate(basis)
    }

    def element(sigma, vec):
        terms = ((coef, {(pair, pos): v for pos, v in basis[gi]._flat.items()}) for (pair, gi), coef in vec.items())
        return CurvatureElement(dim, sigma, combine(terms), field)

    return LinearSolutionSpace(solve_graded(parity, _curvature_rows(dim, basis), field), element)


def _curvature_rows(dim: SuperDim, basis):
    """The graded cyclic identity on the unknowns ((a, b), gi) of
    `curvature_space`: one row per sorted triple and row index of the values,
    built from the nonzero entries of the basis matrices.  Only nonempty
    rows are emitted."""
    t = dim.total
    by_col = [[] for _ in range(t)]  # column -> (row, gi, value) of the basis entries
    for gi, g in enumerate(basis):
        for pos, val in g._flat.items():
            comp, w = divmod(pos, t)
            by_col[w].append((comp, gi, val))
    for cyclic in sorted_cyclic_terms(dim.parity, t):
        rows = {}
        for (u, v, w), s in cyclic:
            pair, sign = reduce_pair(dim, u, v)
            if not sign:
                continue
            negate = s * sign < 0
            for comp, gi, val in by_col[w]:
                row = rows.setdefault(comp, {})
                lab = (pair, gi)
                if negate:
                    val = -val
                x = row.get(lab)
                row[lab] = val if x is None else x + val
        yield from rows.values()


def check_curvature_element(algebra: SubSuperalgebra, elem: CurvatureElement) -> bool:
    """Whether one tensor lies in R(g), checked exactly: every value lies in
    g, and the graded cyclic identity holds.  The identity is read, for each
    sorted triple, from the nonzero entries grouped by (canonical pair,
    column), so no matrix is formed per term.  A term (u, v, w) reads the
    entries of column w of the value on {u, v}, so only the sorted triples
    pair + (w,) of a pair and a column with an entry are read: every term of
    any other triple vanishes."""
    dim = algebra.dim
    t = dim.total
    if not all(algebra.contains_matrix(SuperMatrix.from_flat(dim, flat, elem.field)) for flat in _pair_values(elem)):
        return False
    by_pair_col = {}  # (canonical pair, column) -> (row, value) of the nonzero entries
    for (pair, pos), val in elem.entries.items():
        comp, w = divmod(pos, t)
        by_pair_col.setdefault((pair, w), []).append((comp, val))
    triples = {tuple(sorted(pair + (w,))) for pair, w in by_pair_col}
    for triple in sorted(triples):
        acc = {}
        for (u, v, w), s in cyclic_terms(dim.parity, *triple):
            pair, sign = reduce_pair(dim, u, v)
            entries = by_pair_col.get((pair, w)) if sign else None
            if not entries:
                continue
            negate = s * sign < 0
            for comp, val in entries:
                if negate:
                    val = -val
                x = acc.get(comp)
                acc[comp] = val if x is None else x + val
        if any(acc.values()):
            return False
    return True


def berger_check(algebra: SubSuperalgebra, rspace: LinearSolutionSpace = None):
    """Span L of curvature values, the Berger property, and the ideal check."""
    if rspace is None:
        rspace = curvature_space(algebra)
    # a homogeneous tensor's value on a pair is homogeneous, one echelon row
    values = span_echelon(flat for elem in rspace.basis for flat in _pair_values(elem))
    span = SubSuperalgebra(algebra.dim, values, algebra.field)
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
    """Solutions S in V* tensor R(g) of the graded cyclic constraint, written
    by `_derivative_rows` at g's pivot positions only."""
    if rspace is None:
        rspace = curvature_space(algebra)
    dim = algebra.dim
    t = dim.total
    field = algebra.field
    relems = rspace.basis
    # unknowns: the coefficient of basis tensor j in the derivative along d
    parity = {(d, j): (dim.parity(d) + r.parity) % 2 for d in range(t) for j, r in enumerate(relems)}

    def element(sigma, vec):
        comps = {}
        for (d, j), coef in vec.items():
            comps.setdefault(d, []).append((coef, relems[j]))
        return sigma, comps

    rows = _derivative_rows(dim, relems, algebra._echelon.pivot_rows)
    return LinearSolutionSpace(solve_graded(parity, rows, field), element)


def _derivative_rows(dim: SuperDim, relems, pivots):
    """The graded cyclic constraint on the unknowns (d, j) of
    `curvature_derivative_space`: one row per sorted triple and pivot
    position of g, built from the nonzero entries of the R_j.  Each constraint
    asks a combination of values of the R_j, a matrix in g, to vanish, and an
    element of g vanishes exactly when its entries at g's pivots do, so the
    rows at the other positions add nothing to the row space.  Only nonempty
    rows are emitted."""
    by_pair = {}  # canonical pair -> (j, pivot position, value) of the entries of the R_j on it
    for j, r in enumerate(relems):
        for (pair, pos), val in r.entries.items():
            if pos in pivots:
                by_pair.setdefault(pair, []).append((j, pos, val))
    for cyclic in sorted_cyclic_terms(dim.parity, dim.total):
        rows = {}
        for (d, u, v), s in cyclic:
            pair, sign = reduce_pair(dim, u, v)
            if not sign:
                continue
            negate = s * sign < 0
            for j, pos, val in by_pair.get(pair, ()):
                row = rows.setdefault(pos, {})
                lab = (d, j)
                if negate:
                    val = -val
                x = row.get(lab)
                row[lab] = val if x is None else x + val
        yield from rows.values()


# --------------------------------------------------------- prolongations


class ProlongationLevel(LinearSolutionSpace):
    """One prolongation level g^(k) = (S^{k+1}V* (x) V) ∩ (S^k V* (x) g).

    Each basis element is a graded-symmetric tensor T(d_1, ..., d_k, B) with
    values in V, stored as {(S, A): scalar}: its A-component on the sorted
    (k+1)-tuple S, for the tuples in which no odd index repeats.  `multimaps`
    expands the basis into flat multimaps {(d_1, ..., d_k, A, B): scalar}, the
    entries (A, B) of the matrix in g that e_{d_1}, ..., e_{d_k} map to.
    """

    def __init__(self, dim: SuperDim, k: int, solution):
        super().__init__(solution, lambda sigma, tensor: tensor)
        self.dim = dim
        self.k = k

    def multimaps(self):
        out = []
        for tensor in self.basis:
            flat = {}
            for (s, a), v in tensor.items():
                for idx in set(permutations(s)):
                    flat[idx[:-1] + (a, idx[-1])] = _koszul_sort(self.dim, idx)[1] * v
            out.append(flat)
        return out


class ProlongationTower:
    def __init__(self, levels):
        self.levels = levels  # list of ProlongationLevel for k = 1..

    def graded_dims(self):
        return [lvl.graded_dim for lvl in self.levels]


def _koszul_sort(dim: SuperDim, idx):
    """(sorted idx, Koszul sign of sorting it); the sign is 0 when an odd index
    repeats.  The odd indices are those from dim.p on."""
    odd = [a for a in idx if a >= dim.p]
    if len(set(odd)) < len(odd):
        return None, 0
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return tuple(sorted(idx)), (-1) ** inversions


def _insertion(p: int, i, b: int):
    """`_koszul_sort` of i + (b,) for a sorted i in which no odd index repeats,
    found by inserting b: an even b (b < p) passes no odd index, and every
    index above an odd b is odd, so the sign counts the entries of i above b,
    and is 0 when b is odd and already in i."""
    j = bisect_left(i, b)
    if b < p:
        return i[:j] + (b,) + i[j:], 1
    if j < len(i) and i[j] == b:
        return None, 0
    return i[:j] + (b,) + i[j:], -1 if (len(i) - j) % 2 else 1


def _level_unknowns(dim: SuperDim, support, k: int):
    """The unknowns (S, A) of level k that the support of level k - 1
    allows, as (their parities in column order, {S: bitmask of their A});
    more than MAX_LEVEL_UNKNOWNS of them is a ValueError that names k.
    The support is {S0: bitmask of the A with (S0, A) reached}.  g^(k) lies in
    V* (x) g^(k-1), so U[(S, A)] can be nonzero only if (S minus one copy of d,
    A) is in the support for every d in S: the mask of S is the AND of its
    faces' masks.  Each S is reached once, as S0 + (b,) from a tuple S0 of the
    support and a b past its end, and its other faces are S0 minus one copy of
    an index, then b.  The A of each S come in increasing bit order."""
    t, p = dim.total, dim.p
    fiber = [dim.parity(a) for a in range(t)]
    parity, masks = {}, {}
    for s0 in sorted(support):
        n, last = len(s0), s0[-1]
        drops = [s0[:j] + s0[j + 1:] for j in range(n) if j + 1 == n or s0[j] != s0[j + 1]]
        odd = n - bisect_left(s0, p)
        for b in range(last + (last >= p), t):
            mask = support[s0]
            for r in drops:
                mask &= support.get(r + (b,), 0)
            if not mask:
                continue
            s, sigma = s0 + (b,), (odd + (b >= p)) % 2
            masks[s] = mask
            while mask:
                low = mask & -mask
                a = low.bit_length() - 1
                parity[(s, a)] = sigma ^ fiber[a]
                mask ^= low
            if len(parity) > MAX_LEVEL_UNKNOWNS:
                raise ValueError("prolongation level %d has more than %d unknowns" % (k, MAX_LEVEL_UNKNOWNS))
    return parity, masks


def cartan_prolongation(g0: SubSuperalgebra, order: int) -> ProlongationTower:
    """Levels 1..order of the prolongation tower of g0 acting on V, read
    from g0 (`g0.dim`).

    Each level is one graded system from g0 alone (Sternberg, Lectures on
    Differential Geometry, ch. VII): the unknowns are the values U[(S, A)] of
    a graded-symmetric tensor, and each functional phi in the annihilator of
    g0 gives, for every sorted k-tuple I, the row
    sum_{A,B} phi_AB eps(I + B) U[sort(I + B), A] = 0, with eps the Koszul
    sign.  Since g^(k) lies in V* (x) g^(k-1), an unknown is kept only where
    the level below allows it (`_level_unknowns`); the kept unknowns keep
    their order, so the canonical basis is the one of the whole system.  Each
    level's support, {S: bitmask of the A that some element reaches}, is read
    once from its echelons (`_level_support`); level 0 is the entries (A, B)
    of g0, as {(B,): mask of A}.  A level after a zero level has no
    unknowns and no rows, and when g0 = gl(V) no level has rows.  A level of
    more than MAX_LEVEL_UNKNOWNS unknowns is a ValueError, raised before its
    rows are written.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    dim = g0.dim
    t = dim.total
    field = g0.field
    # homogeneous functionals phi_AB on gl(V) that vanish on g0
    cols = {(a, b): (dim.parity(a) + dim.parity(b)) % 2 for a in range(t) for b in range(t)}
    basis = g0.basis()
    rows = ({divmod(pos, t): v for pos, v in m._flat.items()} for m in basis)
    annihilator = [phi for kernel in solve_graded(cols, rows, field).kernels for phi in kernel]
    support = {}
    for m in basis:
        for pos in m._flat:
            a, b = divmod(pos, t)
            support[(b,)] = support.get((b,), 0) | 1 << a
    levels = []
    for k in range(1, order + 1):
        parity, masks = _level_unknowns(dim, support, k)
        rows = _prolongation_rows(dim, annihilator, sorted(support), masks)
        levels.append(ProlongationLevel(dim, k, solve_graded(parity, rows, field)))
        if k < order:
            support = _level_support(levels[-1].solution)
    return ProlongationTower(levels)


def _level_support(solution):
    """The support of a level, {S: bitmask of the A on which some element
    has a nonzero value U[(S, A)]}, read from its echelons with
    `kernel_support`."""
    support = {}
    for labels, ech in solution.blocks:
        for c in ech.kernel_support(len(labels)):
            s, a = labels[c]
            support[s] = support.get(s, 0) | 1 << a
    return support


def _prolongation_rows(dim: SuperDim, annihilator, faces, masks):
    """phi(T(I, -)) = 0 for every functional phi and sorted k-tuple I in
    faces, with only the terms on the unknowns {S: bitmask of A} of masks.  An
    unknown that the support below allows has all its faces there, so the
    faces are the tuples of that support.  For each I only the functionals
    with an entry in a column B that reaches an unknown are written, and an
    empty annihilator (g0 = gl(V)) writes no row at all."""
    if not annihilator:
        return
    t, p = dim.total, dim.p
    by_column = [set() for _ in range(t)]  # B -> the functionals with an entry in column B
    for n, phi in enumerate(annihilator):
        for _, b in phi:
            by_column[b].add(n)
    for i in faces:
        sorts = [_insertion(p, i, b) for b in range(t)]
        reach = [masks.get(s, 0) for s, _ in sorts]  # B -> the A of the unknowns at sort(I + B)
        for n in sorted(set().union(*(by_column[b] for b in range(t) if reach[b]))):
            row = {}
            for (a, b), v in annihilator[n].items():
                if reach[b] >> a & 1:
                    s, sign = sorts[b]
                    row[(s, a)] = v if sign > 0 else -v
            yield row


# --------------------------------------------------- Spencer rank identity


def spencer_delta(dim: SuperDim, d: int, alpha: dict) -> dict:
    """The Spencer coboundary delta(e_d* (x) alpha) of an element alpha of
    g^(1), given as a flat multimap {(e, A, B): v} of
    `ProlongationLevel.multimaps` (v the entry (A, B) of alpha(e_e)).

    It is the 2-form R(x, y) = delta_xd alpha(e_y) - (-1)^{|x||y|}
    delta_yd alpha(e_x), returned on canonical pairs as
    {(pair, A * t + B): v} with zero entries dropped.  By Spencer's
    exactness (Sternberg, Lectures on Differential Geometry, ch. VII) it lies
    in the curvature space R(g), and R(d, y) = alpha(e_y) for every y != d.
    """
    t = dim.total
    pd = dim.parity(d)
    return combine(
        (s, {(pair, a * t + b): v})
        for (e, a, b), v in alpha.items()
        for pair, s in (((d, e), 1), ((e, d), -((-1) ** (pd * dim.parity(e)))))
        if pair[0] < pair[1] or (pair[0] == pair[1] and pd)
    )


def spencer_rank_identity(algebra: SubSuperalgebra, tower: ProlongationTower = None, rspace: LinearSolutionSpace = None):
    """Exactness of the prolongation sequence and the derived cohomology rank.

    Builds the map V* tensor g_1 -> curvature space, `spencer_delta` on each
    direction d and basis element of g_1, and reports dim R(g) - rank as the
    derived quantity; `rspace` is read only for its graded dim.  The map's
    rows are the entries of the images at g's pivot positions only: every
    image value is a value of an element of g_1, so lies in g, and an element
    of g vanishes exactly when its entries at g's pivots do.
    `exactness_ok` holds when every image passes `check_curvature_element`
    and the kernel, expanded into flat multimaps, spans the g_2 that
    `cartan_prolongation` solves directly; False means the two formulations
    disagree.
    """
    dim = algebra.dim
    t = dim.total
    field = algebra.field
    if rspace is None:
        rspace = curvature_space(algebra)
    if tower is None:
        tower = cartan_prolongation(algebra, 2)
    g1, g2 = tower.levels[:2]
    g1_maps = g1.multimaps()
    images_ok = True
    # unknowns: the coefficient of g_1 element j along direction d
    parity = {(d, j): (dim.parity(d) + p) % 2 for d in range(t) for j, p in enumerate(g1.parities)}
    pivots = algebra._echelon.pivot_rows
    rows = {}  # (canonical pair, pivot position of g) -> the row of that entry of the images
    for (d, j), sigma in parity.items():
        image = spencer_delta(dim, d, g1_maps[j])
        images_ok = images_ok and check_curvature_element(algebra, CurvatureElement(dim, sigma, image, field))
        for key, v in image.items():
            if key[1] in pivots:
                rows.setdefault(key, {})[(d, j)] = v
    # rank of the map and its kernel, per parity
    solution = solve_graded(parity, rows.values(), field)
    h22 = [r - ech.rank for r, (_, ech) in zip(rspace.graded_dim, solution.blocks)]
    # the kernel, as flat multimaps, must span g_2
    kernel_maps = [
        combine((c, {(d,) + key: v for key, v in g1_maps[j].items()}) for (d, j), c in vec.items())
        for kernel in solution.kernels
        for vec in kernel
    ]
    return {
        "g1_dim": g1.graded_dim,
        "g2_dim": g2.graded_dim,
        "R_dim": rspace.graded_dim,
        "exactness_ok": images_ok and same_span(kernel_maps, g2.multimaps()),
        "h22_raw": tuple(h22),
        "h22_total": h22[0] + h22[1],
        # Table notation reports these modules with a parity shift
        "h22_pi_twisted": (h22[1], h22[0]),
    }


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


def _simplicity_of(algebra: SubSuperalgebra, representation):
    """Simplicity of a Lie superalgebra g of dimension n, read from ad(g) on
    the parity reversal of g, its `pi_adjoint_representation`.

    Exact checks first: a nonzero center and a proper derived algebra are
    proper ideals.  Then the Norton–Schur certificate
    (`_norton_irreducible`): when it finds Pi g absolutely irreducible,
    ad(g) generates End(g) (Burnside), so g is simple, with status
    'certified'.  Otherwise, A, the associative algebra that ad(g)
    generates:
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
    vdim, rep_alg, ad, pos = representation
    if rep_alg.total_dim < n:
        return _simplicity(False, "nontrivial center")
    # the columns of ad(x) span the derived algebra
    if span_echelon(col for m in ad for col in sparse_lines(m, rows=False)).rank < n:
        return _simplicity(False, "derived subalgebra is proper")
    closure = None if _norton_irreducible(algebra, ad) else associative_closure(ad, vdim)
    if closure is None or closure.rank == n * n:
        return _simplicity(True, "ad(g) generates End(g) (Burnside)")
    order = sorted(pos, key=pos.get)

    def ideal(vectors):
        mats = [combination(algebra.dim, ((v, basis[order[k]]) for k, v in vec.items()), field) for vec in vectors]
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


# h in `_norton_irreducible` is drawn by a constant seed, so reports stay
# deterministic.
NORTON_SEED = 20240515


def _norton_irreducible(algebra: SubSuperalgebra, ad):
    """Norton's irreducibility test (Parker 1984; Holt and Rees 1994) for the
    matrices ad of `pi_adjoint_representation` on Pi g, n = dim g.

    h is a seeded integer combination of the basis of g ∩ diagonal, one
    kernel over the coordinates of the even basis whose rows are the
    off-diagonal positions (an odd matrix has no diagonal entry).  ad(h) is
    the restriction of a diagonal map of gl(V), so it is diagonalizable, with
    eigenvalues among the differences of h's diagonal entries.  For the
    first nonzero one λ, in sorted order, whose eigenspace N of
    θ = ad(h) - λ is one-dimensional, v spans N and w spans ker θᵀ.  A proper
    submodule either meets N, so holds v, or has an annihilator that meets
    ker θᵀ, so holds w.  So Pi g is irreducible when v spins to the whole
    space under ad(g) and w under the transposes (`superlin.spin`), and it
    is absolutely irreducible: an endomorphism commuting with ad(g) keeps
    N, so is a scalar on v, which generates Pi g.  Then ad(g) and 1
    generate End(Pi g) (Burnside), and so does ad(g) alone: what it
    generates is a two-sided ideal of End(Pi g), nonzero since λ ≠ 0 makes
    ad(h) ≠ 0.  Returns True then, False when a spin falls short (it spans
    a proper invariant subspace), and None when no such h and λ exist.
    """
    field = algebra.field
    t = algebra.dim.total
    n = len(ad)
    vdim = ad[0].dim
    even = algebra.even_basis
    rows = {}  # off-diagonal position -> {even basis index: entry}
    for i, m in enumerate(even):
        for p, v in m._flat.items():
            if p // t != p % t:
                rows.setdefault(p, {})[i] = v
    rng = random.Random(NORTON_SEED)
    coords = combine((rng.randint(1, 100), vec) for vec in solve_kernel(range(len(even)), rows.values(), field))
    h = combine((c, even[i]._flat) for i, c in coords.items())
    entries = {h.get(a * t + a, 0) for a in range(t)}
    ad_h = combination(vdim, ((c, ad[i]) for i, c in coords.items()), field)
    one = SuperMatrix.identity(vdim, field)
    for lam in sorted({x - y for x in entries for y in entries if x != y}, key=_scalar_key):
        theta = combination(vdim, ((1, ad_h), (-lam, one)), field)
        echelon = span_echelon(sparse_lines(theta))
        if echelon.rank == n - 1:
            (v,) = echelon.kernel(n)
            (w,) = span_echelon(sparse_lines(theta, rows=False)).kernel(n)
            # the rows of ad(x) are the columns of its transpose
            return (
                spin(span_echelon([v]), [v], [sparse_lines(m, rows=False) for m in ad], n).rank == n
                and spin(span_echelon([w]), [w], [sparse_lines(m) for m in ad], n).rank == n
            )
    return None


def _scalar_key(v):
    return (v.re, v.im) if isinstance(v, GaussianRational) else (v, 0)


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
    """Prolongation profile of a simple algebra g on its parity reversal.

    Reports the graded dims of g^(1) and g^(2) of ad(g) on Pi g, whether
    g^(1) is spanned by the generator x -> (-1)^{|x|} Pi(x), whether ad(g)
    is Berger, and the simplicity certificate.

    The span L of the values of R(g) is an ideal of g, since R(g) is
    g-invariant.  So when simplicity is certified, g is Berger exactly when
    R(g) != 0, and one nonzero tensor that passes `check_curvature_element`
    decides it: when g^(1) != 0 that tensor is `spencer_delta` of its first
    basis element alpha (`_berger_witness`).  Otherwise (a heuristic status,
    g^(1) = 0, or a witness that fails the check) `berger_check` solves
    R(g) and spans its values.
    """
    representation = pi_adjoint_representation(algebra)
    simplicity = _simplicity_of(algebra, representation)
    if not simplicity["simple"]:
        raise ValueError("input algebra is not simple: %s" % simplicity["note"])
    basis = algebra.basis()
    vdim, rep_alg, rep, pos = representation
    tower = cartan_prolongation(rep_alg, 2)
    g1, g2 = tower.levels[0], tower.levels[1]
    g1_maps = g1.multimaps() if g1.total_dim else []
    # expected generator x -> (-1)^{|x|} Pi(x)
    expected = {}
    for j, g in enumerate(basis):
        sign = (-1) ** (g.parity + 1)
        for flat_pos, v in rep[j]._flat.items():
            expected[(pos[j],) + divmod(flat_pos, vdim.total)] = sign * v
    generator_matches = False
    if g1.total_dim == 1:
        generator_matches = _proportional(g1_maps[0], expected)
    witness = None
    if simplicity["status"] == "certified" and g1_maps:
        witness = _berger_witness(vdim, g1.parities[0], g1_maps[0], rep_alg.field)
    if witness is not None and not witness.is_zero() and check_curvature_element(rep_alg, witness):
        is_berger = True
    else:
        is_berger = berger_check(rep_alg)["is_berger"]
    return {
        "g1_dim": g1.graded_dim,
        "g2_dim": g2.graded_dim,
        "generator_matches": generator_matches,
        "is_berger": is_berger,
        "simplicity_note": simplicity["note"],
        "simplicity_status": simplicity["status"],
    }


def _berger_witness(dim: SuperDim, sigma: int, alpha: dict, field) -> CurvatureElement:
    """The curvature tensor `spencer_delta`(d, alpha) of a nonzero element
    alpha of g^(1) of parity sigma, for y the least index with alpha(e_y) != 0
    and d the least index other than y, so that R(d, y) = alpha(e_y) != 0.
    A simple algebra has dimension at least 2, so such a d exists."""
    y = min(e for e, _, _ in alpha)
    d = 1 if y == 0 else 0
    return CurvatureElement(dim, (dim.parity(d) + sigma) % 2, spencer_delta(dim, d, alpha), field)


def _proportional(flat_a: dict, flat_b: dict) -> bool:
    if not flat_a or not flat_b:
        return not flat_a and not flat_b
    if set(flat_a) != set(flat_b):
        return False
    # a = r·b for r = a_key / b_key, compared without dividing
    key = next(iter(flat_a))
    a0, b0 = flat_a[key], flat_b[key]
    return all(flat_a[k] * b0 == a0 * flat_b[k] for k in flat_b)
