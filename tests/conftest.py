"""Shared randomized-data helpers for the test suite (all seeded)."""

from fractions import Fraction

import pytest

from superhol.berger import canonical_pairs
from superhol.geometry import Chart, ConnectionData, MetricData, curvature
from superhol.linalg import SparseEchelon, combine, solve_graded, solve_kernel, span_echelon
from superhol.scalars import GAUSSIAN, GaussianRational, canonical, field_zero
from superhol.superfunc import ChartSignature, Superfunction
from superhol.superlin import SubSuperalgebra, SuperDim, SuperMatrix, combination, superbracket


def is_canonical_rational(value):
    """An int when the value is integral, else a Fraction with denominator
    above 1: never a float, an integral Fraction or a bool."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def flat_of(mat):
    """The nonzero entries of dense rows, as the flat {(A, B): f} of a
    superfunction matrix, in sorted (A, B) order."""
    return {(A, B): f for A, row in enumerate(mat) for B, f in enumerate(row) if f.terms}


def dense_zeros(sig, rows, cols):
    """Dense rows [A][B] of zero superfunctions: the reference form of a
    superfunction matrix."""
    z = Superfunction.zero(sig)
    return [[z] * cols for _ in range(rows)]


def dense_of(sig, rank, flat):
    """The dense rank x rank rows of a flat {(A, B): Superfunction}."""
    mat = dense_zeros(sig, rank, rank)
    for (A, B), f in flat.items():
        mat[A][B] = f
    return mat


def dense_gamma(conn):
    """The Christoffel table as dense rows: gamma[a][A][B] = Γ^A_{aB}."""
    rk = conn.chart.rank.total
    return [dense_of(conn.chart.sig, rk, g) for g in conn.gamma]


def dense_is_zero(mat):
    return all(f.is_zero() for row in mat for f in row)


def dense_value(mat, point):
    """Exact values of dense superfunction rows at a point of the even
    coordinates."""
    return [[f.value(point) for f in row] for row in mat]


def dense_curvature(conn):
    """Every R_ab of the connection as dense rows [A][B], the zero ones
    included, spread from the nonzero entries that `curvature` keeps."""
    chart = conn.chart
    t, rk = chart.sig.total, chart.rank.total
    comps = curvature(conn).components
    return {(a, b): dense_of(chart.sig, rk, comps.get(((), a, b), {})) for a in range(t) for b in range(t)}


# ------------------------------------ reference superfunction operations
#
# Each is written apart from the kernels `Superfunction` calls into
# (`partials_into`, `add_into`, `accumulated`, `_poly_value`), so that a
# fault in a kernel cannot cancel out of a test that compares with them.


def reference_terms(sig, terms):
    """The superfunction of raw terms {mask: {exps: coef}}: zero
    coefficients and empty masks dropped, each coefficient canonical."""
    clean = {}
    for mask, poly in terms.items():
        poly = {k: canonical(v) for k, v in poly.items() if v}
        if poly:
            clean[mask] = poly
    return Superfunction(sig, clean, _normalized=True)


def reference_sum(f, g):
    """f + g, mask by mask and monomial by monomial."""
    out = dict(f.terms)
    for mask, q in g.terms.items():
        p = dict(out.get(mask, {}))
        for k, v in q.items():
            w = p.get(k)
            if w is None:
                p[k] = v
            else:
                w = w + v
                if w:
                    p[k] = canonical(w)
                else:
                    del p[k]
        if p:
            out[mask] = p
        else:
            out.pop(mask, None)
    return Superfunction(f.sig, out, _normalized=True)


def reference_partial(f, a):
    """The left partial ∂_a f by coordinate index a in 1..n+m, one loop for
    an even coordinate and one for an odd one."""
    sig = f.sig
    if a <= sig.n:
        i = a - 1
        out = {}
        for mask, poly in f.terms.items():
            der = {}
            for exps, coef in poly.items():
                e = exps[i]
                if e:
                    k = exps[:i] + (e - 1,) + exps[i + 1 :]
                    v = coef * e
                    w = der.get(k)
                    der[k] = v if w is None else w + v
            der = {k: canonical(v) for k, v in der.items() if v}
            if der:
                out[mask] = der
        return Superfunction(sig, out, _normalized=True)
    bit = 1 << (a - sig.n - 1)
    out = {}
    for mask, poly in f.terms.items():
        if not mask & bit:
            continue
        # left derivative: sign (-1)^(s-1) with s the position of the bit
        below = bin(mask & (bit - 1)).count("1")
        out[mask & ~bit] = dict(poly) if below % 2 == 0 else {k: -v for k, v in poly.items()}
    return Superfunction(sig, out, _normalized=True)


def reference_partial_bodies(f, point):
    """The bodies at even coordinates in the field of ∂_1 f, ..., ∂_{n+m} f,
    each monomial's derivative evaluated in one inline loop."""
    sig = f.sig
    n, field = sig.n, sig.field
    out = [field_zero(field)] * sig.total
    for mask, poly in f.terms.items():
        if mask & (mask - 1):
            continue  # two or more generators: no body in any first partial
        if mask:
            total = field_zero(field)
            for exps, coef in poly.items():
                term = coef
                for x, e in zip(point, exps):
                    for _ in range(e):
                        term = term * x
                total = total + term
            out[n + mask.bit_length() - 1] = canonical(total)
            continue
        for exps, coef in poly.items():
            for i, e in enumerate(exps):
                if not e:
                    continue
                term = coef * e
                for j, x in enumerate(point):
                    for _ in range(exps[j] - (j == i)):
                        term = term * x
                out[i] = out[i] + term
        out[:n] = map(canonical, out[:n])
    return out


def random_superfunction(rng, sig, parity=None, maxdeg=1, density=1):
    f = Superfunction.zero(sig)
    for mask in range(1 << sig.m):
        if parity is not None and bin(mask).count("1") % 2 != parity:
            continue
        for _ in range(density):
            exps = tuple(rng.randint(0, maxdeg) for _ in range(sig.n))
            c = rng.randint(-2, 2)
            if c:
                f = f + Superfunction(sig, {mask: {exps: Fraction(c)}})
    return f


def random_connection(rng, chart, maxdeg=1):
    sig = chart.sig
    t, rk = sig.total, chart.rank.total
    gamma = [{} for _ in range(t)]
    for a in range(t):
        for A in range(rk):
            for B in range(rk):
                want = (chart.coord_parity(a) + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
                gamma[a][(A, B)] = random_superfunction(rng, sig, want, maxdeg)
    return ConnectionData(chart, gamma)


def random_sparse_connection(rng, chart, entries=4, maxdeg=1):
    """A few nonzero Christoffel entries, each of the parity its slot needs.

    Over the Gaussian field each entry is scaled by a non-real unit multiple.
    """
    sig = chart.sig
    t, rk = sig.total, chart.rank.total
    gamma = [{} for _ in range(t)]
    for _ in range(entries):
        a, A, B = rng.randrange(t), rng.randrange(rk), rng.randrange(rk)
        want = (chart.coord_parity(a) + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
        f = random_superfunction(rng, sig, want, maxdeg)
        if sig.field == GAUSSIAN:
            f = f.scale(GaussianRational(rng.choice([-1, 1]), rng.choice([-1, 1])))
        gamma[a][(A, B)] = gamma[a].get((A, B), Superfunction.zero(sig)) + f
    return ConnectionData(chart, gamma)


def random_torsion_free_connection(rng, sig, maxdeg=1):
    """Tangent-sheaf connection with graded-symmetric lower indices."""
    chart = Chart.tangent(sig)
    t = sig.total
    gamma = [{} for _ in range(t)]
    for a in range(t):
        pa = chart.coord_parity(a)
        for b in range(a, t):
            pb = chart.coord_parity(b)
            for c in range(t):
                want = (pa + pb + chart.coord_parity(c)) % 2
                if a == b and pa == 1:
                    continue  # odd-odd diagonal must vanish: T^c_{aa} = 2 gamma^c_{aa}
                f = random_superfunction(rng, sig, want, maxdeg)
                gamma[a][(c, b)] = f
                if a != b:
                    gamma[b][(c, a)] = f.scale((-1) ** (pa * pb))
    return ConnectionData(chart, gamma)


def random_soul_metric(rng, sig):
    """A metric with a constant standard body (m even) plus a seeded soul:
    random supersymmetric entries with every body term dropped, scaled by a
    non-real unit over the Gaussian field."""
    chart = Chart.tangent(sig)
    n, t = sig.n, sig.total
    unit = GaussianRational(1, 1) if sig.field == GAUSSIAN else 1
    g = {}
    for i in range(n):
        g[(i, i)] = Superfunction.constant(sig, rng.choice([1, -1, 2]))
    for k in range(n, t - 1, 2):
        g[(k, k + 1)] = Superfunction.constant(sig, 1)
        g[(k + 1, k)] = Superfunction.constant(sig, -1)
    for b in range(t):
        for c in range(b, t):
            pb, pc = chart.coord_parity(b), chart.coord_parity(c)
            if b == c and pb:
                continue  # g(b, b) = -g(b, b) for odd b
            soul = random_superfunction(rng, sig, (pb + pc) % 2)
            soul = Superfunction(sig, {k: v for k, v in soul.terms.items() if k}).scale(unit)
            g[(b, c)] = g.get((b, c), Superfunction.zero(sig)) + soul
            if b != c:
                g[(c, b)] = g[(b, c)].scale((-1) ** (pb * pc))
    return MetricData(chart, g)


def random_unipotent_gauge(rng, sig, rank, maxdeg=1):
    """Even invertible matrix, the flat {(A, B): f} of its nonzero entries:
    identity plus strictly lower triangular part."""
    t = rank.total
    g = {(a, a): Superfunction.constant(sig, 1) for a in range(t)}
    for a in range(t):
        for b in range(a):
            f = random_superfunction(rng, sig, (rank.parity(a) + rank.parity(b)) % 2, maxdeg)
            if f:
                g[(a, b)] = f
    return g


def random_homogeneous_matrix(rng, dim, parity, lo=-2, hi=2):
    t = dim.total
    rows = [[Fraction(0)] * t for _ in range(t)]
    for a in range(t):
        for b in range(t):
            if (dim.parity(a) + dim.parity(b)) % 2 == parity:
                rows[a][b] = Fraction(rng.randint(lo, hi))
    return SuperMatrix(dim, rows)


# ----------------------------------------- reference stabilizers and cuts


def unit_gl(dim, field):
    """gl(p|q) as the span of its unit matrices E_ab."""
    t = dim.total
    return SubSuperalgebra.from_matrices(dim, [SuperMatrix.unit(dim, a, b, field) for a in range(t) for b in range(t)], field)


def cut_by_functionals(algebra, functionals):
    """The elements of the algebra that the given linear maps matrix ->
    scalar kill, solved in the coordinates of its even and of its odd
    basis."""
    out = []
    for basis in (algebra.even_basis, algebra.odd_basis):
        rows = [{j: fn(m) for j, m in enumerate(basis)} for fn in functionals]
        for combo in solve_kernel(range(len(basis)), rows, algebra.field):
            out.append(combination(algebra.dim, ((c, basis[j]) for j, c in combo.items()), algebra.field))
    return SubSuperalgebra.from_matrices(algebra.dim, out, algebra.field)


def defined_stabilizer(*tensors):
    """The common stabilizer of the tensors, solved from their definition on
    the unit matrices E_ab: A^T G + S G A = 0 for a form G, with S the
    diagonal of the signs (−1)^{|A||c|}, and [A, J] = 0 for an endomorphism J."""
    dim = tensors[0].data.dim
    field = tensors[0].data.field
    t = dim.total
    parity, rows = {}, {}
    for a in range(t):
        for b in range(t):
            unit = SuperMatrix.unit(dim, a, b, field)
            parity[a * t + b] = unit.parity
            for k, tensor in enumerate(tensors):
                g = tensor.data
                if tensor.kind.endswith("endomorphism"):
                    image = superbracket(unit, g)
                else:
                    signs = SuperMatrix.from_flat(dim, {c * t + c: (-1) ** (unit.parity * dim.parity(c)) for c in range(t)}, field)
                    transpose = SuperMatrix.unit(dim, b, a, field)
                    image = transpose.matmul(g) + signs.matmul(g.matmul(unit))
                for pos, v in image.flatten().items():
                    rows.setdefault((k, pos), {})[a * t + b] = v
    mats = [
        SuperMatrix.from_flat(dim, vec, field)
        for kernel in solve_graded(parity, rows.values(), field).kernels
        for vec in kernel
    ]
    return SubSuperalgebra.from_matrices(dim, mats, field)


def flat_curvature(elem):
    """A `CurvatureElement` as one sparse vector: the entry (A, B) of its value
    on the i-th canonical pair at i·t² + A·t + B."""
    t = elem.dim.total
    index = {pair: i for i, pair in enumerate(canonical_pairs(elem.dim))}
    return {index[pair] * t * t + pos: v for (pair, pos), v in elem.entries.items()}


def flat_curvature_space(rspace):
    """The echelon of the flattened basis of a curvature space: the reference
    test of membership in R(g), by `flat_curvature`."""
    return span_echelon(flat_curvature(e) for e in rspace.basis)


# ---------------------------------- reference closures of invariant subspaces


def reference_spins(vec, mats, n, transpose=False):
    """The span of vec and its images under all products of the n×n matrices
    (of their transposes, when asked), as an echelon: the loop of Norton's
    spins that `superlin.spin` replaced.  It stops once the rank is n."""
    maps = []  # each matrix as {column: {row: entry}}
    for m in mats:
        cols = {}
        for p, v in m._flat.items():
            r, c = divmod(p, n)
            if transpose:
                r, c = c, r
            cols.setdefault(c, {})[r] = v
        maps.append(cols)
    echelon = SparseEchelon()
    echelon.insert(vec)
    frontier = [vec]
    while frontier:
        grown = []
        for u in frontier:
            for cols in maps:
                image = combine((c, cols[b]) for b, c in u.items() if b in cols)
                if image and echelon.insert(image):
                    if echelon.rank == n:
                        return echelon
                    grown.append(image)
        frontier = grown
    return echelon


def reference_associative_closure(mats, dim):
    """Echelon of the flattened span of all products of the matrices, of one
    factor or more, each product formed by `SuperMatrix.matmul`: the loop
    that `superlin.associative_closure` replaced."""
    full = dim.total ** 2
    echelon = SparseEchelon()
    gens = [m for m in mats if echelon.insert(m.flatten())]
    frontier = list(gens)
    while frontier:
        grown = []
        for f in frontier:
            for g in gens:
                if echelon.rank == full:
                    return echelon
                prod = g.matmul(f)
                if echelon.insert(prod.flatten()):
                    grown.append(prod)
        frontier = grown
    return echelon


def reference_is_invariant(algebra, basis_vectors):
    """Whether A w stays in span(W) for every basis A and w, each image
    formed by `SuperMatrix.apply`: the loop that
    `holonomy.test_invariant_subspace` replaced."""
    ech = span_echelon([{i: v for i, v in enumerate(w) if v} for w in basis_vectors])
    for m in algebra.basis():
        for w in basis_vectors:
            img = m.apply(list(w))
            if not ech.contains({i: v for i, v in enumerate(img) if v}):
                return False
    return True
