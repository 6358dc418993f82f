"""Exact super linear algebra on a p|q superspace.

Conventions: basis indices A,B = 0..p+q-1 (0-based internally, 1-based in all
serialized forms), parity |A| = 0 for A < p and 1 otherwise.  A matrix acts on
column vectors, entries[A][B] being the coefficient of e_A in M e_B.  Even
matrices preserve parity blocks, odd matrices swap them.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from fractions import Fraction

from .linalg import SparseEchelon, combine, solve_graded, solve_kernel, span_echelon
from .scalars import RATIONAL, GaussianRational, canonical, field_one, field_zero, scalar_str, to_field


class SuperDim:
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError("dimensions must be nonnegative")
        self.p = p
        self.q = q

    @property
    def total(self) -> int:
        return self.p + self.q

    def parity(self, index: int) -> int:
        if not 0 <= index < self.total:
            raise IndexError("basis index %d out of range" % index)
        return 0 if index < self.p else 1

    def __eq__(self, other):
        return isinstance(other, SuperDim) and self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __iter__(self):
        return iter((self.p, self.q))

    def __repr__(self):
        return "%d|%d" % (self.p, self.q)


class SuperMatrix:
    """Parity-graded endomorphism with exact scalar entries.

    A SuperMatrix is kept as its nonzero entries alone, flat as `flatten`
    gives them: {row * t + col: scalar}.  `parity` is read once from them:
    0 or 1 for a homogeneous matrix (0 for the zero matrix), None for a
    mixed one.  A SuperMatrix must not be modified after construction.
    """

    __slots__ = ("dim", "parity", "field", "_flat")

    def __init__(self, dim: SuperDim, entries, field=RATIONAL):
        t = dim.total
        if len(entries) != t or any(len(row) != t for row in entries):
            raise ValueError("entries must be %dx%d" % (t, t))
        self._set(dim, {a * t + b: v for a, row in enumerate(entries) for b, v in enumerate(row) if v}, field)

    def _set(self, dim: SuperDim, flat: dict, field):
        t, p = dim.total, dim.p
        self.dim = dim
        self.field = field
        self._flat = flat
        seen = {(pos // t < p) != (pos % t < p) for pos in flat}
        self.parity = None if len(seen) == 2 else int(True in seen)

    @property
    def entries(self):
        """The dense rows [A][B], built on each read."""
        t = self.dim.total
        z = field_zero(self.field)
        rows = [[z] * t for _ in range(t)]
        for pos, v in self._flat.items():
            rows[pos // t][pos % t] = v
        return rows

    @staticmethod
    def zeros(dim: SuperDim, field=RATIONAL) -> "SuperMatrix":
        return SuperMatrix.from_flat(dim, {}, field)

    @staticmethod
    def identity(dim: SuperDim, field=RATIONAL) -> "SuperMatrix":
        one = field_one(field)
        return SuperMatrix.from_flat(dim, {a * dim.total + a: one for a in range(dim.total)}, field)

    @staticmethod
    def unit(dim: SuperDim, a: int, b: int, field=RATIONAL) -> "SuperMatrix":
        """E_{ab}: sends e_b to e_a (0-based)."""
        return SuperMatrix.from_flat(dim, {a * dim.total + b: field_one(field)}, field)

    def __eq__(self, other):
        return isinstance(other, SuperMatrix) and self.dim == other.dim and self._flat == other._flat

    def is_zero(self) -> bool:
        return not self._flat

    def __add__(self, other):
        return combination(self.dim, ((1, self), (1, other)), self.field)

    def __sub__(self, other):
        return combination(self.dim, ((1, self), (-1, other)), self.field)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "SuperMatrix":
        return combination(self.dim, ((c, self),), self.field)

    def matmul(self, other: "SuperMatrix") -> "SuperMatrix":
        acc = {}
        _product_into(acc, self, other, 1)
        return SuperMatrix.from_flat(self.dim, acc, self.field)

    def apply(self, vec):
        """Matrix times column vector (list of scalars); a vector whose length
        is not t is a ValueError."""
        t = self.dim.total
        if len(vec) != t:
            raise ValueError("vector must have %d entries" % t)
        out = [field_zero(self.field)] * t
        for pos, v in self._flat.items():
            a, b = divmod(pos, t)
            if vec[b]:
                out[a] = out[a] + v * vec[b]
        return out

    def flatten(self) -> dict:
        """The nonzero entries as {row * t + col: scalar}."""
        return dict(self._flat)

    @staticmethod
    def from_flat(dim: SuperDim, vec: dict, field=RATIONAL) -> "SuperMatrix":
        """The matrix whose entries are the values of vec, as `flatten`
        gives them, and zero elsewhere."""
        m = SuperMatrix.__new__(SuperMatrix)
        m._set(dim, {pos: v for pos, v in vec.items() if v}, field)
        return m

    def graded_flat(self):
        """(even part, odd part) of the nonzero entries, each flattened like
        `flatten`."""
        t = self.dim.total
        p = self.dim.p
        parts = ({}, {})
        for pos, v in self._flat.items():
            parts[(pos // t < p) != (pos % t < p)][pos] = v
        return parts

    def __repr__(self):
        rows = ["[" + ", ".join(scalar_str(v) for v in row) + "]" for row in self.entries]
        return "SuperMatrix(%r, [%s])" % (self.dim, "; ".join(rows))


def combination(dim: SuperDim, terms, field=RATIONAL) -> SuperMatrix:
    """The matrix sum of c·M over (c, M) pairs, formed sparsely by `combine`."""
    terms = list(terms)
    if any(m.dim != dim for _, m in terms):
        raise ValueError("dimension mismatch")
    return SuperMatrix.from_flat(dim, combine((c, m._flat) for c, m in terms), field)


def _product_into(acc: dict, a: SuperMatrix, b: SuperMatrix, sign: int):
    """Add sign·AB, sign ±1, into acc, a flat accumulator {row*t + col: scalar}
    like `flatten`, from the nonzero entries of A and B only."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    t = a.dim.total
    b_rows = [[] for _ in range(t)]
    for pos, w in b._flat.items():
        b_rows[pos // t].append((pos % t, w))
    for pos, v in a._flat.items():
        i, k = divmod(pos, t)
        if sign < 0:
            v = -v
        for j, w in b_rows[k]:
            x = acc.get(i * t + j)
            acc[i * t + j] = v * w if x is None else x + v * w


def supertrace(m: SuperMatrix):
    t, p = m.dim.total, m.dim.p
    # the diagonal positions a*t + a are the multiples of t + 1
    return sum((v if pos < p * t else -v for pos, v in m._flat.items() if not pos % (t + 1)), field_zero(m.field))


def superbracket(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """[A,B] = AB - (-1)^{|A||B|} BA for homogeneous A, B, formed in one
    accumulator."""
    if a.parity is None or b.parity is None:
        raise ValueError("superbracket needs homogeneous matrices")
    acc = {}
    _product_into(acc, a, b, 1)
    _product_into(acc, b, a, 1 if a.parity and b.parity else -1)
    return SuperMatrix.from_flat(a.dim, acc, a.field)


def cyclic_terms(parity, x, y, z):
    """The three terms ((u, v, w), sign) of a graded cyclic sum over x, y, z.

    `parity` maps an index to its parity.  The terms are (x, y, z) with sign
    1, (y, z, x) with (−1)^{|x|(|y|+|z|)} and (z, x, y) with
    (−1)^{|z|(|x|+|y|)}, the signs of the first Bianchi identity.
    """
    px, py, pz = parity(x), parity(y), parity(z)
    return (
        ((x, y, z), 1),
        ((y, z, x), (-1) ** (px * (py + pz))),
        ((z, x, y), (-1) ** (pz * (px + py))),
    )


def sorted_cyclic_terms(parity, t):
    """The `cyclic_terms` of every sorted triple x ≤ y ≤ z of 0..t-1.  A cyclic
    sum of a term super-antisymmetric in its first two indices is so in all
    three, so the sorted triples give every such sum up to sign."""
    for x in range(t):
        for y in range(x, t):
            for z in range(y, t):
                yield cyclic_terms(parity, x, y, z)


class SubSuperalgebra:
    """Graded subspace of gl(p|q), kept as one reduced echelon of flattened
    homogeneous matrices.

    Even and odd matrices fill disjoint flat positions, so every row of the
    echelon is homogeneous.  The echelon belongs to the algebra once it is
    built; the even and odd bases are its rows with an even or an odd pivot.
    """

    def __init__(self, dim: SuperDim, echelon: SparseEchelon, field=RATIONAL):
        self.dim = dim
        self.field = field
        self._echelon = echelon
        t, p = dim.total, dim.p
        # the even pivots, then the odd ones, each in increasing order
        self._pivots = sorted(echelon.pivot_rows, key=lambda c: ((c // t < p) != (c % t < p), c))
        basis = [SuperMatrix.from_flat(dim, echelon.pivot_rows[c], field) for c in self._pivots]
        self.even_basis = [m for m in basis if m.parity == 0]
        self.odd_basis = [m for m in basis if m.parity == 1]

    @staticmethod
    def from_matrices(dim: SuperDim, mats, field=RATIONAL) -> "SubSuperalgebra":
        echelon = SparseEchelon()
        for m in mats:
            insert_parts(echelon, m)
        return SubSuperalgebra(dim, echelon, field)

    @staticmethod
    def zero(dim: SuperDim, field=RATIONAL) -> "SubSuperalgebra":
        return SubSuperalgebra(dim, SparseEchelon(), field)

    @property
    def graded_dim(self):
        return (len(self.even_basis), len(self.odd_basis))

    @property
    def total_dim(self) -> int:
        return len(self.even_basis) + len(self.odd_basis)

    def basis(self):
        return self.even_basis + self.odd_basis

    def contains_matrix(self, m: SuperMatrix) -> bool:
        return self._echelon.contains(m.flatten())

    def coordinates(self, m: SuperMatrix):
        """Coordinates of m in `basis()`, as {index: nonzero scalar}, or None
        when m is not in the algebra.

        Each basis element has a 1 at its own pivot and 0 at the other pivots,
        so the coordinates are the entries of m at the pivots.
        """
        flat = m.flatten()
        if not self._echelon.contains(flat):
            return None
        return {i: flat[p] for i, p in enumerate(self._pivots) if p in flat}

    def contains_algebra(self, other: "SubSuperalgebra") -> bool:
        return all(self.contains_matrix(m) for m in other.basis())

    def __eq__(self, other):
        if not isinstance(other, SubSuperalgebra):
            return NotImplemented
        if self.dim != other.dim or self.graded_dim != other.graded_dim:
            return False
        return all(
            a == b
            for a, b in zip(self.basis(), other.basis())
        )

    def __repr__(self):
        return "SubSuperalgebra(dim %r, graded dim %d|%d)" % (
            self.dim,
            len(self.even_basis),
            len(self.odd_basis),
        )


def generate_subalgebra(generators, dim=None, field=None, closed=None) -> SubSuperalgebra:
    """Smallest bracket-closed graded subspace containing the generators and
    the algebra `closed`, which must itself be bracket-closed.

    Mixed-parity generators are split into homogeneous parts.  The echelon is
    seeded with the basis of `closed`, which is left as it is.  Each pass
    brackets the newly added basis elements with the basis until no bracket
    enlarges the span: the i-th new element with the older basis, itself and
    the new elements before it, since [b, a] = ±[a, b] adds nothing ([a, a]
    is formed, as it is nonzero for an odd a).  Brackets within `closed`
    already lie in it, so they are never formed.
    """
    generators = list(generators)
    if dim is None:
        if not generators:
            raise ValueError("need explicit dim for empty generator list")
        dim = generators[0].dim
    if field is None:
        field = generators[0].field if generators else RATIONAL
    for g in generators:
        if g.dim != dim:
            raise ValueError("generator dimension mismatch")

    seed = [] if closed is None else closed.basis()
    echelon = SparseEchelon()
    for m in seed:
        insert_parts(echelon, m)
    frontier = [part for g in generators for part in insert_parts(echelon, g)]
    basis_mats = seed + frontier
    while frontier:
        old = len(basis_mats) - len(frontier)
        frontier = [
            part
            for i, a in enumerate(frontier)
            for b in basis_mats[: old + i + 1]
            for part in insert_parts(echelon, superbracket(a, b))
        ]
        basis_mats += frontier
    return SubSuperalgebra(dim, echelon, field)


def insert_parts(echelon: SparseEchelon, m: SuperMatrix):
    """Insert the even and odd parts of m into the echelon of a
    `SubSuperalgebra`; return the parts that enlarged its span, as matrices."""
    added = []
    for part in m.graded_flat():
        if part and echelon.insert(part):
            # a homogeneous m is its own only nonzero part
            added.append(m if m.parity is not None else SuperMatrix.from_flat(m.dim, part, m.field))
    return added


# ---------------------------------------------- associative-algebra engine

# `split` draws are seeded by a constant, so reports stay deterministic.
SPLIT_SEED = 20240515
SPLIT_DRAWS = 16


def commutant(mats, dim: SuperDim, field=RATIONAL, extra_rows=()):
    """Basis of the even X with XA = AX for every given homogeneous matrix A,
    from one kernel solve on the even unknowns of `annihilator_rows`.

    extra_rows are further linear conditions on X, as sparse dicts over its
    flat positions a*t + b; their terms at odd positions, where X is zero,
    are dropped.
    """
    t = dim.total
    even = [a * t + b for a in range(t) for b in range(t) if dim.parity(a) == dim.parity(b)]
    keep = set(even)

    def rows():
        for m in mats:
            # [X, A] = XA - AX for an even X; a mixed A fails the even block check
            kind = "odd_endomorphism" if m.parity else "even_endomorphism"
            yield from annihilator_rows(StructureTensor(kind, "none", m))
        yield from extra_rows

    return [
        SuperMatrix.from_flat(dim, vec, field)
        for vec in solve_kernel(even, ({c: v for c, v in row.items() if c in keep} for row in rows()), field)
    ]


def spin(echelon: SparseEchelon, frontier, maps, n: int) -> SparseEchelon:
    """Grow the echelon, which already holds the frontier vectors, to the
    span of their images under all products of the maps, breadth first:
    each vector is mapped by every map, and each image that enlarges the
    span is mapped in turn.  A map is the list of its columns as sparse
    dicts, the form `sparse_lines(m, rows=False)` gives; empty columns are
    skipped.  It stops when no image enlarges the span, or when the rank
    reaches n, and returns the echelon.  The associative closure, Norton's
    spins and the invariance test are its calls.
    """
    frontier = list(frontier)
    while frontier and echelon.rank < n:
        grown = []
        for u in frontier:
            for cols in maps:
                image = combine((c, cols[b]) for b, c in u.items() if cols[b])
                if image and echelon.insert(image):
                    if echelon.rank == n:
                        return echelon
                    grown.append(image)
        frontier = grown
    return echelon


def associative_closure(mats, dim: SuperDim) -> SparseEchelon:
    """Echelon of the flattened span of all products of the given matrices,
    of one factor or more: the `spin` of their flats under left
    multiplication by each of them, which sends flat column c·t + b to
    {a·t + b: g[a][c]}.  It stops once it spans all t² positions."""
    t = dim.total
    echelon = SparseEchelon()
    gens = [m for m in mats if echelon.insert(m.flatten())]
    maps = [
        [{a * t + b: v for a, v in col.items()} for col in sparse_lines(g, rows=False) for b in range(t)]
        for g in gens
    ]
    return spin(echelon, [g._flat for g in gens], maps, t * t)


def radical(echelon: SparseEchelon, dim: SuperDim, field=RATIONAL):
    """Basis, as flat dicts, of the radical of the associative algebra that
    the echelon spans.

    By Dickson's criterion in characteristic 0, the radical is the x with
    tr(xy) = 0 for every y in the algebra, with the ordinary trace.
    """
    t = dim.total
    basis = echelon.basis()
    rows = []
    for y in basis:
        # tr(xy) is the sum over positions (a, b) of x[a][b] y[b][a]
        yt = {(p % t) * t + p // t: v for p, v in y.items()}
        rows.append({i: sum(v * yt[p] for p, v in x.items() if p in yt) for i, x in enumerate(basis)})
    return [combine((c, basis[i]) for i, c in combo.items()) for combo in solve_kernel(range(len(basis)), rows, field)]


def common_kernel(mats, dim: SuperDim, field=RATIONAL):
    """Graded basis (even, odd) of the vectors all the given homogeneous
    matrices kill, as sparse dicts."""
    parity = {a: dim.parity(a) for a in range(dim.total)}
    return solve_graded(parity, (row for m in mats for row in sparse_lines(m)), field).kernels


def sparse_lines(m: SuperMatrix, rows=True):
    """The t rows of m, or its t columns when rows is False, each as a
    sparse dict of its nonzero entries {column (or row) index: entry}."""
    t = m.dim.total
    out = [{} for _ in range(t)]
    for pos, v in m._flat.items():
        a, b = divmod(pos, t) if rows else reversed(divmod(pos, t))
        out[a][b] = v
    return out


def split(mats, dim: SuperDim, field=RATIONAL):
    """Split V along a seeded draw X from the span of the given even matrices.

    Each of SPLIT_DRAWS draws is the sum of a seeded random subset of the
    matrices.  For the first draw with an eigenvalue r in the field whose
    generalized eigenspace is proper, returns the graded bases of
    ker (X - r)^t and im (X - r)^t, t = dim V, as lists of sparse vectors:
    with mu = (x - r)^m h the minimal polynomial of X, they are ker (X - r)^m
    and ker h(X).  V is their direct sum (Fitting), and both are invariant
    under every matrix that commutes with X.  None when no draw splits.
    The candidates r of a draw come from `eigenvalue_candidates`, and the
    kernel decides each one exactly.
    """
    t = dim.total
    rng = random.Random(SPLIT_SEED)
    identity = SuperMatrix.identity(dim, field)
    for _ in range(SPLIT_DRAWS):
        x = combination(dim, [(1, m) for m in mats if rng.randrange(2)], field)
        for r in eigenvalue_candidates(x, field):
            power = combination(dim, ((1, x), (-r, identity)), field)
            for _ in range(max(t - 1, 0).bit_length()):
                power = power.matmul(power)
            even, odd = common_kernel([power], dim, field)
            if 0 < len(even) + len(odd) < t:
                # the columns of an even matrix are homogeneous, so the
                # reduced basis of their span is graded
                image = span_echelon(sparse_lines(power, rows=False)).basis()
                return even + odd, image
    return None


def eigenvalue_candidates(x: SuperMatrix, field=RATIONAL):
    """Candidate eigenvalues of x in the field, in increasing order.

    With d the common denominator of the entries of x, dx has a monic
    (Gaussian) integer characteristic polynomial f, so d r is a (Gaussian)
    integer for every eigenvalue r in the field.  Over the rationals the
    candidates are exact: r = k / d for each distinct integer root k of f,
    so they are exactly the eigenvalues of x in the field.  Over the Gaussian
    rationals the real candidates are exact too: with dx = A + iB, f times
    its conjugate is the characteristic polynomial of the real form
    [[A, -B], [B, A]], and its integer roots are the real roots of f.  Each
    floating-point eigenvalue of dx with a nonzero imaginary part, rounded,
    names the one non-real candidate near it; when an entry of dx does not
    fit in a float, there are none.  The candidates are sorted by real and
    then imaginary part, and one that is not an eigenvalue fails the
    caller's exact test.
    """
    if field == RATIONAL:
        d = math.lcm(1, *(v.denominator for v in x._flat.values()))
        scaled = [[int(v * d) for v in row] for row in x.entries]
        return [canonical(Fraction(k, d)) for k in integer_roots(char_poly(scaled))]
    parts = [[(v.re, v.im) if isinstance(v, GaussianRational) else (v, 0) for v in row] for row in x.entries]
    d = math.lcm(1, *(c.denominator for row in parts for v in row for c in v))
    re_part = [[int(re * d) for re, _ in row] for row in parts]
    im_part = [[int(im * d) for _, im in row] for row in parts]
    real_form = [a + [-b for b in nb] for a, nb in zip(re_part, im_part)] + [
        b + a for a, b in zip(re_part, im_part)
    ]
    candidates = {(k, 0) for k in integer_roots(char_poly(real_form))}
    if all(abs(c) <= sys.float_info.max for part in (re_part, im_part) for row in part for c in row):
        candidates.update(_non_real_roundings(re_part, im_part))
    return [to_field(GaussianRational(re, im) / d, field) for re, im in sorted(candidates)]


def _non_real_roundings(re_part, im_part):
    """The Gaussian integers nearest to the finite, non-real floating-point
    eigenvalues of the matrix re_part + i im_part, whose int entries fit in
    a float."""
    import numpy as np

    t = len(re_part)
    approx = (np.array(re_part, dtype=float) + 1j * np.array(im_part, dtype=float)).reshape(t, t)
    out = set()
    for z in np.linalg.eigvals(approx).tolist():
        if math.isfinite(z.real) and math.isfinite(z.imag) and round(z.imag):
            out.add((round(z.real), round(z.imag)))
    return out


# -------------------------------------------------- exact integer eigenvalues

# Primes tried by the modular square-free test before the exact gcd.
SQUAREFREE_TRIES = 8


def char_poly(rows):
    """Coefficients [c_0, ..., c_n] of det(xI - M) = sum c_k x^k for a square
    matrix M of ints, given as its rows; c_n = 1.

    Faddeev-LeVerrier: with M_0 = 0 and M_k = M M_{k-1} + c_{n-k+1} I,
    c_{n-k} = -tr(M M_k) / k, and each of these divisions is exact.
    """
    n = len(rows)
    coeffs = [0] * n + [1]
    product = [[0] * n for _ in range(n)]  # M M_{k-1}
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        step = [[v + c if i == j else v for j, v in enumerate(row)] for i, row in enumerate(product)]
        cols = list(zip(*step))
        product = [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]
        coeffs[n - k] = -sum(product[i][i] for i in range(n)) // k
    return coeffs


def integer_roots(coeffs):
    """The distinct integer roots, in increasing order, of the polynomial
    sum coeffs[k] x^k with int coefficients, not all zero.

    Zero is deflated first.  The nonzero roots are those of the square-free
    part f, each a simple root of f modulo the least odd prime p at which f
    keeps its degree and stays square-free, so each lifts by Newton's method
    to a unique p-adic root (Loos 1983).  A nonzero integer root divides
    f(0), so the lift is taken modulo a power of p above 2|f(0)|, read in
    [-|f(0)|, |f(0)|], and kept when f vanishes there exactly.  A modular
    square-free test skips the exact gcd of f and f' when f is square-free
    already.
    """
    f = _trimmed(list(coeffs))
    if not f:
        raise ValueError("the zero polynomial has every root")
    roots = []
    if f[0] == 0:
        roots.append(0)
        while f[0] == 0:
            del f[0]
    if len(f) == 1:
        return roots
    p = _squarefree_prime(f, SQUAREFREE_TRIES)
    if p is None:
        f = _exact_quotient(f, _int_gcd(f, _derivative(f)))
        # f is square-free modulo every odd prime but those dividing
        # lc(f) disc(f) = ±Res(f, f'), and by Hadamard's bound fewer than
        # `tries` odd primes divide that
        tries = 2 * len(f) * (max(abs(c) for c in f).bit_length() + len(f).bit_length())
        p = _squarefree_prime(f, tries)
        if p is None:
            raise ArithmeticError("no odd prime keeps the square-free part square-free")
    bound = abs(f[0])
    df = _derivative(f)
    for residue in range(p):
        if _value(f, residue, p):
            continue
        a, modulus = residue, p
        while modulus <= 2 * bound:
            modulus *= modulus
            a = (a - _value(f, a, modulus) * pow(_value(df, a, modulus), -1, modulus)) % modulus
        r = a if a <= bound else a - modulus
        if not _value(f, r):
            roots.append(r)
    return sorted(roots)


def _trimmed(f):
    while f and not f[-1]:
        f.pop()
    return f


def _derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


def _value(f, x, modulus=None):
    """f(x) by Horner's rule, reduced modulo `modulus` at each step unless it
    is None."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
        if modulus is not None:
            acc %= modulus
    return acc


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _squarefree_prime(f, tries):
    """The least of the first `tries` odd primes p with lc(f) prime to p and
    f square-free modulo p, or None."""
    df = _derivative(f)
    for p in itertools.islice(_odd_primes(), tries):
        if f[-1] % p and len(_gcd_mod([c % p for c in f], [c % p for c in df], p)) == 1:
            return p
    return None


def _gcd_mod(a, b, p):
    """A gcd of two polynomials over F_p, as a coefficient list."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            _trimmed(a)
        a, b = b, a
    return a


def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    content = math.gcd(*f)
    if f[-1] < 0:
        content = -content
    return [c // content for c in f]


def _int_gcd(a, b):
    """The primitive gcd, with a positive leading coefficient, of two nonzero
    integer polynomials: the primitive PRS, whose pseudo-remainders stay in
    the integers."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        lead = b[-1]
        while len(a) >= len(b):
            q, shift = a[-1], len(a) - len(b)
            a = [c * lead for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            _trimmed(a)
        if not a:
            return b
        a, b = b, _primitive(a)
    return [1]


def _exact_quotient(a, b):
    """a / b for integer polynomials where b divides a in Z[x]."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        q[shift] = a[shift + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[shift + i] -= q[shift] * c
    return q


class StructureTensor:
    """A bilinear form or endomorphism used as a stabilizer target."""

    KINDS = ("even_bilinear_form", "odd_bilinear_form", "even_endomorphism", "odd_endomorphism")
    SYMMETRIES = ("supersymmetric", "super-skew", "none")

    def __init__(self, kind: str, symmetry: str, data: SuperMatrix):
        if kind not in self.KINDS:
            raise ValueError("unknown kind %r" % kind)
        if symmetry not in self.SYMMETRIES:
            raise ValueError("unknown symmetry %r" % symmetry)
        self.kind = kind
        self.symmetry = symmetry
        self.data = data
        self._validate()

    def _validate(self):
        dim = self.data.dim
        t = dim.total
        flat = self.data._flat
        want = 0 if self.kind.startswith("even") else 1
        endomorphism = self.kind.endswith("endomorphism")
        if flat and self.data.parity != want:
            if endomorphism:
                raise ValueError("endomorphism block pattern violates %s" % self.kind)
            raise ValueError("form entries must sit in parity-%d blocks" % want)
        if endomorphism or self.symmetry == "none":
            return
        skew = -1 if self.symmetry == "super-skew" else 1
        # the nonzero entries and their mirrors, in row-major order
        for pos in sorted(set(flat).union((p % t) * t + p // t for p in flat)):
            a, b = divmod(pos, t)
            if flat.get(pos, 0) != skew * (-1) ** (dim.parity(a) * dim.parity(b)) * flat.get(b * t + a, 0):
                raise ValueError("form violates %s symmetry at (%d,%d)" % (self.symmetry, a, b))


def annihilator_rows(tensor: StructureTensor):
    """The equations "A annihilates T" for a homogeneous A, as rows linear
    in the entries of A: one dict {a*t + b: coefficient} for each equation
    (c, d), scattered from the nonzero entries of T.

    Forms: g(AX, Y) + (-1)^{|A||X|} g(X, AY) = 0 at X = e_c, Y = e_d.
    Endomorphisms: [A, J] = AJ - (-1)^{|A||J|} JA = 0 at entry (c, d).
    Every unknown of equation (c, d) has parity |c| + |d| + |T|, and its sign
    is read for an A of that parity; an A of the other parity is zero at all
    the row's unknowns.  Coefficients that cancel stay in as zeros.
    """
    dim = tensor.data.dim
    t = dim.total
    par = [0] * dim.p + [1] * dim.q
    rho = 0 if tensor.kind.startswith("even") else 1
    form = tensor.kind.endswith("bilinear_form")
    rows = {}
    for pos, v in tensor.data._flat.items():
        x, y = divmod(pos, t)
        for c in range(t):
            # T[x][y] as e[b][d], (b, d) = (x, y): the term g(A e_c, e_d) of
            # a form, with unknown A[x][c]; the term (AJ)[c][d] with A[c][x]
            row = rows.setdefault(c * t + y, {})
            unknown = x * t + c if form else c * t + x
            row[unknown] = row.get(unknown, 0) + v
        for d in range(t):
            # T[x][y] as e[c][b], (c, b) = (x, y): the term with unknown A[y][d],
            # signed (-1)^{|A||c|} in a form and -(-1)^{|A||J|} in [A, J]
            tau = (par[x] + par[d] + rho) % 2
            odd = tau * par[x] if form else tau * rho + 1
            row = rows.setdefault(x * t + d, {})
            row[y * t + d] = row.get(y * t + d, 0) + (-v if odd % 2 else v)
    return list(rows.values())


def supertrace_row(j: SuperMatrix):
    """The equation str(J·A) = 0 as one row linear in the entries of A, like
    `annihilator_rows`: str(J·A) = Σ (-1)^{|a|} J[a][b] A[b][a], so the
    unknown A[b][a] gets (-1)^{|a|} J[a][b].  The row of a homogeneous J is
    homogeneous, of J's parity."""
    t, p = j.dim.total, j.dim.p
    return {(pos % t) * t + pos // t: -v if pos >= p * t else v for pos, v in j._flat.items()}


def _entry_parity(dim: SuperDim):
    """The unknowns of a linear condition on a matrix A: its entries (a, b),
    labelled a*t + b, each of parity |a| + |b|."""
    t = dim.total
    return {a * t + b: (dim.parity(a) + dim.parity(b)) % 2 for a in range(t) for b in range(t)}


def solve_algebra(dim: SuperDim, rows, field=RATIONAL) -> SubSuperalgebra:
    """All homogeneous A whose entries satisfy every row, from one graded
    solve.  Each row is a dict {a*t + b: coefficient} on the entries of A,
    homogeneous like those of `annihilator_rows` and `supertrace_row`."""
    kernels = solve_graded(_entry_parity(dim), rows, field).kernels
    mats = [SuperMatrix.from_flat(dim, vec, field) for kernel in kernels for vec in kernel]
    return SubSuperalgebra.from_matrices(dim, mats, field)


def solved_dim(dim: SuperDim, rows, field=RATIONAL):
    """The graded dim of `solve_algebra(dim, rows, field)`, read from the
    ranks of the same graded solve, with no basis built."""
    return solve_graded(_entry_parity(dim), rows, field).graded_dim


def stabilizer_algebra(*tensors: StructureTensor) -> SubSuperalgebra:
    """All homogeneous A annihilating every given tensor, from one
    `solve_algebra` on the `annihilator_rows` of all of them: the
    intersection of their stabilizers."""
    dim = tensors[0].data.dim
    if any(tensor.data.dim != dim for tensor in tensors):
        raise ValueError("ambient dimension mismatch")
    return solve_algebra(dim, [row for tensor in tensors for row in annihilator_rows(tensor)], tensors[0].data.field)


# ------------------------------------------------------- classical algebras


def standard_even_form(p: int, q: int, skew=False, field=RATIONAL) -> StructureTensor:
    """diag(I_p, J_q) supersymmetric, or diag(J_p, I_q) super-skew."""
    if not skew and q % 2:
        raise ValueError("supersymmetric even form needs even q")
    if skew and p % 2:
        raise ValueError("super-skew even form needs even p")
    # the 2x2 J blocks fill the indices start..stop-1, the identity the rest
    start, stop = (0, p) if skew else (p, p + q)
    t = p + q
    one = field_one(field)
    flat = {a * t + a: one for a in range(t) if not start <= a < stop}
    for k in range(start, stop, 2):
        flat[k * t + k + 1] = one
        flat[(k + 1) * t + k] = -one
    m = SuperMatrix.from_flat(SuperDim(p, q), flat, field)
    return StructureTensor("even_bilinear_form", "super-skew" if skew else "supersymmetric", m)


def standard_odd_form(n: int, skew=False, field=RATIONAL) -> StructureTensor:
    """Pairing of the two blocks of an n|n space."""
    t = 2 * n
    one = field_one(field)
    flat = {}
    for a in range(n):
        flat[a * t + n + a] = one
        flat[(n + a) * t + a] = -one if skew else one
    m = SuperMatrix.from_flat(SuperDim(n, n), flat, field)
    return StructureTensor("odd_bilinear_form", "super-skew" if skew else "supersymmetric", m)


def standard_odd_complex_structure(n: int, field=RATIONAL) -> StructureTensor:
    """Odd J with J^2 = -id on an n|n space."""
    t = 2 * n
    one = field_one(field)
    flat = {}
    for a in range(n):
        flat[a * t + n + a] = -one
        flat[(n + a) * t + a] = one
    m = SuperMatrix.from_flat(SuperDim(n, n), flat, field)
    return StructureTensor("odd_endomorphism", "none", m)


def classical_dim(name: str, params) -> SuperDim:
    """The superspace p|q a named classical family acts on.

    gl, sl, osp, osp_sk and cosp take exactly (p, q); pe, spe, q, cpe and
    cspe take exactly one n, as an int or a 1-tuple, and act on n|n.  Any
    other parameter count, or an unknown name, raises ValueError.
    """
    if name in ("gl", "sl", "osp", "osp_sk", "cosp"):
        if isinstance(params, int) or len(params) != 2:
            raise ValueError("%s takes exactly 2 parameters (p, q), got %r" % (name, params))
        return SuperDim(*params)
    if name in ("pe", "spe", "q", "cpe", "cspe"):
        if not isinstance(params, int):
            if len(params) != 1:
                raise ValueError("%s takes exactly 1 parameter n, got %r" % (name, params))
            (params,) = params
        return SuperDim(params, params)
    raise ValueError("unknown classical superalgebra %r" % (name,))


def classical_superalgebra(name: str, params, field=RATIONAL) -> SubSuperalgebra:
    """Named constructors for the standard matrix superalgebras.

    params: gl/sl/osp/osp_sk/cosp take (p, q); pe/spe/q/cpe/cspe take n (see
    `classical_dim`).  The c-prefixed variants append the identity (center).
    """
    dim = classical_dim(name, params)
    p, q = dim
    # str(A) = 0, as a row
    traceless = supertrace_row(SuperMatrix.identity(dim, field))
    if name == "gl":
        return solve_algebra(dim, [], field)
    if name == "sl":
        return solve_algebra(dim, [traceless], field)
    if name == "osp":
        return stabilizer_algebra(standard_even_form(p, q, skew=False, field=field))
    if name == "osp_sk":
        return stabilizer_algebra(standard_even_form(p, q, skew=True, field=field))
    if name == "pe":
        return stabilizer_algebra(standard_odd_form(p, skew=False, field=field))
    if name == "spe":
        return solve_algebra(dim, annihilator_rows(standard_odd_form(p, skew=False, field=field)) + [traceless], field)
    if name == "q":
        return stabilizer_algebra(standard_odd_complex_structure(p, field=field))
    # cosp, cpe and cspe
    base = classical_superalgebra(name[1:], params, field)
    mats = base.basis() + [SuperMatrix.identity(dim, field)]
    return SubSuperalgebra.from_matrices(dim, mats, field)
