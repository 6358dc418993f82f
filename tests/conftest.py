"""Shared randomized-data helpers for the test suite (all seeded)."""

from fractions import Fraction

import pytest

from superhol.geometry import Chart, ConnectionData, sfmat_zeros
from superhol.linalg import solve_graded, solve_kernel
from superhol.scalars import GAUSSIAN, GaussianRational
from superhol.superfunc import ChartSignature, Superfunction
from superhol.superlin import SubSuperalgebra, SuperDim, SuperMatrix, combination, superbracket


def is_canonical_rational(value):
    """An int when the value is integral, else a Fraction with denominator
    above 1: never a float, an integral Fraction or a bool."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def flat_of(mat):
    """The nonzero entries of dense rows, as the flat {(A, B): f} of a
    sparse derivative-table component, in sorted (A, B) order."""
    return {(A, B): f for A, row in enumerate(mat) for B, f in enumerate(row) if f.terms}


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
    gamma = [sfmat_zeros(sig, rk, rk) for _ in range(t)]
    for a in range(t):
        for A in range(rk):
            for B in range(rk):
                want = (chart.coord_parity(a) + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
                gamma[a][A][B] = random_superfunction(rng, sig, want, maxdeg)
    return ConnectionData(chart, gamma)


def random_sparse_connection(rng, chart, entries=4, maxdeg=1):
    """A few nonzero Christoffel entries, each of the parity its slot needs.

    Over the Gaussian field each entry is scaled by a non-real unit multiple.
    """
    sig = chart.sig
    t, rk = sig.total, chart.rank.total
    gamma = [sfmat_zeros(sig, rk, rk) for _ in range(t)]
    for _ in range(entries):
        a, A, B = rng.randrange(t), rng.randrange(rk), rng.randrange(rk)
        want = (chart.coord_parity(a) + chart.fiber_parity(A) + chart.fiber_parity(B)) % 2
        f = random_superfunction(rng, sig, want, maxdeg)
        if sig.field == GAUSSIAN:
            f = f.scale(GaussianRational(rng.choice([-1, 1]), rng.choice([-1, 1])))
        gamma[a][A][B] = gamma[a][A][B] + f
    return ConnectionData(chart, gamma)


def random_torsion_free_connection(rng, sig, maxdeg=1):
    """Tangent-sheaf connection with graded-symmetric lower indices."""
    chart = Chart.tangent(sig)
    t = sig.total
    gamma = [sfmat_zeros(sig, t, t) for _ in range(t)]
    for a in range(t):
        pa = chart.coord_parity(a)
        for b in range(a, t):
            pb = chart.coord_parity(b)
            for c in range(t):
                want = (pa + pb + chart.coord_parity(c)) % 2
                if a == b and pa == 1:
                    continue  # odd-odd diagonal must vanish: T^c_{aa} = 2 gamma^c_{aa}
                f = random_superfunction(rng, sig, want, maxdeg)
                gamma[a][c][b] = gamma[a][c][b] + f
                if a != b:
                    gamma[b][c][a] = gamma[b][c][a] + f.scale((-1) ** (pa * pb))
    return ConnectionData(chart, gamma)


def random_unipotent_gauge(rng, sig, rank, maxdeg=1):
    """Even invertible matrix: identity plus strictly lower triangular part."""
    t = rank.total
    g = sfmat_zeros(sig, t, t)
    for a in range(t):
        g[a][a] = Superfunction.constant(sig, 1)
    for a in range(t):
        for b in range(a):
            want = (rank.parity(a) + rank.parity(b)) % 2
            g[a][b] = random_superfunction(rng, sig, want, maxdeg)
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
