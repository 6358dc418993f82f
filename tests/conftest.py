"""Shared randomized-data helpers for the test suite (all seeded)."""

from fractions import Fraction

import pytest

from superhol.geometry import Chart, ConnectionData, sfmat_zeros
from superhol.scalars import GAUSSIAN, GaussianRational
from superhol.superfunc import ChartSignature, Superfunction
from superhol.superlin import SuperDim, SuperMatrix


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
    m = SuperMatrix.zeros(dim)
    for a in range(dim.total):
        for b in range(dim.total):
            if (dim.parity(a) + dim.parity(b)) % 2 == parity:
                m.entries[a][b] = Fraction(rng.randint(lo, hi))
    m.declared_parity = m._detect_parity()
    return m
