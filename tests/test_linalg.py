"""Differential tests of the indexed `SparseEchelon` against the plain one."""

import random
from fractions import Fraction

import pytest

from superhol import linalg
from superhol.linalg import SparseEchelon, kernel_basis
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational


class ReferenceEchelon:
    """The echelon before the column index: `reduce` rescans the vector after
    each eliminated pivot, and `insert` scans every pivot row."""

    def __init__(self):
        self.pivot_rows = {}

    def reduce(self, vec):
        vec = {c: v for c, v in vec.items() if v}
        while True:
            hit = None
            for c in vec:
                if c in self.pivot_rows:
                    hit = c
                    break
            if hit is None:
                return vec
            coef = vec[hit]
            row = self.pivot_rows[hit]
            for c, v in row.items():
                w = vec.get(c)
                w = -coef * v if w is None else w - coef * v
                if w:
                    vec[c] = w
                else:
                    vec.pop(c, None)

    def insert(self, vec):
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        inv = res[pivot]
        if isinstance(inv, int):
            inv = Fraction(inv)
        row = {c: v / inv for c, v in res.items()}
        for p, other in self.pivot_rows.items():
            coef = other.get(pivot)
            if coef:
                for c, v in row.items():
                    w = other.get(c)
                    w = -coef * v if w is None else w - coef * v
                    if w:
                        other[c] = w
                    else:
                        other.pop(c, None)
        self.pivot_rows[pivot] = row
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def reference_kernel_basis(rows, ncols):
    ech = ReferenceEchelon()
    for row in rows:
        ech.insert(row)
    basis = []
    for f in range(ncols):
        if f in ech.pivot_rows:
            continue
        vec = {f: Fraction(1)}
        for p in sorted(ech.pivot_rows):
            coef = ech.pivot_rows[p].get(f)
            if coef:
                vec[p] = -coef
        basis.append(vec)
    return basis


def small_scalar(rng, field):
    """Small entries, so that fill-in cancels often; ints over Q exercise the
    exact pivot division."""
    if field == RATIONAL:
        v = rng.choice((-1, 1, 2, Fraction(1, 2), Fraction(-3, 2)))
        return v if rng.random() < 0.3 else Fraction(v)
    return GaussianRational(rng.choice((-1, 0, 1, 2)), rng.choice((-1, 0, 1)))


def random_system(rng, field, ncols):
    """Sparse rows with dependent, repeated and zero rows among them."""
    rows = []
    for _ in range(rng.randint(1, ncols + 4)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif rows and kind < 0.35:
            combo = linalg.combine((small_scalar(rng, field), rng.choice(rows)) for _ in range(rng.randint(2, 3)))
            rows.append(dict(reversed(list(combo.items()))))
        elif kind < 0.4:
            rows.append({rng.randrange(ncols): small_scalar(rng, field) * 0})
        else:
            cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 4)))
            rows.append({c: small_scalar(rng, field) for c in cols})
    return rows


def as_items(ech):
    """Pivot rows with their key order, which the kernel and matrices inherit."""
    return [(p, list(row.items())) for p, row in ech.pivot_rows.items()]


def assert_index_exact(ech):
    expected = {}
    for p, row in ech.pivot_rows.items():
        assert row[p] == 1
        for c in row:
            if c != p:
                expected.setdefault(c, set()).add(p)
    assert {c: s for c, s in ech._holders.items() if s} == expected
    assert not ech._holders.keys() & ech.pivot_rows.keys()


@pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
def test_echelon_matches_the_reference(field):
    rng = random.Random("echelon %s" % field)
    for _ in range(80):
        ncols = rng.randint(1, 12)
        rows = random_system(rng, field, ncols)
        probes = rows + random_system(rng, field, ncols)
        ech, ref = SparseEchelon(), ReferenceEchelon()
        for row in rows:
            assert ech.insert(dict(row)) == ref.insert(dict(row))
            assert as_items(ech) == as_items(ref)
            assert_index_exact(ech)
            for vec in probes:
                assert list(ech.reduce(vec).items()) == list(ref.reduce(vec).items())
                assert ech.contains(vec) == ref.contains(vec)
        got = kernel_basis(rows, ncols)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in reference_kernel_basis(rows, ncols)]


def test_reduce_leaves_the_input_alone():
    ech = SparseEchelon()
    ech.insert({0: Fraction(1), 1: Fraction(2)})
    vec = {0: Fraction(3), 2: Fraction(0)}
    assert ech.reduce(vec) == {1: Fraction(-6)}
    assert vec == {0: Fraction(3), 2: Fraction(0)}
