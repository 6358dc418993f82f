"""Differential tests of `SparseEchelon` against the plain echelon, and of
its int-valued rationals against the all-Fraction echelon it replaced."""

import random
from fractions import Fraction

import pytest

from conftest import is_canonical_rational
from superhol import linalg
from superhol.linalg import SparseEchelon, kernel_basis, solve_graded
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational, to_field


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


# ------------------------------------------- ints against the all-Fraction path


def fraction_to_field(value, field):
    """`scalars.to_field` before integral rationals became ints: every
    rational comes back a Fraction."""
    if field == RATIONAL:
        if value.__class__ is Fraction:
            return value
        if isinstance(value, GaussianRational):
            if value.im != 0:
                raise ValueError("imaginary value over the rational field")
            return value.re
        return Fraction(value)
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value))


class FractionEchelon:
    """`SparseEchelon` before integral rationals became ints: entries are
    kept as the arithmetic gives them, and every pivot divides the row
    through a Fraction."""

    def __init__(self):
        self.pivot_rows = {}
        self._holders = {}

    def reduce(self, vec):
        vec = {c: v for c, v in vec.items() if v}
        rows = self.pivot_rows
        for p in [c for c in vec if c in rows]:
            coef = vec.pop(p)
            for c, v in rows[p].items():
                if c == p:
                    continue
                w = vec.get(c)
                w = -coef * v if w is None else w - coef * v
                if w:
                    vec[c] = w
                else:
                    del vec[c]
        return vec

    def insert(self, vec):
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        inv = res[pivot]
        if isinstance(inv, int):
            inv = Fraction(inv)
        row = {c: v / inv for c, v in res.items()}
        holders = self._holders
        for p in holders.pop(pivot, ()):
            other = self.pivot_rows[p]
            coef = other.pop(pivot)
            for c, v in row.items():
                if c == pivot:
                    continue
                w = other.get(c)
                if w is None:
                    other[c] = -coef * v
                    holders.setdefault(c, set()).add(p)
                else:
                    w = w - coef * v
                    if w:
                        other[c] = w
                    else:
                        del other[c]
                        holders[c].discard(p)
        for c in row:
            if c != pivot:
                holders.setdefault(c, set()).add(pivot)
        self.pivot_rows[pivot] = row
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def fraction_kernel_basis(rows, ncols):
    ech = FractionEchelon()
    for row in rows:
        ech.insert(row)
    basis = []
    for f in range(ncols):
        if f in ech.pivot_rows:
            continue
        vec = {f: Fraction(1)}
        for p in sorted(ech._holders.get(f, ())):
            vec[p] = -ech.pivot_rows[p][f]
        basis.append(vec)
    return basis


def fraction_solve_graded(parity, rows, field):
    """Each row goes to the block of its first label's parity; rows here never
    mix parities."""
    labels = ([c for c, p in parity.items() if p == 0], [c for c, p in parity.items() if p == 1])
    systems = ([], [])
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        if row:
            part = parity[next(iter(row))]
            systems[part].append({labels[part].index(c): v for c, v in row.items()})
    return tuple(
        [{cols[j]: fraction_to_field(v, field) for j, v in vec.items()} for vec in fraction_kernel_basis(system, len(cols))]
        for cols, system in zip(labels, systems)
    )


RATIONAL_ENTRIES = (1, -1, 2, -3, Fraction(4), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))


def rational_system(rng, ncols):
    """Rows over Q with int, integral-Fraction and non-integral entries, rows
    led by ±1, zero entries and zero rows, and dependent rows."""
    rows = []
    for _ in range(rng.randint(1, ncols + 4)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({rng.randrange(ncols): 0, rng.randrange(ncols): Fraction(0)})
        elif rows and kind < 0.3:
            rows.append(linalg.combine((rng.choice(RATIONAL_ENTRIES), rng.choice(rows)) for _ in range(2)))
        else:
            cols = sorted(rng.sample(range(ncols), rng.randint(1, min(ncols, 5))))
            row = {c: rng.choice(RATIONAL_ENTRIES) for c in cols}
            if kind < 0.6:
                row[cols[0]] = rng.choice((1, -1, Fraction(1), Fraction(-1)))
            if rng.random() < 0.3:
                row[rng.randrange(ncols)] = 0
            rows.append(row)
    return rows


def assert_exact(values):
    for v in values:
        assert type(v) in (int, Fraction), v


def test_int_rationals_match_the_fraction_echelon():
    rng = random.Random("int rationals")
    for _ in range(150):
        ncols = rng.randint(1, 12)
        rows = rational_system(rng, ncols)
        probes = rows + rational_system(rng, ncols)
        ech, ref = SparseEchelon(), FractionEchelon()
        for row in rows:
            assert ech.insert(dict(row)) == ref.insert(dict(row))
            assert as_items(ech) == as_items(ref)
            assert_index_exact(ech)
            for vec in probes:
                got = ech.reduce(vec)
                assert list(got.items()) == list(ref.reduce(vec).items())
                assert_exact(got.values())
                assert ech.contains(vec) == ref.contains(vec)
        for row in ech.pivot_rows.values():
            assert_exact(row.values())
        got = kernel_basis(rows, ncols)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in fraction_kernel_basis(rows, ncols)]
        for vec in got:
            assert_exact(vec.values())
        # a graded solve: columns of both parities, each row within one
        parity = {("u", c): int(c >= ncols // 2) for c in range(ncols)}
        graded = [{("u", c): v for c, v in row.items() if parity[("u", c)] == parity[("u", min(row))]} for row in rows if row]
        got = solve_graded(parity, graded, RATIONAL).kernels
        assert got == fraction_solve_graded(parity, graded, RATIONAL)
        assert all(is_canonical_rational(v) for part in got for vec in part for v in vec.values())


def test_unit_pivots_keep_ints_and_other_pivots_divide_exactly():
    ech = SparseEchelon()
    ech.insert({0: 1, 1: 2, 2: -3})
    ech.insert({1: -1, 2: 4})  # a -1 pivot is a negation
    assert ech.pivot_rows == {0: {0: 1, 2: 5}, 1: {1: 1, 2: -4}}
    assert all(type(v) is int for row in ech.pivot_rows.values() for v in row.values())
    ech.insert({2: 2, 3: 3})  # an int pivot divides through a Fraction
    assert list(ech.pivot_rows[2].items()) == [(2, 1), (3, Fraction(3, 2))]
    assert all(map(is_canonical_rational, ech.pivot_rows[2].values()))
    assert ech.pivot_rows[0] == {0: 1, 3: Fraction(-15, 2)} and ech.pivot_rows[1] == {1: 1, 3: 6}
    assert_exact(v for row in ech.pivot_rows.values() for v in row.values())


def test_to_field_matches_the_fraction_to_field():
    values = (0, 1, -7, True, Fraction(6, 3), Fraction(-5, 4), GaussianRational(3), GaussianRational(Fraction(1, 3)))
    for value in values:
        got = to_field(value, RATIONAL)
        assert got == fraction_to_field(value, RATIONAL) and is_canonical_rational(got)
        gauss = to_field(value, GAUSSIAN)
        assert gauss == fraction_to_field(value, GAUSSIAN) and type(gauss) is GaussianRational
    # a float is not exact, even where it happens to be a dyadic rational
    for field in (RATIONAL, GAUSSIAN):
        for value in (0.5, 2.0):
            with pytest.raises(TypeError, match="float"):
                to_field(value, field)


@pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
def test_kernel_support_is_read_from_the_echelon(field):
    # every free column, and every pivot whose row holds another entry, is
    # exactly where some kernel vector is nonzero, block by block
    rng = random.Random("kernel support %s" % field)
    for _ in range(60):
        ncols = rng.randint(1, 12)
        parity = {("u", c): rng.randint(0, 1) for c in range(ncols)}
        rows = []
        for row in random_system(rng, field, ncols):
            keep = rng.randint(0, 1)
            rows.append({("u", c): v for c, v in row.items() if parity[("u", c)] == keep})
        solution = solve_graded(parity, rows, field)
        for sigma, ((labs, ech), kernel) in enumerate(zip(solution.blocks, solution.kernels)):
            assert labs == [c for c, p in parity.items() if p == sigma]
            support = {labs[c] for c in ech.kernel_support(len(labs))}
            assert support == {key for vec in kernel for key in vec}
