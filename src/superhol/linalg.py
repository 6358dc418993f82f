"""Exact linear algebra over the chart fields.

Vectors are sparse dicts {column: scalar}; matrices are lists of such rows.
Everything reduces to one incremental reduced-echelon structure, which keeps
large, sparse constraint systems (curvature spaces, prolongations) fast while
staying exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .scalars import canonical, to_field


class SparseEchelon:
    """Incrementally built reduced row echelon basis of a row space.

    Every pivot row has a 1 at its pivot and no other pivot column, so
    eliminating one pivot from a vector never brings in another.  `_holders`
    indexes the rest: each non-pivot column maps to the set of pivots whose
    rows hold it (a set may be left empty).  Integral rationals stay Python
    ints: `reduce` puts its input in `scalars.canonical` form, and `insert`
    divides only by a pivot other than ±1, through a Fraction, and puts the
    quotients in that form too.
    """

    def __init__(self):
        self.pivot_rows = {}  # pivot column -> row dict with row[pivot] == 1
        self._holders = {}  # non-pivot column -> pivots whose rows hold it

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after eliminating all current pivots."""
        vec = {c: canonical(v) for c, v in vec.items() if v}
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

    def insert(self, vec: dict) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        lead = res[pivot]
        # a unit pivot needs no division, so int entries stay ints
        if lead == 1:
            row = res
        elif lead == -1:
            row = {c: -v for c, v in res.items()}
        else:
            if lead.__class__ is int:
                lead = Fraction(lead)  # int / int would be a float
            row = {c: canonical(v / lead) for c, v in res.items()}
        holders = self._holders
        # back-substitute into the rows that hold the new pivot, keeping the
        # form reduced and the index exact
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

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def basis(self):
        """Canonical basis rows sorted by pivot column."""
        return [dict(self.pivot_rows[p]) for p in sorted(self.pivot_rows)]

    def kernel(self, ncols: int):
        """Canonical basis of {x : row . x = 0 for every row}, over columns
        0..ncols-1: one vector per free column, in increasing order, with a 1
        there, no other free column, and its pivots read from the index."""
        rows = self.pivot_rows
        basis = []
        for f in range(ncols):
            if f in rows:
                continue
            vec = {f: 1}
            for p in sorted(self._holders.get(f, ())):
                vec[p] = -rows[p][f]
            basis.append(vec)
        return basis

    def kernel_support(self, ncols: int):
        """The columns, of 0..ncols-1, on which some kernel vector is nonzero:
        every free column, and every pivot whose row holds another entry."""
        rows = self.pivot_rows
        return [c for c in range(ncols) if c not in rows or len(rows[c]) > 1]


def combine(terms) -> dict:
    """The sparse sum of c·v over (c, v) pairs, each v a sparse dict, with zero
    entries dropped.  Keys may be any hashable labels."""
    acc = {}
    for c, vec in terms:
        for k, v in vec.items():
            w = acc.get(k)
            acc[k] = c * v if w is None else w + c * v
    return {k: v for k, v in acc.items() if v}


def span_echelon(vectors) -> SparseEchelon:
    ech = SparseEchelon()
    for v in vectors:
        ech.insert(v)
    return ech


def kernel_basis(rows, ncols: int):
    """Canonical basis of {x : row . x = 0 for all rows}.

    Rows are sparse dicts over columns 0..ncols-1.  The result parametrizes
    free columns in increasing order, each basis vector reduced and with a 1
    at its free column.
    """
    return span_echelon(rows).kernel(ncols)


class GradedKernel:
    """The solution space of a labelled graded system, held as the reduced
    echelon of each parity block: `blocks[p]` is (the labels of parity p in
    column order, the echelon of block p's rows over columns 0.., column j
    standing for labels[j]).  The graded dim is read from the ranks;
    `kernels` is built on first read."""

    def __init__(self, blocks, field):
        self.blocks = blocks
        self.field = field
        self.graded_dim = tuple(len(labels) - ech.rank for labels, ech in blocks)

    @cached_property
    def kernels(self):
        """The canonical (even, odd) kernel bases: each vector a dict
        {label: scalar} in the field with a 1 at its free column, in the
        order of the free columns."""
        field = self.field
        return tuple(
            [{labels[j]: to_field(v, field) for j, v in vec.items()} for vec in ech.kernel(len(labels))]
            for labels, ech in self.blocks
        )


def solve_graded(parity, rows, field) -> GradedKernel:
    """Solve a sparse system whose unknowns carry labels and whose every row
    is homogeneous.

    parity maps each label to 0 or 1, in column order; rows are dicts
    {label: coefficient} from any iterable, with zero coefficients dropped.
    Each row goes into the echelon of the block of its unknowns' parity, and
    each block is solved on its own: a row that mixes parities, or names an
    unknown label, raises ValueError.
    """
    labels = ([], [])
    index = {}
    for c, p in parity.items():
        index[c] = (p, len(labels[p]))
        labels[p].append(c)
    echelons = (SparseEchelon(), SparseEchelon())
    for row in rows:
        p, out = None, {}
        for c, v in row.items():
            if not v:
                continue
            try:
                q, j = index[c]
            except KeyError:
                raise ValueError("unknown label %r" % (c,)) from None
            if p is None:
                p = q
            elif q != p:
                raise ValueError("row mixes even and odd unknowns: %r" % (row,))
            out[j] = v
        if out:
            echelons[p].insert(out)
    return GradedKernel(tuple(zip(labels, echelons)), field)


def solve_kernel(cols, rows, field):
    """`solve_graded` for a system whose unknowns, labelled and ordered by
    cols, are all of one parity: the canonical kernel basis as a list."""
    return solve_graded(dict.fromkeys(cols, 0), rows, field).kernels[0]


def same_span(vectors_a, vectors_b) -> bool:
    ea = span_echelon(vectors_a)
    eb = span_echelon(vectors_b)
    if ea.rank != eb.rank:
        return False
    return all(ea.contains(v) for v in eb.basis())
