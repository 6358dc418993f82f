import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from superhol import linalg, superlin
from superhol.cli import _pairwise_j
from superhol.geometry import scalar_matrix_inverse
from superhol.holonomy import test_invariant_subspace as check_invariant_subspace
from superhol.reportio import encode_algebra, encode_matrix
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational, canonical, field_one, field_zero, scalar_str
from superhol.superlin import (
    StructureTensor,
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    associative_closure,
    classical_dim,
    classical_superalgebra,
    combination,
    commutant,
    generate_subalgebra,
    insert_parts,
    radical,
    split,
    stabilizer_algebra,
    standard_even_form,
    standard_odd_complex_structure,
    standard_odd_form,
    superbracket,
    supertrace,
    supertrace_row,
)

from conftest import (
    cut_by_functionals,
    defined_stabilizer,
    is_canonical_rational,
    random_homogeneous_matrix,
    reference_associative_closure,
    reference_is_invariant,
    reference_spins,
    unit_gl,
)

FIELDS = (RATIONAL, GAUSSIAN)


class TestSupertrace:
    def test_identity_1_1(self):
        assert supertrace(SuperMatrix.identity(SuperDim(1, 1))) == 0

    def test_identity_2_1(self):
        assert supertrace(SuperMatrix.identity(SuperDim(2, 1))) == 1

    def test_odd_block(self):
        m = SuperMatrix.from_flat(SuperDim(0, 1), {0: Fraction(-2)})
        assert supertrace(m) == 2


class TestSupertraceRow:
    @pytest.mark.parametrize("field", FIELDS)
    def test_row_on_a_matrix_is_the_supertrace_of_the_product(self, field):
        rng = random.Random("supertrace row %s" % field)
        for dim in REFERENCE_DIMS:
            for _ in range(4):
                j = random_matrix(rng, dim, field, rng.choice([(0,), (1,), (0, 1)]))
                row = supertrace_row(j)
                for parity in (0, 1):
                    a = random_matrix(rng, dim, field, (parity,), density=0.8)
                    flat = a.flatten()
                    got = sum((v * flat[pos] for pos, v in row.items() if pos in flat), field_zero(field))
                    assert got == supertrace(j.matmul(a))


class TestSuperbracket:
    def test_odd_self_bracket(self):
        dim = SuperDim(1, 1)
        a = SuperMatrix.unit(dim, 0, 1)
        assert superbracket(a, a) == a.matmul(a).scale(2)

    def test_classical_commutator(self):
        dim = SuperDim(2, 0)
        e, f = SuperMatrix.unit(dim, 0, 1), SuperMatrix.unit(dim, 1, 0)
        h = superbracket(e, f)
        assert h.entries[0][0] == 1 and h.entries[1][1] == -1

    def test_even_self_bracket(self):
        rng = random.Random(3)
        x = random_homogeneous_matrix(rng, SuperDim(2, 1), 0)
        assert superbracket(x, x).is_zero()

    def test_rejects_mixed(self):
        dim = SuperDim(1, 1)
        m = SuperMatrix.identity(dim) + SuperMatrix.unit(dim, 0, 1)
        with pytest.raises(ValueError):
            superbracket(m, m)

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_dense_reference(self, field):
        rng = random.Random("superbracket %s" % field)
        for dim in REFERENCE_DIMS:
            mats = reference_operands(rng, dim, field, mixed=False)
            for a in mats:
                for b in mats:
                    assert_same_matrix(superbracket(a, b), reference_superbracket(a, b))


class TestGenerate:
    def test_empty(self):
        alg = generate_subalgebra([], dim=SuperDim(1, 1))
        assert alg.graded_dim == (0, 0)

    def test_sl2_from_nilpotents(self):
        dim = SuperDim(2, 0)
        alg = generate_subalgebra([SuperMatrix.unit(dim, 0, 1), SuperMatrix.unit(dim, 1, 0)])
        # manual span oracle: e, f and their bracket h
        assert alg.graded_dim == (3, 0)
        h = superbracket(SuperMatrix.unit(dim, 0, 1), SuperMatrix.unit(dim, 1, 0))
        assert alg.contains_matrix(h)
        assert alg == classical_superalgebra("sl", (2, 0))

    def test_gl01_from_identity(self):
        alg = generate_subalgebra([SuperMatrix.identity(SuperDim(0, 1))])
        assert alg.graded_dim == (1, 0)

    def test_idempotent_and_monotone(self):
        rng = random.Random(4)
        dim = SuperDim(2, 1)
        gens = [random_homogeneous_matrix(rng, dim, rng.randint(0, 1)) for _ in range(2)]
        alg = generate_subalgebra(gens, dim)
        again = generate_subalgebra(alg.basis(), dim)
        assert again == alg
        more = generate_subalgebra(gens + [random_homogeneous_matrix(rng, dim, 1)], dim)
        assert more.total_dim >= alg.total_dim

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            generate_subalgebra(
                [SuperMatrix.identity(SuperDim(1, 1)), SuperMatrix.identity(SuperDim(2, 0))]
            )


class TestSolveKernel:
    def test_labelled_kernel_over_gaussian_rationals(self, monkeypatch):
        # the labels become positional columns, and the one block is solved
        inserted, kernels = [], []
        insert, kernel = linalg.SparseEchelon.insert, linalg.SparseEchelon.kernel

        def spy_insert(self, vec):
            inserted.append(dict(vec))
            return insert(self, vec)

        def spy_kernel(self, ncols):
            kernels.append(ncols)
            return kernel(self, ncols)

        monkeypatch.setattr(linalg.SparseEchelon, "insert", spy_insert)
        monkeypatch.setattr(linalg.SparseEchelon, "kernel", spy_kernel)
        one, i = GaussianRational(1), GaussianRational(0, 1)
        rows = [
            {"a": one, "b": i},  # a + i b = 0
            {"c": one - one},  # nothing left once zeros are dropped
        ]
        ker = linalg.solve_kernel(["a", "b", "c"], rows, GAUSSIAN)
        assert ker == [{"b": one, "a": -i}, {"c": one}]
        assert all(type(v) is GaussianRational for vec in ker for v in vec.values())
        assert inserted == [{0: one, 1: i}] and kernels == [3, 0]


class TestStabilizers:
    def test_osp_1_2(self):
        stab = stabilizer_algebra(standard_even_form(1, 2))
        assert stab.graded_dim == (3, 2)
        # brute-force check of the defining identity on every basis element
        g = standard_even_form(1, 2).data
        for m in stab.basis():
            tau = m.parity
            for c in range(3):
                for d in range(3):
                    total = Fraction(0)
                    for b in range(3):
                        total += m.entries[b][c] * g.entries[b][d]
                        total += ((-1) ** (tau * g.dim.parity(c))) * g.entries[c][b] * m.entries[b][d]
                    assert total == 0

    def test_q1_from_odd_complex_structure(self):
        stab = stabilizer_algebra(standard_odd_complex_structure(1))
        assert stab.graded_dim == (1, 1)

    def test_zero_tensor_full_gl(self):
        z = SuperMatrix.zeros(SuperDim(1, 1))
        stab = stabilizer_algebra(StructureTensor("even_endomorphism", "none", z))
        assert stab.graded_dim == (2, 2)

    def test_stabilizer_bracket_closed(self):
        for tensor in (standard_even_form(2, 2), standard_odd_form(2), standard_odd_complex_structure(2)):
            stab = stabilizer_algebra(tensor)
            closed = generate_subalgebra(stab.basis(), stab.dim)
            assert closed == stab

    def test_osp_constructor_equals_stabilizer(self):
        byname = classical_superalgebra("osp", (2, 2))
        direct = stabilizer_algebra(standard_even_form(2, 2))
        assert byname == direct


# every classical family on p|q with p + q <= 4 where it is defined (osp
# needs an even q, osp_sk an even p), and on n|n with n <= 3
CLASSICAL_SIZES = [
    (name, (p, q))
    for name in ("gl", "sl", "osp", "osp_sk", "cosp")
    for p in range(5)
    for q in range(5 - p)
    if not (name in ("osp", "cosp") and q % 2 or name == "osp_sk" and p % 2)
] + [(name, n) for name in ("pe", "spe", "q", "cpe", "cspe") for n in range(4)]


class TestClassical:
    @pytest.mark.parametrize(
        "name,params,want",
        [
            ("gl", (1, 1), (2, 2)),
            ("gl", (2, 1), (5, 4)),
            ("sl", (2, 1), (4, 4)),
            ("sl", (1, 1), (1, 2)),
            ("osp", (2, 2), (4, 4)),
            ("osp", (3, 2), (6, 6)),
            ("osp_sk", (2, 2), (4, 4)),
            ("pe", 3, (9, 9)),
            ("spe", 3, (8, 9)),
            ("q", 2, (4, 4)),
            ("cosp", (2, 2), (5, 4)),
            ("cpe", 3, (10, 9)),
            ("cspe", 3, (9, 9)),
        ],
    )
    def test_dimensions(self, name, params, want):
        assert classical_superalgebra(name, params).graded_dim == want

    def test_inconsistent_params(self):
        with pytest.raises(ValueError):
            classical_superalgebra("osp", (2, 3))  # odd q has no symplectic block

    @pytest.mark.parametrize(
        "name, params, count",
        [("pe", (2, 5), 1), ("q", (1, 7, 9), 1), ("cspe", (), 1), ("gl", (2, 5, 1), 2), ("gl", 2, 2), ("cosp", (2,), 2)],
        ids=str,
    )
    def test_wrong_parameter_count(self, name, params, count):
        with pytest.raises(ValueError, match="%s takes exactly %d parameter" % (name, count)):
            classical_superalgebra(name, params)

    def test_membership_and_equality(self):
        gl11 = classical_superalgebra("gl", (1, 1))
        assert gl11.contains_matrix(SuperMatrix.identity(SuperDim(1, 1)))
        zero = SubSuperalgebra.zero(SuperDim(1, 1))
        assert not zero.contains_matrix(SuperMatrix.unit(SuperDim(1, 1), 0, 1))
        assert zero != gl11

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("name, params", CLASSICAL_SIZES, ids=str)
    def test_each_family_equals_its_construction_by_cuts(self, name, params, field):
        # gl spanned by the unit matrices; sl and spe cut by the supertrace
        # in the coordinates of gl and of pe; the rest solved from the
        # definition of their tensors
        dim = classical_dim(name, params)
        p, q = dim
        base = name[1:] if name in ("cosp", "cpe", "cspe") else name
        tensors = {
            "osp": lambda: standard_even_form(p, q, field=field),
            "osp_sk": lambda: standard_even_form(p, q, skew=True, field=field),
            "pe": lambda: standard_odd_form(p, field=field),
            "spe": lambda: standard_odd_form(p, field=field),
            "q": lambda: standard_odd_complex_structure(p, field=field),
        }
        got = classical_superalgebra(name, params, field)
        want = unit_gl(dim, field) if base in ("gl", "sl") else defined_stabilizer(tensors[base]())
        if base in ("sl", "spe"):
            want = cut_by_functionals(want, [supertrace])
        if base != name:
            want = SubSuperalgebra.from_matrices(dim, want.basis() + [SuperMatrix.identity(dim, field)], field)
        assert encode_algebra(got) == encode_algebra(want)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("pq", [(2, 0), (0, 2), (2, 2), (4, 2)])
    def test_intersection(self, pq, field):
        # the u cut of a seeded metric body: one solve on the rows of both
        # tensors against the kernel intersection of the two stabilizers
        dim = SuperDim(*pq)
        j = StructureTensor("even_endomorphism", "none", _pairwise_j(dim, field))
        rng = random.Random("%r/%s" % (dim, field))
        smaller = 0
        for _ in range(6):
            form = random_supersymmetric_form(rng, dim, field)
            stab_g, stab_j = stabilizer_algebra(form), stabilizer_algebra(j)
            both = stabilizer_algebra(form, j)
            assert both == reference_intersection(stab_g, stab_j)
            assert stabilizer_algebra(j, form) == both
            smaller += both.total_dim < min(stab_g.total_dim, stab_j.total_dim)
        assert smaller

    def test_stabilizer_of_tensors_on_different_spaces(self):
        with pytest.raises(ValueError):
            stabilizer_algebra(standard_even_form(2, 2), standard_even_form(2, 0))


class TestProperties:
    def test_super_jacobi(self):
        rng = random.Random(5)
        dim = SuperDim(2, 1)
        for _ in range(200):
            pa, pb, pc = (rng.randint(0, 1) for _ in range(3))
            a = random_homogeneous_matrix(rng, dim, pa)
            b = random_homogeneous_matrix(rng, dim, pb)
            c = random_homogeneous_matrix(rng, dim, pc)
            lhs = superbracket(a, superbracket(b, c))
            rhs = superbracket(superbracket(a, b), c) + superbracket(
                b, superbracket(a, c)
            ).scale((-1) ** (pa * pb))
            assert (lhs - rhs).is_zero()

    def test_supertrace_kills_brackets(self):
        rng = random.Random(6)
        dim = SuperDim(2, 2)
        for _ in range(200):
            a = random_homogeneous_matrix(rng, dim, rng.randint(0, 1))
            b = random_homogeneous_matrix(rng, dim, rng.randint(0, 1))
            assert supertrace(superbracket(a, b)) == 0

    @pytest.mark.parametrize("field", FIELDS)
    def test_sum_scale_and_product_match_dense_reference(self, field):
        rng = random.Random("sparse sums %s" % field)
        for dim in REFERENCE_DIMS:
            mats = reference_operands(rng, dim, field, mixed=True)
            for a in mats:
                c = random_scalar(rng, field)
                assert_same_matrix(a.scale(c), reference_scale(a, c))
                assert_same_matrix(-a, reference_scale(a, -1))
                for b in mats:
                    assert_same_matrix(a + b, reference_add(a, b))
                    assert_same_matrix(a - b, reference_add(a, reference_scale(b, -1)))
                    assert_same_matrix(a.matmul(b), reference_matmul(a, b))
                    assert (a == b) == (a.entries == b.entries)

    @pytest.mark.parametrize("field", FIELDS)
    def test_cancelling_combination_is_zero(self, field):
        rng = random.Random("cancel %s" % field)
        dim = SuperDim(2, 1)
        a = random_matrix(rng, dim, field, density=1)
        b = random_matrix(rng, dim, field, (1,), density=1)
        c = random_scalar(rng, field) or field_one(field)
        m = combination(dim, [(c, a), (1, b), (-c, a), (-1, b)], field)
        assert m.is_zero() and m.parity == 0 and m.flatten() == {}
        assert m == SuperMatrix.zeros(dim, field)
        assert linalg.combine([(1, {"x": 2}), (2, {"x": -1, "y": 3})]) == {"y": 6}

    def test_serialization_round_trip(self):
        alg = classical_superalgebra("osp", (1, 2))
        from superhol.reportio import decode_algebra, encode_algebra

        doc = encode_algebra(alg)
        assert doc["dim"] == {"p": 1, "q": 2}
        assert len(doc["even"]) == 3 and len(doc["odd"]) == 2
        back = decode_algebra(doc)
        assert back == alg


def entry_parity(m):
    """Parity read off the nonzero entries: 0 or 1, None for mixed, 0 for zero."""
    t = m.dim.total
    seen = {(m.dim.parity(a) + m.dim.parity(b)) % 2 for a in range(t) for b in range(t) if m.entries[a][b]}
    return None if len(seen) == 2 else (seen.pop() if seen else 0)


def random_scalar(rng, field):
    if field == RATIONAL:
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))


def random_matrix(rng, dim, field, parities=(0, 1), density=0.5):
    """Entries drawn in the blocks of the given parities, each kept with
    probability density; mixed when both parities are allowed."""
    t = dim.total
    rows = [[field_zero(field)] * t for _ in range(t)]
    for a in range(t):
        for b in range(t):
            if (dim.parity(a) + dim.parity(b)) % 2 in parities and rng.random() < density:
                rows[a][b] = random_scalar(rng, field)
    return SuperMatrix(dim, rows, field)


# every p|q with p <= 3, q <= 2 and p + q > 0
REFERENCE_DIMS = [SuperDim(p, q) for p in range(4) for q in range(3) if p + q]


def reference_operands(rng, dim, field, mixed):
    """Zero, identity and seeded even and odd matrices at two densities, plus
    mixed ones when asked."""
    mats = [SuperMatrix.zeros(dim, field), SuperMatrix.identity(dim, field)]
    for parities in ((0,), (1,), (0, 1)) if mixed else ((0,), (1,)):
        mats += [random_matrix(rng, dim, field, parities, density) for density in (0.3, 1)]
    return mats


def reference_add(x, y):
    """Dense entrywise sum: the reference for `SuperMatrix.__add__`."""
    t = x.dim.total
    return SuperMatrix(x.dim, [[x.entries[a][b] + y.entries[a][b] for b in range(t)] for a in range(t)], x.field)


def reference_scale(x, c):
    t = x.dim.total
    return SuperMatrix(x.dim, [[c * x.entries[a][b] for b in range(t)] for a in range(t)], x.field)


def reference_matmul(x, y):
    """Dense row-by-column product: the reference for `SuperMatrix.matmul`."""
    t = x.dim.total
    out = [[field_zero(x.field)] * t for _ in range(t)]
    for a in range(t):
        for c in range(t):
            v = x.entries[a][c]
            if v:
                for b in range(t):
                    w = y.entries[c][b]
                    if w:
                        out[a][b] = out[a][b] + v * w
    return SuperMatrix(x.dim, out, x.field)


def reference_superbracket(x, y):
    """AB - (-1)^{|A||B|} BA from two dense products and a negated copy."""
    ab, ba = reference_matmul(x, y), reference_matmul(y, x)
    if x.parity and y.parity:
        return reference_add(ab, ba)
    return reference_add(ab, reference_scale(ba, -1))


def assert_same_matrix(m, ref):
    """Same entries, nonzero entries and parity, each read off the entries
    of the reference."""
    t = ref.dim.total
    assert m.dim == ref.dim
    assert m.entries == ref.entries
    assert m.flatten() == {a * t + b: v for a, row in enumerate(ref.entries) for b, v in enumerate(row) if v}
    assert m.parity == entry_parity(ref)


def random_supersymmetric_form(rng, dim, field):
    """A seeded even supersymmetric form: symmetric on the even block,
    skew on the odd block, zero between them."""
    t, p = dim.total, dim.p
    rows = [[field_zero(field)] * t for _ in range(t)]
    for a in range(t):
        for b in range(a, t):
            if (a < p) != (b < p) or (a == b >= p) or rng.random() < 0.3:
                continue
            v = random_scalar(rng, field)
            rows[a][b] = v
            rows[b][a] = -v if a >= p else v
    return StructureTensor("even_bilinear_form", "supersymmetric", SuperMatrix(dim, rows, field))


def reference_intersection(a, b):
    """The u cut before one solve took every tensor's rows: the kernel of
    the stacked system sum_j x_j a_j - sum_k y_k b_k = 0 over the flattened
    bases, pushed back through the a_j."""
    va = [m.flatten() for m in a.basis()]
    vb = [m.flatten() for m in b.basis()]
    if not va or not vb:
        return SubSuperalgebra.zero(a.dim, a.field)
    rows = []
    for col in range(a.dim.total ** 2):
        row = {j: v[col] for j, v in enumerate(va) if v.get(col)}
        row.update({len(va) + k: -v[col] for k, v in enumerate(vb) if v.get(col)})
        if row:
            rows.append(row)
    out = []
    for combo in linalg.kernel_basis(rows, len(va) + len(vb)):
        vec = {}
        for j, coef in combo.items():
            if j < len(va):
                for c, v in va[j].items():
                    vec[c] = vec.get(c, 0) + coef * v
        out.append(SuperMatrix.from_flat(a.dim, {c: v for c, v in vec.items() if v}, a.field))
    return SubSuperalgebra.from_matrices(a.dim, out, a.field)


def reference_graded_solve(parity, rows, field):
    """The route of the graded systems before `solve_graded`: one
    `solve_kernel` per parity over that parity's columns, with the other
    parity's unknowns held at zero."""
    out = []
    for sigma in (0, 1):
        cols = [c for c, p in parity.items() if p == sigma]
        out.append(linalg.solve_kernel(cols, [{c: v for c, v in row.items() if c in cols} for row in rows], field))
    return tuple(out)


class TestSolveGraded:
    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_one_solve_per_parity(self, field):
        rng = random.Random("solve_graded %s" % field)
        ranks = set()
        for _ in range(60):
            labels = ["u%d" % k for k in range(rng.randint(0, 10))]
            rng.shuffle(labels)  # column order is not the order of the labels
            parity = {lab: rng.randint(0, 1) for lab in labels}
            blocks = [[lab for lab in labels if parity[lab] == sigma] for sigma in (0, 1)]
            rows = []
            for _ in range(rng.randint(0, 12)):
                block = blocks[rng.randint(0, 1)]
                picked = rng.sample(block, min(len(block), rng.randint(1, 4)))
                rows.append({lab: random_scalar(rng, field) for lab in picked})
            solution = linalg.solve_graded(parity, iter(rows), field)
            assert "kernels" not in vars(solution)  # built on first read
            got = solution.kernels
            assert got == reference_graded_solve(parity, rows, field)
            assert solution.graded_dim == tuple(map(len, got))
            # the columns some kernel vector reaches are read from the echelons
            support = {labs[c] for labs, ech in solution.blocks for c in ech.kernel_support(len(labs))}
            assert support == {c for kernel in got for vec in kernel for c in vec}
            for sigma, kernel in enumerate(got):
                for vec in kernel:
                    assert all(parity[c] == sigma for c in vec)
                    for row in rows:
                        assert not sum((v * vec.get(c, 0) for c, v in row.items()), field_zero(field))
                ranks.add((sigma, len(blocks[sigma]) - len(kernel)))
        # both blocks were cut down, and left whole, somewhere
        assert {(0, 0), (1, 0)} < ranks and any(r > 1 for _, r in ranks)

    def test_mixed_row_raises(self):
        one = Fraction(1)
        parity = {"a": 0, "b": 1}
        assert linalg.solve_graded(parity, [{"a": one, "b": one - one}], RATIONAL).kernels == ([], [{"b": one}])
        with pytest.raises(ValueError, match="mixes"):
            linalg.solve_graded(parity, [{"a": one, "b": one}], RATIONAL)

    def test_unknown_label_raises(self):
        one = Fraction(1)
        with pytest.raises(ValueError, match="unknown label 'c'"):
            linalg.solve_graded({"a": 0, "b": 1}, [{"a": one}, {"c": one}], RATIONAL)
        with pytest.raises(ValueError, match="unknown label 'c'"):
            linalg.solve_kernel(["a", "b"], [{"a": one, "c": one}], RATIONAL)


class TestExactPivots:
    def test_integer_input_stays_exact(self):
        # an int pivot divides as a Fraction, never into a float, and
        # integral results come back as ints
        row = linalg.span_echelon([{0: 2, 1: 3}]).basis()[0]
        assert row == {0: 1, 1: Fraction(3, 2)} and all(map(is_canonical_rational, row.values()))
        (vec,) = linalg.kernel_basis([{0: 2, 1: 3}], 2)
        assert vec == {0: Fraction(-3, 2), 1: 1} and all(map(is_canonical_rational, vec.values()))
        dim = SuperDim(2, 0)
        (m,) = SubSuperalgebra.from_matrices(dim, [SuperMatrix(dim, [[2, 0], [0, 0]])]).basis()
        assert all(is_canonical_rational(v) for row in m.entries for v in row)
        assert repr(m) == "SuperMatrix(2|0, [[1, 0]; [0, 0]])"


class TestParityFromEntries:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_odd_standard_forms(self, n, field):
        assert standard_odd_form(n, field=field).data.parity == 1
        assert standard_odd_form(n, skew=True, field=field).data.parity == 1
        j = standard_odd_complex_structure(n, field=field).data
        assert j.parity == 1
        assert superbracket(j, j) == SuperMatrix.identity(SuperDim(n, n)).scale(-2)

    @pytest.mark.parametrize("field", FIELDS)
    def test_every_constructor_reads_its_entries(self, field):
        rng = random.Random(81)
        for dim in (SuperDim(1, 1), SuperDim(2, 1), SuperDim(0, 2), SuperDim(2, 0), SuperDim(2, 2)):
            t = dim.total
            made = [SuperMatrix.zeros(dim, field), SuperMatrix.identity(dim, field)]
            made += [SuperMatrix.unit(dim, a, b, field) for a in range(t) for b in range(t)]
            for _ in range(30):
                parities = rng.choice([(0,), (1,), (0, 1)])
                a = random_matrix(rng, dim, field, parities, rng.choice([0.0, 0.3, 1.0]))
                b = random_matrix(rng, dim, field, rng.choice([(0,), (1,), (0, 1)]))
                c = rng.choice([0, 1, -3, random_scalar(rng, field)])
                made += [
                    SuperMatrix.from_flat(dim, a.flatten(), field),
                    a + b,
                    a - a,
                    a.scale(c),
                    a.matmul(b),
                ]
            seen = set()
            for m in made:
                assert m.parity == entry_parity(m), m
                seen.add(m.parity)
            assert seen == {0, 1, None} or dim.q == 0 or dim.p == 0


# ------------------------------------ the split-and-re-echelonize reference


def reference_homogeneous_part(m, parity):
    t = m.dim.total
    rows = [
        [m.entries[a][b] if (m.dim.parity(a) + m.dim.parity(b)) % 2 == parity else field_zero(m.field) for b in range(t)]
        for a in range(t)
    ]
    return SuperMatrix(m.dim, rows, m.field)


class ReferenceAlgebra:
    """The route SubSuperalgebra took before it kept its echelons: the bases
    are read off fresh echelons of the homogeneous parts, then echelonized a
    second time for membership."""

    def __init__(self, dim, echelons, field):
        self.even_basis, self.odd_basis = (
            [SuperMatrix.from_flat(dim, v, field) for v in ech.basis()] for ech in echelons
        )
        self.echelons = [
            linalg.span_echelon([m.flatten() for m in basis]) for basis in (self.even_basis, self.odd_basis)
        ]
        self.doc = {
            "dim": {"p": dim.p, "q": dim.q},
            "even": [encode_matrix(m) for m in self.even_basis],
            "odd": [encode_matrix(m) for m in self.odd_basis],
        }

    @staticmethod
    def push(echelons, m):
        added = []
        for parity, ech in enumerate(echelons):
            part = reference_homogeneous_part(m, parity)
            if not part.is_zero() and ech.insert(part.flatten()):
                added.append(part)
        return added

    @classmethod
    def from_matrices(cls, dim, mats, field):
        echelons = (linalg.SparseEchelon(), linalg.SparseEchelon())
        for m in mats:
            cls.push(echelons, m)
        return cls(dim, echelons, field)

    @classmethod
    def generate(cls, dim, generators, field):
        echelons = (linalg.SparseEchelon(), linalg.SparseEchelon())
        basis = []
        frontier = []
        for g in generators:
            frontier.extend(cls.push(echelons, g))
        basis.extend(frontier)
        while frontier:
            new = []
            snapshot = list(basis)
            for a in frontier:
                for b in snapshot:
                    br = superbracket(a, b)
                    if not br.is_zero():
                        added = cls.push(echelons, br)
                        new.extend(added)
                        basis.extend(added)
            frontier = new
        return cls(dim, echelons, field)

    def contains(self, m):
        return all(
            self.echelons[parity].contains(reference_homogeneous_part(m, parity).flatten()) for parity in (0, 1)
        )


class TestKeptEchelonsMatchTheReference:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("dim", [SuperDim(1, 1), SuperDim(2, 1), SuperDim(2, 2)], ids=repr)
    def test_from_matrices_generate_and_membership(self, dim, field):
        rng = random.Random("%r/%s" % (dim, field))
        outside = 0
        for case in range(8):
            # few sparse generators, so that proper subalgebras occur
            gens = [
                random_matrix(rng, dim, field, rng.choice([(0,), (1,), (0, 1)]), 0.25)
                for _ in range(rng.randint(1, 3))
            ]
            pairs = [
                (SubSuperalgebra.from_matrices(dim, gens, field), ReferenceAlgebra.from_matrices(dim, gens, field)),
                (generate_subalgebra(gens, dim, field), ReferenceAlgebra.generate(dim, gens, field)),
            ]
            for alg, ref in pairs:
                assert encode_algebra(alg) == ref.doc
                basis = alg.basis()
                members = [SuperMatrix.zeros(dim, field)] + basis
                for _ in range(4):
                    acc = SuperMatrix.zeros(dim, field)
                    for m in basis:
                        acc = acc + m.scale(random_scalar(rng, field))
                    members.append(acc)
                for m in members:
                    assert alg.contains_matrix(m) and ref.contains(m)
                for _ in range(6):
                    m = random_matrix(rng, dim, field, rng.choice([(0,), (1,), (0, 1)]), 0.5)
                    assert alg.contains_matrix(m) == ref.contains(m)
                    outside += not ref.contains(m)
        assert outside


class TestGrowClosedAlgebra:
    """`generate_subalgebra(new, dim, field, closed)` brackets only what is
    new; it must give the closure from scratch of the basis of `closed` and
    the new generators, and leave `closed` as it was."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("dim", [SuperDim(2, 1), SuperDim(2, 2), SuperDim(0, 3)], ids=repr)
    def test_same_as_closure_from_scratch(self, dim, field):
        rng = random.Random("grow/%r/%s" % (dim, field))
        kinds = [(0,), (1,), (0, 1)]  # even, odd and mixed generators
        cross = 0
        for _ in range(12):
            old = [random_matrix(rng, dim, field, rng.choice(kinds), 0.2) for _ in range(rng.randint(0, 2))]
            closed = generate_subalgebra(old, dim, field)
            before = encode_algebra(closed)
            new = [random_matrix(rng, dim, field, rng.choice(kinds), 0.2) for _ in range(rng.randint(1, 2))]
            grown = generate_subalgebra(new, dim, field, closed)
            assert encode_algebra(grown) == encode_algebra(generate_subalgebra(closed.basis() + new, dim, field))
            assert encode_algebra(closed) == before
            # brackets of the new generators with the closed algebra count
            cross += grown.total_dim > generate_subalgebra(new, dim, field).total_dim + closed.total_dim
        assert cross


def all_pairs_closure(generators, dim, closed=None):
    """The echelon of the bracket closure that brackets each new basis
    element with the whole basis, so that both [a, b] and [b, a] are formed."""
    seed = [] if closed is None else closed.basis()
    echelon = linalg.SparseEchelon()
    for m in seed:
        insert_parts(echelon, m)
    frontier = [part for g in generators for part in insert_parts(echelon, g)]
    basis = seed + frontier
    while frontier:
        frontier = [part for a in frontier for b in basis for part in insert_parts(echelon, superbracket(a, b))]
        basis += frontier
    return echelon


class TestClosureBracketsEachPairOnce:
    """`generate_subalgebra` brackets each unordered pair of basis elements
    once, since [b, a] = ±[a, b].  The reduced echelon of the closure is
    unique, so it must equal the all-pairs closure's row for row."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("dim", [SuperDim(2, 1), SuperDim(1, 2), SuperDim(2, 2), SuperDim(0, 3)], ids=repr)
    def test_same_pivot_rows_as_all_pairs(self, dim, field, monkeypatch):
        rng = random.Random("pairs once/%r/%s" % (dim, field))
        kinds = [(0,), (1,), (0, 1)]  # even, odd and mixed generators
        formed = []

        def counted(a, b):
            formed.append((id(a), id(b)))
            return superbracket(a, b)

        monkeypatch.setattr(superlin, "superbracket", counted)
        grew = 0
        for k in range(12):
            closed = None
            if k % 3 == 2:
                closed = generate_subalgebra([random_matrix(rng, dim, field, rng.choice(kinds), 0.2)], dim, field)
            gens = [random_matrix(rng, dim, field, rng.choice(kinds), 0.2) for _ in range(rng.randint(1, 3))]
            formed.clear()
            alg = generate_subalgebra(gens, dim, field, closed)
            # no unordered pair is bracketed twice
            assert len({frozenset(pair) for pair in formed}) == len(formed)
            want = all_pairs_closure(gens, dim, closed).pivot_rows
            assert alg._echelon.pivot_rows == want
            grew += alg.total_dim > len(gens)
        assert grew

    def test_an_odd_element_is_bracketed_with_itself(self):
        dim = SuperDim(1, 1)
        x = SuperMatrix.unit(dim, 0, 1) + SuperMatrix.unit(dim, 1, 0)
        # [x, x] = 2x² = 2·id is the only bracket that enlarges the span
        alg = generate_subalgebra([x])
        assert alg.graded_dim == (1, 1) and alg.contains_matrix(SuperMatrix.identity(dim))


class TestClosureStopsAtItsBound:
    """`generate_subalgebra(..., n)` stops once the span has dimension n, that
    of an algebra known to hold the closure: t², gl(E)'s, by default, and
    dim stab(g) for generators that annihilate a form g.  Its reduced
    echelon must still be the uncapped all-pairs closure's, row for row, and
    a run that reaches n must form fewer brackets than the uncapped run."""

    # the ambient dim and, for the bounded runs, the form whose stabilizer
    # holds the generators
    CASES = [
        (SuperDim(1, 1), None),
        (SuperDim(2, 1), None),
        (SuperDim(1, 2), lambda field: standard_even_form(1, 2, field=field)),
        (SuperDim(2, 2), lambda field: standard_even_form(2, 2, field=field)),
        (SuperDim(2, 2), lambda field: standard_odd_form(2, field=field)),
        (SuperDim(0, 2), lambda field: standard_even_form(0, 2, field=field)),
    ]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_capped_equals_uncapped(self, case, field, monkeypatch):
        dim, form = self.CASES[case]
        rng = random.Random("closure cap %d %s" % (case, field))
        t = dim.total
        if form is None:
            bound = t * t
            pool = None
        else:
            stab = stabilizer_algebra(form(field))
            bound, pool = stab.total_dim, stab.basis()
        kinds = [(0,), (1,), (0, 1)]
        formed = []

        def counted(a, b):
            formed.append(1)
            return superbracket(a, b)

        monkeypatch.setattr(superlin, "superbracket", counted)

        def generator():
            if pool is None:
                return random_matrix(rng, dim, field, rng.choice(kinds), rng.choice([0.2, 0.5]))
            acc = SuperMatrix.zeros(dim, field)
            for m in rng.sample(pool, rng.randint(1, min(4, len(pool)))):
                acc = acc + m.scale(random_scalar(rng, field))
            return acc

        reached = saved = 0
        for k in range(12):
            closed = generate_subalgebra([generator()], dim, field, None, bound) if k % 3 == 2 else None
            gens = [generator() for _ in range(rng.randint(1, 3))]
            formed.clear()
            alg = generate_subalgebra(gens, dim, field, closed, bound if form else None)
            capped = len(formed)
            formed.clear()
            uncapped = generate_subalgebra(gens, dim, field, closed, t * t + 1)
            assert alg._echelon.pivot_rows == uncapped._echelon.pivot_rows
            assert alg._echelon.pivot_rows == all_pairs_closure(gens, dim, closed).pivot_rows
            reached += alg.total_dim == bound
            saved += capped < len(formed)
        assert reached and saved


def reference_coordinates(columns, target, field):
    """Solve sum c_i columns_i = target exactly, None if unsolvable: the
    kernel solve that `berger.structure_constants` made for each bracket
    before `SubSuperalgebra.coordinates` read the pivots."""
    k = len(columns)
    rows = {}
    for i, col in enumerate(columns):
        for coord, v in col.items():
            rows.setdefault(coord, {})[i] = v
    for coord, v in target.items():
        rows.setdefault(coord, {})[k] = -v
    for combo in linalg.solve_kernel(range(k + 1), rows.values(), field):
        s = combo.get(k)
        if s:
            return {i: v / s for i, v in combo.items() if i != k and v}
    if not target:
        return {}
    return None


class TestCoordinatesMatchTheSolve:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "name, params", [("gl", (1, 1)), ("sl", (2, 1)), ("osp", (1, 2)), ("pe", 2), ("spe", 2), ("q", 2), ("cosp", (2, 2))],
        ids=str,
    )
    def test_members_and_non_members(self, name, params, field):
        rng = random.Random("coordinates %s%s %s" % (name, params, field))
        alg = classical_superalgebra(name, params, field)
        dim = alg.dim
        basis = alg.basis()
        flats = [m.flatten() for m in basis]
        members = [SuperMatrix.zeros(dim, field)] + basis
        members += [superbracket(rng.choice(basis), rng.choice(basis)) for _ in range(6)]
        for _ in range(6):
            acc = SuperMatrix.zeros(dim, field)
            for m in rng.sample(basis, rng.randint(1, len(basis))):
                acc = acc + m.scale(random_scalar(rng, field))
            members.append(acc)
        for m in members:
            got = alg.coordinates(m)
            assert got is not None and got == reference_coordinates(flats, m.flatten(), field)
        outside = 0
        for _ in range(12):
            m = random_matrix(rng, dim, field, rng.choice([(0,), (1,), (0, 1)]))
            got = alg.coordinates(m)
            assert got == reference_coordinates(flats, m.flatten(), field)
            outside += got is None
        assert outside or alg.total_dim == dim.total ** 2


def flat_matrix(dim, flat, field=RATIONAL):
    one = {RATIONAL: Fraction(1), GAUSSIAN: GaussianRational(1)}[field]
    return SuperMatrix.from_flat(dim, {k: one * v for k, v in flat.items()}, field)


def random_invertible(rng, dim, field):
    """(P, P⁻¹) for P = L·U, L unit lower and U unit upper triangular with
    seeded entries, so det P = 1."""
    t = dim.total
    one = field_one(field)

    def entry():
        return GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)) if field == GAUSSIAN else rng.randint(-2, 2)

    lower = flat_matrix(dim, {a * t + b: one if a == b else entry() for a in range(t) for b in range(a + 1)}, field)
    upper = flat_matrix(dim, {a * t + b: one if a == b else entry() for a in range(t) for b in range(a, t)}, field)
    p = lower.matmul(upper)
    return p, SuperMatrix(dim, scalar_matrix_inverse(p.entries, field), field)


class TestAssociativeEngine:
    def test_commutant_of_a_diagonal_is_diagonal(self):
        dim = SuperDim(2, 0)
        basis = commutant([flat_matrix(dim, {0: 1, 3: -1})], dim)
        assert linalg.same_span([m.flatten() for m in basis], [{0: 1}, {3: 1}])

    def test_commutant_is_even_and_takes_extra_rows(self):
        # the odd swap J of a 1|1 space commutes with the identity only;
        # without it every even matrix commutes, and the extra row a = d
        # leaves the identity again
        dim = SuperDim(1, 1)
        swap = flat_matrix(dim, {1: 1, 2: 1})
        assert [m.flatten() for m in commutant([swap], dim)] == [{0: 1, 3: 1}]
        assert len(commutant([], dim)) == 2
        assert [m.flatten() for m in commutant([], dim, extra_rows=[{0: 1, 3: -1, 1: 5}])] == [{0: 1, 3: 1}]

    def test_closure_spans_products_and_stops_at_full(self):
        dim = SuperDim(2, 0)
        assert associative_closure([flat_matrix(dim, {1: 1})], dim).rank == 1
        assert associative_closure([flat_matrix(dim, {1: 1}), flat_matrix(dim, {2: 1})], dim).rank == 4

    def test_radical_of_upper_triangular_is_strict(self):
        dim = SuperDim(2, 0)
        closure = associative_closure([flat_matrix(dim, {0: 1}), flat_matrix(dim, {1: 1}), flat_matrix(dim, {3: 1})], dim)
        assert closure.rank == 3
        assert radical(closure, dim) == [{1: 1}]

    def test_radical_uses_the_ordinary_trace(self):
        # the supertrace of the identity of a 1|1 space is 0
        dim = SuperDim(1, 1)
        assert radical(associative_closure([SuperMatrix.identity(dim)], dim), dim) == []

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_radical_of_conjugated_block_upper_triangular_algebras(self, field):
        # diagonal blocks that are full matrix algebras or scalars, over the
        # strict block upper part, all conjugated by a seeded invertible P:
        # the radical is P·(strict block upper part)·P⁻¹
        rng = random.Random("radical %s" % field)
        for _ in range(16):
            dim = SuperDim(rng.randint(1, 3), rng.randint(1, 2))
            t = dim.total
            cuts = sorted(rng.sample(range(1, t), rng.randint(1, t - 1)))
            blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [t])]
            block_of = {a: k for k, block in enumerate(blocks) for a in block}
            semisimple = []
            for block in blocks:
                if rng.random() < 0.5:
                    semisimple += [{a * t + b: 1} for a in block for b in block]
                else:
                    semisimple.append({a * t + a: 1 for a in block})
            strict = [{a * t + b: 1} for a in range(t) for b in range(t) if block_of[a] < block_of[b]]
            p, p_inv = random_invertible(rng, dim, field)

            def conjugated(flat):
                return p.matmul(flat_matrix(dim, flat, field)).matmul(p_inv).flatten()

            algebra = linalg.span_echelon(conjugated(flat) for flat in semisimple + strict)
            got = radical(algebra, dim, field)
            assert len(got) == len(strict) and linalg.same_span(got, [conjugated(flat) for flat in strict])

    def test_split_along_a_rational_root(self):
        # minimal polynomial (x - 1)^2 (x - 2): the root 1 has multiplicity 2
        dim = SuperDim(3, 0)
        x = flat_matrix(dim, {0: 1, 1: 1, 4: 1, 8: 2})
        witness, complement = split([x], dim)
        assert linalg.same_span(witness, [{0: 1}, {1: 1}])
        assert linalg.same_span(complement, [{2: 1}])

    def test_split_needs_a_root_in_the_field(self):
        # x^2 + 1 splits over the Gaussian rationals only
        dim = SuperDim(2, 0)
        assert split([flat_matrix(dim, {1: -1, 2: 1})], dim) is None
        rotation = flat_matrix(dim, {1: -1, 2: 1}, GAUSSIAN)
        witness, complement = split([rotation], dim, GAUSSIAN)
        assert len(witness) == len(complement) == 1
        for part in (witness, complement):
            (vec,) = part
            image = rotation.apply([vec.get(a, GaussianRational(0)) for a in range(2)])
            assert linalg.same_span([dict(enumerate(image))], part)

    def test_split_keeps_grading(self):
        # X = diag(1, 2 | 1): the kernels are graded even with a repeated root
        dim = SuperDim(2, 1)
        witness, complement = split([flat_matrix(dim, {0: 1, 4: 2, 8: 1})], dim)
        assert witness == [{0: 1}, {2: 1}] and complement == [{1: 1}]

    def test_scalar_draws_do_not_split(self):
        dim = SuperDim(2, 1)
        assert split([SuperMatrix.identity(dim)], dim) is None


# 0|0, the two one-dimensional spaces, and two with both parities
SPIN_DIMS = [SuperDim(0, 0), SuperDim(1, 0), SuperDim(0, 1), SuperDim(2, 1), SuperDim(2, 2)]


def spin_generator_sets(rng, dim, field):
    """Seeded generator sets: one to three even, odd or mixed matrices; a
    strictly upper triangular shift, whose closure needs every power; a zero
    matrix alone; a set with zero, repeated and dependent members; and the
    empty set."""
    t = dim.total
    sets = [
        [random_matrix(rng, dim, field, parities, rng.choice((0.3, 0.6))) for _ in range(k)]
        for k in (1, 2, 3)
        for parities in ((0,), (1,), (0, 1))
    ]
    sets.append([flat_matrix(dim, {a * t + a + 1: random_scalar(rng, field) or 1 for a in range(t - 1)}, field)])
    a, b = random_matrix(rng, dim, field, (1,), 0.5), random_matrix(rng, dim, field, (0,), 0.5)
    zero = SuperMatrix.zeros(dim, field)
    sets += [[zero], [a, zero, a, a + b, b, b.scale(3)], []]
    return sets


def random_vector(rng, t, field, density=0.5):
    """A dense seeded vector of t scalars, often with zero entries."""
    return [random_scalar(rng, field) if rng.random() < density else field_zero(field) for _ in range(t)]


class TestSpinMatchesTheLoopsItReplaced:
    @pytest.mark.parametrize("field", FIELDS)
    def test_associative_closure(self, field):
        rng = random.Random("closure %s" % field)
        ranks = set()
        for dim in SPIN_DIMS:
            for mats in spin_generator_sets(rng, dim, field):
                got, ref = associative_closure(mats, dim), reference_associative_closure(mats, dim)
                assert got.basis() == ref.basis(), (dim, mats)
                ranks.add((dim.total, got.rank))
        # zero, proper and full closures all occur
        assert {(0, 0), (1, 0), (1, 1), (3, 9), (4, 16)} <= ranks
        assert any(0 < r < t * t for t, r in ranks)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("transpose", (False, True))
    def test_spins_of_a_vector(self, field, transpose):
        rng = random.Random("spins %s %s" % (field, transpose))
        verdicts = set()
        for dim in SPIN_DIMS:
            t = dim.total
            for mats in spin_generator_sets(rng, dim, field):
                maps = [superlin.sparse_lines(m, rows=transpose) for m in mats]
                for density in (0, 0.3, 1):
                    vec = {a: v for a, v in enumerate(random_vector(rng, t, field, density)) if v}
                    got = superlin.spin(linalg.span_echelon([vec]), [vec], maps, t)
                    ref = reference_spins(vec, mats, t, transpose)
                    assert got.basis() == ref.basis(), (dim, mats, vec)
                    verdicts.add((t, got.rank == t, bool(vec)))
        assert {(4, True, True), (4, False, True), (3, True, True), (3, False, True), (4, False, False)} <= verdicts

    def test_the_frontier_is_mapped_until_nothing_grows(self):
        # the cyclic shift of e_1 reaches e_4 only at the third image
        dim = SuperDim(2, 2)
        shift = superlin.sparse_lines(flat_matrix(dim, {4: 1, 9: 1, 14: 1}), rows=False)
        assert superlin.spin(linalg.span_echelon([{0: 1}]), [{0: 1}], [shift], 4).rank == 4
        assert superlin.spin(linalg.span_echelon([{3: 1}]), [{3: 1}], [shift], 4).rank == 1

    def test_left_multiplication_is_not_by_the_transpose(self):
        # E_12 E_12 = 0, but E_21 E_12 = E_22 would be in a closure built
        # from the transposes
        dim = SuperDim(2, 0)
        assert associative_closure([flat_matrix(dim, {1: 1})], dim).basis() == [{1: 1}]
        assert associative_closure([flat_matrix(dim, {1: 1}), flat_matrix(dim, {0: 1})], dim).basis() == [{0: 1}, {1: 1}]

    @pytest.mark.parametrize("field", FIELDS)
    def test_invariant_subspace_verdicts(self, field):
        rng = random.Random("invariance %s" % field)
        verdicts = set()
        for dim in SPIN_DIMS:
            t = dim.total
            zero = field_zero(field)
            for mats in spin_generator_sets(rng, dim, field):
                algebra = SubSuperalgebra.from_matrices(dim, mats, field)
                maps = [superlin.sparse_lines(m, rows=False) for m in algebra.basis()]
                # seeded vectors, with zero and dependent ones; the span of
                # one vector's images, which is invariant; a coordinate
                # flag, invariant under upper triangular matrices; and the
                # empty and the whole space
                candidates = [[random_vector(rng, t, field) for _ in range(k)] for k in range(1, t + 1)]
                vec = random_vector(rng, t, field)
                candidates.append([vec, [zero] * t, [2 * v for v in vec]])
                sparse = {a: v for a, v in enumerate(vec) if v}
                spun = superlin.spin(linalg.span_echelon([sparse]), [sparse], maps, t)
                candidates.append([[row.get(a, zero) for a in range(t)] for row in spun.basis()])
                candidates += [[[field_one(field) if a == b else zero for a in range(t)] for b in range(k)] for k in range(t + 1)]
                for w in candidates:
                    verdict = check_invariant_subspace(algebra, w)
                    assert verdict == reference_is_invariant(algebra, w), (dim, mats, w)
                    rank = linalg.span_echelon([dict(enumerate(v)) for v in w]).rank
                    verdicts.add((t, verdict, 0 < rank < t))
        # proper invariant and proper non-invariant subspaces both occur
        assert {(3, True, True), (3, False, True), (4, True, True), (4, False, True)} <= verdicts

    def test_invariance_of_vectors_of_the_wrong_length_is_refused(self):
        gl = classical_superalgebra("gl", (2, 1))
        for w in ([1, 0], [1, 0, 0, 0]):
            with pytest.raises(ValueError, match="vector must have 3 entries"):
                check_invariant_subspace(gl, [[0, 1, 0], w])


def poly_product(factors):
    """Coefficients, lowest degree first, of the product of the given
    coefficient lists."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def poly_value(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


def exact_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            c = rows[i][k] / rows[k][k]
            rows[i] = [a - c * b for a, b in zip(rows[i], rows[k])]
    return det


def no_integer_root_factor(rng, bits):
    """A factor with no integer root and coefficients of about `bits` bits:
    x^2 + c with c > 0, x^2 - 2c with c odd (2c is no square), or a x - b
    with gcd(a, b) = 1 and |a| > 1."""
    c = rng.getrandbits(bits) | 1
    kind = rng.randrange(3)
    if kind == 0:
        return [c, 0, 1]
    if kind == 1:
        return [-2 * c, 0, 1]
    a = rng.choice([2, 3, 5, -3]) * c
    b = rng.choice([1, -1, 7, -11])
    return [b, -a] if math.gcd(a, b) == 1 else [1, 0, 1]


def planted_polynomial(rng, bits):
    """A seeded product of repeated (x - r)^k, zero roots among them, and
    factors without integer roots; returns it with its integer roots."""
    roots = set(rng.sample(range(-12, 13), rng.randint(0, 4)))
    factors = [[-r, 1] for r in roots for _ in range(rng.randint(1, 3))]
    factors += [no_integer_root_factor(rng, bits) for _ in range(rng.randint(0 if factors else 1, 2))]
    rng.shuffle(factors)
    return poly_product(factors), roots


class TestExactEigenvalues:
    """`split` takes its rational candidates from the integer roots of the
    characteristic polynomial of dX."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_char_poly_is_det_of_xi_minus_m(self, n):
        rng = random.Random("char poly %d" % n)
        for _ in range(4):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            coeffs = superlin.char_poly(m)
            assert len(coeffs) == n + 1 and coeffs[-1] == 1
            for x in range(-1, n + 1):
                shifted = [[(x if i == j else 0) - v for j, v in enumerate(row)] for i, row in enumerate(m)]
                assert poly_value(coeffs, x) == exact_det(shifted)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_char_poly_matches_numpy(self, n):
        np = pytest.importorskip("numpy")
        rng = random.Random("numpy char poly %d" % n)
        for _ in range(4):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            reference = np.poly(np.array(m, dtype=float))[::-1]
            assert superlin.char_poly(m) == [int(round(c)) for c in reference]

    @pytest.mark.parametrize("bits", [4, 300])
    def test_integer_roots_match_brute_force(self, bits):
        rng = random.Random("integer roots %d" % bits)
        for _ in range(40):
            coeffs, planted = planted_polynomial(rng, bits)
            window = [r for r in range(-40, 41) if poly_value(coeffs, r) == 0]
            assert set(window) == planted
            assert superlin.integer_roots(coeffs) == sorted(planted)

    def test_zero_roots_are_deflated(self):
        # x^3 (x - 2)^2 (x^2 + 1): the zero root is a triple one
        coeffs = poly_product([[0, 1]] * 3 + [[-2, 1]] * 2 + [[1, 0, 1]])
        assert superlin.integer_roots(coeffs) == [0, 2]
        assert superlin.integer_roots([0, 0, 1]) == [0]
        assert superlin.integer_roots([5]) == []

    @pytest.mark.parametrize("root", [7, -7, 2**300 + 1, -(2**300 + 1)])
    def test_roots_at_the_constant_term_bound(self, root):
        # every nonzero integer root divides f(0): here |f(0)| = |root|
        sign = 1 if root > 0 else -1
        coeffs = poly_product([[-root, 1], [sign, 1], [3, 0, 1]])
        assert superlin.integer_roots(coeffs) == sorted([root, -sign])
        repeated = poly_product([[-root, 1]] * 2 + [[sign, 1]] * 3)
        assert superlin.integer_roots(repeated) == sorted([root, -sign])

    def test_repeated_roots_need_the_square_free_part(self):
        # no prime keeps (x - 3)^2 (x + 4)^3 square-free, so its roots are
        # lifted from the square-free part (x - 3)(x + 4)
        coeffs = poly_product([[-3, 1]] * 2 + [[4, 1]] * 3)
        assert superlin._squarefree_prime(coeffs, 50) is None
        assert superlin.integer_roots(coeffs) == [-4, 3]

    def test_numpy_candidates_that_are_eigenvalues_are_exact_candidates(self):
        np = pytest.importorskip("numpy")
        rng = random.Random("exact candidates")
        checked = 0
        for _ in range(60):
            dim = SuperDim(rng.randint(0, 4), rng.randint(0, 3))
            t = dim.total
            x = planted_even_matrix(rng, dim)
            d = math.lcm(1, *(v.denominator for v in x.flatten().values()))
            approx = np.array([[float(v) for v in row] for row in x.entries]).reshape(t, t)
            rounded = {round(z.real * d) for z in np.linalg.eigvals(approx) if round(z.imag * d) == 0}
            exact = superlin.eigenvalue_candidates(x)
            assert exact == sorted(exact) and len(set(exact)) == len(exact)
            for r in exact:
                assert is_eigenvalue(x, r)
            for k in rounded:
                r = Fraction(k, d)
                if is_eigenvalue(x, r):
                    assert r in exact
                    checked += 1
        assert checked > 60

    @pytest.mark.parametrize("repeated", [False, True], ids=["random", "two equal blocks"])
    def test_wide_entries_give_their_candidates_quickly(self, repeated):
        rng = random.Random("wide entries")
        half = [[rng.getrandbits(1000) - 2**999 for _ in range(6)] for _ in range(6)]
        if repeated:
            rows = [row + [0] * 6 for row in half] + [[0] * 6 + row for row in half]
        else:
            rows = [[rng.getrandbits(1000) - 2**999 for _ in range(12)] for _ in range(12)]
        x = SuperMatrix(SuperDim(12, 0), rows)
        start = time.perf_counter()
        candidates = superlin.eigenvalue_candidates(x)
        assert time.perf_counter() - start < 10
        assert all(is_eigenvalue(x, r) for r in candidates)

    def test_gaussian_rotation_gets_plus_and_minus_i(self):
        x = SuperMatrix(SuperDim(2, 0), [[0, -1], [1, 0]], GAUSSIAN)
        assert superlin.eigenvalue_candidates(x, GAUSSIAN) == [GaussianRational(0, -1), GaussianRational(0, 1)]

    def test_gaussian_real_candidates_are_exact_for_wide_entries(self):
        # d x has the entry 2^2000, which does not fit in a float: the real
        # candidates are exact, and no non-real candidate is named
        big = 2**1000
        x = SuperMatrix(SuperDim(2, 0), [[GaussianRational(big), 0], [0, GaussianRational(Fraction(1, big))]], GAUSSIAN)
        assert superlin.eigenvalue_candidates(x, GAUSSIAN) == [GaussianRational(Fraction(1, big)), GaussianRational(big)]

    def test_gaussian_numpy_candidates_that_are_eigenvalues_are_candidates(self):
        np = pytest.importorskip("numpy")
        rng = random.Random("gaussian candidates")
        checked = {False: 0, True: 0}  # by whether the eigenvalue is real
        for _ in range(60):
            dim = SuperDim(rng.randint(0, 4), rng.randint(0, 3))
            t = dim.total
            x = planted_gaussian_matrix(rng, dim)
            parts = [c for v in x.flatten().values() for c in (v.re, v.im)]
            d = math.lcm(1, *(c.denominator for c in parts))
            approx = np.array([[complex(float(v.re), float(v.im)) for v in row] for row in x.entries]).reshape(t, t)
            rounded = {(round(z.real * d), round(z.imag * d)) for z in np.linalg.eigvals(approx)}
            candidates = superlin.eigenvalue_candidates(x, GAUSSIAN)
            keys = [(r.re, r.im) for r in candidates]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            for r in candidates:
                if not r.im:
                    assert is_eigenvalue(x, r, GAUSSIAN)
            for re, im in rounded:
                r = GaussianRational(Fraction(re, d), Fraction(im, d))
                if is_eigenvalue(x, r, GAUSSIAN):
                    assert r in candidates
                    checked[im == 0] += 1
        assert checked[True] > 30 and checked[False] > 30


def planted_gaussian_matrix(rng, dim):
    """A seeded even matrix with Gaussian rational entries: each block is
    triangular with a few real and non-real diagonal values, conjugated by
    seeded elementary operations with Gaussian integer coefficients."""
    t = dim.total
    rows = [[GaussianRational(0)] * t for _ in range(t)]
    for block in (range(dim.p), range(dim.p, t)):
        values = [
            GaussianRational(Fraction(rng.randint(-6, 6), rng.choice([1, 2])), rng.choice([0, 0, rng.randint(-3, 3)]))
            for _ in range(2)
        ]
        for i in block:
            for j in block:
                if i < j:
                    rows[i][j] = GaussianRational(Fraction(rng.randint(-4, 4), rng.choice([1, 2])), rng.randint(-1, 1))
            rows[i][i] = rng.choice(values)
        for _ in range(3 * len(block)):
            if len(block) < 2:
                break
            i, j = rng.sample(list(block), 2)
            c = GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            for row in rows:
                row[j] = row[j] - c * row[i]
    return SuperMatrix(dim, rows, GAUSSIAN)


def planted_even_matrix(rng, dim):
    """A seeded even matrix with rational entries: each block is a triangular
    matrix with a few repeated rational diagonal values, or a random one,
    conjugated by seeded elementary operations."""
    t = dim.total
    rows = [[Fraction(0)] * t for _ in range(t)]
    for block in (range(dim.p), range(dim.p, t)):
        values = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(2)]
        planted = rng.randrange(3)
        for i in block:
            for j in block:
                if planted and i < j or not planted:
                    rows[i][j] = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            if planted:
                rows[i][i] = rng.choice(values)
        for _ in range(3 * len(block)):
            if len(block) < 2:
                break
            i, j = rng.sample(list(block), 2)
            c = rng.randint(-2, 2)
            # conjugate by E = 1 + c e_ij: rows first (E M), then columns (M E^-1)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
    return SuperMatrix(dim, [[canonical(v) for v in row] for row in rows])


def is_eigenvalue(x, r, field=RATIONAL):
    shifted = combination(x.dim, ((1, x), (-r, SuperMatrix.identity(x.dim, field))), field)
    even, odd = superlin.common_kernel([shifted], x.dim, field)
    return bool(even or odd)


# ------------------------------------------ readers of the flat form vs dense


def seeded_rows(rng, dim, field, parities):
    """Dense rows of a seeded matrix with entries in the blocks of the given
    parities, the field's zero elsewhere; sometimes one row and one column
    are zeroed out, so zero rows and zero columns occur."""
    t = dim.total
    density = rng.choice([0.3, 0.7, 1])
    rows = [
        [
            random_scalar(rng, field) if (dim.parity(a) + dim.parity(b)) % 2 in parities and rng.random() < density else field_zero(field)
            for b in range(t)
        ]
        for a in range(t)
    ]
    if t and rng.random() < 0.5:
        zero_row, zero_col = rng.randrange(t), rng.randrange(t)
        rows[zero_row] = [field_zero(field)] * t
        for row in rows:
            row[zero_col] = field_zero(field)
    return rows


def dense_apply(rows, vec, field):
    """Matrix times column vector, row by row over dense rows."""
    out = []
    for row in rows:
        acc = field_zero(field)
        for b, v in enumerate(row):
            if vec[b] and v:
                acc = acc + v * vec[b]
        out.append(acc)
    return out


def dense_supertrace(rows, dim, field):
    total = field_zero(field)
    for a in range(dim.total):
        total = total + rows[a][a] if dim.parity(a) == 0 else total - rows[a][a]
    return total


def dense_common_kernel(mats_rows, dim, field):
    """The graded kernel solved from every dense row, its zeros included."""
    parity = {a: dim.parity(a) for a in range(dim.total)}
    return linalg.solve_graded(parity, (dict(enumerate(row)) for rows in mats_rows for row in rows), field).kernels


def dense_column_span(rows):
    """The reduced basis of the span of the dense columns."""
    return linalg.span_echelon(dict(enumerate(col)) for col in zip(*rows)).basis()


def dense_split(mats, dim, field):
    """`split` with its kernel and image read from the dense rows and
    columns of (X - r)^t."""
    t = dim.total
    rng = random.Random(superlin.SPLIT_SEED)
    identity = SuperMatrix.identity(dim, field)
    for _ in range(superlin.SPLIT_DRAWS):
        x = combination(dim, [(1, m) for m in mats if rng.randrange(2)], field)
        for r in superlin.eigenvalue_candidates(x, field):
            power = combination(dim, ((1, x), (-r, identity)), field)
            for _ in range(max(t - 1, 0).bit_length()):
                power = power.matmul(power)
            rows = power.entries
            even, odd = dense_common_kernel([rows], dim, field)
            if 0 < len(even) + len(odd) < t:
                return even + odd, dense_column_span(rows)
    return None


def dense_encode_matrix(rows):
    return [scalar_str(v) for row in rows for v in row]


def dense_integer_rows(rows, field):
    """The integer matrix whose characteristic polynomial
    `eigenvalue_candidates` reads: d·M over the rationals, the real form
    [[A, -B], [B, A]] of d·M = A + iB over the Gaussian rationals."""
    if field == RATIONAL:
        d = math.lcm(1, *(v.denominator for row in rows for v in row))
        return [[int(v * d) for v in row] for row in rows]
    parts = [[(v.re, v.im) if isinstance(v, GaussianRational) else (v, 0) for v in row] for row in rows]
    d = math.lcm(1, *(c.denominator for row in parts for v in row for c in v))
    re_part = [[int(re * d) for re, _ in row] for row in parts]
    im_part = [[int(im * d) for _, im in row] for row in parts]
    return [a + [-b for b in nb] for a, nb in zip(re_part, im_part)] + [b + a for a, b in zip(re_part, im_part)]


class TestFlatReadersMatchDenseRows:
    """Every reader of a matrix's entries reads its flat nonzero entries;
    each is checked against the same computation over the dense rows the
    matrix was built from, on seeded homogeneous and mixed matrices over
    both fields, with zero rows and zero columns among them."""

    DIMS = [SuperDim(0, 0), SuperDim(1, 0), SuperDim(0, 1), SuperDim(2, 1), SuperDim(2, 2)]

    def cases(self, field, parity_sets=((0,), (1,), (0, 1)), count=6):
        rng = random.Random("flat readers %s" % field)
        for dim in self.DIMS:
            for parities in parity_sets:
                for _ in range(count):
                    rows = seeded_rows(rng, dim, field, parities)
                    yield rng, dim, rows, SuperMatrix(dim, rows, field)

    @pytest.mark.parametrize("field", FIELDS)
    def test_entries_apply_supertrace_and_encoding(self, field):
        for rng, dim, rows, m in self.cases(field):
            t = dim.total
            assert m.entries == rows
            vec = [rng.choice([field_zero(field), random_scalar(rng, field)]) for _ in range(t)]
            assert m.apply(vec) == dense_apply(rows, vec, field)
            assert supertrace(m) == dense_supertrace(rows, dim, field)
            assert encode_matrix(m) == dense_encode_matrix(rows)
            assert superlin.sparse_lines(m) == [{b: v for b, v in enumerate(row) if v} for row in rows]
            assert superlin.sparse_lines(m, rows=False) == [{a: v for a, v in enumerate(col) if v} for col in zip(*rows)]
            assert linalg.span_echelon(superlin.sparse_lines(m, rows=False)).basis() == dense_column_span(rows)

    @pytest.mark.parametrize("field", FIELDS)
    def test_apply_refuses_a_vector_of_the_wrong_length(self, field):
        for _, dim, _, m in self.cases(field):
            t = dim.total
            for length in {abs(t - 1), t + 1}:
                with pytest.raises(ValueError, match="vector must have %d entries" % t):
                    m.apply([field_zero(field)] * length)

    @pytest.mark.parametrize("field", FIELDS)
    def test_common_kernel(self, field):
        cases = list(self.cases(field, ((0,), (1,))))
        # each dim has an even number of cases, so each pair shares its dim
        for (_, dim, rows, m), (_, _, rows2, m2) in zip(cases[::2], cases[1::2]):
            assert superlin.common_kernel([m, m2], dim, field) == dense_common_kernel([rows, rows2], dim, field)

    @pytest.mark.parametrize("field", FIELDS)
    def test_split(self, field):
        rng = random.Random("flat split %s" % field)
        splits = 0
        for dim in self.DIMS:
            for _ in range(4):
                mats = [SuperMatrix(dim, seeded_rows(rng, dim, field, (0,)), field) for _ in range(2)]
                if dim.p and dim.q and field == RATIONAL:
                    mats.append(planted_even_matrix(rng, dim))
                got = split(mats, dim, field)
                assert got == dense_split(mats, dim, field)
                splits += got is not None
        assert splits

    @pytest.mark.parametrize("field", FIELDS)
    def test_eigenvalue_candidates_read_the_dense_integer_rows(self, field, monkeypatch):
        seen = []
        char_poly = superlin.char_poly
        monkeypatch.setattr(superlin, "char_poly", lambda rows: seen.append(rows) or char_poly(rows))
        for _, _, rows, m in self.cases(field):
            seen.clear()
            superlin.eigenvalue_candidates(m, field)
            assert seen == [dense_integer_rows(rows, field)]
