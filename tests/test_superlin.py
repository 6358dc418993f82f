import itertools
import random
from fractions import Fraction

import pytest

from superhol import linalg
from superhol.scalars import GAUSSIAN, GaussianRational
from superhol.superlin import (
    StructureTensor,
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    classical_superalgebra,
    cut_by_functionals,
    full_gl,
    generate_subalgebra,
    intersect_algebras,
    stabilizer_algebra,
    standard_even_form,
    standard_odd_complex_structure,
    standard_odd_form,
    superbracket,
    supertrace,
)

from conftest import random_homogeneous_matrix


class TestSupertrace:
    def test_identity_1_1(self):
        assert supertrace(SuperMatrix.identity(SuperDim(1, 1))) == 0

    def test_identity_2_1(self):
        assert supertrace(SuperMatrix.identity(SuperDim(2, 1))) == 1

    def test_odd_block(self):
        m = SuperMatrix.zeros(SuperDim(0, 1))
        m.entries[0][0] = Fraction(-2)
        assert supertrace(m) == 2


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
        calls = []
        positional = linalg.kernel_basis

        def spy(*args):
            calls.append(args)
            return positional(*args)

        monkeypatch.setattr(linalg, "kernel_basis", spy)
        one, i = GaussianRational(1), GaussianRational(0, 1)
        rows = [
            {"a": one, "b": i, "held": one},  # a + i b = 0, "held" is not a column
            {"c": one - one, "held": one},  # nothing left once zeros are dropped
        ]
        ker = linalg.solve_kernel(["a", "b", "c"], rows, GAUSSIAN)
        assert ker == [{"b": one, "a": -i}, {"c": one}]
        assert all(type(v) is GaussianRational for vec in ker for v in vec.values())
        assert calls == [([{0: one, 1: i}], 3)]


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

    def test_membership_and_equality(self):
        gl11 = classical_superalgebra("gl", (1, 1))
        assert gl11.contains_matrix(SuperMatrix.identity(SuperDim(1, 1)))
        zero = SubSuperalgebra.zero(SuperDim(1, 1))
        assert not zero.contains_matrix(SuperMatrix.unit(SuperDim(1, 1), 0, 1))
        assert zero != gl11

    def test_su_style_cut_by_supertrace(self):
        sl = cut_by_functionals(full_gl(SuperDim(2, 1)), [supertrace])
        assert sl == classical_superalgebra("sl", (2, 1))

    def test_intersection(self):
        a = classical_superalgebra("osp", (2, 2))
        b = classical_superalgebra("sl", (2, 2))
        both = intersect_algebras(a, b)
        assert all(b.contains_matrix(m) for m in both.basis())
        assert all(a.contains_matrix(m) for m in both.basis())


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

    def test_serialization_round_trip(self):
        alg = classical_superalgebra("osp", (1, 2))
        from superhol.reportio import decode_algebra, encode_algebra

        doc = encode_algebra(alg)
        assert doc["dim"] == {"p": 1, "q": 2}
        assert len(doc["even"]) == 3 and len(doc["odd"]) == 2
        back = decode_algebra(doc)
        assert back == alg
