import itertools
import os
import random
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest

from superhol.superlin import (
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    _product_into,
    associative_closure,
    classical_superalgebra,
    generate_subalgebra,
    sorted_cyclic_terms,
    superbracket,
)
from superhol.berger import (
    CurvatureElement,
    ProlongationLevel,
    berger_check,
    canonical_pairs,
    cartan_prolongation,
    check_curvature_element,
    curvature_derivative_space,
    curvature_space,
    pi_adjoint_test,
    spencer_rank_identity,
)
from superhol import berger, cli, linalg
from superhol.linalg import SparseEchelon, combine, kernel_basis, same_span
from superhol.scalars import GAUSSIAN, RATIONAL, GaussianRational, to_field

from conftest import flat_curvature, flat_curvature_space, random_homogeneous_matrix

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from checks import classical_forms  # noqa: E402
from workloads import BERGER_ALGEBRAS, BERGER_PI_ADJOINT, BERGER_PROLONGATIONS  # noqa: E402


class TestCurvatureSpace:
    def test_line_has_no_two_forms(self):
        assert curvature_space(classical_superalgebra("gl", (1, 0))).total_dim == 0

    def test_odd_line_bianchi_kills_everything(self):
        # brute-force oracle on the single unknown: the cyclic sum forces
        # 3 R(xi,xi)xi = 0, so the one candidate matrix must act as zero
        assert curvature_space(classical_superalgebra("gl", (0, 1))).total_dim == 0

    def test_gl11_standard(self):
        alg = classical_superalgebra("gl", (1, 1))
        rspace = curvature_space(alg)
        assert rspace.total_dim > 0
        bc = berger_check(alg, rspace)
        assert bc["is_berger"] and bc["L"] == alg

    def test_solutions_resatisfy_constraints(self):
        for name, params in (("gl", (1, 1)), ("osp", (2, 2)), ("q", 2)):
            alg = classical_superalgebra(name, params)
            for elem in curvature_space(alg).basis:
                assert check_curvature_element(alg, elem)


def act_on_curvature(a_mat, elem):
    """The module action A . R on curvature tensors, as a reference for the
    g-invariance of the curvature space."""
    dim = elem.dim
    t = dim.total
    tau = a_mat.parity
    rho = elem.parity
    entries = {}
    for (a, b) in canonical_pairs(dim):
        rv = elem.value(a, b)
        # [A, R(a, b)], or the commutator when R(a, b) is mixed
        bracket = {}
        _product_into(bracket, a_mat, rv, 1)
        _product_into(bracket, rv, a_mat, -((-1) ** (tau * (rv.parity or 0))))
        terms = [(1, bracket)]
        for c in range(t):
            coef = a_mat.entries[c][a]
            if coef:
                terms.append((-((-1) ** (tau * rho)) * coef, elem.value(c, b).flatten()))
            coef = a_mat.entries[c][b]
            if coef:
                terms.append((-((-1) ** (tau * (rho + dim.parity(a)))) * coef, elem.value(a, c).flatten()))
        for pos, v in combine(terms).items():
            entries[((a, b), pos)] = v
    return CurvatureElement(dim, (tau + rho) % 2, entries, elem.field)


class TestActOnCurvature:
    def test_identity_acts_as_minus_two(self):
        alg = classical_superalgebra("gl", (1, 1))
        rspace = curvature_space(alg)
        ident = SuperMatrix.identity(SuperDim(1, 1))
        for elem in rspace.basis:
            moved = act_on_curvature(ident, elem)
            for pair in canonical_pairs(elem.dim):
                assert moved.value(*pair) == elem.value(*pair).scale(-2)

    def test_zero_tensor_fixed(self):
        alg = classical_superalgebra("gl", (1, 1))
        zero = CurvatureElement(alg.dim, 0, {}, alg.field)
        ident = SuperMatrix.identity(alg.dim)
        assert act_on_curvature(ident, zero).is_zero()

    def test_action_preserves_the_space(self):
        rng = random.Random(41)
        for name, params in (("gl", (1, 1)), ("osp", (2, 2))):
            alg = classical_superalgebra(name, params)
            rspace = curvature_space(alg)
            for _ in range(6):
                a = alg.basis()[rng.randrange(alg.total_dim)]
                elem = rspace.basis[rng.randrange(rspace.total_dim)]
                assert check_curvature_element(alg, act_on_curvature(a, elem))


class TestBergerCheck:
    def test_gl01_not_berger(self):
        res = berger_check(classical_superalgebra("gl", (0, 1)))
        assert not res["is_berger"] and res["L"].total_dim == 0

    def test_gl11_berger(self):
        assert berger_check(classical_superalgebra("gl", (1, 1)))["is_berger"]

    def test_osp22_berger(self):
        assert berger_check(classical_superalgebra("osp", (2, 2)))["is_berger"]

    def test_l_is_an_ideal(self):
        for name, params in (("gl", (1, 1)), ("osp", (2, 2)), ("spe", 3)):
            alg = classical_superalgebra(name, params)
            res = berger_check(alg)
            assert res["ideal_ok"]

    def test_classical_so_degeneration(self):
        # purely even rows reproduce classical Berger facts
        so3 = classical_superalgebra("osp", (3, 0))
        assert berger_check(so3)["is_berger"]
        so2 = classical_superalgebra("osp", (2, 0))
        res = berger_check(so2)
        assert res["L"] == so2  # L = so(2), so so(2) is (trivially) Berger
        rspace = curvature_space(so2)
        assert rspace.graded_dim == (1, 0)


class TestDerivativeSpace:
    def test_zero_algebra(self):
        zero = SubSuperalgebra.zero(SuperDim(2, 0))
        assert curvature_derivative_space(zero).total_dim == 0

    def test_so2_is_not_symmetric(self):
        # surfaces with so(2) holonomy generally have non-parallel curvature;
        # the solver confirms the derivative space is the full V* tensor R
        so2 = classical_superalgebra("osp", (2, 0))
        deriv = curvature_derivative_space(so2)
        assert deriv.graded_dim == (2, 0)
        assert not cli.algebra_report(so2)["is_symmetric_berger"]

    def test_gl11_derivative_space_nonzero(self):
        assert curvature_derivative_space(classical_superalgebra("gl", (1, 1))).total_dim > 0


def naive_prolongation_dims(dim: SuperDim, g0: SubSuperalgebra, order: int):
    """Independent enumerator, the recursive formulation: level k+1 is solved
    over (direction, level-k element) coefficients, with explicit graded
    symmetry rows in the first two directions.  Returns the total dims of
    levels 1..order and each level's elements as flat multimaps
    {(d_1, ..., d_k, A, B): value}."""
    t = dim.total
    level_elems = []  # list of dicts {(dirs..., A, B): value}
    for m in g0.basis():
        flat = {}
        for a in range(t):
            for b in range(t):
                if m.entries[a][b]:
                    flat[(a, b)] = m.entries[a][b]
        level_elems.append(flat)
    dims = []
    levels = []
    for k in range(order):
        # unknowns: coefficients over (direction, previous element)
        prev = level_elems
        cols = [(d, i) for d in range(t) for i in range(len(prev))]
        col_of = {c: j for j, c in enumerate(cols)}
        rows_map = {}
        for x in range(t):
            for y in range(t):
                sign = (-1) ** (dim.parity(x) * dim.parity(y))
                for i, elem in enumerate(prev):
                    for key, v in elem.items():
                        if k == 0:
                            if key[1] != y:
                                continue
                            tail = (key[0],)
                        else:
                            if key[0] != y:
                                continue
                            tail = key[1:]
                        row = rows_map.setdefault((x, y) + tail, {})
                        j = col_of[(x, i)]
                        row[j] = row.get(j, 0) + v
                for i, elem in enumerate(prev):
                    for key, v in elem.items():
                        if k == 0:
                            if key[1] != x:
                                continue
                            tail = (key[0],)
                        else:
                            if key[0] != x:
                                continue
                            tail = key[1:]
                        row = rows_map.setdefault((x, y) + tail, {})
                        j = col_of[(y, i)]
                        row[j] = row.get(j, 0) - sign * v
        rows = [r for r in (dict((c, v) for c, v in row.items() if v) for row in rows_map.values()) if r]
        combos = kernel_basis(rows, len(cols))
        new_elems = []
        for combo in combos:
            flat = {}
            for j, coef in combo.items():
                d, i = cols[j]
                for key, v in prev[i].items():
                    full = (d,) + key
                    w = flat.get(full)
                    w = coef * v if w is None else w + coef * v
                    if w:
                        flat[full] = w
                    else:
                        flat.pop(full, None)
            new_elems.append(flat)
        dims.append(len(new_elems))
        levels.append(new_elems)
        level_elems = new_elems
    return dims, levels


def random_subalgebra(rng, dim, field):
    """The subalgebra that one or two seeded homogeneous matrices generate."""
    gens = []
    for _ in range(rng.randint(1, 2)):
        p = rng.randint(0, 1)
        m = random_homogeneous_matrix(rng, dim, p, -1, 1)
        if field == GAUSSIAN:
            im = random_homogeneous_matrix(rng, dim, p, -1, 1)
            entries = [[GaussianRational(a, b) for a, b in zip(re, ri)] for re, ri in zip(m.entries, im.entries)]
            m = SuperMatrix(dim, entries, GAUSSIAN)
        gens.append(m)
    return generate_subalgebra(gens, dim, field)


class TestProlongations:
    def test_gl11_first_prolongation(self):
        tower = cartan_prolongation(classical_superalgebra("gl", (1, 1)), 1)
        assert tower.levels[0].graded_dim == (2, 2)

    def test_cosp22_profile(self):
        tower = cartan_prolongation(classical_superalgebra("cosp", (2, 2)), 2)
        assert tower.graded_dims() == [(2, 2), (0, 0)]

    def test_osp22_rigid(self):
        tower = cartan_prolongation(classical_superalgebra("osp", (2, 2)), 1)
        assert tower.levels[0].graded_dim == (0, 0)

    @pytest.mark.parametrize(
        "name,params,dim",
        [("gl", (1, 1), SuperDim(1, 1)), ("cosp", (2, 2), SuperDim(2, 2)), ("osp", (2, 2), SuperDim(2, 2))],
    )
    def test_naive_enumerator_agrees(self, name, params, dim):
        g0 = classical_superalgebra(name, params)
        assert_matches_naive(dim, g0, 2)

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_naive_enumerator_agrees_on_seeded_subalgebras(self, field):
        rng = random.Random("prolongation %s" % field)
        profiles = set()
        for dim in (SuperDim(1, 1), SuperDim(2, 1), SuperDim(1, 2), SuperDim(1, 3)):
            for _ in range(6):
                g0 = random_subalgebra(rng, dim, field)
                profiles.add(tuple(assert_matches_naive(dim, g0, 3)))
        # levels that are zero, nonzero and growing all occur
        assert len(profiles) > 5 and any(p[0] == 0 for p in profiles) and any(p[2] > 0 for p in profiles)

    @pytest.mark.parametrize("name", ("gl", "sl"))
    @pytest.mark.parametrize("p, q", [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2)])
    def test_closed_form_dims(self, name, p, q):
        # g_k(gl(p|q)) = S^(k+1) V* (x) V, and sl loses one S^k V*; p = 0 is
        # left out: for sl(0|3) at order 3 the closed form reads 0|-1
        g_k = classical_forms(name, p, q)["g"]
        tower = cartan_prolongation(classical_superalgebra(name, (p, q)), 5)
        assert tower.graded_dims() == [g_k(k) for k in range(1, 6)]

    @pytest.mark.parametrize("name, params, solved", [("gl", (1, 1), 3), ("osp", (2, 2), 1)], ids=str)
    def test_one_system_per_level_and_none_after_a_zero_level(self, monkeypatch, name, params, solved):
        # the annihilator, then one solve_graded per level: each level up to
        # the first zero one has unknowns, and each level after it has no
        # unknowns and is given no rows
        systems = []
        solve = linalg.solve_graded

        def spy(parity, rows, field):
            rows = list(rows)
            systems.append((len(parity), len(rows)))
            return solve(parity, rows, field)

        g0 = classical_superalgebra(name, params)
        monkeypatch.setattr(berger, "solve_graded", spy)
        tower = cartan_prolongation(g0, 3)
        assert len(systems) == 4
        levels = systems[1:]
        assert all(unknowns for unknowns, _ in levels[:solved]) and levels[solved:] == [(0, 0)] * (3 - solved)
        dims = [level.total_dim for level in tower.levels]
        assert all(dims[: solved - 1]) and (solved == 3 or dims[solved - 1] == 0)

    def test_prolongation_embeds_via_symmetry(self):
        # every level-1 element must satisfy the graded symmetry exactly
        g0 = classical_superalgebra("cosp", (2, 2))
        dim = SuperDim(2, 2)
        tower = cartan_prolongation(g0, 1)
        t = dim.total
        for elem in tower.levels[0].multimaps():
            # keys are (direction, A, B); phi(x) e_y is the column B = y
            for x in range(t):
                for y in range(t):
                    sign = (-1) ** (dim.parity(x) * dim.parity(y))
                    lvec = {k[1]: v for k, v in elem.items() if k[0] == x and k[2] == y}
                    rvec = {k[1]: v for k, v in elem.items() if k[0] == y and k[2] == x}
                    for key in set(lvec) | set(rvec):
                        assert lvec.get(key, 0) == sign * rvec.get(key, 0)


def assert_matches_naive(dim, g0, order):
    """Each level spans the same flat multimaps as the recursive enumerator;
    returns the level dims."""
    tower = cartan_prolongation(g0, order)
    dims, levels = naive_prolongation_dims(dim, g0, order)
    assert [lvl.total_dim for lvl in tower.levels] == dims
    for lvl, naive in zip(tower.levels, levels):
        assert same_span(lvl.multimaps(), naive)
    return dims


def symmetric_tuples(dim, r):
    """Sorted r-tuples of basis indices in which no odd index repeats."""
    return [
        s
        for s in itertools.combinations_with_replacement(range(dim.total), r)
        if not any(a == b >= dim.p for a, b in zip(s, s[1:]))
    ]


def eager_prolongation(dim, g0, order):
    """The unpruned, eager solve that `cartan_prolongation` replaced: every
    level over all its unknowns, with the rows of one Koszul sort per term,
    each level's basis built at once.  Returns (tensors, parities) per level."""
    t, field = dim.total, g0.field
    cols = {(a, b): (dim.parity(a) + dim.parity(b)) % 2 for a in range(t) for b in range(t)}
    rows = ({(a, b): m.entries[a][b] for (a, b) in cols} for m in g0.basis())
    annihilator = [phi for kernel in linalg.solve_graded(cols, rows, field).kernels for phi in kernel]
    levels = []
    for k in range(1, order + 1):
        parity = {
            (s, a): (sum(map(dim.parity, s)) + dim.parity(a)) % 2
            for s in symmetric_tuples(dim, k + 1)
            for a in range(t)
        }
        kernels = linalg.solve_graded(parity, reference_prolongation_rows(dim, annihilator, k), field).kernels
        levels.append(([*kernels[0], *kernels[1]], [sigma for sigma, ker in enumerate(kernels) for _ in ker]))
    return levels


def mask_support(keys):
    """{S: bitmask of the A} of a set of keys (S, A)."""
    out = {}
    for s, a in keys:
        out[s] = out.get(s, 0) | 1 << a
    return out


def unknown_count(level):
    return sum(len(labels) for labels, _ in level.solution.blocks)


class TestPrunedLazyLevels:
    @staticmethod
    def assert_matches_eager(dim, g0, order):
        """The pruned, lazy levels give the eager solve's canonical bases;
        returns how many nonzero levels were solved over fewer unknowns."""
        tower = cartan_prolongation(g0, order)
        pruned = 0
        for level, (tensors, parities) in zip(tower.levels, eager_prolongation(dim, g0, order)):
            assert "basis" not in vars(level)  # nothing built before it is read
            assert "kernels" not in vars(level.solution)
            assert level.graded_dim == (parities.count(0), parities.count(1))
            assert level.basis == tensors and level.parities == parities
            assert berger._level_support(level.solution) == mask_support({key for tensor in tensors for key in tensor})
            unknowns = len(symmetric_tuples(dim, level.k + 1)) * dim.total
            pruned += bool(level.total_dim and unknown_count(level) < unknowns)
        return pruned

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_seeded_subalgebras(self, field):
        rng = random.Random("pruned %s" % field)
        pruned = 0
        for dim in (SuperDim(1, 1), SuperDim(2, 1), SuperDim(1, 2), SuperDim(2, 2)):
            for _ in range(6):
                pruned += self.assert_matches_eager(dim, random_subalgebra(rng, dim, field), 3)
        # some nonzero levels were solved over a pruned set of unknowns
        assert pruned >= 3

    @pytest.mark.parametrize("name, params", BERGER_PI_ADJOINT, ids=str)
    def test_pi_adjoint_representations(self, name, params):
        vdim, rep_alg, _, _ = berger.pi_adjoint_representation(classical_superalgebra(name, params))
        tower = cartan_prolongation(rep_alg, 2)
        self.assert_matches_eager(vdim, rep_alg, 2)
        # level 2 is solved over a handful of the unknowns of S^3 V* (x) V
        assert unknown_count(tower.levels[1]) <= 4

    @pytest.mark.parametrize("p, q", [(2, 2), (3, 1), (0, 3)])
    def test_gl_writes_no_rows(self, p, q, monkeypatch):
        # gl(V) has an empty annihilator: every level is all of its unknowns,
        # solved from no row and with no Koszul insertion
        dim = SuperDim(p, q)
        gl = classical_superalgebra("gl", (p, q))
        eager = eager_prolongation(dim, gl, 3)
        monkeypatch.setattr(berger, "_insertion", lambda *args: pytest.fail("_insertion was called"))
        tower = cartan_prolongation(gl, 3)
        for level, (tensors, parities) in zip(tower.levels, eager):
            assert all(ech.rank == 0 for _, ech in level.solution.blocks)
            assert unknown_count(level) == len(symmetric_tuples(dim, level.k + 1)) * dim.total
            assert level.basis == tensors and level.parities == parities

    @pytest.mark.parametrize("p, q", [(2, 2), (3, 1), (1, 3), (0, 3), (4, 2)])
    def test_insertion_sign_is_the_koszul_sign(self, p, q):
        dim = SuperDim(p, q)
        for k in range(4):
            for i in symmetric_tuples(dim, k):
                for b in range(dim.total):
                    assert berger._insertion(p, i, b) == berger._koszul_sort(dim, i + (b,)), (i, b)

    def test_prolongation_reports_build_no_basis(self, monkeypatch):
        kernels = []
        kernel = SparseEchelon.kernel

        def spy(self, ncols):
            kernels.append(ncols)
            return kernel(self, ncols)

        alg = classical_superalgebra("sl", (2, 1))
        monkeypatch.setattr(SparseEchelon, "kernel", spy)
        report = cli.prolongation_report(alg, {"order": 3})
        assert [level["dim"] for level in report["levels"]] == [[6, 6], [8, 8], [10, 10]]
        # the annihilator's two blocks over the 3 x 3 entries are the one basis built
        assert sorted(kernels) == [4, 5]

    def test_algebra_reports_build_no_derivative_basis(self, monkeypatch):
        built = []
        kernel = SparseEchelon.kernel

        def spy(self, ncols):
            built.append(self)
            return kernel(self, ncols)

        spaces = []
        derivatives = berger.curvature_derivative_space
        monkeypatch.setattr(SparseEchelon, "kernel", spy)
        monkeypatch.setattr(berger, "curvature_derivative_space", lambda *args: spaces.append(derivatives(*args)) or spaces[-1])
        report = cli.algebra_report(classical_superalgebra("sl", (2, 1)))
        assert report["dims"]["R"] == [10, 10] and report["dims"]["Rnabla"] == [20, 20]
        # the derivative space is read by its dims: no kernel vector of it is built
        (space,) = spaces
        assert "basis" not in vars(space) and "kernels" not in vars(space.solution)
        assert built and not any(ech is other for ech in built for _, other in space.solution.blocks)


    def test_pi_adjoint_test_builds_only_the_levels_it_reads(self, monkeypatch):
        towers = []
        prolong = berger.cartan_prolongation
        monkeypatch.setattr(berger, "cartan_prolongation", lambda *args: towers.append(prolong(*args)) or towers[-1])
        res = pi_adjoint_test(classical_superalgebra("sl", (2, 0)))
        assert res["g1_dim"] == (0, 1) and res["g2_dim"] == (0, 0) and res["generator_matches"]
        # g1 is one element, matched against the generator; g2 is read by its dims
        (tower,) = towers
        assert "basis" in vars(tower.levels[0]) and "basis" not in vars(tower.levels[1])

class TestSpencer:
    def test_gl_rows_have_zero_h22(self):
        for params in ((1, 1), (2, 1)):
            rep = spencer_rank_identity(classical_superalgebra("gl", params))
            assert rep["exactness_ok"] and rep["h22_total"] == 0

    def test_sl02_h22(self):
        rep = spencer_rank_identity(classical_superalgebra("sl", (0, 2)))
        assert rep["h22_total"] == 1
        assert rep["h22_raw"] == (1, 0)
        assert rep["h22_pi_twisted"] == (0, 1)

    def test_cpe2_kernel_spans_a_nonzero_g2(self):
        # cpe(2) is cut out of gl(2|2) by functionals of both parities, and its
        # g_2 is nonzero, so the kernel is checked against g_2 itself
        rep = spencer_rank_identity(classical_superalgebra("cpe", 2))
        assert rep["exactness_ok"]
        assert (rep["g1_dim"], rep["g2_dim"]) == ((2, 2), (0, 1))
        assert rep["h22_raw"] == (4, 5)

    def test_rigid_algebra_h22_equals_r(self):
        # when g_1 = 0 the derived quantity equals dim R(g)
        alg = classical_superalgebra("osp", (2, 2))
        rep = spencer_rank_identity(alg)
        assert rep["g1_dim"] == (0, 0)
        rs = curvature_space(alg)
        assert rep["h22_total"] == rs.total_dim


def berger_rows(field):
    """The algebra of every `BERGER_ALGEBRAS` row of the benchmark."""
    for name, params in BERGER_ALGEBRAS:
        yield classical_superalgebra(name, tuple(params) if len(params) == 2 else params[0], field)


class TestSpencerImageMembership:
    """`spencer_rank_identity` tests each image delta(e_d* (x) alpha_j) with
    `check_curvature_element`; the reference is membership in the echelon of
    the flattened basis of R(g)."""

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_image_test_matches_the_flattened_echelon(self, field, monkeypatch):
        checked = []
        check = berger.check_curvature_element
        monkeypatch.setattr(berger, "check_curvature_element", lambda alg, elem: checked.append(elem) or check(alg, elem))
        rng = random.Random("spencer images %s" % field)
        images = rejected = 0
        for alg in [*table_algebras(field), *berger_rows(field)]:
            checked.clear()
            rep = spencer_rank_identity(alg)
            assert rep["exactness_ok"]
            t = alg.dim.total
            assert len(checked) == t * sum(rep["g1_dim"])
            if not checked:
                continue
            reference = flat_curvature_space(curvature_space(alg))
            # an entry (a, b) of R(u, v) with b outside {u, v} enters the
            # cyclic sum of the triple u, v, b at row a alone
            places = [(pair, b) for pair in canonical_pairs(alg.dim) for b in range(t) if b not in pair]
            for elem in checked:
                assert check(alg, elem) and reference.contains(flat_curvature(elem))
                images += 1
                if places:
                    (pair, b), a = rng.choice(places), rng.randrange(t)
                    changed = TestSparseCurvatureCheck.perturbed(elem, {(pair, a * t + b): rng.choice([1, -1, 2])})
                    assert not check(alg, changed) and not reference.contains(flat_curvature(changed))
                    rejected += 1
        assert images > 1500 and rejected > 1500, (images, rejected)


class TestPiAdjoint:
    def test_sl2(self):
        res = pi_adjoint_test(classical_superalgebra("sl", (2, 0)))
        assert res["g1_dim"] == (0, 1)
        assert res["g2_dim"] == (0, 0)
        assert res["generator_matches"]
        assert res["is_berger"]

    def test_sl12(self):
        res = pi_adjoint_test(classical_superalgebra("sl", (1, 2)))
        assert res["g1_dim"] == (0, 1)
        assert res["g2_dim"] == (0, 0)
        assert res["generator_matches"]
        assert res["is_berger"]

    def test_gl11_rejected(self):
        with pytest.raises(ValueError):
            pi_adjoint_test(classical_superalgebra("gl", (1, 1)))

    @pytest.mark.parametrize(
        "name, params", [("sl", (2, 0)), ("sl", (1, 2)), ("osp", (1, 2)), ("osp", (3, 2)), ("sl", (3, 1))], ids=str
    )
    def test_burnside_certifies_simplicity(self, name, params):
        res = simplicity(classical_superalgebra(name, params))
        assert res["simple"] and res["status"] == "certified"

    @pytest.mark.parametrize(
        "name, params", [("gl", (1, 1)), ("spe", 2), ("pe", 2), ("q", 2), ("sl", (2, 2)), ("gl", (2, 1))], ids=str
    )
    def test_center_and_derived_checks_reject(self, name, params):
        assert not simplicity(classical_superalgebra(name, params))["simple"]

    def test_zero_algebra_is_not_simple(self):
        assert not simplicity(SubSuperalgebra.zero(SuperDim(1, 1)))["simple"]

    def test_sl2_plus_sl2_splits_off_an_ideal(self):
        # only the commutant of ad finds a factor
        alg = explicit_algebra(*SL2_PAIR)
        res = simplicity(alg)
        assert not res["simple"] and res["status"] == "certified"
        assert_proper_ideal(alg, res["ideal"], (3, 0))

    def test_radical_moves_onto_an_ideal(self):
        # ad is not semisimple
        alg = explicit_algebra(*SL2_ON_PLANE)
        res = simplicity(alg)
        assert not res["simple"] and "radical" in res["note"]
        assert_proper_ideal(alg, res["ideal"], (2, 0))

    def test_pi_adjoint_status_follows_the_certificate(self):
        assert pi_adjoint_test(classical_superalgebra("sl", (2, 1)))["simplicity_status"] == "certified"


# the simple sl(p|q), p != q, and osp(m|2n) with p + q and m + 2n at most 4,
# and the bench's Pi-adjoint rows
SIMPLE_ALGEBRAS = sorted(
    {("sl", (p, q)) for p, q in ((2, 0), (0, 2), (3, 0), (0, 3), (2, 1), (1, 2), (4, 0), (0, 4), (3, 1), (1, 3))}
    | {("osp", mn) for mn in ((3, 0), (0, 2), (1, 2), (2, 2), (0, 4))}
    | {(name, tuple(params)) for name, params in BERGER_PI_ADJOINT}
)


def simplicity(alg):
    """The simplicity verdict that `pi_adjoint_test` reads, from ad(g) on Pi g."""
    return berger._simplicity_of(alg, berger.pi_adjoint_representation(alg))


def reference_is_berger(alg):
    """`is_berger` from the whole curvature space of ad(g) on Pi g."""
    return berger_check(berger.pi_adjoint_representation(alg)[1])["is_berger"]


def delta_value(dim, d, alpha, x, y):
    """R(x, y) = delta_xd alpha(e_y) - (-1)^{|x||y|} delta_yd alpha(e_x) as a
    dense matrix, from the flat multimap alpha."""
    t = dim.total
    out = [[0] * t for _ in range(t)]
    for (e, a, b), v in alpha.items():
        if x == d and e == y:
            out[a][b] += v
        if y == d and e == x:
            out[a][b] -= (-1) ** (dim.parity(x) * dim.parity(y)) * v
    return out


def pi_adjoint_g1(name, params):
    """(V dim, ad(g) on Pi g, the parity and flat multimap of the first g^(1)
    element) of a simple algebra."""
    vdim, rep_alg, _, _ = berger.pi_adjoint_representation(classical_superalgebra(name, params))
    g1 = cartan_prolongation(rep_alg, 1).levels[0]
    return vdim, rep_alg, g1.parities[0], g1.multimaps()[0]


class TestBergerFromOneTensor:
    @pytest.mark.parametrize("name, params", SIMPLE_ALGEBRAS, ids=str)
    def test_is_berger_matches_the_full_solve(self, name, params):
        alg = classical_superalgebra(name, params)
        assert simplicity(alg)["simple"]
        assert pi_adjoint_test(alg)["is_berger"] == reference_is_berger(alg)

    @pytest.mark.parametrize("name, params", BERGER_PI_ADJOINT, ids=str)
    def test_certified_rows_solve_no_curvature_space(self, name, params, monkeypatch):
        checked = []
        check = berger.check_curvature_element
        monkeypatch.setattr(berger, "check_curvature_element", lambda *args: checked.append(args[1]) or check(*args))
        for spied in ("curvature_space", "berger_check"):
            monkeypatch.setattr(berger, spied, lambda *args, name=spied: pytest.fail("%s was called" % name))
        res = pi_adjoint_test(classical_superalgebra(name, params))
        assert res["simplicity_status"] == "certified" and res["is_berger"]
        # the one tensor checked is nonzero
        (witness,) = checked
        assert not witness.is_zero()

    @staticmethod
    def spy_berger_check(monkeypatch):
        calls = []
        full = berger.berger_check
        monkeypatch.setattr(berger, "berger_check", lambda *args: calls.append(args) or full(*args))
        return calls

    def test_heuristic_status_runs_the_full_solve(self, monkeypatch):
        calls = self.spy_berger_check(monkeypatch)
        simplicity = berger._simplicity_of
        monkeypatch.setattr(berger, "_simplicity_of", lambda *args: dict(simplicity(*args), status="heuristic"))
        res = pi_adjoint_test(classical_superalgebra("sl", (2, 1)))
        assert res["simplicity_status"] == "heuristic" and res["is_berger"]
        assert len(calls) == 1

    def test_zero_g1_runs_the_full_solve(self, monkeypatch):
        calls = self.spy_berger_check(monkeypatch)
        monkeypatch.setattr(berger.ProlongationLevel, "multimaps", lambda self: [])
        monkeypatch.setattr(berger.ProlongationLevel, "total_dim", property(lambda self: 0))
        assert pi_adjoint_test(classical_superalgebra("sl", (2, 1)))["is_berger"]
        assert len(calls) == 1

    @pytest.mark.parametrize("name, params", [("sl", (2, 1)), ("osp", (1, 2)), ("sl", (3, 0))], ids=str)
    def test_spencer_delta_is_the_coboundary(self, name, params):
        vdim, rep_alg, sigma, alpha = pi_adjoint_g1(name, params)
        t = vdim.total
        rspace = flat_curvature_space(curvature_space(rep_alg))
        for d in range(t):
            elem = CurvatureElement(vdim, (vdim.parity(d) + sigma) % 2, berger.spencer_delta(vdim, d, alpha), rep_alg.field)
            for x in range(t):
                for y in range(t):
                    assert elem.value(x, y).entries == delta_value(vdim, d, alpha, x, y)
            assert rspace.contains(flat_curvature(elem))
            assert check_curvature_element(rep_alg, elem)

    @pytest.mark.parametrize("name, params", BERGER_PI_ADJOINT, ids=str)
    def test_witness_is_a_nonzero_curvature_tensor(self, name, params):
        vdim, rep_alg, sigma, alpha = pi_adjoint_g1(name, params)
        witness = berger._berger_witness(vdim, sigma, alpha, rep_alg.field)
        y = min(e for e, _, _ in alpha)
        d = 1 if y == 0 else 0
        assert witness.value(d, y).entries == delta_value(vdim, d, alpha, d, y)
        assert not witness.value(d, y).is_zero()
        assert check_curvature_element(rep_alg, witness)


def values_in(algebra, elem):
    """Whether every value of the tensor lies in the algebra."""
    return all(algebra.contains_matrix(elem.value(*pair)) for pair in canonical_pairs(elem.dim))


def dense_check_curvature_element(algebra, elem):
    """`check_curvature_element` as it was: one dense matrix per term."""
    dim = algebra.dim
    t = dim.total
    if not values_in(algebra, elem):
        return False
    for terms in sorted_cyclic_terms(dim.parity, t):
        for comp in range(t):
            acc = 0
            for (u, v, w), s in terms:
                acc = acc + s * elem.value(u, v).entries[comp][w]
            if acc:
                return False
    return True


def full_walk_check_curvature_element(algebra, elem):
    """`check_curvature_element` as it was before it read only the triples
    that can be nonzero: the sparse sums of every sorted triple."""
    dim = algebra.dim
    t = dim.total
    if not values_in(algebra, elem):
        return False
    by_pair_col = {}
    for (pair, pos), val in elem.entries.items():
        comp, w = divmod(pos, t)
        by_pair_col.setdefault((pair, w), []).append((comp, val))
    for cyclic in sorted_cyclic_terms(dim.parity, t):
        acc = {}
        for (u, v, w), s in cyclic:
            pair, sign = berger.reduce_pair(dim, u, v)
            entries = by_pair_col.get((pair, w)) if sign else None
            if not entries:
                continue
            for comp, val in entries:
                acc[comp] = acc.get(comp, 0) + (val if s * sign > 0 else -val)
        if any(acc.values()):
            return False
    return True


CHECK_ALGEBRAS = [("gl", (1, 1)), ("osp", (2, 2)), ("sl", (2, 1)), ("cpe", 2)]


def check_case(name, params, field):
    """The algebra, the basis of its curvature space and a seeded generator."""
    alg = classical_superalgebra(name, params, field)
    return alg, curvature_space(alg).basis, random.Random("sparse check %s %s %s" % (name, params, field))


class TestSparseCurvatureCheck:
    @pytest.fixture(params=[(name, params, field) for name, params in CHECK_ALGEBRAS for field in (RATIONAL, GAUSSIAN)], ids=str)
    def case(self, request):
        return check_case(*request.param)

    @staticmethod
    def both(alg, elem):
        sparse, dense = check_curvature_element(alg, elem), dense_check_curvature_element(alg, elem)
        assert sparse == dense == full_walk_check_curvature_element(alg, elem)
        return sparse

    @staticmethod
    def perturbed(elem, changes):
        """elem plus the entries changes, {(pair, A * t + B): v}."""
        return CurvatureElement(elem.dim, elem.parity, linalg.combine([(1, elem.entries), (1, changes)]), elem.field)

    def test_basis_elements_pass(self, case):
        alg, basis, _ = case
        assert basis
        for elem in basis:
            assert self.both(alg, elem)

    def test_one_changed_entry_fails(self, case):
        # an entry (a, b) of R(u, v) with b outside {u, v} enters the cyclic
        # sum of the triple u, v, b at row a alone
        alg, basis, rng = case
        t = alg.dim.total
        places = [(pair, b) for pair in canonical_pairs(alg.dim) for b in range(t) if b not in pair]
        for _ in range(10):
            elem = rng.choice(basis)
            (pair, b), a = rng.choice(places), rng.randrange(t)
            assert not self.both(alg, self.perturbed(elem, {(pair, a * t + b): rng.choice([1, -1, 2])}))

    @pytest.mark.parametrize(
        "name, params, field",
        [(name, params, field) for name, params in CHECK_ALGEBRAS if name != "gl" for field in (RATIONAL, GAUSSIAN)],
        ids=str,
    )
    def test_values_moved_out_of_g_fail(self, name, params, field):
        # adding a curvature tensor of gl(V) with a value outside g keeps the
        # cyclic identity and moves that value out of g
        alg, basis, rng = check_case(name, params, field)
        gl = classical_superalgebra("gl", tuple(alg.dim), alg.field)
        outside = [s for s in curvature_space(gl).basis if not values_in(alg, s)]
        assert outside
        for _ in range(10):
            elem = rng.choice(basis)
            moved = self.perturbed(elem, rng.choice(outside).entries)
            assert check_curvature_element(gl, moved)
            assert not self.both(alg, moved)


def seeded_sum(rng, elems):
    """A seeded combination of curvature tensors of one parity."""
    entries = linalg.combine((rng.choice([1, -1, 2]), e.entries) for e in elems)
    return CurvatureElement(elems[0].dim, elems[0].parity, entries, elems[0].field)


def moved_by(elem, rng, basis, count):
    """elem plus seeded multiples of the matrices of `basis` on `count`
    seeded canonical pairs, those without a value included."""
    pairs = canonical_pairs(elem.dim)
    changes = []
    for _ in range(count):
        pair = rng.choice(pairs)
        changes.append((rng.choice([1, -1, 2]), {(pair, pos): v for pos, v in rng.choice(basis).flatten().items()}))
    return TestSparseCurvatureCheck.perturbed(elem, linalg.combine(changes))


class TestTripleScan:
    """`check_curvature_element`, which reads only the sorted triples of a
    pair and a column where the tensor has an entry, against the walk over
    every sorted triple."""

    @pytest.mark.parametrize("name, params, field", [(n, p, f) for n, p in CHECK_ALGEBRAS for f in (RATIONAL, GAUSSIAN)], ids=str)
    def test_seeded_elements(self, name, params, field):
        alg, basis, rng = check_case(name, params, field)
        verdicts = Counter()
        for _ in range(30):
            # a seeded combination of tensors of one parity keeps the identity;
            # values moved within g mostly break it
            sigma = rng.choice([e.parity for e in basis])
            same = [e for e in basis if e.parity == sigma]
            elem = seeded_sum(rng, rng.sample(same, min(3, len(same))))
            if rng.random() < 0.5:
                elem = moved_by(elem, rng, alg.basis(), rng.randint(1, 2))
            got = check_curvature_element(alg, elem)
            assert got == full_walk_check_curvature_element(alg, elem)
            verdicts[got] += 1
        assert verdicts[True] >= 5 and verdicts[False] >= 5, verdicts

    @pytest.mark.parametrize("name, params", BERGER_PI_ADJOINT, ids=str)
    def test_pi_adjoint_witnesses(self, name, params, monkeypatch):
        vdim, rep_alg, sigma, alpha = pi_adjoint_g1(name, params)
        witness = berger._berger_witness(vdim, sigma, alpha, rep_alg.field)
        read = []
        cyclic_terms = berger.cyclic_terms
        monkeypatch.setattr(berger, "cyclic_terms", lambda parity, *triple: read.append(triple) or cyclic_terms(parity, *triple))
        assert check_curvature_element(rep_alg, witness)
        assert full_walk_check_curvature_element(rep_alg, witness)
        # the witness has values only on pairs that hold d, so few triples are read
        t = vdim.total
        assert len(read) == len(set(read)) and 0 < len(read) <= t * t
        rng = random.Random("witness %s %s" % (name, params))
        for _ in range(6):
            # values moved within g, on pairs with or without d, break the identity
            moved = moved_by(witness, rng, rep_alg.basis(), rng.randint(1, 2))
            assert not check_curvature_element(rep_alg, moved)
            assert not full_walk_check_curvature_element(rep_alg, moved)


def explicit_algebra(dim, flats, field=RATIONAL):
    mats = [SuperMatrix.from_flat(dim, {k: to_field(Fraction(v), field) for k, v in flat.items()}, field) for flat in flats]
    return SubSuperalgebra.from_matrices(dim, mats, field)


def assert_proper_ideal(alg, ideal, graded_dim):
    assert ideal.graded_dim == graded_dim
    assert alg.contains_algebra(ideal)
    for a in alg.basis():
        for b in ideal.basis():
            assert ideal.contains_matrix(superbracket(a, b))


# sl(2) + sl(2) in two diagonal blocks of gl(4), and sl(2) acting on K² as
# [[A, v], [0, 0]] in gl(3): perfect and centerless, but not simple
SL2_PAIR = (SuperDim(4, 0), [{0: 1, 5: -1}, {1: 1}, {4: 1}, {10: 1, 15: -1}, {11: 1}, {14: 1}])
SL2_ON_PLANE = (SuperDim(3, 0), [{0: 1, 4: -1}, {1: 1}, {3: 1}, {2: 1}, {5: 1}])
# so(3) as the skew 3x3 matrices: simple, with no nonzero diagonal element
SO3_SKEW = (SuperDim(3, 0), [{1: 1, 3: -1}, {2: 1, 6: -1}, {5: 1, 7: -1}])
# P keeps the eigenspaces span(e0, e2) and span(e1, e3) of h1 + h2 = diag(1, -1, 1, -1)
CONJUGATOR = ({0: 1, 2: -1, 8: -1, 10: -1, 5: 1, 7: 1, 15: -1},
              {0: Fraction(1, 2), 2: Fraction(-1, 2), 8: Fraction(-1, 2), 10: Fraction(-1, 2), 5: 1, 7: 1, 15: -1})


def conjugated_sl2_pair(field=RATIONAL):
    """SL2_PAIR conjugated by CONJUGATOR, so that h1 + h2 is its only diagonal
    element: every nonzero eigenspace of ad(h) is two-dimensional, and the
    first vector of the first one, and of the kernel of its transpose,
    spins to the whole space although g is not simple."""
    dim, flats = SL2_PAIR
    p, p_inv = (SuperMatrix.from_flat(dim, m) for m in CONJUGATOR)
    assert p.matmul(p_inv) == SuperMatrix.identity(dim)
    conjugated = [p.matmul(m).matmul(p_inv).flatten() for m in explicit_algebra(dim, flats).basis()]
    return explicit_algebra(dim, conjugated, field)


def random_diagonal_algebra(rng, dim, field):
    """The subalgebra that a seeded diagonal matrix and one to three seeded
    homogeneous matrices of one or two entries generate."""
    t = dim.total
    gens = [{a * t + a: rng.randint(-2, 2) for a in range(t)}]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(t), 2)
        flat = {a * t + b: rng.choice((1, -1, 2))}
        c, d = rng.sample(range(t), 2)
        if rng.random() < 0.5 and dim.parity(c) + dim.parity(d) == dim.parity(a) + dim.parity(b):
            flat[c * t + d] = rng.choice((1, -1))
        gens.append(flat)
    mats = [SuperMatrix.from_flat(dim, {k: to_field(v, field) for k, v in flat.items()}, field) for flat in gens]
    return generate_subalgebra(mats, dim, field)


def table_algebras(field):
    """The algebra of every row of `superhol tables F --max-dim 4`."""
    for family in ("gl", "sl", "osp", "pe", "spe", "q"):
        for row in cli.tables_report(family, 4)["rows"]:
            params = row["params"]
            yield classical_superalgebra(family, tuple(params) if len(params) == 2 else params[0], field)


def norton_and_closure(alg):
    """The Norton verdict on ad(g) over Pi g, and whether the associative
    closure of ad(g) is all of End(Pi g)."""
    vdim, _, ad, _ = berger.pi_adjoint_representation(alg)
    return berger._norton_irreducible(alg, ad), associative_closure(ad, vdim).rank == vdim.total ** 2


BURNSIDE = {"simple": True, "status": "certified", "note": "ad(g) generates End(g) (Burnside)", "ideal": None}


class TestNortonCertificate:
    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_verdict_matches_the_closure(self, field):
        rng = random.Random("norton %s" % field)
        algebras = list(table_algebras(field))
        algebras += [classical_superalgebra(name, params, field) for name, params in SIMPLE_ALGEBRAS]
        algebras += [explicit_algebra(dim, flats, field) for dim, flats in (SL2_PAIR, SL2_ON_PLANE, SO3_SKEW)]
        algebras.append(conjugated_sl2_pair(field))
        for dim in (SuperDim(2, 1), SuperDim(1, 2), SuperDim(3, 0), SuperDim(2, 2), SuperDim(3, 1), SuperDim(4, 0)):
            algebras += [random_diagonal_algebra(rng, dim, field) for _ in range(8)]
        verdicts = Counter()
        for alg in algebras:
            if alg.total_dim:
                verdict, full = norton_and_closure(alg)
                assert verdict is None or verdict == full, alg
                verdicts[verdict] += 1
        # each verdict, and no verdict, occurs often
        assert min(verdicts[True], verdicts[False], verdicts[None]) >= 10

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_two_dimensional_eigenspaces_give_no_verdict(self, field):
        for alg in (classical_superalgebra("q", 3, field), conjugated_sl2_pair(field)):
            assert norton_and_closure(alg) == (None, False)

    @pytest.mark.parametrize("name, params", BERGER_PI_ADJOINT + [("sl", (3, 2))], ids=str)
    def test_certified_rows_build_no_closure(self, name, params, monkeypatch):
        monkeypatch.setattr(berger, "associative_closure", lambda *args: pytest.fail("associative_closure was called"))
        alg = classical_superalgebra(name, params)
        assert simplicity(alg) == BURNSIDE
        res = pi_adjoint_test(alg)
        assert res["simplicity_status"] == "certified" and res["simplicity_note"] == BURNSIDE["note"]

    @staticmethod
    def spy_closure(monkeypatch):
        calls = []
        closure = berger.associative_closure
        monkeypatch.setattr(berger, "associative_closure", lambda *args: calls.append(args) or closure(*args))
        return calls

    def test_no_diagonal_element_falls_back_to_the_closure(self, monkeypatch):
        calls = self.spy_closure(monkeypatch)
        assert simplicity(explicit_algebra(*SO3_SKEW)) == BURNSIDE
        assert len(calls) == 1

    def test_no_one_dimensional_eigenspace_falls_back_to_the_closure(self, monkeypatch):
        calls = self.spy_closure(monkeypatch)
        alg = conjugated_sl2_pair()
        res = simplicity(alg)
        assert not res["simple"] and res["status"] == "certified" and "commutant" in res["note"]
        assert_proper_ideal(alg, res["ideal"], (3, 0))
        assert len(calls) == 1

    def test_q3_report_is_unchanged(self):
        # q(3) has no certificate, and its center rejects it before either test
        report, ok = cli.run_problem({"kind": "pi_adjoint", "algebra": {"name": "q", "params": 3}})
        assert not ok and report["error"] == "input algebra is not simple: nontrivial center"


class TestActionLaws:
    def test_curvature_action_is_a_lie_action(self):
        # [A,B].R = A.(B.R) - (-1)^{|A||B|} B.(A.R)
        rng = random.Random(77)
        alg = classical_superalgebra("gl", (1, 1))
        rs = curvature_space(alg)
        for _ in range(40):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            a = random_homogeneous_matrix(rng, alg.dim, pa)
            b = random_homogeneous_matrix(rng, alg.dim, pb)
            r = rs.basis[rng.randrange(rs.total_dim)]
            lhs = act_on_curvature(superbracket(a, b), r)
            r1 = act_on_curvature(a, act_on_curvature(b, r))
            r2 = act_on_curvature(b, act_on_curvature(a, r))
            for pair in canonical_pairs(alg.dim):
                want = r1.value(*pair) - r2.value(*pair).scale((-1) ** (pa * pb))
                assert lhs.value(*pair) == want


class TestVacuousCases:
    def test_zero_algebra_is_vacuously_symmetric_berger(self):
        zero = SubSuperalgebra.zero(SuperDim(2, 1))
        res = cli.algebra_report(zero)
        assert res["is_berger"] and res["is_symmetric_berger"]
        assert res["dims"]["Rnabla"] == [0, 0]


def reference_curvature_rows(dim, basis):
    """`curvature_space`'s rows as they were built before: dense, one per
    sorted triple and row index, empty ones included."""
    t = dim.total
    for cyclic in sorted_cyclic_terms(dim.parity, t):
        terms = []
        for (u, v, w), s in cyclic:
            pair, sign = berger.reduce_pair(dim, u, v)
            if sign:
                terms.append((pair, w, s * sign))
        for comp in range(t):
            row = {}
            for (pair, w, s) in terms:
                for gi, g in enumerate(basis):
                    val = g.entries[comp][w]
                    if val:
                        lab = (pair, gi)
                        row[lab] = row.get(lab, 0) + s * val
            yield row


def reference_derivative_rows(dim, relems, positions=None):
    """`curvature_derivative_space`'s rows as they were built before: dense,
    one per sorted triple and matrix entry, or only the entries at the given
    flat positions."""
    t = dim.total
    for cyclic in sorted_cyclic_terms(dim.parity, t):
        terms = []
        for (d, u, v), s in cyclic:
            pair, sign = berger.reduce_pair(dim, u, v)
            if not sign:
                continue
            for j, r in enumerate(relems):
                m = r.value(*pair)
                if not m.is_zero():
                    terms.append(((d, j), s * sign, m.entries))
        for A in range(t):
            for B in range(t):
                if positions is not None and A * t + B not in positions:
                    continue
                row = {}
                for (lab, s, entries) in terms:
                    val = entries[A][B]
                    if val:
                        row[lab] = row.get(lab, 0) + s * val
                yield row


def reference_prolongation_rows(dim, annihilator, k):
    """`_prolongation_rows` as it was: one Koszul sort per functional."""
    for i in symmetric_tuples(dim, k):
        for phi in annihilator:
            row = {}
            for (a, b), v in phi.items():
                s, sign = berger._koszul_sort(dim, i + (b,))
                if sign:
                    row[(s, a)] = sign * v
            yield row


def row_multiset(rows):
    """The nonempty rows, zero coefficients dropped, as a multiset."""
    return Counter(frozenset((k, v) for k, v in row.items() if v) for row in rows if any(row.values()))


def assert_same_solutions(parity, rows, reference, field):
    """Two systems on the same unknowns have the same graded dims and the
    same canonical kernels."""
    got, want = linalg.solve_graded(parity, rows, field), linalg.solve_graded(parity, reference, field)
    assert got.graded_dim == want.graded_dim and got.kernels == want.kernels


def gaussian_algebra():
    rng = random.Random("row builders")
    while True:
        alg = random_subalgebra(rng, SuperDim(2, 1), GAUSSIAN)
        if alg.total_dim > 2 and any(v.im for m in alg.basis() for v in m.flatten().values()):
            return alg


ROW_ALGEBRAS = {
    "osp(1|2)": lambda: classical_superalgebra("osp", (1, 2)),
    "q(2)": lambda: classical_superalgebra("q", 2),
    "pe(2)": lambda: classical_superalgebra("pe", 2),
    "sl(2|1)": lambda: classical_superalgebra("sl", (2, 1)),
    "gaussian": gaussian_algebra,
}


class TestRowBuildersMatchTheDenseOnes:
    @pytest.fixture(params=sorted(ROW_ALGEBRAS))
    def algebra(self, request):
        return ROW_ALGEBRAS[request.param]()

    @staticmethod
    def assert_same_system(parity, rows, reference, field):
        reference = list(reference)
        assert row_multiset(rows) == row_multiset(reference)
        assert_same_solutions(parity, rows, reference, field)

    def test_curvature_rows(self, algebra):
        dim, basis = algebra.dim, algebra.basis()
        parity = {
            ((a, b), gi): (dim.parity(a) + dim.parity(b) + g.parity) % 2
            for (a, b) in canonical_pairs(dim)
            for gi, g in enumerate(basis)
        }
        rows = list(berger._curvature_rows(dim, basis))
        assert all(rows)
        self.assert_same_system(parity, rows, reference_curvature_rows(dim, basis), algebra.field)

    def test_derivative_rows(self, algebra):
        # the rows are the dense ones at g's pivot positions, and they have
        # the solutions of the dense rows at every entry
        dim, relems = algebra.dim, curvature_space(algebra).basis
        assert relems
        parity = {(d, j): (dim.parity(d) + r.parity) % 2 for d in range(dim.total) for j, r in enumerate(relems)}
        pivots = algebra._echelon.pivot_rows
        rows = list(berger._derivative_rows(dim, relems, pivots))
        assert all(rows)
        self.assert_same_system(parity, rows, reference_derivative_rows(dim, relems, pivots), algebra.field)
        assert_same_solutions(parity, rows, reference_derivative_rows(dim, relems), algebra.field)

    @pytest.mark.parametrize("k", (1, 2))
    def test_prolongation_rows(self, algebra, k):
        dim, field, t = algebra.dim, algebra.field, algebra.dim.total
        cols = {(a, b): (dim.parity(a) + dim.parity(b)) % 2 for a in range(t) for b in range(t)}
        rows = ({(a, b): m.entries[a][b] for (a, b) in cols} for m in algebra.basis())
        annihilator = [phi for kernel in linalg.solve_graded(cols, rows, field).kernels for phi in kernel]
        parity = {
            (s, a): (sum(map(dim.parity, s)) + dim.parity(a)) % 2
            for s in symmetric_tuples(dim, k + 1)
            for a in range(t)
        }
        rows = list(berger._prolongation_rows(dim, annihilator, symmetric_tuples(dim, k), mask_support(parity)))
        self.assert_same_system(parity, rows, reference_prolongation_rows(dim, annihilator, k), field)


def reference_spencer_rows(dim, g1):
    """`spencer_rank_identity`'s unknowns and rows as they were built before:
    one row per entry (canonical pair, A * t + B) of the images
    delta(e_d* (x) alpha_j), at every position."""
    g1_maps = g1.multimaps()
    parity = {(d, j): (dim.parity(d) + p) % 2 for d in range(dim.total) for j, p in enumerate(g1.parities)}
    rows = {}
    for d, j in parity:
        for key, v in berger.spencer_delta(dim, d, g1_maps[j]).items():
            rows.setdefault(key, {})[(d, j)] = v
    return parity, list(rows.values())


class TestPivotRows:
    """The derivative-space and Spencer systems write rows at g's pivot
    positions only; the references write one at every entry.  Both give the
    same graded dims and the same canonical kernels, on every algebra of
    `tables F --max-dim 4` and every `BERGER_ALGEBRAS` row."""

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_derivative_space(self, field):
        fewer = 0
        for alg in [*table_algebras(field), *berger_rows(field)]:
            dim, rspace = alg.dim, curvature_space(alg)
            relems = rspace.basis
            parity = {(d, j): (dim.parity(d) + r.parity) % 2 for d in range(dim.total) for j, r in enumerate(relems)}
            reference = [row for row in reference_derivative_rows(dim, relems) if any(row.values())]
            got = curvature_derivative_space(alg, rspace).solution
            want = linalg.solve_graded(parity, reference, field)
            assert (got.graded_dim, got.kernels) == (want.graded_dim, want.kernels)
            fewer += len(list(berger._derivative_rows(dim, relems, alg._echelon.pivot_rows))) < len(reference)
        # the proper subalgebras of gl with R(g) != 0 leave rows out
        assert fewer >= 15, fewer

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_spencer_map(self, field, monkeypatch):
        solves = []
        solve = berger.solve_graded

        def spy(parity, rows, field):
            rows = list(rows)
            solves.append((rows, solve(parity, rows, field)))
            return solves[-1][1]

        monkeypatch.setattr(berger, "solve_graded", spy)
        fewer = 0
        for alg in [*table_algebras(field), *berger_rows(field)]:
            rspace, tower = curvature_space(alg), cartan_prolongation(alg, 2)
            solves.clear()
            rep = spencer_rank_identity(alg, tower, rspace)
            ((rows, got),) = solves
            parity, reference = reference_spencer_rows(alg.dim, tower.levels[0])
            want = solve(parity, reference, field)
            assert [ech.rank for _, ech in got.blocks] == [ech.rank for _, ech in want.blocks]
            assert (got.graded_dim, got.kernels) == (want.graded_dim, want.kernels)
            assert rep["exactness_ok"]
            fewer += len(rows) < len(reference)
        assert fewer >= 10, fewer


def reference_level_unknowns(dim, support):
    """`_level_unknowns` as it was: the support a set of keys (S0, A),
    regrouped into a set of A per S0, and the unknowns as their parities in
    column order."""
    t, p = dim.total, dim.p
    fiber = [dim.parity(a) for a in range(t)]
    reach = {}
    for s0, a in support:
        reach.setdefault(s0, set()).add(a)
    parity = {}
    for s0 in sorted(reach):
        n, last = len(s0), s0[-1]
        drops = [s0[:j] + s0[j + 1:] for j in range(n) if j + 1 == n or s0[j] != s0[j + 1]]
        odd = n - bisect_left(s0, p)
        for b in range(last + (last >= p), t):
            s, sigma = s0 + (b,), (odd + (b >= p)) % 2
            for a in sorted(reach[s0].intersection(*(reach.get(r + (b,), ()) for r in drops))):
                parity[(s, a)] = sigma ^ fiber[a]
    return parity


class TestMaskLevelUnknowns:
    """`_level_unknowns` on bitmask supports gives the set-based reference's
    unknowns, with the same parities in the same key order: the column order
    fixes the canonical basis."""

    @staticmethod
    def assert_same_unknowns(dim, g0, order):
        t = dim.total
        support = {((pos % t,), pos // t) for m in g0.basis() for pos in m._flat}
        pruned = 0
        for level in cartan_prolongation(g0, order).levels:
            parity, masks = berger._level_unknowns(dim, mask_support(support), 1)
            assert list(parity.items()) == list(reference_level_unknowns(dim, support).items())
            assert masks == mask_support(parity)
            # the level was solved over these unknowns, even ones first
            assert [c for labels, _ in level.solution.blocks for c in labels] == sorted(parity, key=parity.get)
            support = {key for kernel in level.solution.kernels for vec in kernel for key in vec}
            # a bit of the level's mask support is set exactly when some
            # kernel vector reaches that (S, A)
            assert berger._level_support(level.solution) == mask_support(support)
            pruned += len(parity) < len(symmetric_tuples(dim, level.k + 1)) * t
        return pruned

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_table_algebras(self, field):
        pruned = sum(self.assert_same_unknowns(alg.dim, alg, 4) for alg in table_algebras(field))
        assert pruned >= 20, pruned

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_berger_prolongations(self, field):
        for name, params, order in BERGER_PROLONGATIONS:
            alg = classical_superalgebra(name, tuple(params), field)
            self.assert_same_unknowns(alg.dim, alg, order)

    @pytest.mark.parametrize("field", (RATIONAL, GAUSSIAN))
    def test_pi_adjoint_representations(self, field):
        pruned = 0
        for name, params in BERGER_PI_ADJOINT:
            vdim, rep_alg, _, _ = berger.pi_adjoint_representation(classical_superalgebra(name, tuple(params), field))
            pruned += self.assert_same_unknowns(vdim, rep_alg, 4)
        assert pruned >= 4, pruned
