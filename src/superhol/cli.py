"""Batch front end: problem files in, machine-readable certificates out.

Subcommands: `run <file.json> [--out report.json]`, `selftest`, and
`tables <family> --max-dim D`.  Reports are deterministic; timing is only
attached on request so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction

from . import berger as bg
from . import geometry as geo
from . import holonomy as hl
from . import reportio as rio
from .scalars import NotRealError, field_one, scalar_float
from .superfunc import ChartSignature, Superfunction, parse_superfunction, sf_to_str
from .superlin import (
    StructureTensor,
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    annihilator_rows,
    classical_superalgebra,
    generate_subalgebra,
    solved_dim,
    standard_even_form,
    standard_odd_complex_structure,
    standard_odd_form,
    superbracket,
    supertrace,
    supertrace_row,
)


# ------------------------------------------------------ candidate structures


def _pairwise_j(dim: SuperDim, field):
    t = dim.total
    one = field_one(field)
    flat = {}
    for base, size in ((0, dim.p), (dim.p, dim.q)):
        for k in range(base, base + size - 1, 2):
            flat[(k + 1) * t + k] = one
            flat[k * t + k + 1] = -one
    return SuperMatrix.from_flat(dim, flat, field)


def _rows(*tensors):
    return [row for tensor in tensors for row in annihilator_rows(tensor)]


def default_candidates(dim: SuperDim, field, metric_body=None):
    """Labeled structures fitting the fiber dimensions, for `classify_geometry`.

    Each candidate carries the "rows" that cut out its stabilizer: the
    `annihilator_rows` of its tensors, and for the su cut also the
    `supertrace_row` of the complex structure J, str(J·A) = 0.  The osp
    candidate is the given metric body, a scalar `SuperMatrix`
    (`MetricData.body`), or the standard form without one; the u and su
    cuts need a metric body.
    """
    p, q = dim
    out = []
    j = None
    if q % 2 == 0 and dim.total:
        if metric_body is None:
            form = standard_even_form(p, q, field=field)
        else:
            form = StructureTensor("even_bilinear_form", "supersymmetric", metric_body)
        out.append({"label": "even supersymmetric metric (osp type)", "rows": _rows(form)})
    if p % 2 == 0 and dim.total:
        skew = standard_even_form(p, q, skew=True, field=field)
        out.append({"label": "even super skew metric (osp_sk type)", "rows": _rows(skew)})
    if p % 2 == 0 and q % 2 == 0 and dim.total:
        j = StructureTensor("even_endomorphism", "none", _pairwise_j(dim, field))
        out.append({"label": "complex structure (gl_C type)", "rows": _rows(j)})
    if p == q and p:
        out.append({"label": "odd supersymmetric metric (pe type)", "rows": _rows(standard_odd_form(p, field=field))})
        out.append({"label": "odd complex structure (q type)", "rows": _rows(standard_odd_complex_structure(p, field=field))})
    if j is not None and metric_body is not None:
        unitary = _rows(form, j)
        out.append({"label": "unitary cut (u type)", "rows": unitary})
        out.append({"label": "special unitary cut (su type)", "rows": unitary + [supertrace_row(j.data)]})
    return out


# ----------------------------------------------------------------- pipelines


def connection_report(conn: geo.ConnectionData, options, metric=None):
    chart = conn.chart
    sig = chart.sig
    point = rio.decode_point(options, sig)
    cap = options.get("cap_order")

    report = {}
    flat = hl.flatness_certificate(conn)
    report["flat"] = flat["flat"]
    report["flat_witness"] = (
        None if flat["witness"] is None else list(flat["witness"])
    )

    if chart.tangent_sheaf:
        report["torsion_free"] = not geo.torsion(conn)
        report["first_bianchi"] = geo.check_first_bianchi(conn)
        report["second_bianchi"] = geo.check_second_bianchi(conn)
        nonzero = {"%d,%d" % (a + 1, b + 1): sf_to_str(f) for (a, b), f in sorted(geo.ricci(conn).items())}
        report["ricci"] = {"zero": not nonzero, "entries": nonzero}

    body = None if metric is None else metric.body(point)
    cands = default_candidates(chart.rank, sig.field, metric_body=body)
    # ∇g = 0, which `levi_civita` re-verifies, makes every tower component
    # g-skew: the holonomy algebra lies in stab(g_p), solved from the body
    # form's annihilator rows, the first candidate (a valid metric has an
    # even odd rank, so it has the osp one)
    bound = None if metric is None else solved_dim(chart.rank, cands[0]["rows"], sig.field)
    hol = hl.infinitesimal_holonomy(conn, point, cap, bound)
    report["algebra"] = rio.encode_algebra(hol.algebra)
    report["holonomy_dim"] = list(hol.algebra.graded_dim)
    report["stabilized_at_order"] = hol.stabilized_at_order
    report["holonomy_status"] = hol.status

    even_inv, odd_inv = hl.invariant_vectors(hol.algebra)
    report["invariants"] = {
        "even": [rio.encode_vector(v) for v in even_inv],
        "odd": [rio.encode_vector(v) for v in odd_inv],
    }

    report["classification"] = hl.classify_geometry(hol.algebra, cands)

    if metric is not None:
        dec = hl.decomposability_certificate(hol.algebra, body)
        entry = {"status": dec["status"]}
        if dec["status"] == "decomposable":
            entry["witness"] = [rio.encode_vector(v) for v in dec["witness"]]
            entry["complement"] = [rio.encode_vector(v) for v in dec["complement"]]
        elif dec["status"] == "inconclusive":
            entry["reason"] = dec["reason"]
        report["decomposable"] = entry
    else:
        report["decomposable"] = {"status": "not_applicable"}

    steps = options.get("transport_steps")
    if steps and sig.n >= 1:
        try:
            report["transport_validation"] = transport_validation(conn, point, hol, int(steps))
        except NotRealError as exc:
            # Gaussian input whose point or Christoffel bodies are not real:
            # the exact report stands without its float check.
            report["transport_validation"] = {
                "steps": int(steps),
                "status": "skipped",
                "reason": "float transport needs real values: %s" % exc,
            }

    report["status"] = "capped" if hol.status == "capped" else "stabilized"
    return report


def transport_validation(conn: geo.ConnectionData, point, hol: hl.HolonomyResult, steps: int):
    """Float check that the transport-conjugated order-0 and order-1 tables of
    the holonomy run lie in its algebra."""
    base = [scalar_float(c) for c in point]
    side = 0.25
    path = [base, [base[0] + side] + base[1:]]
    if len(base) > 1:
        path.append([base[0] + side, base[1] + side] + base[2:])
    tables = hl.transport_tables(conn, hol)
    gens = hl.conjugated_generators(conn, base, [path], tables, steps=steps)
    residual = hl.span_embedding_residual(gens, hol.algebra)
    return {
        "steps": steps,
        "generators": len(gens),
        "residual": float(residual),
        "tolerance": 1e-6,
        "ok": residual < 1e-6,
    }


def metric_report(metric: geo.MetricData, options):
    """The report of a metric built with validate=True: it reads the
    validation that construction kept, and does not validate again."""
    report = {"metric_valid": None}
    validation = metric.validation
    report["metric_valid"] = validation["valid"]
    report["metric_failures"] = validation["failures"]
    if validation["even_signature"] is not None:
        report["even_signature"] = list(validation["even_signature"])
    if not validation["valid"]:
        report["status"] = "inconclusive"
        return report
    conn = geo.levi_civita(metric)
    inner = connection_report(conn, options, metric=metric)
    report.update(inner)
    return report


def algebra_report(alg: SubSuperalgebra):
    rs = bg.curvature_space(alg)
    bc = bg.berger_check(alg, rs)
    deriv = bg.curvature_derivative_space(alg, rs)
    tower = bg.cartan_prolongation(alg, 2)
    spencer = bg.spencer_rank_identity(alg, tower, rs)
    return {
        "algebra_dim": list(alg.graded_dim),
        "dims": {
            "R": list(rs.graded_dim),
            "Rnabla": list(deriv.graded_dim),
            "g1": list(spencer["g1_dim"]),
            "g2": list(spencer["g2_dim"]),
            "H22_derived": spencer["h22_total"],
            "H22_graded_raw": list(spencer["h22_raw"]),
            "H22_graded_pi": list(spencer["h22_pi_twisted"]),
        },
        "is_berger": bc["is_berger"],
        "ideal_ok": bc["ideal_ok"],
        "is_symmetric_berger": bc["is_berger"] and deriv.total_dim == 0,
        "exactness_ok": spencer["exactness_ok"],
        "L_dim": list(bc["L"].graded_dim),
        "status": "certified" if spencer["exactness_ok"] else "inconclusive",
    }


def prolongation_report(alg: SubSuperalgebra, options):
    order = options.get("order", 2)
    try:
        tower = bg.cartan_prolongation(alg, order)
    except ValueError as exc:
        raise rio.ProblemError("/options/order", str(exc))
    return {
        "algebra_dim": list(alg.graded_dim),
        "levels": [
            {"k": lvl.k, "dim": list(lvl.graded_dim)} for lvl in tower.levels
        ],
        "status": "certified",
    }


def pi_adjoint_report(alg: SubSuperalgebra):
    res = bg.pi_adjoint_test(alg)
    return {
        "algebra_dim": list(alg.graded_dim),
        "g1_dim": list(res["g1_dim"]),
        "g2_dim": list(res["g2_dim"]),
        "generator_matches": res["generator_matches"],
        "is_berger": res["is_berger"],
        "simplicity_note": res["simplicity_note"],
        "status": res["simplicity_status"],
    }


def run_problem(doc, cap_order=None, steps=None, with_timing=False):
    """Dispatch one parsed problem document; returns (report, ok)."""
    t0 = time.perf_counter()
    report = {"input": doc}
    ok = True
    try:
        kind, payload, options = rio.decode_problem(doc)
        if cap_order is not None:
            options["cap_order"] = rio.check_option("cap_order", cap_order)
        if steps is not None:
            options["transport_steps"] = rio.check_option("transport_steps", steps)
        report["kind"] = kind
        if kind == "connection":
            report["result"] = connection_report(payload, options)
        elif kind == "metric":
            report["result"] = metric_report(payload, options)
        elif kind == "algebra":
            report["result"] = algebra_report(payload)
        elif kind == "prolongation":
            report["result"] = prolongation_report(payload, options)
        else:
            report["result"] = pi_adjoint_report(payload)
    except (rio.ProblemError, ValueError) as exc:
        report["error"] = str(exc)
        ok = False
    except Exception as exc:
        # a fault inside the pipeline: this report names it, the batch goes on
        traceback.print_exc()
        report["error"] = str(exc)
        report["internal_error"] = type(exc).__name__
        ok = False
    if with_timing:
        report["timing_seconds"] = round(time.perf_counter() - t0, 3)
    return report, ok


# ------------------------------------------------------------------ selftest


def _random_sf(rng, sig, parity=None, maxdeg=1):
    f = Superfunction.zero(sig)
    for mask in range(1 << sig.m):
        if parity is not None and bin(mask).count("1") % 2 != parity:
            continue
        exps = tuple(rng.randint(0, maxdeg) for _ in range(sig.n))
        c = rng.randint(-2, 2)
        if c:
            f = f + Superfunction(sig, {mask: {exps: Fraction(c)}})
    return f


def _random_matrix(rng, dim, parity):
    t = dim.total
    flat = {
        a * t + b: Fraction(rng.randint(-2, 2))
        for a in range(t)
        for b in range(t)
        if (dim.parity(a) + dim.parity(b)) % 2 == parity
    }
    return SuperMatrix.from_flat(dim, flat)


def selftest_cases():
    """The bundled regression corpus; each case returns (ok, detail)."""
    import random

    cases = []

    def case(name):
        def wrap(fn):
            cases.append((name, fn))
            return fn

        return wrap

    @case("superfunc: parser examples")
    def _():
        sig = ChartSignature(2, 2)
        f = parse_superfunction("3/2*x1^2 + x1*xi1", sig)
        g = parse_superfunction("xi2*xi1", sig)
        z = parse_superfunction("0", sig)
        ok = (
            sf_to_str(g) == "-xi1*xi2"
            and z.is_zero()
            and sf_to_str(f) == "3/2*x1^2 + x1*xi1"
        )
        return ok, sf_to_str(f)

    @case("superfunc: supercommutativity (randomized)")
    def _():
        rng = random.Random(101)
        sig = ChartSignature(2, 3)
        for _ in range(150):
            pf, pg = rng.randint(0, 1), rng.randint(0, 1)
            f = _random_sf(rng, sig, pf)
            g = _random_sf(rng, sig, pg)
            sign = (-1) ** (pf * pg)
            if f * g != (g * f).scale(sign):
                return False, "failed for %s ; %s" % (f, g)
        return True, "150 cases"

    @case("superfunc: super Leibniz (randomized)")
    def _():
        rng = random.Random(102)
        sig = ChartSignature(2, 3)
        for _ in range(100):
            pf = rng.randint(0, 1)
            f = _random_sf(rng, sig, pf)
            g = _random_sf(rng, sig)
            for a in range(1, sig.total + 1):
                pa = 0 if a <= sig.n else 1
                lhs = (f * g).partial(a)
                rhs = f.partial(a) * g + (f * g.partial(a)).scale((-1) ** (pa * pf))
                if lhs != rhs:
                    return False, "a=%d f=%s g=%s" % (a, f, g)
        return True, "100 cases x all directions"

    @case("superfunc: odd derivatives anticommute")
    def _():
        rng = random.Random(103)
        sig = ChartSignature(1, 3)
        for _ in range(60):
            f = _random_sf(rng, sig)
            for al in range(sig.n + 1, sig.total + 1):
                if not f.partial(al).partial(al).is_zero():
                    return False, "square of odd derivative"
                for be in range(sig.n + 1, sig.total + 1):
                    if f.partial(al).partial(be) != -f.partial(be).partial(al):
                        return False, "anticommutation"
        return True, "60 cases"

    @case("superfunc: print/parse round trip")
    def _():
        rng = random.Random(104)
        sig = ChartSignature(2, 2)
        for _ in range(80):
            f = _random_sf(rng, sig, maxdeg=2)
            if parse_superfunction(sf_to_str(f), sig) != f:
                return False, sf_to_str(f)
        return True, "80 cases"

    @case("superlin: super Jacobi (randomized)")
    def _():
        rng = random.Random(105)
        dim = SuperDim(2, 1)
        for _ in range(120):
            pa, pb, pc = (rng.randint(0, 1) for _ in range(3))
            a = _random_matrix(rng, dim, pa)
            b = _random_matrix(rng, dim, pb)
            c = _random_matrix(rng, dim, pc)
            lhs = superbracket(a, superbracket(b, c))
            rhs = superbracket(superbracket(a, b), c) + superbracket(
                b, superbracket(a, c)
            ).scale((-1) ** (pa * pb))
            if not (lhs - rhs).is_zero():
                return False, "Jacobi failed"
        return True, "120 cases"

    @case("superlin: supertrace kills brackets")
    def _():
        rng = random.Random(106)
        dim = SuperDim(2, 2)
        for _ in range(120):
            a = _random_matrix(rng, dim, rng.randint(0, 1))
            b = _random_matrix(rng, dim, rng.randint(0, 1))
            if supertrace(superbracket(a, b)) != 0:
                return False, "str[a,b] != 0"
        return True, "120 cases"

    @case("superlin: classical dimensions")
    def _():
        table = [
            ("gl", (1, 1), (2, 2)),
            ("gl", (2, 1), (5, 4)),
            ("sl", (2, 1), (4, 4)),
            ("osp", (2, 2), (4, 4)),
            ("osp", (1, 2), (3, 2)),
            ("q", 1, (1, 1)),
            ("q", 2, (4, 4)),
            ("pe", 3, (9, 9)),
            ("spe", 3, (8, 9)),
            ("cosp", (2, 2), (5, 4)),
        ]
        for name, params, want in table:
            got = classical_superalgebra(name, params).graded_dim
            if got != want:
                return False, "%s%s -> %s expected %s" % (name, params, got, want)
        return True, "%d rows" % len(table)

    @case("superlin: generation and echelon idempotence")
    def _():
        dim = SuperDim(2, 0)
        e12 = SuperMatrix.unit(dim, 0, 1)
        e21 = SuperMatrix.unit(dim, 1, 0)
        alg = generate_subalgebra([e12, e21])
        again = generate_subalgebra(alg.basis())
        sl2 = classical_superalgebra("sl", (2, 0))
        return (alg.graded_dim == (3, 0) and again == alg and alg == sl2), repr(alg)

    @case("geometry: 0|1 example (curvature, torsion, Ricci)")
    def _():
        sig = ChartSignature(0, 1)
        chart = geo.Chart.tangent(sig)
        conn = geo.ConnectionData.from_entries(
            chart, {(1, 1, 1): Superfunction.odd_var(sig, 1)}
        )
        two = Superfunction.constant(sig, 2)
        ok = (
            geo.curvature(conn).components == {((), 0, 0): {(0, 0): two}}
            and geo.torsion(conn) == {(0, 0): {0: Superfunction.odd_var(sig, 1).scale(2)}}
            and geo.ricci(conn) == {(0, 0): two}
            and not geo.check_first_bianchi(conn)
        )
        return ok, "R = 2, T = 2 xi, Ric = 2"

    @case("geometry: Levi-Civita postconditions on a curved 0|2 metric")
    def _():
        sig = ChartSignature(0, 2)
        chart = geo.Chart.tangent(sig)
        xi1, xi2 = Superfunction.odd_var(sig, 1), Superfunction.odd_var(sig, 2)
        entry = Superfunction.constant(sig, 1) + (xi1 * xi2).scale(3)
        metric = geo.MetricData.from_entries(chart, {(1, 2): entry})
        lc = geo.levi_civita(metric)
        ok = not geo.torsion(lc) and geo.check_first_bianchi(lc)
        ok = ok and geo.check_second_bianchi(lc)
        ok = ok and bool(geo.curvature(lc).components)
        return ok, "torsion-free, both Bianchi, curved"

    @case("holonomy: 0|1 example equals gl(0|1)")
    def _():
        sig = ChartSignature(0, 1)
        chart = geo.Chart.tangent(sig)
        conn = geo.ConnectionData.from_entries(
            chart, {(1, 1, 1): Superfunction.odd_var(sig, 1)}
        )
        hol = hl.infinitesimal_holonomy(conn, [])
        ok = hol.algebra.graded_dim == (1, 0) and hol.stabilized_at_order <= 1
        return ok, repr(hol)

    @case("holonomy: flatness certificates")
    def _():
        sig = ChartSignature(1, 1)
        chart = geo.Chart(sig, SuperDim(1, 1))
        flat = geo.ConnectionData.zero(chart)
        cert = hl.flatness_certificate(flat)
        one = Superfunction.constant(sig, 1)
        g = {(0, 0): one, (0, 1): parse_superfunction("x1*xi1", sig), (1, 1): one}
        gauge = geo.pure_gauge_connection(chart, g)
        cert2 = hl.flatness_certificate(gauge)
        return cert["flat"] and cert2["flat"], "zero and pure gauge"

    @case("holonomy: parallel section reconstruction")
    def _():
        sig = ChartSignature(1, 1)
        chart = geo.Chart(sig, SuperDim(1, 1))
        one = Superfunction.constant(sig, 1)
        g = {(0, 0): one, (1, 0): parse_superfunction("xi1", sig), (1, 1): one}
        conn = geo.pure_gauge_connection(chart, g)
        res = hl.reconstruct_parallel_section(
            conn, [Fraction(0)], [Fraction(1), Fraction(2)], gauge=g
        )
        if not res.ok or not hl.check_parallel(conn, res.section):
            return False, res.reason
        sig01 = ChartSignature(0, 1)
        c01 = geo.Chart.tangent(sig01)
        bad = geo.ConnectionData.from_entries(
            c01, {(1, 1, 1): Superfunction.odd_var(sig01, 1)}
        )
        rej = hl.reconstruct_parallel_section(bad, [], [Fraction(1)])
        return rej.status == "rejected", rej.reason

    @case("berger: table rows at small rank")
    def _():
        rows = [
            ("gl", (1, 0), False),
            ("gl", (0, 1), False),
            ("gl", (1, 1), True),
            ("osp", (2, 2), True),
            ("q", 2, True),
        ]
        for name, params, want in rows:
            alg = classical_superalgebra(name, params)
            got = bg.berger_check(alg)["is_berger"]
            if got != want:
                return False, "%s%s" % (name, params)
        return True, "%d rows" % len(rows)

    @case("berger: cosp(2|2) prolongation profile")
    def _():
        tower = bg.cartan_prolongation(classical_superalgebra("cosp", (2, 2)), 2)
        dims = tower.graded_dims()
        return dims == [(2, 2), (0, 0)], str(dims)

    @case("berger: Spencer identity and derived cohomology")
    def _():
        rep1 = bg.spencer_rank_identity(classical_superalgebra("gl", (1, 1)))
        rep2 = bg.spencer_rank_identity(classical_superalgebra("sl", (0, 2)))
        ok = (
            rep1["exactness_ok"]
            and rep1["h22_total"] == 0
            and rep2["h22_total"] == 1
            and rep2["h22_pi_twisted"] == (0, 1)
        )
        return ok, "gl(1|1): 0, sl(0|2): 1"

    @case("berger: pi-adjoint proposition for sl(2)")
    def _():
        res = bg.pi_adjoint_test(classical_superalgebra("sl", (2, 0)))
        ok = (
            res["g1_dim"] == (0, 1)
            and res["g2_dim"] == (0, 0)
            and res["generator_matches"]
            and res["is_berger"]
        )
        return ok, str(res["g1_dim"])

    @case("transport: flat loop is the identity")
    def _():
        import numpy as np

        sig = ChartSignature(2, 0)
        chart = geo.Chart(sig, SuperDim(2, 0))
        conn = geo.ConnectionData.zero(chart)
        loop = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        op = hl.numeric_parallel_transport(conn, loop, 800)
        return float(abs(op.matrix - np.eye(2)).max()) < 1e-12, "residual ok"

    @case("kahler: Ricci identity on the parallel-J family")
    def _():
        metric, j_mat = kahler_test_metric(1)
        lc = geo.levi_civita(metric)
        parallel = not any(geo.nabla_endomorphism(lc, j_mat, a) for a in range(4))
        if not parallel:
            return False, "J not parallel"
        ok = ricci_kahler_identity_holds(lc, j_mat)
        return ok, "identity holds symbolically"

    @case("product: block metric gives block holonomy")
    def _():
        metric = product_test_metric()
        lc = geo.levi_civita(metric)
        hol = hl.infinitesimal_holonomy(lc, [])
        body = metric.body([])
        dec = hl.decomposability_certificate(hol.algebra, body)
        return (
            hol.algebra.graded_dim == (6, 0) and dec["status"] == "decomposable"
        ), str(hol.algebra.graded_dim)

    return cases


def kahler_test_metric(lam, field="rational"):
    """Frozen parallel-J metric family on the 0|4 chart (scaled by lam)."""
    sig = ChartSignature(0, 4, field)
    chart = geo.Chart.tangent(sig)
    xs = [Superfunction.odd_var(sig, i + 1) for i in range(4)]
    one = Superfunction.constant(sig, 1)
    s13 = ((xs[0] * xs[2]) + (xs[1] * xs[3])).scale(Fraction(lam, 2))
    s14 = ((xs[0] * xs[3]) - (xs[1] * xs[2])).scale(Fraction(lam, 2))
    entries = {
        (1, 2): one - (xs[2] * xs[3]).scale(lam),
        (3, 4): one - (xs[0] * xs[1]).scale(lam),
        (1, 3): s13,
        (2, 4): s13,
        (1, 4): s14,
        (2, 3): -s14,
    }
    metric = geo.MetricData.from_entries(chart, entries)
    j = _pairwise_j(SuperDim(0, 4), sig.field)
    return metric, j


def ricci_kahler_identity_holds(conn, j_mat) -> bool:
    """Ric(Y,Z) == (1/2) str(J . R(JY, Z)) as superfunctions."""
    chart = conn.chart
    sig = chart.sig
    t = sig.total
    curv = geo.curvature(conn).components
    ric = geo.ricci(conn)
    zero = Superfunction.zero(sig)
    half = Fraction(1, 2)
    j_flat = j_mat.flatten()
    for a in range(t):
        for b in range(t):
            rhs = zero
            for c in range(t):
                coef = j_flat.get(c * t + a)
                if not coef:
                    continue
                r_cb = curv.get(((), c, b), {})
                for A in range(t):
                    ent = zero
                    for C in range(t):
                        jac = j_flat.get(A * t + C)
                        if jac and (C, A) in r_cb:
                            ent = ent + r_cb[(C, A)].scale(jac)
                    sign = 1 if chart.coord_parity(A) == 0 else -1
                    rhs = rhs + ent.scale(sign * coef)
            if ric.get((a, b), zero) != rhs.scale(half):
                return False
    return True


def product_test_metric():
    """Block sum of two curved 0|2 factors on a 0|4 chart."""
    sig = ChartSignature(0, 4)
    chart = geo.Chart.tangent(sig)
    xs = [Superfunction.odd_var(sig, i + 1) for i in range(4)]
    one = Superfunction.constant(sig, 1)
    return geo.MetricData.from_entries(
        chart,
        {(1, 2): one + (xs[0] * xs[1]).scale(3), (3, 4): one + (xs[2] * xs[3]).scale(5)},
    )


def run_selftest(with_timing=False):
    t0 = time.perf_counter()
    results = []
    ok = True
    for name, fn in selftest_cases():
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, "exception: %s" % exc
        results.append({"case": name, "pass": bool(passed), "detail": str(detail)})
        ok = ok and passed
    report = {"kind": "selftest", "all_pass": ok, "cases": results}
    if with_timing:
        report["timing_seconds"] = round(time.perf_counter() - t0, 3)
    return report, ok


# -------------------------------------------------------------------- tables


def tables_report(family: str, max_dim: int):
    """Table rows of a family for every p + q up to max_dim, from 0 to
    `reportio.MAX_TOTAL_DIM`; any other max_dim is a ProblemError."""
    if not 0 <= max_dim <= rio.MAX_TOTAL_DIM:
        raise rio.ProblemError("--max-dim", "must be from 0 to %d" % rio.MAX_TOTAL_DIM)
    rows = []
    params_list = []
    if family in ("gl", "sl"):
        params_list = [
            (p, q)
            for p in range(max_dim + 1)
            for q in range(max_dim + 1)
            if 0 < p + q <= max_dim
        ]
    elif family == "osp":
        params_list = [
            (p, q)
            for p in range(max_dim + 1)
            for q in range(0, max_dim + 1, 2)
            if 0 < p + q <= max_dim
        ]
    elif family in ("pe", "spe", "q"):
        params_list = [n for n in range(1, max_dim // 2 + 1)]
    else:
        raise ValueError("unknown family %r" % family)
    for params in params_list:
        alg = classical_superalgebra(family, params)
        rs = bg.curvature_space(alg)
        bc = bg.berger_check(alg, rs)
        rows.append(
            {
                "family": family,
                "params": list(params) if isinstance(params, tuple) else [params],
                "algebra_dim": list(alg.graded_dim),
                "R_dim": list(rs.graded_dim),
                "L_dim": list(bc["L"].graded_dim),
                "is_berger": bc["is_berger"],
            }
        )
    return {"kind": "tables", "family": family, "max_dim": max_dim, "rows": rows}


# ---------------------------------------------------------------------- main


def _write_report(report, out):
    """Write the report JSON to the file `out`, or to stdout when it is None."""
    text = rio.dumps_report(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superhol",
        description="Exact holonomy, parallel-structure and Berger certificates "
        "for connections over superdomain charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one or more problem files")
    p_run.add_argument("files", nargs="+")
    p_run.add_argument("--out", help="write the report JSON here instead of stdout")
    p_run.add_argument("--cap-order", type=int, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--timing", action="store_true")

    p_self = sub.add_parser("selftest", help="run the bundled regression corpus")
    p_self.add_argument("--out", default=None)
    p_self.add_argument("--timing", action="store_true")

    p_tab = sub.add_parser("tables", help="regenerate table-row certificates")
    p_tab.add_argument("family", choices=["gl", "sl", "osp", "pe", "spe", "q"])
    p_tab.add_argument("--max-dim", type=int, default=4)
    p_tab.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "run":
        reports = []
        all_ok = True
        for path in args.files:
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                reports.append({"input_file": path, "error": str(exc)})
                all_ok = False
                continue
            rep, ok = run_problem(
                doc, cap_order=args.cap_order, steps=args.steps, with_timing=args.timing
            )
            rep["input_file"] = path
            reports.append(rep)
            all_ok = all_ok and ok
        _write_report(reports[0] if len(reports) == 1 else {"reports": reports}, args.out)
        return 0 if all_ok else 1

    if args.command == "selftest":
        report, ok = run_selftest(with_timing=args.timing)
        _write_report(report, args.out)
        for case in report["cases"]:
            status = "pass" if case["pass"] else "FAIL"
            sys.stderr.write("[%s] %s\n" % (status, case["case"]))
        return 0 if ok else 1

    if args.command == "tables":
        try:
            report = tables_report(args.family, args.max_dim)
        except rio.ProblemError as exc:
            _write_report({"kind": "tables", "family": args.family, "error": str(exc)}, args.out)
            return 1
        _write_report(report, args.out)
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
