import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from superhol import cli
from superhol.berger import MAX_LEVEL_UNKNOWNS
from superhol import geometry as geo
from superhol import holonomy as hl
from superhol.reportio import (
    MAX_CAP_ORDER,
    MAX_PROLONGATION_ORDER,
    MAX_TOTAL_DIM,
    MAX_TRANSPORT_STEPS,
    KINDS,
    OBJECT_KEYS,
    PROBLEM_KEYS,
    ProblemError,
    decode_point,
    decode_problem,
    dumps_report,
    encode_algebra,
)
from superhol.scalars import GAUSSIAN, RATIONAL
from superhol.superfunc import ChartSignature, Superfunction
from superhol.superlin import (
    StructureTensor,
    SuperDim,
    annihilator_rows,
    solve_algebra,
    stabilizer_algebra,
    standard_even_form,
    standard_odd_complex_structure,
    standard_odd_form,
    supertrace_row,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden")
PROBLEMS = sorted(f for f in os.listdir(DATA) if f.endswith(".json"))
TABLE_FAMILIES = ("gl", "sl", "osp", "pe", "spe", "q")


def load(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def report_text(name):
    rep, _ = cli.run_problem(load(name))
    return dumps_report(rep)


def tables_text(family):
    """`superhol tables <family> --max-dim 4`, as written to stdout."""
    return dumps_report(cli.tables_report(family, 4))


class TestRunPipelines:
    def test_r01_example_file(self):
        rep, ok = cli.run_problem(load("example_r01.json"))
        assert ok
        res = rep["result"]
        assert res["flat"] is False
        assert res["holonomy_dim"] == [1, 0]
        assert res["stabilized_at_order"] <= 1
        assert res["ricci"]["entries"] == {"1,1": "2"}

    def test_zero_connection_file(self):
        rep, ok = cli.run_problem(load("example_zero.json"))
        assert ok
        res = rep["result"]
        assert res["flat"] is True and res["holonomy_dim"] == [0, 0]

    def test_algebra_file_gl11(self):
        rep, ok = cli.run_problem(load("example_gl11.json"))
        assert ok
        res = rep["result"]
        assert res["is_berger"] is True
        assert res["dims"]["H22_derived"] == 0

    def test_metric_file(self):
        rep, ok = cli.run_problem(load("example_metric02.json"))
        assert ok
        res = rep["result"]
        assert res["metric_valid"] and res["holonomy_dim"] == [3, 0]

    def test_metric_is_validated_once(self, monkeypatch):
        # decoding validates the metric; the report reuses that result
        calls = []
        validate = geo.validate_metric

        def spy(*args, **kwargs):
            calls.append(1)
            return validate(*args, **kwargs)

        monkeypatch.setattr(geo, "validate_metric", spy)
        rep, ok = cli.run_problem(load("example_metric02.json"))
        assert ok and rep["result"]["metric_valid"]
        assert len(calls) == 1

    def test_metric_without_an_exact_inverse_is_an_error_at_g(self):
        # the body 1 + x1 is invertible at the origin, but g has no inverse
        # as a polynomial matrix, so `levi_civita` cannot run: the metric is
        # rejected when decoded, at its JSON path
        doc = {"kind": "metric", "chart": {"n": 1, "m": 0}, "g": {"1,1": "1 + x1"}, "options": {"point": [0]}}
        rep, ok = cli.run_problem(doc)
        assert not ok
        assert rep["error"] == (
            "/g: invalid metric: matrix is not (constant invertible) + nilpotent; exact inversion unsupported"
        )
        # an x-dependent body whose nonconstant part is nilpotent has one
        doc.update(chart={"n": 2, "m": 0}, g={"1,2": "1", "2,2": "x1"}, options={"point": [0, 0]})
        rep, ok = cli.run_problem(doc)
        assert ok and rep["result"]["metric_valid"]

    def test_prolongation_file(self):
        rep, ok = cli.run_problem(load("example_prolong_cosp.json"))
        assert ok
        assert rep["result"]["levels"] == [
            {"k": 1, "dim": [2, 2]},
            {"k": 2, "dim": [0, 0]},
        ]

    def test_pi_adjoint_file(self):
        rep, ok = cli.run_problem(load("example_pi_sl2.json"))
        assert ok
        res = rep["result"]
        assert res["g1_dim"] == [0, 1] and res["g2_dim"] == [0, 0]

    def test_schema_error_has_pointer(self):
        doc = {"kind": "connection", "chart": {"n": 0, "m": 1}, "gamma": {"9,1,1": "xi1"}}
        rep, ok = cli.run_problem(doc)
        assert not ok and "/gamma/9,1,1" in rep["error"]

    def test_unknown_kind(self):
        rep, ok = cli.run_problem({"kind": "nonsense"})
        assert not ok and "kind" in rep["error"]

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"kind": "connection", "chart": {"n": 0, "m": 1}, "gamma": ["xi1"]}, "/gamma"),
            ({"kind": "metric", "chart": {"n": 0, "m": 2}, "g": ["1"]}, "/g"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 2}}}, "/algebra/dim/q"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 0}, "even": [5]}}, "/algebra/even/0"),
            (
                {"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"point": 5}},
                "/options/point",
            ),
            # span{E12, E21} in gl(2|0): the bracket E11 - E22 falls outside it
            (
                {"kind": "algebra", "algebra": {"dim": {"p": 2, "q": 0}, "even": [["0", "1", "0", "0"], ["0", "0", "1", "0"]]}},
                "/algebra",
            ),
            ({"kind": "connection", "chart": 3, "gamma": {}}, "/chart"),
            ({"kind": "metric", "chart": {"n": 0, "m": 0}, "g": {}}, "/chart"),
            ({"kind": "connection", "chart": {"n": [1], "m": 0}, "gamma": {}}, "/chart/n"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "rank": {"p": [1], "q": 0}, "gamma": {}}, "/rank/p"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": 3}}, "/gamma/1,1,1"),
            ({"kind": "algebra", "algebra": {"name": "gl", "params": "11"}}, "/algebra/params"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": "abc"}, "/options"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"cap_order": "two"}}, "/options/cap_order"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"point": ["1/0"]}}, "/options/point/0"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 0}, "even": [["x"]]}}, "/algebra/even/0"),
            ({"kind": "algebra", "algebra": {"name": "gl", "params": 3}}, "/algebra"),
            (3, "/"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "2^99999999"}}, "/gamma/1,1,1"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "(" * 5000 + "x1" + ")" * 5000}}, "/gamma/1,1,1"),
            ({"kind": "connection", "chart": {"n": 2, "m": 0}, "gamma": {"1,1,1": "((1+x1+x2)^16)^16"}}, "/gamma/1,1,1"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "((((((2^16)^16)^16)^16)^16)^16)*x1"}}, "/gamma/1,1,1"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"transport_steps": 10 ** 9}}, "/options/transport_steps"),
            # integer fields take JSON integers only, each at least its least value
            ({"kind": "connection", "chart": {"n": 1.7, "m": 0}, "gamma": {"1,1,1": "x1"}}, "/chart/n"),
            ({"kind": "connection", "chart": {"n": "1", "m": 0}, "gamma": {"1,1,1": "x1"}}, "/chart/n"),
            ({"kind": "connection", "chart": {"n": True, "m": 0}, "gamma": {"1,1,1": "x1"}}, "/chart/n"),
            ({"kind": "connection", "chart": {"n": 1, "m": -1}, "gamma": {}}, "/chart/m"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "rank": {"p": -1, "q": 0}, "gamma": {}}, "/rank/p"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": -2}}}, "/algebra/dim/q"),
            ({"kind": "algebra", "algebra": {"name": "gl", "params": True}}, "/algebra/params"),
            ({"kind": "prolongation", "algebra": {"name": "sl", "params": [2, 1]}, "options": {"order": 2.9}}, "/options/order"),
            ({"kind": "prolongation", "algebra": {"name": "sl", "params": [2, 1]}, "options": {"order": 0}}, "/options/order"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"cap_order": -1}}, "/options/cap_order"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"transport_steps": -5}}, "/options/transport_steps"),
            # found by tests/test_fuzz.py: an unknown name without params, an
            # empty parameter list, and a basis section that is not a list
            ({"kind": "algebra", "algebra": {"name": "1 + x2"}}, "/algebra"),
            ({"kind": "algebra", "algebra": {"name": "pe", "params": []}}, "/algebra"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 1}, "odd": False}}, "/algebra/odd"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x²"}}, "/gamma/1,1,1"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "4" * 5000}}, "/gamma/1,1,1"),
            # a classical family takes exactly its own number of params
            ({"kind": "algebra", "algebra": {"name": "pe", "params": [2, 5]}}, "/algebra"),
            ({"kind": "algebra", "algebra": {"name": "q", "params": [1, 7, 9]}}, "/algebra"),
            ({"kind": "algebra", "algebra": {"name": "gl", "params": [2, 5, 1]}}, "/algebra"),
            ({"kind": "algebra", "algebra": {"name": "gl", "params": 2}}, "/algebra"),
            # sizes above MAX_TOTAL_DIM are refused before anything is built
            ({"kind": "metric", "chart": {"n": 12, "m": 5}, "g": {"1,1": "1"}}, "/chart"),
            ({"kind": "connection", "chart": {"n": 9, "m": 8}, "gamma": {}}, "/chart"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "rank": {"p": 2 ** 64, "q": 0}, "gamma": {}}, "/rank"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 10, "q": 7}}}, "/algebra/dim"),
            ({"kind": "algebra", "algebra": {"name": "q", "params": [9]}}, "/algebra"),
            ({"kind": "prolongation", "algebra": {"name": "gl", "params": [16, 1]}}, "/algebra"),
            # a field is one of the three tags, and tangent a JSON boolean
            ({"kind": "algebra", "algebra": {"name": "sl", "params": [1, 1], "field": "banana"}}, "/algebra/field"),
            ({"kind": "algebra", "algebra": {"name": "sl", "params": [1, 1], "field": {}}}, "/algebra/field"),
            ({"kind": "prolongation", "algebra": {"dim": {"p": 1, "q": 0}, "field": None}}, "/algebra/field"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0, "field": "real"}, "gamma": {}}, "/chart/field"),
            (
                {"kind": "connection", "chart": {"n": 1, "m": 1}, "rank": {"p": 1, "q": 1}, "tangent": "false", "gamma": {}},
                "/tangent",
            ),
            ({"kind": "connection", "chart": {"n": 1, "m": 1}, "rank": {"p": 1, "q": 1}, "tangent": [0], "gamma": {}}, "/tangent"),
            # with no rank too, whose rank is then the chart's n|m
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "tangent": "yes", "gamma": {"1,1,1": "x1"}}, "/tangent"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "rank": None, "tangent": 1, "gamma": {}}, "/tangent"),
            # the tangent sheaf has the chart's rank n|m
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "rank": {"p": 2, "q": 0}, "tangent": True, "gamma": {}}, "/tangent"),
            # a point or explicit-algebra scalar has at most 1024-bit numerator
            # and denominator, refused from its text when it is too long to build
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"point": ["1e309"]}}, "/options/point/0"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"point": ["1e-309"]}}, "/options/point/0"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"point": ["1e2000000"]}}, "/options/point/0"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}, "options": {"point": [10 ** 309]}}, "/options/point/0"),
            ({"kind": "metric", "chart": {"n": 2, "m": 0}, "g": {"1,1": "1", "2,2": "1"}, "options": {"point": ["0", "7" * 4300]}}, "/options/point/1"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 0}, "even": [[str(2 ** 1024)]]}}, "/algebra/even/0"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 0}, "even": [["1/" + "1" * 310]]}}, "/algebra/even/0"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 1}, "field": "gaussian", "even": [["1e10000000 i", "0", "0", "0"]]}}, "/algebra/even/0"),
            # keys whose indices alias would replace each other's entry
            ({"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1", "+1,1,1": "5"}}, "/gamma/+1,1,1"),
            ({"kind": "metric", "chart": {"n": 2, "m": 0}, "g": {"1,1": "1", "2,2": "1", "01, 1": "3"}}, "/g/01, 1"),
        ],
    )
    def test_malformed_input_is_an_error_report(self, doc, path):
        rep, ok = cli.run_problem(doc)
        assert not ok and rep["error"].startswith(path + ": ")

    # a JSON float is already rounded to a double: 0.10000000000000000555
    # loads as the float 0.1, whose str() would read as exactly 1/10
    FLOAT_POINT = json.loads(
        '{"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"},'
        ' "options": {"point": [0.10000000000000000555]}}'
    )
    FLOAT_ENTRY = {"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 0}, "even": [[2.0]]}}

    @pytest.mark.parametrize("doc, path", [(FLOAT_POINT, "/options/point/0"), (FLOAT_ENTRY, "/algebra/even/0")])
    def test_a_json_float_scalar_is_an_error(self, doc, path):
        rep, ok = cli.run_problem(doc)
        assert not ok and rep["error"] == path + ": must be a string or an integer, not a JSON float"

    def test_scalar_strings_and_json_integers_parse_exactly(self):
        sig = ChartSignature(2, 0)
        assert decode_point({"point": ["0.1", 3]}, sig) == [Fraction(1, 10), 3]
        # span{diag(1/10, 3)}, its basis scaled to a 1 at the first entry
        doc = {"kind": "algebra", "algebra": {"dim": {"p": 2, "q": 0}, "even": [["0.1", 0, 0, 3]]}}
        assert encode_algebra(decode_problem(doc)[1])["even"] == [["1", "0", "0", "30"]]

    def test_repeated_index_names_the_earlier_key(self):
        doc = {"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {" 1,1,1": "x1", "1,1,1": "5"}}
        rep, ok = cli.run_problem(doc)
        assert not ok and rep["error"] == "/gamma/1,1,1: repeats the indices of key ' 1,1,1'"


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "metric", "chart": {"n": MAX_TOTAL_DIM, "m": 0}, "g": {"%d,%d" % (k, k): "1" for k in range(1, MAX_TOTAL_DIM + 1)}},
        {"kind": "connection", "chart": {"n": 1, "m": 0}, "rank": {"p": 8, "q": 8}, "gamma": {}},
        {"kind": "algebra", "algebra": {"dim": {"p": 0, "q": MAX_TOTAL_DIM}}},
        {"kind": "algebra", "algebra": {"name": "pe", "params": [MAX_TOTAL_DIM // 2]}},
    ],
    ids=["chart", "rank", "dim", "classical"],
)
def test_sizes_up_to_the_limit_decode(doc):
    kind, payload, _ = decode_problem(doc)
    assert kind == doc["kind"] and payload is not None


CHART = {"n": 1, "m": 0}
SL21 = {"name": "sl", "params": [2, 1]}


class TestUnknownKeys:
    """Each object of a problem document takes only the keys of its table in
    `reportio.PROBLEM_KEYS` or `reportio.OBJECT_KEYS`; the first other key
    is an error at its path."""

    @pytest.mark.parametrize(
        "doc, path",
        [
            # field belongs in chart: the metric would run over the rationals
            ({"kind": "metric", "field": "gaussian-rational", "chart": CHART, "g": {"1,1": "1"}}, "/field"),
            ({"kind": "connection", "chart": CHART, "gamma": {}, "bogus": 3}, "/bogus"),
            ({"kind": "algebra", "algebra": SL21, "order": 2}, "/order"),
            ({"kind": "prolongation", "algebra": SL21, "point": []}, "/point"),
            ({"kind": "pi_adjoint", "algebra": SL21, "chart": CHART}, "/chart"),
            ({"kind": "connection", "chart": {"n": 1, "m": 0, "feild": "gaussian"}, "gamma": {}}, "/chart/feild"),
            ({"kind": "connection", "chart": CHART, "rank": {"p": 1, "q": 0, "tangent": True}, "gamma": {}}, "/rank/tangent"),
            ({"kind": "algebra", "algebra": {"name": "gl", "params": [1, 1], "even": []}}, "/algebra/even"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 0}, "even": [["1"]], "params": [1]}}, "/algebra/params"),
            ({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 0, "r": 1}}}, "/algebra/dim/r"),
            ({"kind": "connection", "chart": CHART, "gamma": {}, "options": {"cap_order": 1, "pointt": [5]}}, "/options/pointt"),
            ({"kind": "metric", "chart": CHART, "g": {"1,1": "1"}, "options": {"candidates": 4, "cap": 1}}, "/options/candidates"),
        ],
        ids=[
            "metric", "connection", "algebra", "prolongation", "pi_adjoint", "chart", "rank", "named algebra",
            "explicit algebra", "dim", "options", "first of two",
        ],
    )
    def test_unknown_key_is_an_error_at_its_path(self, doc, path):
        with pytest.raises(ProblemError) as err:
            decode_problem(doc)
        assert err.value.path == path
        rep, ok = cli.run_problem(doc)
        assert not ok and rep["error"].startswith(path + ": unknown key: the keys of ")

    def test_every_kind_has_a_table(self):
        assert tuple(PROBLEM_KEYS) == KINDS

    def test_the_known_keys_decode(self):
        doc = {"kind": "connection", "chart": {"n": 1, "m": 0, "field": "rational"}, "rank": {"p": 1, "q": 0},
               "tangent": True, "gamma": {"1,1,1": "x1"},
               "options": {"point": ["1/2"], "cap_order": 3, "transport_steps": 10, "order": 2}}
        assert set(doc) == set(PROBLEM_KEYS["connection"]) and set(doc["options"]) == set(OBJECT_KEYS["options"])
        assert decode_problem(doc)[0] == "connection"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        doc = load("example_metric02.json")
        rep1, _ = cli.run_problem(doc)
        rep2, _ = cli.run_problem(doc)
        assert dumps_report(rep1) == dumps_report(rep2)

    def test_timing_is_opt_in_and_monotonic(self, monkeypatch):
        doc = load("example_r01.json")
        assert "timing_seconds" not in cli.run_problem(doc)[0]
        assert "timing_seconds" not in cli.run_selftest()[0]
        # a wall clock that steps back must not reach the timing
        clock = iter(range(10**6, 0, -1))
        monkeypatch.setattr(time, "time", lambda: next(clock))
        for report, _ in (cli.run_problem(doc, with_timing=True), cli.run_selftest(with_timing=True)):
            seconds = report["timing_seconds"]
            assert isinstance(seconds, float) and seconds >= 0

    def test_cli_main_round_trip(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        path = os.path.join(DATA, "example_r01.json")
        assert cli.main(["run", path, "--out", str(out1)]) == 0
        assert cli.main(["run", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_chart_metric_does_not_end_the_batch(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"kind": "metric", "chart": {"n": 0, "m": 0}, "g": {}}')
        assert cli.main(["run", str(empty), os.path.join(DATA, "example_r01.json")]) == 1
        first, second = json.loads(capsys.readouterr().out)["reports"]
        assert first["error"].startswith("/chart: ")
        assert "error" not in second and second["result"]["holonomy_dim"] == [1, 0]

    def test_internal_error_does_not_end_the_batch(self, tmp_path, monkeypatch, capsys):
        r01 = os.path.join(DATA, "example_r01.json")
        alone = tmp_path / "alone.json"
        assert cli.main(["run", r01, "--out", str(alone)]) == 0

        def broken(*args):
            raise AssertionError("prolongation sequence failed exactness")

        monkeypatch.setattr(cli.bg, "spencer_rank_identity", broken)
        out = tmp_path / "out.json"
        assert cli.main(["run", os.path.join(DATA, "example_gl11.json"), r01, "--out", str(out)]) == 1
        first, second = json.loads(out.read_text())["reports"]
        assert first["error"] == "prolongation sequence failed exactness"
        assert first["internal_error"] == "AssertionError" and "result" not in first
        assert second == json.loads(alone.read_text())
        assert "AssertionError: prolongation sequence failed exactness" in capsys.readouterr().err

    def test_exit_code_on_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "connection"}')
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "out.json")]) == 1


class TestGoldenReports:
    """The reports of the bundled problems and the `tables --max-dim 4`
    reports of every family, pinned byte for byte.

    After an intended change of output, regenerate the files in
    tests/data/golden with `PYTHONPATH=src python tests/test_cli.py` and
    review their diff.
    """

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_report_matches_pinned(self, name):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert report_text(name).encode() == fh.read()

    @pytest.mark.parametrize("family", TABLE_FAMILIES)
    def test_tables_match_pinned(self, family):
        with open(os.path.join(GOLDEN, "tables_%s.json" % family), "rb") as fh:
            assert tables_text(family).encode() == fh.read()


class TestSelfTest:
    def test_full_corpus_passes(self):
        report, ok = cli.run_selftest()
        assert ok, [c for c in report["cases"] if not c["pass"]]

    def test_mutated_multiplication_is_caught(self, monkeypatch):
        # corrupt the Grassmann merge sign and check the supercommutativity
        # case of the corpus goes red
        import superhol.superfunc as sf_mod

        monkeypatch.setattr(sf_mod, "merge_sign", lambda left, right: 1)
        failing = {}
        for name, fn in cli.selftest_cases():
            if "supercommutativity" in name:
                ok, detail = fn()
                failing[name] = ok
        monkeypatch.undo()
        assert failing and not any(failing.values())


class TestTables:
    def test_q_family(self):
        rep = cli.tables_report("q", 4)
        rows = {tuple(r["params"]): r for r in rep["rows"]}
        assert rows[(1,)]["is_berger"] is False
        assert rows[(2,)]["is_berger"] is True

    def test_gl_family(self):
        rep = cli.tables_report("gl", 2)
        rows = {tuple(r["params"]): r for r in rep["rows"]}
        assert rows[(1, 0)]["is_berger"] is False
        assert rows[(0, 1)]["is_berger"] is False
        assert rows[(1, 1)]["is_berger"] is True

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "superhol.cli", "tables", "q", "--max-dim", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["rows"][0]["family"] == "q"


class TestTablesMaxDim:
    def test_zero_is_accepted(self):
        assert cli.tables_report("gl", 0)["rows"] == []
        assert cli.main(["tables", "q", "--max-dim", "0", "--out", os.devnull]) == 0

    @pytest.mark.parametrize("max_dim", [MAX_TOTAL_DIM + 1, 40, -1])
    def test_out_of_range_is_an_error(self, max_dim, tmp_path):
        out = tmp_path / "out.json"
        t0 = time.perf_counter()
        assert cli.main(["tables", "gl", "--max-dim", str(max_dim), "--out", str(out)]) == 1
        # gl(p|q) up to p + q = 40 would take hours; the rejection solves nothing
        assert time.perf_counter() - t0 < 30
        rep = json.loads(out.read_text())
        assert rep == {"kind": "tables", "family": "gl", "error": "--max-dim: must be from 0 to %d" % MAX_TOTAL_DIM}

    def test_console_script_has_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "superhol.cli", "tables", "gl", "--max-dim", "40"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"].startswith("--max-dim: ")


class TestTransportStepsLimit:
    ROTATION = {
        "kind": "connection",
        "chart": {"n": 2, "m": 0},
        "rank": {"p": 2, "q": 0},
        "gamma": {"1,1,2": "0-x2", "1,2,1": "x2"},
        "options": {"point": ["1/2", "1/2"]},
    }

    def test_limit_itself_is_accepted(self):
        doc = dict(self.ROTATION, options={"transport_steps": MAX_TRANSPORT_STEPS})
        assert decode_problem(doc)[2]["transport_steps"] == MAX_TRANSPORT_STEPS

    def test_steps_argument_above_the_limit(self):
        rep, ok = cli.run_problem(self.ROTATION, steps=MAX_TRANSPORT_STEPS + 1)
        assert not ok and rep["error"].startswith("/options/transport_steps: ")

    def test_cap_order_limit_is_the_largest_default_cap(self):
        # a chart and a rank of the largest total dim, all of the rank odd
        chart = geo.Chart(ChartSignature(0, MAX_TOTAL_DIM), SuperDim(0, MAX_TOTAL_DIM))
        assert hl.default_order_cap(chart) == MAX_CAP_ORDER == 528
        doc = dict(self.ROTATION, options={"cap_order": MAX_CAP_ORDER})
        assert decode_problem(doc)[2]["cap_order"] == MAX_CAP_ORDER

    def test_cap_order_option_above_the_limit(self):
        doc = dict(self.ROTATION, options={"cap_order": MAX_CAP_ORDER + 1})
        with pytest.raises(ProblemError) as err:
            decode_problem(doc)
        assert err.value.path == "/options/cap_order"
        rep, ok = cli.run_problem(doc)
        assert not ok and rep["error"] == "/options/cap_order: must be at most 528"

    def test_cap_order_flag_above_the_limit(self, tmp_path):
        rep, ok = cli.run_problem(self.ROTATION, cap_order=MAX_CAP_ORDER + 1)
        assert not ok and rep["error"] == "/options/cap_order: must be at most 528"
        rep, ok = cli.run_problem(self.ROTATION, cap_order=MAX_CAP_ORDER)
        assert ok
        doc, out = tmp_path / "rotation.json", tmp_path / "out.json"
        doc.write_text(json.dumps(self.ROTATION))
        assert cli.main(["run", str(doc), "--cap-order", str(MAX_CAP_ORDER + 1), "--out", str(out)]) == 1
        assert json.loads(out.read_text())["error"] == "/options/cap_order: must be at most 528"

    @pytest.mark.parametrize("flags, path", [({"steps": -5}, "/options/transport_steps"), ({"cap_order": -1}, "/options/cap_order")])
    def test_arguments_below_their_least_value(self, flags, path):
        # the command-line flags meet the same bounds as the problem's options
        rep, ok = cli.run_problem(self.ROTATION, **flags)
        assert not ok and rep["error"] == path + ": must be at least 0"

    def test_oversized_document_does_not_end_the_batch(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(dict(self.ROTATION, options={"transport_steps": 10 ** 9})))
        r01 = os.path.join(DATA, "example_r01.json")
        out = tmp_path / "out.json"
        t0 = time.perf_counter()
        assert cli.main(["run", str(big), r01, "--out", str(out)]) == 1
        # 10^9 RK4 steps would take hours; the rejection takes no transport
        assert time.perf_counter() - t0 < 30
        first, second = json.loads(out.read_text())["reports"]
        assert first["error"].startswith("/options/transport_steps: ")
        assert "error" not in second and second["result"]["holonomy_dim"] == [1, 0]

    def test_prolongation_order_up_to_the_limit_is_accepted(self):
        doc = {"kind": "prolongation", "algebra": {"name": "gl", "params": [1, 0]}, "options": {"order": 64}}
        assert MAX_PROLONGATION_ORDER == 64
        rep, ok = cli.run_problem(doc)
        assert ok and [level["k"] for level in rep["result"]["levels"]] == list(range(1, 65))
        assert all(level["dim"] == [1, 0] for level in rep["result"]["levels"])

    @pytest.mark.parametrize("order", (65, 10 ** 6))
    def test_prolongation_order_above_the_limit(self, order):
        doc = {"kind": "prolongation", "algebra": {"name": "gl", "params": [1, 0]}, "options": {"order": order}}
        with pytest.raises(ProblemError) as err:
            decode_problem(doc)
        assert err.value.path == "/options/order"
        t0 = time.perf_counter()
        rep, ok = cli.run_problem(doc)
        # order 10^6 would run for hours; the rejection builds no level
        assert time.perf_counter() - t0 < 5
        assert not ok and rep["error"] == "/options/order: must be at most 64"

    def test_a_prolongation_level_of_too_many_unknowns_is_refused(self):
        # gl(16|0) has C(16 + k, k + 1)·16 unknowns at level k: 248,064 at
        # level 4 and 868,224 at level 5, so order 10 (123,618,560 unknowns
        # at level 10) stops at level 5, before that level's system is built
        doc = {"kind": "prolongation", "algebra": {"name": "gl", "params": [16, 0]}, "options": {"order": 10}}
        t0 = time.perf_counter()
        rep, ok = cli.run_problem(doc)
        assert time.perf_counter() - t0 < 5
        assert not ok and "internal_error" not in rep
        assert rep["error"] == "/options/order: prolongation level 5 has more than %d unknowns" % MAX_LEVEL_UNKNOWNS

    def test_a_prolongation_level_below_the_unknown_bound_is_solved(self):
        # gl(12|0) at order 5 has 148,512 unknowns on level 5
        doc = {"kind": "prolongation", "algebra": {"name": "gl", "params": [12, 0]}, "options": {"order": 5}}
        rep, ok = cli.run_problem(doc)
        assert ok and rep["result"]["levels"][-1] == {"k": 5, "dim": [148512, 0]}

    def test_tangent_and_field_values(self):
        doc = {"kind": "connection", "chart": {"n": 1, "m": 1}, "rank": {"p": 1, "q": 1}, "gamma": {"1,2,1": "xi1"}}
        no_rank = {"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}}
        for tangent in (True, False):
            for d in (doc, no_rank):
                rep, ok = cli.run_problem(dict(d, tangent=tangent))
                assert ok and ("torsion_free" in rep["result"]) == tangent
                assert ("ricci" in rep["result"]) == tangent
        # an absent tangent is true exactly when the rank is the chart's n|m
        assert "torsion_free" in cli.run_problem(no_rank)[0]["result"]
        with_rank = dict(no_rank, rank={"p": 1, "q": 0}, tangent=False)
        assert cli.run_problem(dict(no_rank, tangent=False))[0]["result"] == cli.run_problem(with_rank)[0]["result"]
        for tag, field in (("rational", RATIONAL), ("gaussian", GAUSSIAN), ("gaussian-rational", GAUSSIAN)):
            _, algebra, _ = decode_problem({"kind": "algebra", "algebra": {"name": "sl", "params": [1, 1], "field": tag}})
            assert algebra.field == field

    def test_scalars_up_to_the_coefficient_bound_are_read(self):
        # 10^308 has 1024 bits and 10^309 has 1027; 2^1024 - 1 is the largest
        # numerator a point or algebra scalar may have
        doc = {"kind": "connection", "chart": {"n": 1, "m": 0}, "gamma": {"1,1,1": "x1"}}
        for point in (["1e308"], ["1e-308"], [10 ** 308], [str(2 ** 1024 - 1)], ["-1/" + str(2 ** 1024 - 1)]):
            rep, ok = cli.run_problem(dict(doc, options={"point": point}))
            assert ok, point
        rep, ok = cli.run_problem({"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 1}, "field": "gaussian",
                                                                  "even": [["1e308 i", "0", "0", "0"]]}})
        assert ok and rep["result"]["algebra_dim"] == [1, 0]

    def test_steps_flag_above_the_limit(self, tmp_path):
        out = tmp_path / "out.json"
        r01 = os.path.join(DATA, "example_r01.json")
        assert cli.main(["run", r01, "--steps", str(10 ** 9), "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["error"].startswith("/options/transport_steps: ")


class TestStandardStabilizers:
    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("pq", [(2, 2), (2, 0), (0, 2), (1, 1), (4, 2)], ids=lambda d: "%d|%d" % d)
    def test_each_is_the_stabilizer_of_its_tensor(self, pq, field):
        dim = SuperDim(*pq)
        tensors = {
            "even supersymmetric metric (osp type)": lambda: standard_even_form(dim.p, dim.q, field=field),
            "even super skew metric (osp_sk type)": lambda: standard_even_form(dim.p, dim.q, skew=True, field=field),
            "complex structure (gl_C type)": lambda: StructureTensor("even_endomorphism", "none", cli._pairwise_j(dim, field)),
            "odd supersymmetric metric (pe type)": lambda: standard_odd_form(dim.p, field=field),
            "odd complex structure (q type)": lambda: standard_odd_complex_structure(dim.p, field=field),
        }
        cands = cli.default_candidates(dim, field)
        assert cands
        for cand in cands:
            want = stabilizer_algebra(tensors[cand["label"]]())
            assert encode_algebra(solve_algebra(dim, cand["rows"], field)) == encode_algebra(want)

    def test_metric_rows_and_the_unitary_cuts(self):
        metric, j = cli.kahler_test_metric(0)
        body = metric.body([])
        cands = cli.default_candidates(SuperDim(0, 4), RATIONAL, metric_body=body)
        form = StructureTensor("even_bilinear_form", "supersymmetric", body)
        assert cands[0]["rows"] == annihilator_rows(form)
        u, su = cands[-2:]
        assert [c["label"].split(" (")[0] for c in (u, su)] == ["unitary cut", "special unitary cut"]
        assert u["rows"] == annihilator_rows(form) + annihilator_rows(StructureTensor("even_endomorphism", "none", j))
        assert su["rows"] == u["rows"] + [supertrace_row(j)]


class TestStatusFlags:
    def test_capped_status_propagates(self):
        doc = load("example_metric02.json")
        rep, ok = cli.run_problem(doc, cap_order=0)
        assert ok
        assert rep["result"]["holonomy_status"] == "capped"
        assert rep["result"]["status"] == "capped"
        assert rep["result"]["stabilized_at_order"] is None

    def test_transport_validation_option(self):
        doc = {
            "kind": "connection",
            "chart": {"n": 2, "m": 0},
            "rank": {"p": 2, "q": 0},
            "gamma": {"1,1,2": "0-x2", "1,2,1": "x2"},
            "options": {"point": ["1/2", "1/2"]},
        }
        rep, ok = cli.run_problem(doc, steps=3000)
        assert ok
        tv = rep["result"]["transport_validation"]
        assert tv["ok"] and tv["residual"] < 1e-6

    @pytest.mark.parametrize("point", [["1/2+i"], ["1/2"]])
    def test_transport_validation_skipped_off_the_reals(self, point):
        # non-real point, or a real point with non-real Christoffel bodies
        doc = load("example_gaussian_point.json")
        doc["options"]["point"] = point
        exact, _ = cli.run_problem(doc)
        rep, ok = cli.run_problem(doc, steps=200)
        assert ok
        tv = rep["result"].pop("transport_validation")
        assert tv["steps"] == 200 and tv["status"] == "skipped"
        assert "cannot take a real float" in tv["reason"]
        assert rep == exact

    @pytest.mark.parametrize("entry, status", [("3,1,1", None), ("1,1,1", "skipped")])
    def test_transport_reads_only_the_directions_it_moves(self, entry, status):
        # the non-real body i sits in Gamma_3, which the transport path never
        # moves along, or in Gamma_1, which it does; every table stays real
        doc = {
            "kind": "connection",
            "chart": {"n": 3, "m": 0, "field": "gaussian-rational"},
            "rank": {"p": 1, "q": 0},
            "gamma": {entry: "i", "2,1,1": "x1"},
            "options": {"point": ["0", "0", "0"]},
        }
        rep, ok = cli.run_problem(doc, steps=200)
        assert ok
        tv = rep["result"]["transport_validation"]
        assert tv.get("status") == status
        if status is None:
            assert tv["ok"] and tv["generators"] > 0

    def test_failed_exactness_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(cli.bg, "same_span", lambda *args: False)
        rep, ok = cli.run_problem(load("example_gl11.json"))
        assert ok and "internal_error" not in rep
        assert rep["result"]["exactness_ok"] is False
        assert rep["result"]["status"] == "inconclusive"


if __name__ == "__main__":
    for name in PROBLEMS:
        with open(os.path.join(GOLDEN, name), "w") as fh:
            fh.write(report_text(name))
    for family in TABLE_FAMILIES:
        with open(os.path.join(GOLDEN, "tables_%s.json" % family), "w") as fh:
            fh.write(tables_text(family))
