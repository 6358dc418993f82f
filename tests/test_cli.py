import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from superhol import cli
from superhol.reportio import ProblemError, decode_problem, dumps_report
from superhol.superfunc import Superfunction

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden")
PROBLEMS = sorted(f for f in os.listdir(DATA) if f.endswith(".json"))


def load(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def report_text(name):
    rep, _ = cli.run_problem(load(name))
    return dumps_report(rep)


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
        ],
    )
    def test_malformed_input_is_an_error_report(self, doc, path):
        rep, ok = cli.run_problem(doc)
        assert not ok and rep["error"].startswith(path + ": ")


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        doc = load("example_metric02.json")
        rep1, _ = cli.run_problem(doc)
        rep2, _ = cli.run_problem(doc)
        assert dumps_report(rep1) == dumps_report(rep2)

    def test_cli_main_round_trip(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        path = os.path.join(DATA, "example_r01.json")
        assert cli.main(["run", path, "--out", str(out1)]) == 0
        assert cli.main(["run", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exit_code_on_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "connection"}')
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "out.json")]) == 1


class TestGoldenReports:
    """The reports of the bundled problems, pinned byte for byte.

    After an intended change of output, regenerate the files in
    tests/data/golden with `PYTHONPATH=src python tests/test_cli.py` and
    review their diff.
    """

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_report_matches_pinned(self, name):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert report_text(name).encode() == fh.read()


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


if __name__ == "__main__":
    for name in PROBLEMS:
        with open(os.path.join(GOLDEN, name), "w") as fh:
            fh.write(report_text(name))
