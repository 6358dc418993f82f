"""Smoke test of the byte-identity oracle (tests/oracle.py), which pytest does
not collect: one pass over its reports, its `--compare` mode on a few, and
the reports written under two hash seeds."""

import json
import os
import subprocess
import sys

import oracle
from superhol.reportio import dumps_report


def test_oracle_reports_are_unique_json_without_internal_errors():
    names = []
    for name, report in oracle.reports():
        text = dumps_report(report)
        assert isinstance(json.loads(text), dict), name
        assert "internal_error" not in text, name
        names.append(name)
    assert len(names) == len(set(names)) == 167


def test_compare_names_the_first_difference(tmp_path, monkeypatch, capsys):
    reports = [("a.json", {"x": 1, "y": [1, 2]}), ("b.json", {"x": 2})]
    monkeypatch.setattr(oracle, "reports", lambda: iter(reports))
    want = tmp_path / "want"
    assert oracle.main([str(want)]) == 0
    assert oracle.main(["--compare", str(want)]) == 0
    assert "2 reports match" in capsys.readouterr().out
    text = (want / "b.json").read_text()
    (want / "b.json").write_text(text.replace("2", "3"))
    assert oracle.main(["--compare", str(want)]) == 1
    out = capsys.readouterr().out
    line = next(k for k, s in enumerate(text.splitlines()) if "2" in s) + 1
    assert out.startswith("b.json differs at line %d:" % line)
    (want / "b.json").write_text(text + "\n")
    assert oracle.main(["--compare", str(want)]) == 1
    assert "(end of file)" in capsys.readouterr().out
    (want / "b.json").write_text(text)
    (want / "c.json").write_text(text)
    assert oracle.main(["--compare", str(want)]) == 1
    assert capsys.readouterr().out.startswith("c.json: only %s has it" % want)
    (want / "c.json").unlink()
    (want / "a.json").unlink()
    assert oracle.main(["--compare", str(want)]) == 1
    assert capsys.readouterr().out.startswith("a.json: only this checkout has it")


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Reports are deterministic by contract, so the oracle's reports
    written under one PYTHONHASHSEED must match those written under
    another: string and tuple hashes, and so set order, differ between
    the two runs."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    path = os.environ.get("PYTHONPATH")
    base = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    script = os.path.join(here, "oracle.py")
    want = str(tmp_path / "want")
    for seed, args in (("1", [want]), ("2", ["--compare", want])):
        run = subprocess.run(
            [sys.executable, script] + args, env=dict(base, PYTHONHASHSEED=seed), capture_output=True, text=True
        )
        assert run.returncode == 0, run.stdout + run.stderr
    assert "167 reports match" in run.stdout
