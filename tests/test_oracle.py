"""Smoke test of the byte-identity oracle (tests/oracle.py), which pytest does
not collect: one pass over its reports."""

import json

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
