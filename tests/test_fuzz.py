"""Seeded fuzzing of the decoders that read user input.

`reportio.decode_problem` gets mutated problem documents and
`superfunc.parse_superfunction` gets mutated expression strings.  The
property: every input gives a value or the decoder's own error (a
`ProblemError`, or the parser's `SyntaxErrorAt`), never another exception.
Each test runs a fixed number of seeded inputs, so a failure reproduces on
any host; the counts are sized to about a second a test on a 2-core host,
and a guard far above that fails a test whose inputs blow up.  Integers are
drawn small, and now and then far above `reportio.MAX_TOTAL_DIM`, so that
sizes such as n, m, the rank, an algebra's dim and its parameters are also
tried where the decoder must refuse them before it allocates anything.
"""

import copy
import json
import os
import random
import time
from itertools import islice

import pytest

from superhol.reportio import (
    MAX_PROLONGATION_ORDER,
    MAX_TOTAL_DIM,
    OBJECT_KEYS,
    PROBLEM_KEYS,
    ProblemError,
    decode_point,
    decode_problem,
)
from superhol.superfunc import ChartSignature, Superfunction, SyntaxErrorAt, parse_superfunction

DATA = os.path.join(os.path.dirname(__file__), "data")
DECODE_INPUTS = 10000
PARSE_INPUTS = 8000
GUARD_S = 60.0

EXTRA_DOCS = [
    {"kind": "connection", "chart": {"n": 2, "m": 1}, "gamma": {"1,1,2": "x1*xi1", "3,2,3": "1/2 - x2^2"}},
    {"kind": "connection", "chart": {"n": 1, "m": 1}, "rank": {"p": 1, "q": 1}, "tangent": True,
     "gamma": {"1,2,1": "xi1"}, "options": {"cap_order": 2, "point": ["3/4"], "transport_steps": 10}},
    {"kind": "metric", "chart": {"n": 2, "m": 0, "field": "gaussian"}, "g": {"1,1": "1 + i*x2", "2,2": "-1"}},
    {"kind": "algebra", "algebra": {"dim": {"p": 1, "q": 1},
                                    "even": [["1", "0", "0", "1"]], "odd": [["0", "1", "0", "0"]]}},
    {"kind": "prolongation", "algebra": {"name": "q", "params": 2, "field": "gaussian-rational"},
     "options": {"order": 1}},
    {"kind": "prolongation", "algebra": {"name": "gl", "params": [1, 0]}, "options": {"order": MAX_PROLONGATION_ORDER}},
    {"kind": "prolongation", "algebra": {"name": "sl", "params": [2, 1]}, "options": {"order": 10 ** 6}},
]
# every key of the schema's tables, and two entry keys
KEYS = tuple(sorted({key for keys in (*PROBLEM_KEYS.values(), *OBJECT_KEYS.values()) for key in keys})) + ("1,1", "1,1,1")
TOKENS = ("x1", "x2", "x3", "x0", "xi1", "xi2", "xi0", "x", "xi", "i", "+", "-", "*", "/", "^", "(", ")", " ",
          "0", "1", "2", "7", "16", "17", "1/0", "^16", "((", "))", "1/3", ".", ",", "e", "²", "١", "\x00",
          "9" * 320, "0" * 400 + "1", "4" * 5000, "x" + "1" * 5000, "(x1+x2)^16", "2^16^16",
          "e308", "e-309", "e2000000", "1e308", "1e309")


def problem_documents():
    docs = []
    for name in sorted(os.listdir(DATA)):
        if name.endswith(".json"):
            with open(os.path.join(DATA, name)) as fh:
                docs.append(json.load(fh))
    return docs + EXTRA_DOCS


def random_json(rng):
    return rng.choice((
        None, True, False, 0, 1, 2, -1, 3, 0.5, 2.0, "", "x1", "1/2", "gl", "rational", "gaussian", [], {}, [1],
        [1, 1], ["1", "0"], {"p": 1, "q": 0}, {"n": 1, "m": 1}, rng.randint(-3, 4), mutate_text(rng, "1 + x1"),
        rng.choice((MAX_TOTAL_DIM + 1, MAX_PROLONGATION_ORDER, MAX_PROLONGATION_ORDER + 1, 10 ** 6, 2 ** 64)),
        rng.choice(("1e308", "1e309", "1e-309", "1e2000000", "1" + "0" * 308, "1" + "0" * 309, 10 ** 308, 10 ** 309)),
        [rng.choice(("3/4", "1e308", "1e309", "1e2000000", "2e308 i"))],
    ))


def mutate_text(rng, text):
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, len(text))
        op = rng.random()
        if op < 0.5:
            text = text[:k] + rng.choice(TOKENS) + text[k:]
        elif op < 0.75:
            text = text[:k] + text[k + rng.randint(1, 3):]
        else:
            text = text[:k] + text[k:] + text[k:k + rng.randint(1, 6)]
    return text


def mutate(rng, value):
    """A copy of a JSON value with one random change somewhere inside."""
    if isinstance(value, dict) and value and rng.random() < 0.7:
        key = rng.choice(sorted(value))
        op = rng.random()
        if op < 0.15:
            del value[key]
        elif op < 0.25:
            value[rng.choice(KEYS)] = random_json(rng)
        elif op < 0.3:
            # a key the schema does not know, most often a misspelt one
            value[mutate_text(rng, rng.choice(KEYS))] = random_json(rng)
        elif op < 0.4 and isinstance(key, str):
            value[mutate_text(rng, key)] = value.pop(key)
        else:
            value[key] = mutate(rng, value[key])
        return value
    if isinstance(value, list) and value and rng.random() < 0.7:
        k = rng.randrange(len(value))
        op = rng.random()
        if op < 0.2:
            del value[k]
        elif op < 0.35:
            value.append(copy.deepcopy(value[k]))
        else:
            value[k] = mutate(rng, value[k])
        return value
    if isinstance(value, str) and rng.random() < 0.8:
        return mutate_text(rng, value)
    if value.__class__ is int and rng.random() < 0.5:
        return value + rng.choice((-2, -1, 1, 2, MAX_TOTAL_DIM, 2 ** 64))
    return random_json(rng)


def run_inputs(inputs, count, call, allowed):
    """Feed the first `count` inputs to `call`."""
    start = time.perf_counter()
    for item in islice(inputs, count):
        try:
            call(item)
        except allowed:
            pass
        except Exception as exc:  # noqa: BLE001 - the property under test
            pytest.fail("%s: %s on %r" % (type(exc).__name__, exc, item))
    assert time.perf_counter() - start < GUARD_S


def test_decode_problem_gives_a_problem_or_a_problem_error():
    rng = random.Random("fuzz decode_problem")
    seeds = problem_documents()

    def inputs():
        while True:
            doc = copy.deepcopy(rng.choice(seeds))
            for _ in range(rng.randint(1, 4)):
                doc = mutate(rng, doc)
            yield doc

    def call(doc):
        kind, payload, options = decode_problem(doc)
        assert payload is not None and isinstance(options, dict)
        assert options.get("order", 1) <= MAX_PROLONGATION_ORDER
        if kind in ("connection", "metric"):
            decode_point(options, payload.chart.sig)

    run_inputs(inputs(), DECODE_INPUTS, call, ProblemError)


@pytest.mark.parametrize("sig", [ChartSignature(2, 2), ChartSignature(1, 1, "gaussian-rational"), ChartSignature(0, 3)],
                         ids=str)
def test_parse_superfunction_gives_a_superfunction_or_a_syntax_error(sig):
    rng = random.Random("fuzz parse %d|%d %s" % (sig.n, sig.m, sig.field))
    seeds = ["1 + x1", "x1*x2 - 3/4*xi1", "(1 + x1)^3*xi1*xi2", "-(x2 + i)^2", "2^10*x1 - (xi1 + xi2)*(xi1 - xi2)"]

    def inputs():
        while True:
            yield mutate_text(rng, rng.choice(seeds))

    def call(text):
        assert isinstance(parse_superfunction(text, sig), Superfunction)

    run_inputs(inputs(), PARSE_INPUTS, call, SyntaxErrorAt)
