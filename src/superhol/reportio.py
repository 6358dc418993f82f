"""Problem-file decoding and deterministic report encoding.

All scalars cross the JSON boundary as canonical strings; reports are built
with a fixed key order so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json

from .geometry import Chart, ConnectionData, MetricData
from .scalars import FIELDS, GAUSSIAN, MAX_COEFFICIENT_BITS, RATIONAL, parse_scalar, scalar_bits, scalar_str
from .superfunc import ChartSignature, parse_superfunction
from .superlin import (
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    classical_dim,
    classical_superalgebra,
    generate_subalgebra,
)


class ProblemError(ValueError):
    """Schema violation with a JSON-pointer-ish path."""

    def __init__(self, path, message):
        super().__init__("%s: %s" % (path, message))
        self.path = path


KINDS = ("connection", "metric", "algebra", "prolongation", "pi_adjoint")

# Largest `options.transport_steps` (or `--steps`) accepted: the float
# transport's time is linear in the number of steps.
MAX_TRANSPORT_STEPS = 100_000
# Largest total dimension a problem may ask for: n + m of a chart, p + q of
# a rank or of an explicit algebra's dim, and p + q of the superspace a
# classical family's params give.  Tables grow as (n+m)^3 or (p+q)^2 and a
# superfunction as 2^m before any check runs, so a larger size would be an
# unbounded allocation, not a problem this program can answer.  Every
# bundled, test and benchmark problem has a total of at most 6.
MAX_TOTAL_DIM = 16
# Largest `options.cap_order` (or `--cap-order`) accepted: the largest default
# cap, 2 (p+q)^2 + m (`holonomy.default_order_cap`), of a problem within
# MAX_TOTAL_DIM.
MAX_CAP_ORDER = 2 * MAX_TOTAL_DIM ** 2 + MAX_TOTAL_DIM
# The integer options, each with the least value it may take, and those with
# a largest value, with it.
INTEGER_OPTIONS = {"cap_order": 0, "transport_steps": 0, "order": 1}
INTEGER_MAXIMA = {"cap_order": MAX_CAP_ORDER, "transport_steps": MAX_TRANSPORT_STEPS}


def _require(obj, key, path):
    if key not in obj:
        raise ProblemError(path + "/" + key, "missing required key")
    return obj[key]


def _require_object(obj, key, path):
    value = _require(obj, key, path)
    if not isinstance(value, dict):
        raise ProblemError(path + "/" + key, "must be an object")
    return value


def _int(value, path, least=None):
    """A JSON integer, at least `least` when that is given.  A float, a
    string or a bool is not one: none of them is read as an integer."""
    if value.__class__ is not int:
        raise ProblemError(path, "must be an integer")
    if least is not None and value < least:
        raise ProblemError(path, "must be at least %d" % least)
    return value


def _require_int(obj, key, path, least=None):
    return _int(_require(obj, key, path), path + "/" + key, least)


def _superdim(obj, path, keys=("p", "q")):
    """Two nonnegative integer fields of an object, whose sum is at most
    MAX_TOTAL_DIM, checked at `path`."""
    first, second = (_require_int(obj, key, path, 0) for key in keys)
    if first + second > MAX_TOTAL_DIM:
        raise ProblemError(path, "%s + %s must be at most %d" % (keys + (MAX_TOTAL_DIM,)))
    return first, second


def _scalar(value, field, path):
    """A point or explicit-algebra scalar, read from str(value) by the
    bounded `parse_scalar`, whose numerators and denominators have at most
    MAX_COEFFICIENT_BITS bits, as a superfunction literal's must."""
    text = str(value)
    try:
        scalar = parse_scalar(text, field)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemError(path, str(exc))
    if scalar_bits(scalar) > MAX_COEFFICIENT_BITS:
        raise ProblemError(path, "a number above the limit of %d bits" % MAX_COEFFICIENT_BITS)
    return scalar


def _parse_entry(text, sig, path):
    if not isinstance(text, str):
        raise ProblemError(path, "must be a string")
    try:
        return parse_superfunction(text, sig)
    except ValueError as exc:
        raise ProblemError(path, str(exc))


def _field(obj, path):
    """The field tag of an object: "rational" when absent, and "gaussian"
    read as "gaussian-rational"."""
    field = obj.get("field", RATIONAL)
    field = GAUSSIAN if field == "gaussian" else field
    if field not in FIELDS:
        raise ProblemError(path + "/field", "must be rational, gaussian or gaussian-rational")
    return field


def decode_chart(obj, path="/chart") -> ChartSignature:
    n, m = _superdim(obj, path, ("n", "m"))
    return ChartSignature(n, m, _field(obj, path))


def decode_connection(obj, path="") -> ConnectionData:
    sig = decode_chart(_require_object(obj, "chart", path), path + "/chart")
    if obj.get("rank") is None:
        chart = Chart.tangent(sig)
    else:
        rank_obj = _require_object(obj, "rank", path)
        rank = SuperDim(*_superdim(rank_obj, path + "/rank"))
        fits = rank.p == sig.n and rank.q == sig.m
        tangent = obj.get("tangent", fits)
        if tangent.__class__ is not bool:
            raise ProblemError(path + "/tangent", "must be true or false")
        if tangent and not fits:
            raise ProblemError(path + "/tangent", "the tangent sheaf has rank %d|%d, the chart's n|m" % (sig.n, sig.m))
        chart = Chart(sig, rank, tangent_sheaf=tangent)
    entries = {}
    for key, text in _require_object(obj, "gamma", path).items():
        try:
            a, b_idx, a_idx = (int(x) for x in key.split(","))
        except ValueError:
            raise ProblemError(path + "/gamma/" + key, "key must be 'a,B,A'")
        if not (1 <= a <= sig.total and 1 <= b_idx <= chart.rank.total and 1 <= a_idx <= chart.rank.total):
            raise ProblemError(path + "/gamma/" + key, "index out of range")
        entries[(a, b_idx, a_idx)] = _parse_entry(text, sig, path + "/gamma/" + key)
    try:
        return ConnectionData.from_entries(chart, entries)
    except ValueError as exc:
        raise ProblemError(path + "/gamma", str(exc))


def decode_metric(obj, path="") -> MetricData:
    sig = decode_chart(_require_object(obj, "chart", path), path + "/chart")
    if not sig.total:
        raise ProblemError(path + "/chart", "a metric needs n + m >= 1")
    chart = Chart.tangent(sig)
    entries = {}
    for key, text in _require_object(obj, "g", path).items():
        try:
            a, b = (int(x) for x in key.split(","))
        except ValueError:
            raise ProblemError(path + "/g/" + key, "key must be 'a,b'")
        if not (1 <= a <= sig.total and 1 <= b <= sig.total):
            raise ProblemError(path + "/g/" + key, "index out of range")
        entries[(a, b)] = _parse_entry(text, sig, path + "/g/" + key)
    try:
        return MetricData.from_entries(chart, entries)
    except ValueError as exc:
        raise ProblemError(path + "/g", str(exc))


def decode_algebra(obj, path="/algebra") -> SubSuperalgebra:
    field = _field(obj, path)
    if "name" in obj:
        params = obj.get("params", [])
        if isinstance(params, list):
            params = tuple(_int(x, "%s/params/%d" % (path, k)) for k, x in enumerate(params))
            if len(params) == 1:
                params = params[0]
        elif params.__class__ is not int:
            raise ProblemError(path + "/params", "must be an integer or a list of integers")
        try:
            dim = classical_dim(obj["name"], params)
            if dim.total > MAX_TOTAL_DIM:
                raise ValueError("%s acts on %r: p + q must be at most %d" % (obj["name"], dim, MAX_TOTAL_DIM))
            return classical_superalgebra(obj["name"], params, field)
        except (TypeError, ValueError) as exc:
            raise ProblemError(path, str(exc))
    dim_obj = _require_object(obj, "dim", path)
    dim = SuperDim(*_superdim(dim_obj, path + "/dim"))
    mats = []
    for section in ("even", "odd"):
        flats = obj.get(section, [])
        if not isinstance(flats, list):
            raise ProblemError("%s/%s" % (path, section), "must be a list")
        for k, flat in enumerate(flats):
            t = dim.total
            if not isinstance(flat, list) or len(flat) != t * t:
                raise ProblemError("%s/%s/%d" % (path, section, k), "expected %d entries" % (t * t))
            entries = [
                [_scalar(flat[a * t + b], field, "%s/%s/%d" % (path, section, k)) for b in range(t)]
                for a in range(t)
            ]
            mats.append(SuperMatrix(dim, entries, field))
    alg = SubSuperalgebra.from_matrices(dim, mats, field)
    if generate_subalgebra(alg.basis(), dim, field).graded_dim != alg.graded_dim:
        raise ProblemError(path, "basis is not closed under the bracket")
    return alg


def decode_problem(obj):
    if not isinstance(obj, dict):
        raise ProblemError("/", "must be an object")
    kind = _require(obj, "kind", "")
    if kind not in KINDS:
        raise ProblemError("/kind", "must be one of %s" % (KINDS,))
    options = obj.get("options", {})
    if not isinstance(options, dict):
        raise ProblemError("/options", "must be an object")
    options = dict(options)
    for key in INTEGER_OPTIONS:
        if options.get(key) is not None:
            options[key] = check_option(key, options[key])
    payload = None
    if kind == "connection":
        payload = decode_connection(obj)
    elif kind == "metric":
        payload = decode_metric(obj)
    else:
        payload = decode_algebra(_require_object(obj, "algebra", ""), "/algebra")
    return kind, payload, options


def check_option(key, value):
    """The value of an integer option, from a problem file or a command-line
    flag, checked at /options/<key>: an integer no less than its least value
    in INTEGER_OPTIONS, and no more than its largest in INTEGER_MAXIMA."""
    value = _int(value, "/options/" + key, INTEGER_OPTIONS[key])
    if key in INTEGER_MAXIMA and value > INTEGER_MAXIMA[key]:
        raise ProblemError("/options/" + key, "must be at most %d" % INTEGER_MAXIMA[key])
    return value


def decode_point(options, sig: ChartSignature):
    raw = options.get("point")
    if raw is None:
        return [0] * sig.n
    if not isinstance(raw, list) or len(raw) != sig.n:
        raise ProblemError("/options/point", "expected %d coordinates" % sig.n)
    return [_scalar(x, sig.field, "/options/point/%d" % k) for k, x in enumerate(raw)]


# ----------------------------------------------------------------- encoding


def encode_matrix(m: SuperMatrix):
    return [scalar_str(v) for row in m.entries for v in row]


def encode_algebra(alg: SubSuperalgebra):
    return {
        "dim": {"p": alg.dim.p, "q": alg.dim.q},
        "even": [encode_matrix(m) for m in alg.even_basis],
        "odd": [encode_matrix(m) for m in alg.odd_basis],
    }


def encode_vector(vec):
    return [scalar_str(v) for v in vec]


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"
