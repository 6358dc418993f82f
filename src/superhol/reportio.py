"""Problem-file decoding and deterministic report encoding.

All scalars cross the JSON boundary as canonical strings; reports are built
with a fixed key order so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json

from .geometry import Chart, ConnectionData, MetricData
from .scalars import parse_scalar, scalar_str
from .superfunc import ChartSignature, parse_superfunction
from .superlin import SubSuperalgebra, SuperDim, SuperMatrix, classical_superalgebra, generate_subalgebra


class ProblemError(ValueError):
    """Schema violation with a JSON-pointer-ish path."""

    def __init__(self, path, message):
        super().__init__("%s: %s" % (path, message))
        self.path = path


KINDS = ("connection", "metric", "algebra", "prolongation", "pi_adjoint")


def _require(obj, key, path):
    if key not in obj:
        raise ProblemError(path + "/" + key, "missing required key")
    return obj[key]


def _require_object(obj, key, path):
    value = _require(obj, key, path)
    if not isinstance(value, dict):
        raise ProblemError(path + "/" + key, "must be an object")
    return value


def _int(value, path):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ProblemError(path, "must be an integer")


def _require_int(obj, key, path):
    return _int(_require(obj, key, path), path + "/" + key)


def _scalar(value, field, path):
    try:
        return parse_scalar(str(value), field)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemError(path, str(exc))


def _parse_entry(text, sig, path):
    if not isinstance(text, str):
        raise ProblemError(path, "must be a string")
    try:
        return parse_superfunction(text, sig)
    except ValueError as exc:
        raise ProblemError(path, str(exc))


def _field(obj):
    field = obj.get("field", "rational")
    return "gaussian-rational" if field == "gaussian" else field


def decode_chart(obj, path="/chart") -> ChartSignature:
    n = _require_int(obj, "n", path)
    m = _require_int(obj, "m", path)
    try:
        return ChartSignature(n, m, _field(obj))
    except ValueError as exc:
        raise ProblemError(path, str(exc))


def decode_connection(obj, path="") -> ConnectionData:
    sig = decode_chart(_require_object(obj, "chart", path), path + "/chart")
    if obj.get("rank") is None:
        chart = Chart.tangent(sig)
    else:
        rank_obj = _require_object(obj, "rank", path)
        rank = SuperDim(_require_int(rank_obj, "p", path + "/rank"), _require_int(rank_obj, "q", path + "/rank"))
        tangent = bool(obj.get("tangent", rank.p == sig.n and rank.q == sig.m))
        chart = Chart(sig, rank, tangent_sheaf=tangent and rank.p == sig.n and rank.q == sig.m)
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
    field = _field(obj)
    if "name" in obj:
        params = obj.get("params", [])
        if isinstance(params, list):
            params = tuple(_int(x, "%s/params/%d" % (path, k)) for k, x in enumerate(params))
            if len(params) == 1:
                params = params[0]
        elif not isinstance(params, int):
            raise ProblemError(path + "/params", "must be an integer or a list of integers")
        try:
            return classical_superalgebra(obj["name"], params, field)
        except (TypeError, ValueError) as exc:
            raise ProblemError(path, str(exc))
    dim_obj = _require_object(obj, "dim", path)
    dim = SuperDim(_require_int(dim_obj, "p", path + "/dim"), _require_int(dim_obj, "q", path + "/dim"))
    mats = []
    for section in ("even", "odd"):
        for k, flat in enumerate(obj.get(section, [])):
            t = dim.total
            if not isinstance(flat, list) or len(flat) != t * t:
                raise ProblemError("%s/%s/%d" % (path, section, k), "expected %d entries" % (t * t))
            entries = [
                [_scalar(flat[a * t + b], field, "%s/%s/%d" % (path, section, k)) for b in range(t)]
                for a in range(t)
            ]
            mats.append(SuperMatrix(dim, entries, None, field))
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
    for key in ("cap_order", "transport_steps", "order", "candidates"):
        if options.get(key) is not None:
            options[key] = _int(options[key], "/options/" + key)
    payload = None
    if kind == "connection":
        payload = decode_connection(obj)
    elif kind == "metric":
        payload = decode_metric(obj)
    else:
        payload = decode_algebra(_require_object(obj, "algebra", ""), "/algebra")
    return kind, payload, options


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
