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


def decode_chart(obj, path="/chart") -> ChartSignature:
    n = _require(obj, "n", path)
    m = _require(obj, "m", path)
    field = obj.get("field", "rational")
    if field == "gaussian":
        field = "gaussian-rational"
    try:
        return ChartSignature(int(n), int(m), field)
    except ValueError as exc:
        raise ProblemError(path, str(exc))


def decode_connection(obj, path="") -> ConnectionData:
    sig = decode_chart(_require(obj, "chart", path), path + "/chart")
    rank_obj = obj.get("rank")
    if rank_obj is None:
        chart = Chart.tangent(sig)
    else:
        rank = SuperDim(int(_require(rank_obj, "p", path + "/rank")), int(_require(rank_obj, "q", path + "/rank")))
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
        try:
            entries[(a, b_idx, a_idx)] = parse_superfunction(text, sig)
        except ValueError as exc:
            raise ProblemError(path + "/gamma/" + key, str(exc))
    try:
        return ConnectionData.from_entries(chart, entries)
    except ValueError as exc:
        raise ProblemError(path + "/gamma", str(exc))


def decode_metric(obj, path="") -> MetricData:
    sig = decode_chart(_require(obj, "chart", path), path + "/chart")
    chart = Chart.tangent(sig)
    entries = {}
    for key, text in _require_object(obj, "g", path).items():
        try:
            a, b = (int(x) for x in key.split(","))
        except ValueError:
            raise ProblemError(path + "/g/" + key, "key must be 'a,b'")
        if not (1 <= a <= sig.total and 1 <= b <= sig.total):
            raise ProblemError(path + "/g/" + key, "index out of range")
        try:
            entries[(a, b)] = parse_superfunction(text, sig)
        except ValueError as exc:
            raise ProblemError(path + "/g/" + key, str(exc))
    try:
        return MetricData.from_entries(chart, entries)
    except ValueError as exc:
        raise ProblemError(path + "/g", str(exc))


def decode_algebra(obj, path="/algebra") -> SubSuperalgebra:
    if "name" in obj:
        params = obj.get("params", [])
        if isinstance(params, list):
            params = tuple(int(x) for x in params)
            if len(params) == 1:
                params = params[0]
        field = obj.get("field", "rational")
        if field == "gaussian":
            field = "gaussian-rational"
        try:
            return classical_superalgebra(obj["name"], params, field)
        except ValueError as exc:
            raise ProblemError(path, str(exc))
    dim_obj = _require(obj, "dim", path)
    dim = SuperDim(int(_require(dim_obj, "p", path + "/dim")), int(_require(dim_obj, "q", path + "/dim")))
    field = obj.get("field", "rational")
    if field == "gaussian":
        field = "gaussian-rational"
    mats = []
    for section in ("even", "odd"):
        for k, flat in enumerate(obj.get(section, [])):
            t = dim.total
            if not isinstance(flat, list) or len(flat) != t * t:
                raise ProblemError("%s/%s/%d" % (path, section, k), "expected %d entries" % (t * t))
            entries = [
                [parse_scalar(flat[a * t + b], field) for b in range(t)] for a in range(t)
            ]
            mats.append(SuperMatrix(dim, entries, None, field))
    alg = SubSuperalgebra.from_matrices(dim, mats, field)
    if generate_subalgebra(alg.basis(), dim, field).graded_dim != alg.graded_dim:
        raise ProblemError(path, "basis is not closed under the bracket")
    return alg


def decode_problem(obj):
    kind = _require(obj, "kind", "")
    if kind not in KINDS:
        raise ProblemError("/kind", "must be one of %s" % (KINDS,))
    options = obj.get("options", {})
    payload = None
    if kind == "connection":
        payload = decode_connection(obj)
    elif kind == "metric":
        payload = decode_metric(obj)
    else:
        payload = decode_algebra(_require(obj, "algebra", ""), "/algebra")
    return kind, payload, options


def decode_point(options, sig: ChartSignature):
    raw = options.get("point")
    if raw is None:
        return [0] * sig.n
    if not isinstance(raw, list) or len(raw) != sig.n:
        raise ProblemError("/options/point", "expected %d coordinates" % sig.n)
    return [parse_scalar(str(x), sig.field) for x in raw]


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
