"""Per-layer tracing of superhol from outside the package.

`Recorder.install()` replaces public entry points of the superhol modules
with wrappers, in every module namespace that holds a reference to them, and
`Recorder.uninstall()` puts the originals back.  Nothing in src/ changes.

Timed wrappers record a span (id, parent id, name, problem index, start,
end) and charge the span's self time, its duration minus the time of the
spans it contains, to one layer.  Hot, tiny functions get counting wrappers
instead, which record no span and no time.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
from collections import defaultdict

# layer name -> functions whose spans it owns, as (module, attribute).
# `holonomy._next_derivative` is wrapped only where holonomy calls it, so the
# tower that geometry builds for the second Bianchi check stays in bianchi.
TIMED = {
    "geometry.tower": [("holonomy", "_next_derivative")],
    "holonomy.infinitesimal": [("holonomy", "infinitesimal_holonomy")],
    "holonomy.transport": [("holonomy", "conjugated_generators"), ("holonomy", "span_embedding_residual")],
    "holonomy.decomposability": [("holonomy", "decomposability_certificate")],
    "holonomy.classify": [("holonomy", "classify_geometry")],
    "holonomy.invariants": [("holonomy", "invariant_vectors")],
    "geometry.curvature": [("geometry", "curvature")],
    "geometry.bianchi": [("geometry", "check_first_bianchi"), ("geometry", "check_second_bianchi")],
    "geometry.levi_civita": [("geometry", "levi_civita")],
    "geometry.torsion_ricci": [("geometry", "torsion"), ("geometry", "ricci")],
    "superlin.closure": [("superlin", "generate_subalgebra")],
    "superlin.stabilizer": [("superlin", "stabilizer_algebra")],
    "superlin.classical": [("superlin", "classical_superalgebra")],
    "berger.curvature_space": [("berger", "curvature_space")],
    "berger.derivative_space": [("berger", "curvature_derivative_space")],
    "berger.berger_check": [("berger", "berger_check")],
    "berger.prolongation": [("berger", "cartan_prolongation")],
    "berger.spencer": [("berger", "spencer_rank_identity")],
    "berger.pi_adjoint": [("berger", "pi_adjoint_test")],
    "linalg.kernel": [("linalg", "kernel_basis")],
    "reportio.decode": [("reportio", "decode_problem")],
    "reportio.encode": [("reportio", "dumps_report"), ("reportio", "encode_algebra"), ("reportio", "encode_vector")],
    "cli.run_problem": [("cli", "run_problem")],
}

# counter name -> (owner, attribute); owner is a module or "module.Class"
COUNTED = {
    "superlin.bracket_calls": ("superlin", "superbracket"),
    "superfunc.mul_calls": ("superfunc.Superfunction", "__mul__"),
    "superfunc.add_calls": ("superfunc.Superfunction", "__add__"),
    "superfunc.partial_calls": ("superfunc.Superfunction", "partial"),
    "superfunc.value_calls": ("superfunc.Superfunction", "value"),
    "scalars.to_field_calls": ("scalars", "to_field"),
    "berger.value_calls": ("berger.CurvatureElement", "value"),
}

MODULES = ("scalars", "superfunc", "linalg", "superlin", "geometry", "holonomy", "berger", "reportio", "cli")


def _module(name):
    return sys.modules["superhol." + name]


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []  # [span id, start, child seconds]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.problem = None
        self._next_id = 0
        self._patched = []

    # ---------------------------------------------------------- wrappers

    def _timed(self, layer, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._next_id += 1
            frame = [rec._next_id, time.perf_counter(), 0.0]
            parent = rec.stack[-1][0] if rec.stack else None
            rec.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                dur = end - frame[1]
                rec.self_s[layer] += dur - frame[2]
                if rec.stack:
                    rec.stack[-1][2] += dur
                rec.spans.append((frame[0], parent, layer, rec.problem, frame[1], end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, replacement):
        """Rebind every superhol module global that refers to `original`."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("superhol.") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_attr(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # ---------------------------------------------------------- hooks

    def _after_tower(self, args, table):
        self.counts["geometry.tower_orders"] += 1
        self.counts["geometry.tower_components"] += len(table.components)

    def _after_holonomy(self, args, result):
        self.counts["holonomy.generators"] += len(result.generator_log)
        self.counts["holonomy.algebra_dims"] += result.algebra.total_dim

    def _after_kernel(self, args, result):
        rows, ncols = args[0], args[1]
        self.counts["linalg.kernel_calls"] += 1
        self.counts["linalg.kernel_rows"] += len(rows)
        self.counts["linalg.kernel_cols"] += ncols

    def _after_closure(self, args, result):
        self.counts["superlin.closure_calls"] += 1

    def _after_dumps(self, args, text):
        self.counts["reportio.report_bytes"] += len(text.encode())

    # ---------------------------------------------------------- install

    def install(self):
        hooks = {
            "geometry.tower": self._after_tower,
            "holonomy.infinitesimal": self._after_holonomy,
            "linalg.kernel": self._after_kernel,
            "superlin.closure": self._after_closure,
        }
        for layer, targets in TIMED.items():
            for modname, attr in targets:
                mod = _module(modname)
                original = getattr(mod, attr)
                after = hooks.get(layer)
                if attr == "dumps_report":
                    after = self._after_dumps
                wrapper = self._timed(layer, original, after)
                if layer == "geometry.tower":
                    self._replace_attr(mod, attr, wrapper)
                else:
                    self._replace_everywhere(original, wrapper)
        for name, (owner, attr) in COUNTED.items():
            modname, _, cls = owner.partition(".")
            target = getattr(_module(modname), cls) if cls else _module(modname)
            original = getattr(target, attr)
            wrapper = self._counting(name, original)
            if cls:
                self._replace_attr(target, attr, wrapper)
                if attr == "__add__":
                    self._replace_attr(target, "__radd__", wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        echelon = _module("linalg").SparseEchelon
        insert = echelon.insert
        counts = self.counts

        @functools.wraps(insert)
        def counted_insert(ech, vec):
            grew = insert(ech, vec)
            counts["linalg.echelon_inserts"] += 1
            counts["linalg.echelon_grew"] += grew
            return grew

        self._replace_attr(echelon, "insert", counted_insert)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


def per_layer_metrics(self_s, counts, profile_s, imports):
    """The per-layer metric dict (name -> value) from normalized self seconds
    of one round, exact counts of that round and normalized profile self
    seconds per module."""
    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "geometry.tower_s": self_s["geometry.tower"],
        "geometry.tower_components": counts["geometry.tower_components"],
        "geometry.tower_orders": counts["geometry.tower_orders"],
        "holonomy.infinitesimal_self_s": self_s["holonomy.infinitesimal"],
        "holonomy.generators": counts["holonomy.generators"],
        "holonomy.generator_yield": ratio(counts["holonomy.algebra_dims"], counts["holonomy.generators"]),
        "superlin.closure_s": self_s["superlin.closure"],
        "superlin.closure_calls": counts["superlin.closure_calls"],
        "superlin.bracket_calls": counts["superlin.bracket_calls"],
        "linalg.echelon_inserts": counts["linalg.echelon_inserts"],
        "linalg.echelon_yield": ratio(counts["linalg.echelon_grew"], counts["linalg.echelon_inserts"]),
        "holonomy.transport_s": self_s["holonomy.transport"],
        "geometry.curvature_s": self_s["geometry.curvature"],
        "geometry.bianchi_s": self_s["geometry.bianchi"],
        "geometry.levi_civita_s": self_s["geometry.levi_civita"],
        "geometry.torsion_ricci_s": self_s["geometry.torsion_ricci"],
        "holonomy.decomposability_s": self_s["holonomy.decomposability"],
        "holonomy.classify_s": self_s["holonomy.classify"],
        "holonomy.invariants_s": self_s["holonomy.invariants"],
        "superlin.stabilizer_s": self_s["superlin.stabilizer"],
        "berger.curvature_space_s": self_s["berger.curvature_space"],
        "berger.derivative_space_s": self_s["berger.derivative_space"],
        "berger.value_calls": counts["berger.value_calls"],
        "berger.berger_check_s": self_s["berger.berger_check"],
        "berger.prolongation_s": self_s["berger.prolongation"],
        "berger.spencer_s": self_s["berger.spencer"],
        "berger.pi_adjoint_s": self_s["berger.pi_adjoint"],
        "superlin.classical_s": self_s["superlin.classical"],
        "linalg.kernel_s": self_s["linalg.kernel"],
        "linalg.kernel_calls": counts["linalg.kernel_calls"],
        "linalg.kernel_rows": counts["linalg.kernel_rows"],
        "linalg.kernel_cols": counts["linalg.kernel_cols"],
        "superfunc.mul_calls": counts["superfunc.mul_calls"],
        "superfunc.add_calls": counts["superfunc.add_calls"],
        "superfunc.partial_calls": counts["superfunc.partial_calls"],
        "superfunc.value_calls": counts["superfunc.value_calls"],
        "scalars.to_field_calls": counts["scalars.to_field_calls"],
    }
    for mod in MODULES + ("fractions",):
        out[mod + ".profile_self_s"] = profile_s.get(mod, 0.0)
    out["reportio.decode_s"] = self_s["reportio.decode"]
    out["reportio.encode_s"] = self_s["reportio.encode"]
    out["reportio.report_bytes"] = counts["reportio.report_bytes"]
    out["cli.self_s"] = self_s["cli.run_problem"]
    out["setup.import_superhol_s"] = imports["superhol"]
    out["setup.import_numpy_s"] = imports["numpy"]
    return out


def profile_self_seconds(profile: cProfile.Profile):
    """Self (tottime) seconds per superhol module, plus fractions."""
    stats = pstats.Stats(profile).stats
    out = defaultdict(float)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        path = filename.replace("\\", "/")
        if path.endswith("/fractions.py"):
            out["fractions"] += tottime
            continue
        head, _, base = path.rpartition("/")
        if head.endswith("/superhol") and base[:-3] in MODULES:
            out[base[:-3]] += tottime
    return out
