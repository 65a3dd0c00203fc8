"""Per-layer spans and counts for lieyam, recorded from outside the package.

`Tracer.install()` replaces the entry points of every layer module with
timing wrappers and `uninstall()` puts the originals back.  A layer is one
module of `src/lieyam`; its entry points are

* its public functions, plus any private function another lieyam module
  imports by name (quadratic imports `rotabaxter._rb_residuals`, cli
  imports `jsonio._read_json`);
* the methods in METHODS, patched on their classes.

The wrapper is bound under every name that refers to the original in any
lieyam module, so `cli.cohomology_dim` and `search.is_relative_rb` (names
imported from another module) are traced as well.  Each call records a
span: name, layer, start, end, parent span, request id, whether it raised,
and the counters of COUNTERS.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("jsonio", "algebra", "reps", "yamaguti", "paircomplex", "linalg",
          "deform", "rotabaxter", "quadratic", "search", "cli")

# Per-entry and per-index helpers: they run once per vector or index, so a
# span around them would cost more than the work it measures.
SKIP = {
    "linalg": {"vzero", "vadd", "vsub", "vneg", "vscale", "vec_is_zero", "veq", "lincomb_is_zero"},
    "yamaguti": {"wedge_pairs", "wedge_index_map", "wedge_dim", "cochain_dim"},
    "paircomplex": {"pair_cochain_dim"},
    "cli": {"os_dirname"},
}

METHODS = {
    "linalg": (("Matrix", "rank"), ("Matrix", "nullspace_dim"), ("Matrix", "nullspace_basis"),
               ("Matrix", "invert")),
    "algebra": (("LieYamagutiAlgebra", "check_axioms"),),
    "reps": (("LieYRepPair", "__init__"),),
    "deform": (("NijenhuisStructure", "__init__"),),
    "rotabaxter": (("RelativeRBOperator", "__init__"), ("RBNTriple", "__init__")),
    "quadratic": (("QuadraticForm", "__init__"), ("RMatrix", "__init__")),
}

# Law predicates a grid search applies to its candidates.
LAW_CHECKS = {"is_relative_rb", "is_nijenhuis", "is_rbn", "is_skew_endomorphism",
              "is_invariant_form", "is_rb_nijenhuis"}
FULL_CHECKS = {"is_rbn", "is_rb_nijenhuis"}

COUNTS = ("algebra.tuples", "reps.tuples", "yamaguti.entries", "yamaguti.nnz",
          "paircomplex.columns", "paircomplex.nnz", "linalg.entries", "linalg.nnz",
          "linalg.rank_sum")

#: every per-layer metric of a traced run, with its unit
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    **{name: "count" for name in COUNTS},
    "linalg.density": "ratio",
    "search.candidates": "count",
    "search.full_checks": "count",
    "search.hits": "count",
    "search.hit_ratio": "ratio",
    "trace.overhead_s": "s",
}


def _nnz(mat) -> int:
    return sum(1 for row in mat.data for x in row if x != 0)


def _matrix_counts(mat, rank):
    return {"linalg.entries": mat.rows * mat.cols, "linalg.nnz": _nnz(mat), "linalg.rank_sum": rank}


# Counters computed from a call's arguments and result.  Tuple counts are
# the full enumerations each check performs when every law holds (computed
# from the dims, not observed: an early exit on failure is not subtracted).
COUNTERS = {
    "check_axioms": lambda a, r: {"algebra.tuples": (lambda n: n**3 + 2 * n**4 + n**5)(a[0].dim)},
    "is_homomorphism": lambda a, r: {"algebra.tuples": (lambda n: n**2 + n**3)(a[1].dim)},
    "is_nijenhuis": lambda a, r: {"algebra.tuples": (lambda n: n**2 + n**3)(a[0].dim)},
    "nijenhuis_deformation_tensors": lambda a, r: {"algebra.tuples": (lambda n: n**2 + n**3)(a[0].dim)},
    "check_representation": lambda a, r: {"reps.tuples": (lambda n: 3 * n**3 + 2 * n**4)(a[0].dim)},
    "check_derived_identities": lambda a, r: {"reps.tuples": (lambda n: n**3 + 2 * n**4)(a[0].dim)},
    "is_pair_homomorphism": lambda a, r: {"reps.tuples": (lambda n: n + 2 * n**2)(a[2].dim_g)},
    "delta_matrix": lambda a, r: {"yamaguti.entries": r.rows * r.cols, "yamaguti.nnz": _nnz(r)},
    "pair_delta_matrix": lambda a, r: {"paircomplex.columns": r.cols, "paircomplex.nnz": _nnz(r)},
    "rank": lambda a, r: _matrix_counts(a[0], r),
    "nullspace_basis": lambda a, r: _matrix_counts(a[0], a[0].cols - len(r)),
    "invert": lambda a, r: _matrix_counts(a[0], a[0].rows),
}


class Tracer:
    """Wraps lieyam's layer entry points; records spans while installed."""

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, request, raised, counts]
        self.current = None
        self.request = None
        self._patches = self._plan()   # [(owner, attribute, original, wrapper)]

    def _plan(self):
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "lieyam" or name.startswith("lieyam."))}
        imported = {id(val) for mod in mods.values() for val in vars(mod).values()
                    if inspect.isfunction(val) and val.__module__ != mod.__name__}
        wrappers = {}            # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = mods[f"lieyam.{layer}"]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(val)
                        and attr not in SKIP.get(layer, ())
                        and (not attr.startswith("_") or id(val) in imported)):
                    wrappers[id(val)] = (val, self._wrap(val, f"{layer}.{attr}", layer))
        patches = [(mod, attr, val, wrappers[id(val)][1])
                   for mod in mods.values() for attr, val in vars(mod).items()
                   if id(val) in wrappers and wrappers[id(val)][0] is val]
        for layer, methods in METHODS.items():
            for cls_name, meth in methods:
                cls = getattr(mods[f"lieyam.{layer}"], cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original,
                                self._wrap(original, f"{layer}.{cls_name}.{meth}", layer)))
        return patches

    def _wrap(self, fn, name, layer):
        short = name.rsplit(".", 1)[-1]
        counter = COUNTERS.get(short)
        law = short in LAW_CHECKS
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, parent, tracer.request, True, None]
            spans.append(span)
            tracer.current = idx
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[6] = False
            finally:
                span[3] = perf_counter()
                tracer.current = parent
            if counter is not None or law:
                extra = counter(args, result) if counter is not None else {}
                if law:
                    extra["ok"] = bool(result)
                    extra["candidate"] = next(
                        (id(a) for a in args if type(a).__name__ == "Matrix"), None)
                span[7] = extra
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self, since=0):
        """Self time of each span from index `since`: duration minus its children's."""
        spans = self.spans[since:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[4] is not None:
                child[span[4] - since] += span[3] - span[2]
        return [s[3] - s[2] - c for s, c in zip(spans, child)]

    def layer_metrics(self, passes: int):
        """Per-layer self time, calls, errors and counters, per pass."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = 0
        counts = {k: 0 for k in COUNTS}
        # Consecutive law checks of one search call on the same operator
        # object test one candidate; a new object starts the next candidate.
        candidates = []   # [all checks passed, reached a full check]
        last = {}         # search parent span -> candidate object id
        for span, own in zip(self.spans, self.self_times()):
            name, layer, _, _, parent, _, raised, extra = span
            out[f"{layer}.self_s"] += own
            out[f"{layer}.calls"] += 1
            out[f"{layer}.errors"] += int(raised)
            if not extra:
                continue
            if "candidate" in extra and parent is not None and self.spans[parent][1] == "search":
                if last.get(parent) != extra["candidate"]:
                    last[parent] = extra["candidate"]
                    candidates.append([True, False])
                entry = candidates[-1]
                entry[0] = entry[0] and extra["ok"]
                entry[1] = entry[1] or name.rsplit(".", 1)[-1] in FULL_CHECKS
            for k, v in extra.items():
                if k in counts:
                    counts[k] += v
        out.update(counts)
        out["linalg.density"] = counts["linalg.nnz"] / counts["linalg.entries"] \
            if counts["linalg.entries"] else 0.0
        out["search.candidates"] = len(candidates)
        out["search.full_checks"] = sum(1 for ok, full in candidates if full)
        out["search.hits"] = sum(1 for ok, full in candidates if ok)
        out["search.hit_ratio"] = out["search.hits"] / len(candidates) if candidates else 0.0
        for key in out:
            if key != "linalg.density" and key != "search.hit_ratio":
                out[key] = out[key] / passes
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, request, raised, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, _, t0, t1, parent, req, raised, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": req, "raised": raised,
                                     "counts": extra}) + "\n")
