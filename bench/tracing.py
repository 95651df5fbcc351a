"""Span tracer that wraps mck's module-level functions from outside.

Each wrapped call records a span (function, start, end, parent span).  Self
time is a span's duration minus the time covered by its child spans.  The
library is not edited: `Tracer.install` rebinds module attributes and
`Tracer.uninstall` restores the originals.  Names that a module imported
with `from x import f` are wrapped where they are looked up
(`complex_builder.delta`, `complex_builder.refinements`).
"""

import gzip
import json
import sys
from time import perf_counter

# (module, attribute, metric name); metric names are <layer>.<function>
WRAPPED = (
    ("mck.cli", "main", "cli.main"),
    ("mck.complex_builder", "enumerate_top_classes",
     "complex_builder.enumerate_top_classes"),
    ("mck.complex_builder", "build_complex", "complex_builder.build_complex"),
    ("mck.complex_builder", "handle_record", "complex_builder.handle_record"),
    ("mck.complex_builder", "catalog_to_json",
     "complex_builder.catalog_to_json"),
    ("mck.complex_builder", "complex_to_json",
     "complex_builder.complex_to_json"),
    ("mck.complex_builder", "complex_from_json",
     "complex_builder.complex_from_json"),
    ("mck.morse_graph", "canonical_form", "morse_graph.canonical_form"),
    ("mck.morse_graph", "automorphisms", "morse_graph.automorphisms"),
    ("mck.morse_graph", "validate", "morse_graph.validate"),
    ("mck.morse_graph", "decode_canonical", "morse_graph.decode_canonical"),
    ("mck.morse_graph", "mirror", "morse_graph.mirror"),
    ("mck.morse_graph", "to_json", "morse_graph.to_json"),
    ("mck.morse_graph", "from_json", "morse_graph.from_json"),
    ("mck.complex_builder", "delta", "perturbation.delta"),
    ("mck.perturbation", "split_level", "perturbation.split_level"),
    ("mck.complex_builder", "refinements", "permutohedron.refinements"),
    ("mck.twist_algebra", "homology_model", "twist_algebra.homology_model"),
    ("mck.twist_algebra", "classify_circles",
     "twist_algebra.classify_circles"),
    ("mck.twist_algebra", "u_polytope", "twist_algebra.u_polytope"),
    ("mck.twist_algebra", "check_stab_action",
     "twist_algebra.check_stab_action"),
    ("mck.linalg", "solve_square", "linalg.solve_square"),
    ("mck.linalg", "rref", "linalg.rref"),
    ("mck.linalg", "affine_rank", "linalg.affine_rank"),
)

NAMES = tuple(name for _, _, name in WRAPPED)

# Exact counts reported next to calls and self time.
EXTRA_COUNTS = (
    "complex_builder.classes", "complex_builder.incidence",
    "complex_builder.top_count", "permutohedron.refinements.faces",
    "morse_graph.automorphisms.group_order_sum", "trace.spans",
)


class Tracer:
    """Records spans for one traced pass; counters are per pass."""

    def __init__(self):
        self._originals = []
        self.reset()

    def reset(self):
        self.spans = []          # [fid, start, end, parent index]
        self._stack = []         # open span indices
        self._child = []         # child time of each open span
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.raised = [0] * len(NAMES)
        self.forms = set()
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self.new_classes = 0
        self.polytope_depth = 0
        self.polytope_solves = 0

    def install(self):
        for fid, (module, attr, _) in enumerate(WRAPPED):
            mod = sys.modules[module]
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fid, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals = []

    def _wrap(self, fid, fn):
        name = NAMES[fid]
        observe = _OBSERVERS.get(name)
        is_polytope = name == "twist_algebra.u_polytope"
        is_solve = name == "linalg.solve_square"

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [fid, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            self._child.append(0.0)
            if is_polytope:
                self.polytope_depth += 1
            elif is_solve and self.polytope_depth:
                self.polytope_solves += 1
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                span[1], span[2] = start, end
                self._stack.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += end - start
                self.calls[fid] += 1
                self.self_s[fid] += (end - start) - child
                if is_polytope:
                    self.polytope_depth -= 1
                if not ok:
                    self.raised[fid] += 1
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def metrics(self):
        """Per-pass metrics: calls and self time per function, plus the
        exact counts and ratios; each value is (value, unit)."""
        out = {}
        for fid, name in enumerate(NAMES):
            out[name + ".calls"] = (self.calls[fid], "count")
            out[name + ".self_s"] = (self.self_s[fid], "s")
        counts = dict(self.counts, **{"trace.spans": len(self.spans)})
        for name in EXTRA_COUNTS:
            out[name] = (counts[name], "count")
        ix = NAMES.index
        out["complex_builder.closure.new_class_ratio"] = (_ratio(
            self.new_classes, self.calls[ix("perturbation.delta")]), "ratio")
        cf_calls = self.calls[ix("morse_graph.canonical_form")]
        out["morse_graph.canonical_form.distinct_ratio"] = (
            _ratio(len(self.forms), cf_calls), "ratio")
        vid = ix("morse_graph.validate")
        out["morse_graph.validate.reject_ratio"] = (
            _ratio(self.raised[vid], self.calls[vid]), "ratio")
        out["twist_algebra.u_polytope.solves_per_class"] = (_ratio(
            self.polytope_solves, self.calls[ix("twist_algebra.u_polytope")]),
            "ratio")
        return out

    def write_spans(self, path):
        """Write every span of the pass as gzip'd JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": NAMES,
                                 "fields": ["fid", "start", "end", "parent"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _observe_canonical(tracer, result):
    tracer.forms.add(result)


def _observe_automorphisms(tracer, result):
    tracer.counts["morse_graph.automorphisms.group_order_sum"] += len(result)


def _observe_refinements(tracer, result):
    tracer.counts["permutohedron.refinements.faces"] += len(result)


def _observe_complex(tracer, K):
    tracer.counts["complex_builder.classes"] += len(K.classes)
    tracer.counts["complex_builder.incidence"] += len(K.incidence)
    tracer.counts["complex_builder.top_count"] += K.top_count


def _observe_build(tracer, K):
    tracer.new_classes += len(K.classes) - K.top_count
    _observe_complex(tracer, K)


_OBSERVERS = {
    "morse_graph.canonical_form": _observe_canonical,
    "morse_graph.automorphisms": _observe_automorphisms,
    "permutohedron.refinements": _observe_refinements,
    "complex_builder.build_complex": _observe_build,
    "complex_builder.complex_from_json": _observe_complex,
}
