"""Outside-in tracing of qhcalc: spans and call counts recorded at module boundaries.

The tracer never edits the program.  It replaces public functions and methods
where the program looks them up -- module globals in every ``qhcalc`` module
that refers to the function, or the attribute of the class that defines the
method -- with wrappers that record a span (name, start, end, parent span, job)
or only count calls.  Spans stay in memory; the run writes them out at the end.

A hook whose target no longer exists stops the traced run (``MissingHook``),
so that a layer metric never reads 0 because its function was renamed; after
such a refactor, point the hook at the new name.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

SPAN, COUNT = "span", "count"


class MissingHook(LookupError):
    """A hook target that the imported ``qhcalc`` does not define."""

# (span or counter name, module, attribute path, kind).  Several targets may
# share one name; their spans then add up under it.
HOOKS = (
    ("qalgebra.build", "qalgebra", "QuantumClass.build", SPAN),
    ("qalgebra.coerce", "qalgebra", "GroundField.coerce", COUNT),
    ("rings.quantum_product", "rings", "RingPresentation.quantum_product", SPAN),
    ("rings.structure", "rings", "CPn.structure", COUNT),
    ("rings.structure", "rings", "Grassmannian.structure", COUNT),
    ("rings.littlewood_richardson", "rings", "littlewood_richardson", SPAN),
    ("rings.rim_hook_reduce", "rings", "rim_hook_reduce", SPAN),
    ("ladders.search_decompositions", "ladders", "search_decompositions", SPAN),
    ("ladders.verify_decomposition", "ladders", "verify_decomposition", SPAN),
    ("ladders.build_ladder", "ladders", "build_ladder", SPAN),
    ("models.cpn_fixed_points", "models", "cpn_fixed_points", SPAN),
    ("spectra.augmented_action", "spectra", "augmented_action", COUNT),
    ("carriers.relation_verdict", "carriers", "relation_verdict", SPAN),
    ("carriers.stable_subsequence", "carriers", "stable_subsequence", SPAN),
    ("carriers.admissible_assignments", "carriers", "admissible_assignments", SPAN),
    ("carriers.counting_check", "carriers", "counting_check", SPAN),
    ("carriers.neg_monotone_obstruction", "carriers", "neg_monotone_obstruction", SPAN),
    *(("serialize.parse", "serialize", fn, SPAN) for fn in (
        "frac_from_str", "class_from_str", "ring_from_json", "decomposition_from_json",
        "orbit_from_json", "monotone_from_json", "table_from_json", "model_from_json")),
    *(("serialize.format", "serialize", fn, SPAN) for fn in (
        "frac_to_str", "class_to_str", "ring_to_json", "decomposition_to_json",
        "orbit_to_json", "monotone_to_json", "model_to_json")),
)

# Per-layer metrics of BENCHMARK.json with their units; the layer -> end-to-end
# map is in perfbench/README.md.
LAYER_METRICS = {
    "qalgebra.build.calls": "count",
    "qalgebra.build.self_s": "s",
    "qalgebra.coerce.calls": "count",
    "rings.quantum_product.calls": "count",
    "rings.quantum_product.self_s": "s",
    "rings.littlewood_richardson.calls": "count",
    "rings.littlewood_richardson.self_s": "s",
    "rings.rim_hook_reduce.calls": "count",
    "rings.rim_hook_reduce.self_s": "s",
    "rings.structure.calls": "count",
    "rings.structure.hit_ratio": "ratio",
    "ladders.search_decompositions.self_s": "s",
    "ladders.search.products": "count",
    "ladders.search.yield": "ratio",
    "ladders.verify_decomposition.self_s": "s",
    "ladders.build_ladder.self_s": "s",
    "models.cpn_fixed_points.self_s": "s",
    "spectra.augmented_action.calls": "count",
    "carriers.admissible_assignments.calls": "count",
    "carriers.admissible_assignments.self_s": "s",
    "carriers.assignments_built": "count",
    "carriers.assignments_used": "count",
    "carriers.assignment_use_ratio": "ratio",
    "carriers.stable_subsequence.self_s": "s",
    "carriers.counting_check.self_s": "s",
    "carriers.neg_monotone_obstruction.self_s": "s",
    "serialize.parse.self_s": "s",
    "serialize.format.self_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and counts while ``active``; one instance per traced sweep."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.counts = Counter()
        self.cli = []  # (import_s, main_s, startup_s) per traced CLI process
        self.job = None
        self.active = False
        self._stack = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            return self._observe(name, result, parent)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, result, parent):
        """Work counters read from a call's result."""
        if name == "ladders.search_decompositions":
            self.counts["ladders.search.decompositions"] += len(result)
        elif name == "carriers.admissible_assignments":
            # stable_subsequence consumes only the first assignment per k;
            # any other caller consumes every assignment it is given.
            first_only = parent >= 0 and self.spans[parent][0] == "carriers.stable_subsequence"
            self.counts["carriers.assignments_built"] += len(result)
            self.counts["carriers.assignments_used"] += min(len(result), 1) if first_only else len(result)
        return result

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every hook target in the currently imported ``qhcalc`` modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qhcalc" or n.startswith("qhcalc."))]
        targets, missing = [], []
        for name, module, path, kind in HOOKS:
            owner = sys.modules.get(f"qhcalc.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"qhcalc.{module}.{path}")
            targets.append((name, kind, owner, cls_path, attr, raw))
        if missing:
            raise MissingHook("hook targets not found: " + ", ".join(missing))
        for name, kind, owner, cls_path, attr, raw in targets:
            make = self._span if kind == SPAN else self._count
            if cls_path:
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(make(name, raw.__func__)))
                else:
                    setattr(owner, attr, make(name, raw))
                continue
            wrapper = make(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)

    # -- results -----------------------------------------------------------

    def add_child(self, data, job, wall_s):
        """Merge the trace a traced CLI child process wrote."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, job])
        self.counts.update(data["counts"])
        self.cli.append((data["import_s"], data["main_s"],
                         wall_s - data["import_s"] - data["main_s"]))

    def totals(self):
        """Per span name: (calls, self seconds); self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def search_products(self):
        """quantum_product spans with a search_decompositions span above them."""
        inside = [False] * len(self.spans)
        count = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            inside[i] = name == "ladders.search_decompositions" or (parent >= 0 and inside[parent])
            if inside[i] and name == "rings.quantum_product":
                count += 1
        return count

    def layer_metrics(self):
        """Every per-layer metric of one traced sweep except trace.overhead_s."""
        calls, self_s = self.totals()
        counts = self.counts
        structure = counts["rings.structure"]
        products = self.search_products()
        built = counts["carriers.assignments_built"]
        out = {
            "qalgebra.build.calls": calls["qalgebra.build"],
            "qalgebra.coerce.calls": counts["qalgebra.coerce"],
            "rings.structure.calls": structure,
            "rings.structure.hit_ratio": (
                1 - calls["rings.littlewood_richardson"] / structure if structure else 0.0),
            "ladders.search.products": products,
            "ladders.search.yield": (
                counts["ladders.search.decompositions"] / products if products else 0.0),
            "spectra.augmented_action.calls": counts["spectra.augmented_action"],
            "carriers.assignments_built": built,
            "carriers.assignments_used": counts["carriers.assignments_used"],
            "carriers.assignment_use_ratio": (
                counts["carriers.assignments_used"] / built if built else 0.0),
        }
        for metric in LAYER_METRICS:
            span, _, stat = metric.rpartition(".")
            if stat == "calls" and metric not in out:
                out[metric] = calls[span]
            elif stat == "self_s":
                out[metric] = self_s[span]
        for i, metric in enumerate(("cli.import_s", "cli.main_s", "cli.startup_s")):
            out[metric] = statistics.median(c[i] for c in self.cli) if self.cli else 0.0
        return out

    def overhead_s(self):
        """What the wrappers added to the traced calls: the recorded spans and
        counted calls times the measured cost of one wrapper of each kind."""
        counted = sum(self.counts[name] for name in {n for n, _, _, kind in HOOKS if kind == COUNT})
        return len(self.spans) * wrapper_cost(SPAN) + counted * wrapper_cost(COUNT)


def wrapper_cost(kind, calls=20_000, repeats=7):
    """Seconds an active wrapper of ``kind`` adds to one call (median of ``repeats``)."""
    tracer = Tracer()
    tracer.active = True

    def noop():
        return None

    wrapped = (tracer._span if kind == SPAN else tracer._count)("wrapper-cost", noop)

    def loop(fn):
        start = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - start

    extra = []
    for _ in range(repeats):
        extra.append(loop(wrapped) - loop(noop))
        tracer.spans.clear()
    return statistics.median(extra) / calls
