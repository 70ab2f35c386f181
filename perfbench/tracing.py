"""Benchmark-side tracing: wrappers around the public functions of each module.

`Tracer.install` rebinds every name under which an `intlogic` module holds a
wrapped function (including default arguments such as the `integral=` of the
law checker), so calls between modules pass through the wrappers.  Each
wrapper counts every call, recursive ones included, and opens a span only
when the caller is in a different layer.  A span records its layer, start,
end, parent span and job id; spans stay in memory until `write_spans`.

There is one client and no queue or second thread, so no layer waits; the
tracer records busy time only.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from array import array
from time import perf_counter

# layer -> (module, public names).  Methods are given as "Class.method".
LAYERS = {
    "cli": ("intlogic.cli", ("main",)),
    "cli.build_parser": ("intlogic.cli", ("build_parser",)),
    "parser.parse": ("intlogic.parser", ("parse_formula",)),
    "parser.print": ("intlogic.parser", ("print_formula",)),
    "files": ("intlogic.files", ("load_model", "load_pool", "load_approx_system", "load_proof")),
    "syntax": ("intlogic.syntax", ("free_vars", "check_formula", "infer_vocabulary",
                                   "substitute", "rename_symbols", "congruence_axioms")),
    "proofs": ("intlogic.proofs", ("check_proof",)),
    "model.model": ("intlogic.model", ("WeakProbModel.__post_init__",)),
    "model.subset": ("intlogic.model", ("FuzzySubset.__post_init__",)),
    "validate": ("intlogic.validate", ("validate_axiom", "mu3_equality_gap", "find_countermodel",
                                       "integral_law_suite", "check_abstract_logic_properties")),
    "validate.gen": ("intlogic.validate", ("exhaustive_models", "random_models")),
    "evaluate": ("intlogic.evaluate", ("evaluate", "evaluate_closed", "value_matrix")),
    "integrals.expectation": ("intlogic.integrals", ("integral_expectation",)),
    "integrals.dissection": ("intlogic.integrals", ("integral_dissection",)),
    "integrals.layercake": ("intlogic.integrals", ("integral_layercake",)),
    "integrals.laws": ("intlogic.integrals", ("check_semantic_integral_laws",)),
    "integrals.other": ("intlogic.integrals", ("slice_first", "slice_second", "double_sum",
                                               "integral_dirac")),
    "satisfaction": ("intlogic.satisfaction", ("hsat", "hasat", "validate_approximation_system",
                                               "check_weak_negation", "check_elementary_substructure")),
    "satisfaction.qeq": ("intlogic.satisfaction", ("hsat_qeq", "hsat_qeq_dirac")),
}

# Functions that are only counted, never given a span of their own.
COUNTED = {"rational.unit_calls": ("intlogic.rational", "unit")}

# Per-layer metric -> (kind, source): "self" sums a layer's self time,
# "count" reads a counter.
METRICS = {
    "cli.calls": ("count", "intlogic.cli.main"),
    "cli.build_parser_s": ("self", "cli.build_parser"),
    "cli.self_s": ("self", "cli"),
    "parser.parse_calls": ("count", "intlogic.parser.parse_formula"),
    "parser.chars": ("count", "parser.chars"),
    "parser.parse_s": ("self", "parser.parse"),
    "parser.print_s": ("self", "parser.print"),
    "files.loads": ("count", "files.loads"),
    "files.bytes": ("count", "files.bytes"),
    "files.load_s": ("self", "files"),
    "syntax.calls": ("count", "syntax.calls"),
    "syntax.self_s": ("self", "syntax"),
    "proofs.lines": ("count", "proofs.lines"),
    "proofs.check_s": ("self", "proofs"),
    "model.models_built": ("count", "intlogic.model.WeakProbModel.__post_init__"),
    "model.model_init_s": ("self", "model.model"),
    "model.subsets_built": ("count", "intlogic.model.FuzzySubset.__post_init__"),
    "model.subset_init_s": ("self", "model.subset"),
    "rational.unit_calls": ("count", "rational.unit_calls"),
    "validate.models_generated": ("count", "validate.models_generated"),
    "validate.gen_s": ("self", "validate.gen"),
    "validate.checks": ("count", "validate.checks"),
    "validate.self_s": ("self", "validate"),
    "evaluate.calls": ("count", "span:evaluate"),
    "evaluate.nodes": ("count", "intlogic.evaluate.evaluate"),
    "evaluate.value_matrix_calls": ("count", "intlogic.evaluate.value_matrix"),
    "evaluate.self_s": ("self", "evaluate"),
    "evaluate.errors": ("count", "error:evaluate"),
    "integrals.expectation_calls": ("count", "intlogic.integrals.integral_expectation"),
    "integrals.expectation_s": ("self", "integrals.expectation"),
    "integrals.dissection_calls": ("count", "intlogic.integrals.integral_dissection"),
    "integrals.partitions": ("count", "integrals.partitions"),
    "integrals.dissection_s": ("self", "integrals.dissection"),
    "integrals.layercake_s": ("self", "integrals.layercake"),
    "integrals.laws_s": ("self", "integrals.laws"),
    "satisfaction.hsat_calls": ("count", "intlogic.satisfaction.hsat"),
    "satisfaction.qeq_calls": ("count", "intlogic.satisfaction.hsat_qeq"),
    "satisfaction.qeq_s": ("self", "satisfaction.qeq"),
    "satisfaction.containment_violations": ("count", "satisfaction.containment_violations"),
}


def bell(n: int) -> int:
    """Number of set partitions of an n-element set."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


class Tracer:
    def __init__(self):
        self.layer_names = list(LAYERS)
        self.counts: dict[str, int] = {}
        self.stack = [-1]
        self.open = [-1]
        self.start = array("d")
        self.end = array("d")
        self.layer = array("b")
        self.parent = array("q")
        self.job = array("q")
        self.job_id = -1
        self._undo = []

    # -- hooks that turn arguments and results into counters -------------

    def _before(self, key, args):
        counts = self.counts
        if key == "intlogic.parser.parse_formula":
            counts["parser.chars"] += len(args[0])
        elif key.startswith("intlogic.files."):
            counts["files.loads"] += 1
            try:
                counts["files.bytes"] += os.path.getsize(args[0])
            except OSError:
                pass
        elif key == "intlogic.proofs.check_proof":
            counts["proofs.lines"] += len(args[0].lines)
        elif key == "intlogic.integrals.integral_dissection":
            counts["integrals.partitions"] += bell(len(args[1].universe))

    def _after(self, key, result):
        if key.startswith("intlogic.validate.") and hasattr(result, "checked"):
            self.counts["validate.checks"] += result.checked

    def _error(self, lid, exc):
        name = self.layer_names[lid]
        self.counts["error:" + name] = self.counts.get("error:" + name, 0) + 1
        if name == "satisfaction.qeq" and type(exc).__name__ == "ContainmentViolated":
            self.counts["satisfaction.containment_violations"] += 1

    # -- spans -------------------------------------------------------------

    def _open(self, lid):
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.layer.append(lid)
        self.parent.append(self.open[-1])
        self.job.append(self.job_id)
        self.stack.append(lid)
        self.open.append(idx)
        self.counts["span:" + self.layer_names[lid]] += 1
        return idx

    def _close(self, idx, t0, t1):
        self.stack.pop()
        self.open.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, lid, key, fn, hooked):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if hooked:
                self._before(key, args)
            if stack[-1] == lid:
                return fn(*args, **kwargs)
            idx = self._open(lid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, t0, perf_counter())
                self._error(lid, exc)
                raise
            self._close(idx, t0, perf_counter())
            if hooked:
                self._after(key, result)
            return result

        return wrapper

    def _wrap_generator(self, lid, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return self._iterate(lid, fn(*args, **kwargs))

        return wrapper

    def _iterate(self, lid, iterator):
        while True:
            idx = self._open(lid)
            t0 = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self._close(idx, t0, perf_counter())
                return
            except BaseException as exc:
                self._close(idx, t0, perf_counter())
                self._error(lid, exc)
                raise
            self._close(idx, t0, perf_counter())
            self.counts["validate.models_generated"] += 1
            yield item

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for key in ("parser.chars", "files.loads", "files.bytes", "proofs.lines",
                    "integrals.partitions", "validate.checks", "validate.models_generated",
                    "satisfaction.containment_violations", "syntax.calls"):
            self.counts[key] = 0
        for name in self.layer_names:
            self.counts["span:" + name] = 0
        for lid, (layer, (module_name, attrs)) in enumerate(LAYERS.items()):
            module = sys.modules[module_name]
            for attr in attrs:
                key = f"{module_name}.{attr}"
                self.counts[key] = 0
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(lid, key, original, False))
                    self._undo.append(lambda c=cls, m=method, o=original: setattr(c, m, o))
                    continue
                original = getattr(module, attr)
                if layer == "validate.gen":
                    replacement = self._wrap_generator(lid, key, original)
                else:
                    hooked = layer in ("parser.parse", "files", "proofs", "validate",
                                       "integrals.dissection")
                    replacement = self._wrap(lid, key, original, hooked)
                if layer == "syntax":
                    replacement = self._counting(replacement, "syntax.calls")
                self._rebind(original, replacement)
        for name, (module_name, attr) in COUNTED.items():
            original = getattr(sys.modules[module_name], attr)
            self.counts[name] = 0
            self._rebind(original, self._counting(original, name))

    def _counting(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "intlogic" or module_name.startswith("intlogic.")):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = replacement
                    self._undo.append(lambda ns=namespace, n=name, o=original: ns.__setitem__(n, o))
                defaults = getattr(value, "__defaults__", None)
                if defaults and any(d is original for d in defaults):
                    value.__defaults__ = tuple(replacement if d is original else d for d in defaults)
                    self._undo.append(lambda f=value, d=defaults: setattr(f, "__defaults__", d))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their child spans'."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = dict.fromkeys(self.layer_names, 0.0)
        for i in range(n):
            totals[self.layer_names[self.layer[i]]] += self.end[i] - self.start[i] - child[i]
        return totals

    def metrics(self) -> dict[str, float | int]:
        selfs = self.self_times()
        out = {}
        for name, (kind, source) in METRICS.items():
            out[name] = selfs[source] if kind == "self" else self.counts.get(source, 0)
        return out

    def write_spans(self, path, origin: float) -> None:
        """Spans as one gzip file: a JSON header line, then the raw arrays in order.

        Span i has layer `layers[layer[i]]`, parent span `parent[i]` (-1 at a
        job's top), job index `job[i]`, and runs from `start[i]` to `end[i]`
        perf_counter seconds; `origin` is the start of the traced pass.
        """
        arrays = {"start": self.start, "end": self.end, "layer": self.layer,
                  "parent": self.parent, "job": self.job}
        header = {"layers": self.layer_names, "spans": len(self.start), "origin": origin,
                  "byteorder": sys.byteorder,
                  "arrays": [[name, a.typecode, a.itemsize] for name, a in arrays.items()]}
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                out.write(a.tobytes())
