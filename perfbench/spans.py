"""Span tracing of the library from outside it, for the traced run only.

Tracer.install() wraps the public functions of each layer: the wrapper is
rebound under every name that any deligne_simpson module holds for the
original function, and methods are patched on their class.  Spans (name,
start, end, parent, op id) are kept in flat arrays and written out at the
end; self time is a span's duration minus the time its child spans cover.
Counters record work at the same boundaries.  Nothing inside the library
changes, and an untraced run never calls install().
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name); several functions may share one span name
SPANS = [
    ("exactmat", "algebra_closure_dim", "exactmat.closure"),
    ("exactmat", "Mat.__matmul__", "exactmat.matmul"),
    ("exactmat", "centralizer_dim", "exactmat.centralizer"),
    ("exactmat", "rational_rank", "exactmat.rank"),
    ("exactmat", "charpoly", "exactmat.charpoly"),
    ("exactmat", "jordan_type_nilpotent", "exactmat.jordan_type"),
    ("exactmat", "solve_coboundary_sum", "exactmat.solve"),
    ("constructions", "make_example", "constructions.build"),
    ("constructions", "build_almost_special", "constructions.build"),
    ("constructions", "build_nice", "constructions.build"),
    ("constructions", "verify_tuple", "constructions.verify"),
    ("spectra", "find_relation", "spectra.find_relation"),
    ("spectra", "distance", "spectra.distance"),
    ("spectra", "genericize", "spectra.genericize"),
    ("reduction", "condition_report", "reduction.condition_report"),
    ("reduction", "psi_step", "reduction.psi_step"),
    ("reduction", "is_good", "reduction.is_good"),
    ("reduction", "verdict", "reduction.verdict"),
    ("jnf", "d_of", "jnf.d_of"),
    ("catalog", "enumerate_rigid", "catalog.enumerate"),
    ("catalog", "inverse_psi_extensions", "catalog.inverse_psi"),
    ("catalog", "MvTuple.report", "catalog.report"),
    ("cli", "main", "cli.main"),
]

# (module, attribute, counter name): call counters without a span
COUNTERS = [
    ("exactmat", "IntSpan.insert", "exactmat.span_inserts"),
    ("constructions", "blocks_equivalent", "constructions.blocks_equivalent_calls"),
    ("spectra", "ExponentAssignment.shifted", "spectra.shift_candidates"),
    ("jnf", "JordanForm.__init__", "jnf.forms_built"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict = defaultdict(int)
        self._undo: list = []

    # ---------------------------------------------------------------- hooks

    def _on_result(self, span_name):
        counts = self.counts
        if span_name == "exactmat.rank":
            def hook(args, result):
                rows = args[0]
                counts["exactmat.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif span_name == "spectra.find_relation":
            def hook(args, result):
                counts["spectra.relations_found"] += result is not None
        elif span_name == "catalog.inverse_psi":
            def hook(args, result):
                counts["catalog.extensions_returned"] += len(result)
        elif span_name == "catalog.enumerate":
            def hook(args, result):
                counts["catalog.tuples_emitted"] += len(result)
        elif span_name == "exactmat.span_inserts":
            def hook(args, result):
                counts["exactmat.span_accepted"] += bool(result)
        else:
            hook = None
        return hook

    # ------------------------------------------------------------- wrappers

    def _span(self, fn, span_name):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        start, end, parent, name, op = (self.start, self.end, self.parent,
                                        self.name, self.op)
        stack, clock, hook, tracer = self.stack, time.perf_counter, \
            self._on_result(span_name), self

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook:
                hook(args, result)
            return result

        return wrapper

    def _counter(self, fn, counter):
        counts, hook = self.counts, self._on_result(counter)

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            result = fn(*args, **kwargs)
            if hook:
                hook(args, result)
            return result

        return wrapper

    def _generator_counter(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return wrapper

    # -------------------------------------------------------------- install

    def _rebind(self, modname, attr, make):
        mod = importlib.import_module("deligne_simpson." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for name, module in list(sys.modules.items()):
            if name != "deligne_simpson" and not name.startswith("deligne_simpson."):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, orig))

    def install(self) -> None:
        for modname, attr, span_name in SPANS:
            self._rebind(modname, attr, lambda f, s=span_name: self._span(f, s))
        for modname, attr, counter in COUNTERS:
            self._rebind(modname, attr, lambda f, c=counter: self._counter(f, c))
        self._rebind("spectra", "iter_relations",
                     lambda f: self._generator_counter(f, "spectra.relations_scanned"))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # -------------------------------------------------------------- results

    def self_times(self):
        """Per span name: (total self time in s, call count)."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i in range(len(start)):
            key = self.names[name[i]]
            self_s[key] += end[i] - start[i] - child[i]
            calls[key] += 1
        return self_s, calls

    def layer_metrics(self) -> dict:
        self_s, calls = self.self_times()
        c = self.counts

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        out = {
            "exactmat.closure_s": self_s["exactmat.closure"],
            "exactmat.closure_calls": calls["exactmat.closure"],
            "exactmat.span_inserts": c["exactmat.span_inserts"],
            "exactmat.span_accept_ratio": ratio("exactmat.span_accepted",
                                                "exactmat.span_inserts"),
            "exactmat.matmul_calls": calls["exactmat.matmul"],
            "exactmat.matmul_s": self_s["exactmat.matmul"],
            "exactmat.centralizer_s": self_s["exactmat.centralizer"],
            "exactmat.rank_s": self_s["exactmat.rank"],
            "exactmat.rank_calls": calls["exactmat.rank"],
            "exactmat.rank_cells": c["exactmat.rank_cells"],
            "exactmat.charpoly_s": self_s["exactmat.charpoly"],
            "exactmat.jordan_type_s": self_s["exactmat.jordan_type"],
            "exactmat.solve_s": self_s["exactmat.solve"],
            "constructions.build_s": self_s["constructions.build"],
            "constructions.verify_s": self_s["constructions.verify"],
            "constructions.blocks_equivalent_calls":
                c["constructions.blocks_equivalent_calls"],
            "spectra.find_relation_s": self_s["spectra.find_relation"],
            "spectra.find_relation_calls": calls["spectra.find_relation"],
            "spectra.relation_found_ratio":
                (c["spectra.relations_found"] / calls["spectra.find_relation"]
                 if calls["spectra.find_relation"] else 0.0),
            "spectra.distance_s": self_s["spectra.distance"],
            "spectra.genericize_s": self_s["spectra.genericize"],
            "spectra.relations_scanned": c["spectra.relations_scanned"],
            "spectra.shift_candidates": c["spectra.shift_candidates"],
            "reduction.condition_report_s": self_s["reduction.condition_report"],
            "reduction.condition_report_calls": calls["reduction.condition_report"],
            "reduction.psi_step_s": self_s["reduction.psi_step"],
            "reduction.psi_step_calls": calls["reduction.psi_step"],
            "reduction.is_good_s": self_s["reduction.is_good"],
            "reduction.verdict_s": self_s["reduction.verdict"],
            "jnf.d_of_s": self_s["jnf.d_of"],
            "jnf.d_of_calls": calls["jnf.d_of"],
            "jnf.forms_built": c["jnf.forms_built"],
            "catalog.enumerate_s": self_s["catalog.enumerate"],
            "catalog.inverse_psi_s": self_s["catalog.inverse_psi"],
            "catalog.inverse_psi_calls": calls["catalog.inverse_psi"],
            "catalog.extensions_returned": c["catalog.extensions_returned"],
            "catalog.tuples_emitted": c["catalog.tuples_emitted"],
            "catalog.new_ratio": ratio("catalog.tuples_emitted",
                                       "catalog.extensions_returned"),
            "catalog.report_s": self_s["catalog.report"],
            "cli.self_s": self_s["cli.main"],
            "cli.bytes_out": c["cli.bytes_out"],
            "trace.spans": len(self.start),
        }
        return out

    def write(self, stem: str, extra: dict) -> None:
        """Spans as raw arrays in <stem>.spans, their layout and the summary
        in <stem>.json."""
        arrays = [("start", self.start), ("end", self.end),
                  ("parent", self.parent), ("name", self.name), ("op", self.op)]
        with open(stem + ".spans", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {"span_count": len(self.start), "names": self.names,
                  "layout": [[key, arr.typecode] for key, arr in arrays],
                  "counts": dict(self.counts)}
        header.update(extra)
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
