"""Spans for the traced run, recorded from outside the package.

The tracer replaces module attributes of ``dlucky`` with wrappers that record
one span per call: name, start, end and the span open at the time of the call
(its parent).  Where one module calls another through a module attribute
(the solver calling its kernel's ``search``, ``lower_bound_thm1`` calling
``enumerate_maximum_cliques``, the builders calling the graph operators and
``verify``), wrapping that attribute puts a span at the layer boundary
without changing a file of the package.  Spans stay in flat in-memory arrays
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

GENERATORS = (
    "Graph", "complete_graph", "path_graph", "cycle_graph", "complement",
    "cartesian_product", "corona", "complete_multipartite",
)
CLI_COMMANDS = ("gen", "label", "verify", "bound", "solve", "export_dot")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.passes: list[tuple[int, int, Counter]] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._pass_start = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span named ``name``.

        ``count(counts, args, result)`` adds the call's counters after it returns.
        """
        fn = getattr(owner, attr)
        nid = self._id(name)
        open_, close, counts = self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def begin_pass(self) -> None:
        self._pass_start = len(self.name)
        self.counts.clear()

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.name), Counter(self.counts)))

    def totals(self, lo: int, hi: int) -> tuple[dict[str, float], Counter]:
        """Inclusive seconds and call count per span name over spans lo..hi-1."""
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            seconds[name] += (self.end[i] - self.start[i]) / 1e9
            calls[name] += 1
        return seconds, calls

    def self_seconds(self) -> dict[str, float]:
        """Per span name: its spans' durations minus the durations of their children."""
        own = [self.end[i] - self.start[i] for i in range(len(self.name))]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, ns in enumerate(own):
            out[self.names[self.name[i]]] += ns / 1e9
        return dict(out)

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["self_s"] = self.self_seconds()
        doc["passes"] = [[lo, hi] for lo, hi, _ in self.passes]
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def instrument(tracer: Tracer, mods) -> None:
    """Wrap the public functions and layer boundaries of every library module."""

    def budgets(counts, args, refuted):
        counts["solver.budgets_refuted"] += int(refuted)

    def nodes(counts, args, result):
        found, n = result
        counts["kernel.nodes_witness" if found else "kernel.nodes_refute"] += n

    def cliques(counts, args, records):
        counts["bounds.max_cliques"] += len(records)

    def edges(counts, args, report):
        counts["labeling.verify_edges"] += args[0].edge_count

    def written(counts, args, text):
        counts["serialize.bytes"] += len(text)

    solver = mods.solver
    tracer.wrap(solver, "exact_eta", "solver.exact_eta")
    tracer.wrap(solver, "_prepare", "solver._prepare")
    tracer.wrap(solver, "_clique_refutes", "solver._clique_refutes", budgets)
    tracer.wrap(solver, "enumerate_maximal_cliques", "bounds.enumerate_maximal_cliques")
    tracer.wrap(solver._kernel(None), "search", "kernel.search", nodes)
    tracer.wrap(mods.bounds, "lower_bound_thm1", "bounds.lower_bound_thm1")
    tracer.wrap(mods.bounds, "enumerate_maximum_cliques", "bounds.enumerate_maximum_cliques", cliques)
    tracer.wrap(mods.labeling, "verify", "labeling.verify", edges)
    fam = mods.families
    tracer.wrap(fam, "verify", "labeling.verify", edges)
    for name in ("build_web", "build_corona", "build_cocktail"):
        tracer.wrap(fam, name, f"families.{name}")
    tracer.wrap(fam, "subdivide_edges", "graph.subdivide_edges")
    for name in GENERATORS:
        tracer.wrap(fam, name, f"graph.{name}")
    ser = mods.serialize
    tracer.wrap(ser, "graph_to_json", "serialize.graph_to_json", written)
    tracer.wrap(ser, "labeling_to_json", "serialize.labeling_to_json", written)
    tracer.wrap(ser, "graph_from_json", "serialize.graph_from_json")
    tracer.wrap(ser, "labeling_from_json", "serialize.labeling_from_json")
    tracer.wrap(mods.dot, "to_dot", "dot.to_dot")


def pass_metrics(tracer: Tracer, lo: int, hi: int, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans lo..hi-1)."""
    t, calls = tracer.totals(lo, hi)
    search_nodes = counts["kernel.nodes_witness"] + counts["kernel.nodes_refute"]
    return {
        "solver.exact_eta_s": t["solver.exact_eta"],
        "solver.overhead_s": t["solver.exact_eta"] - t["kernel.search"],
        "solver.prepare_s": t["solver._prepare"],
        "solver.clique_check_s": t["solver._clique_refutes"],
        "solver.budgets_tried": calls["solver._clique_refutes"],
        "solver.budgets_searched": calls["kernel.search"],
        "solver.budgets_refuted": counts["solver.budgets_refuted"],
        "solver.search_nodes": search_nodes,
        "kernel.search_s": t["kernel.search"],
        "kernel.nodes_witness": counts["kernel.nodes_witness"],
        "kernel.nodes_refute": counts["kernel.nodes_refute"],
        "bounds.thm1_s": t["bounds.lower_bound_thm1"],
        "bounds.thm1_calls": calls["bounds.lower_bound_thm1"],
        "bounds.max_cliques": counts["bounds.max_cliques"],
        "bounds.maximal_cliques_s": t["bounds.enumerate_maximal_cliques"],
        "graph.subdivide_s": t["graph.subdivide_edges"],
        "graph.generate_s": sum(t[f"graph.{name}"] for name in GENERATORS),
        "families.web_s": t["families.build_web"],
        "families.corona_s": t["families.build_corona"],
        "families.cocktail_s": t["families.build_cocktail"],
        "labeling.verify_s": t["labeling.verify"],
        "labeling.verify_edges": counts["labeling.verify_edges"],
        "serialize.graph_json_s": t["serialize.graph_to_json"] + t["serialize.graph_from_json"],
        "serialize.labeling_json_s": t["serialize.labeling_to_json"] + t["serialize.labeling_from_json"],
        "serialize.bytes": counts["serialize.bytes"],
        "dot.to_dot_s": t["dot.to_dot"],
    }


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, float]:
    """Median over the traced passes of each per-layer metric, plus the CLI medians.

    Times are multiplied by ``scale``, which turns the wall times of the traced
    passes into the reference seconds of :mod:`timing`.
    """
    per_pass = [pass_metrics(tracer, lo, hi, counts) for lo, hi, counts in tracer.passes]
    out = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    for key in out:
        if key.endswith("_s"):
            out[key] *= scale
    search_s = out["kernel.search_s"]
    out["kernel.nodes_per_s"] = out["solver.search_nodes"] / search_s if search_s else 0.0
    durations: dict[str, list[float]] = defaultdict(list)
    for i in range(len(tracer.name)):
        durations[tracer.names[tracer.name[i]]].append((tracer.end[i] - tracer.start[i]) / 1e6)
    for command in ("startup",) + CLI_COMMANDS:
        ms = durations.get(f"cli.{command}")
        out[f"cli.{command}_ms"] = statistics.median(ms) * scale if ms else 0.0
    return out
