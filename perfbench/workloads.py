"""The benchmark's workloads.

Each workload makes its inputs from the seed, hands the program only those
inputs, and checks every output against :mod:`checks`.  A pass runs the
workload's whole set of operations once; :class:`timing.Pass` times each
operation and counts the ones that fail.  Checks run outside the timed operations.

The checks of one output are module functions (``check_corpus_case`` and so
on), so that :func:`self_test` can hand them wrong answers.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from checks import CheckError, expect
from timing import FAILED, Pass

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

FAMILIES = {
    # family: (closed-form eta, (vertices, edges), Theorem 1 bound); the bound
    # meets eta on corona and web, which is how the paper proves them optimal
    "corona": (checks.eta_corona, checks.size_corona, checks.eta_corona),
    "web": (checks.eta_web, checks.size_web, checks.eta_web),
    "cocktail": (checks.eta_cocktail, checks.size_cocktail, checks.bound_cocktail),
}


class Workload:
    name = ""
    in_children = False  # True when the program runs in child processes

    def setup(self, dl) -> None:
        """Build the program's inputs; timed as part of ``setup_s``."""

    def run_pass(self, dl, p: Pass, out) -> None:
        """Run every operation once; hand what is checked after the passes to ``out.add``."""
        raise NotImplementedError

    def check(self, outputs: list) -> None:
        """Check what the first pass handed to ``out.add``; raise CheckError on a mismatch."""

    def measure_startup(self, p: Pass) -> None:
        """Time process start, in traced runs; only workloads that start processes do."""

    def close(self) -> None:
        """Remove what the workload wrote."""


def connected_graphs(max_n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every connected labeled graph on 1..max_n vertices, as (n, sorted edge list)."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            adj = [0] * n
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            seen = frontier = 1
            while frontier:
                reach = 0
                while frontier:
                    bit = frontier & -frontier
                    reach |= adj[bit.bit_length() - 1]
                    frontier ^= bit
                frontier = reach & ~seen
                seen |= reach
            if seen == (1 << n) - 1:
                out.append((n, edges))
    return out


class Corpus6(Workload):
    """Every connected graph on 1-6 vertices: bound, exact solve and verify each."""

    name = "corpus6"
    GRAPHS = 27476  # connected labeled graphs on 1..6 vertices: 1 + 1 + 4 + 38 + 728 + 26704

    def __init__(self, seed: int, workdir: Path):
        self.cases = connected_graphs(6)
        expect(len(self.cases), self.GRAPHS, "corpus6: number of connected graphs")
        random.Random(seed).shuffle(self.cases)
        self.graphs = []

    def setup(self, dl) -> None:
        self.graphs = []  # free the graphs of the previous set-up first
        Graph = dl.graph.Graph
        self.graphs = [Graph(n, edges) for n, edges in self.cases]

    def run_pass(self, dl, p: Pass, out) -> None:
        bound_fn, solve_fn, verify_fn = dl.bounds.lower_bound_thm1, dl.solver.exact_eta, dl.labeling.verify
        for g in self.graphs:
            bound = p.call("bound", bound_fn, g)
            res = p.call("solve", solve_fn, g, max_k=g.n + 2)
            if res is FAILED or res.witness is None:
                out.add((bound, FAILED if res is FAILED else res.eta, None, None))
                continue
            p.nodes += res.nodes_explored
            report = p.call("verify", verify_fn, g, res.witness)
            if report is not FAILED:
                report = (report.conflicts, report.d_sums)
            out.add((bound, res.eta, res.witness.labels, report))

    def check(self, outputs: list) -> None:
        expect(len(outputs), len(self.cases), "corpus6: outputs")
        for (n, edges), output in zip(self.cases, outputs):
            check_corpus_case(n, edges, output)


def check_corpus_case(n: int, edges, output) -> None:
    """One graph's (bound, eta, labels, verify report) against brute force and networkx."""
    bound, eta, labels, report = output
    what = f"corpus6 n={n} edges={edges}"
    if eta is FAILED:
        return
    if labels is None:
        raise CheckError(f"{what}: no labeling found up to n + 2 labels")
    sums = checks.check_witness(n, edges, labels, eta, what)
    checks.check_minimal(n, edges, eta, what)
    if bound is not FAILED:
        expect(bound, checks.thm1_networkx(n, edges), f"{what}: Theorem 1 bound")
        if bound > eta:
            raise CheckError(f"{what}: bound {bound} exceeds eta {eta}")
    if report is not FAILED:
        expect(report, ((), tuple(sums)), f"{what}: verify report")


class SearchHard(Workload):
    """Six graphs whose exact solve is almost all kernel search."""

    name = "search-hard"

    def __init__(self, seed: int, workdir: Path):
        prism_eta = json.loads((HERE / "prism_eta.json").read_text(encoding="utf-8"))["eta"]
        self.cases = [
            ("K_8", 8, checks.complete_edges(8), checks.eta_complete(8)),
            ("corona(9,1)", *checks.corona_edges(9, 1), checks.eta_corona(9, 1)),
            ("corona(7,2)", *checks.corona_edges(7, 2), checks.eta_corona(7, 2)),
            ("cocktail(2,6,1)", *checks.cocktail_edges(2, 6, 1), checks.eta_cocktail(2, 6, 1)),
            ("prism(11)", *checks.prism_edges(11), prism_eta["11"]),
            ("prism(13)", *checks.prism_edges(13), prism_eta["13"]),
        ]
        random.Random(seed).shuffle(self.cases)
        self.graphs = []

    def setup(self, dl) -> None:
        Graph = dl.graph.Graph
        self.graphs = [Graph(n, edges) for _, n, edges, _ in self.cases]

    def run_pass(self, dl, p: Pass, out) -> None:
        solve_fn = dl.solver.exact_eta
        for g in self.graphs:
            res = p.call("solve", solve_fn, g, max_k=g.n + 2, vertex_cap=g.n)
            if res is FAILED:
                out.add(None)
                continue
            p.nodes += res.nodes_explored
            out.add((res.eta, res.witness.labels if res.witness else None))

    def check(self, outputs: list) -> None:
        expect(len(outputs), len(self.cases), "search-hard: outputs")
        for (name, n, edges, eta), result in zip(self.cases, outputs):
            check_search_case(name, n, edges, eta, result)


def check_search_case(name: str, n: int, edges, eta: int, result) -> None:
    """One graph's (eta, labels) against its closed form or the prism table."""
    if result is None:
        return
    got, labels = result
    expect(got, eta, f"search-hard {name}: eta")
    checks.check_witness(n, edges, labels, eta, f"search-hard {name}")


class FamiliesLarge(Workload):
    """The paper's constructions at scale: build, bound, JSON round trip, DOT."""

    name = "families-large"
    SPECS = [
        ("web", (5, 200)), ("web", (20, 100)), ("corona", (500, 3)),
        ("cocktail", (5, 100, 5)), ("cocktail", (2, 16, 1)), ("corona", (1000, 3)),
    ]
    # Theorem 1 lists n^t maximum cliques of cocktail(n, t, r); (5, 100, 5) does not finish
    NO_BOUND = {("cocktail", (5, 100, 5))}
    # built and bounded only (the bound is the one failing operation); its JSON
    # round trip and DOT, which corona(500, 3) covers, would add 2.5 s to a pass
    BUILD_AND_BOUND_ONLY = {("corona", (1000, 3))}

    def __init__(self, seed: int, workdir: Path):
        self.specs = list(self.SPECS)
        random.Random(seed).shuffle(self.specs)

    def run_pass(self, dl, p: Pass, out) -> None:
        for family, params in self.specs:
            self._instance(dl, p, family, params)

    def _instance(self, dl, p: Pass, family: str, params: tuple) -> None:
        what = f"families-large {family}{params}"
        fam = p.call("build", getattr(dl.families, f"build_{family}"), *params)
        if fam is FAILED:
            return
        g, labeling = fam.graph, fam.labeling
        sums = check_family_labeling(
            what, family, params, (g.n, g.edge_count), g.edges, labeling.labels, fam.claimed_eta
        )
        if (family, params) not in self.NO_BOUND:
            bound = p.call("bound", dl.bounds.lower_bound_thm1, g)
            if bound is not FAILED:
                check_family_bound(what, family, params, bound)
        if (family, params) in self.BUILD_AND_BOUND_ONLY:
            return
        ser = dl.serialize
        text = p.call("serialize", ser.graph_to_json, g)
        back = p.call("serialize", ser.graph_from_json, text) if text is not FAILED else FAILED
        if back is not FAILED:
            expect((back.n, back.edges, back.tags), (g.n, g.edges, g.tags), f"{what}: graph JSON round trip")
        text = p.call("serialize", ser.labeling_to_json, labeling)
        back = p.call("serialize", ser.labeling_from_json, text) if text is not FAILED else FAILED
        if back is not FAILED:
            expect((back.labels, back.k_max), (labeling.labels, labeling.k_max), f"{what}: labeling JSON round trip")
        dot = p.call("dot", dl.dot.to_dot, g, labeling)
        if dot is not FAILED:
            check_dot(dot, g.n, g.edge_count, labeling.labels, sums, what)


def check_family_labeling(what: str, family: str, params: tuple, size, edges, labels, claimed_eta=None) -> list[int]:
    """(vertices, edges), the claimed eta and the largest label against the closed
    forms, and the labeling against the d-sum check; returns the d-sums."""
    eta_of, size_of, _ = FAMILIES[family]
    eta = eta_of(*params)
    expect(tuple(size), size_of(*params), f"{what}: (vertices, edges)")
    if claimed_eta is not None:
        expect(claimed_eta, eta, f"{what}: claimed eta")
    expect(max(labels), eta, f"{what}: largest label")
    return checks.check_witness(size[0], edges, labels, eta, what)


def check_family_bound(what: str, family: str, params: tuple, bound: int) -> None:
    expect(bound, FAMILIES[family][2](*params), f"{what}: Theorem 1 bound")


_DOT_NODE = re.compile(r'^  v(\d+) \[label="(\d+)", dsum="(\d+)"', re.M)


def check_dot(text: str, n: int, m: int, labels, sums, what: str) -> None:
    """Node lines carry each vertex's label and d-sum; one edge line per edge."""
    expect(text.count(" -- "), m, f"{what}: DOT edge lines")
    seen = 0
    for match in _DOT_NODE.finditer(text):
        v, label, dsum = map(int, match.groups())
        expect((label, dsum), (labels[v], sums[v]), f"{what}: DOT node v{v}")
        seen += 1
    expect(seen, n, f"{what}: DOT node lines")


class ChildFailed(RuntimeError):
    pass


class Cli(Workload):
    """The dlucky command line in child processes, one at a time, over files."""

    name = "cli"
    in_children = True
    BLOCKS = [("web", {"m": 5, "n": 100}), ("cocktail", {"n": 2, "t": 14, "r": 1})]
    SOLVE = (8, 1)  # corona(8, 1), solved with `dlucky solve --json`
    STARTUPS = 5

    def __init__(self, seed: int, workdir: Path):
        self.blocks = list(self.BLOCKS)
        random.Random(seed).shuffle(self.blocks)
        self.dir = workdir / f"cli-{seed}-{os.getpid()}"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def setup(self, dl) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        n, edges = checks.corona_edges(*self.SOLVE)
        graph = {"n": n, "edges": [list(e) for e in edges]}
        (self.dir / "corona.json").write_text(json.dumps(graph), encoding="utf-8")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _child(self, argv: list[str]) -> str:
        done = subprocess.run(
            argv, cwd=self.dir, env=self.env, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise ChildFailed(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
        return done.stdout

    def _dlucky(self, p: Pass, command: str, *args: str):
        stage = f"cli.{command.replace('-', '_')}"
        argv = [sys.executable, "-m", "dlucky.cli", command, *args]
        return p.call(stage, self._child, argv, span=stage)

    def measure_startup(self, p: Pass) -> None:
        """Children that only import dlucky."""
        for _ in range(self.STARTUPS):
            p.call("cli.startup", self._child, [sys.executable, "-c", "import dlucky"], span="cli.startup")

    def run_pass(self, dl, p: Pass, out) -> None:
        for family, params in self.blocks:
            self._block(p, family, params)
        n, edges = checks.corona_edges(*self.SOLVE)
        out = self._dlucky(p, "solve", "corona.json", "--json")
        if out is not FAILED:
            res = json.loads(out)
            eta = checks.eta_corona(*self.SOLVE)
            expect(res["eta"], eta, "cli solve corona(8,1): eta")
            checks.check_witness(n, edges, res["witness"], eta, "cli solve corona(8,1)")
            p.nodes += res["nodes_explored"]

    def _block(self, p: Pass, family: str, params: dict) -> None:
        what = f"cli {family}{tuple(params.values())}"
        eta_of = FAMILIES[family][0]
        values = tuple(params.values())
        flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
        graph_file, label_file, dot_file = f"{family}.json", f"{family}-lab.json", f"{family}.dot"
        eta = eta_of(*values)
        graph = labels = None
        if self._dlucky(p, "gen", family, *flags, "-o", graph_file) is not FAILED:
            graph = json.loads((self.dir / graph_file).read_text(encoding="utf-8"))
            edges = [tuple(e) for e in graph["edges"]]
        out = self._dlucky(p, "label", family, *flags, "-o", label_file)
        if out is not FAILED:
            expect(out.split(), [f"claimed_eta={eta}", f"max_label={eta}", "conflicts=0"], f"{what}: label")
            labels = json.loads((self.dir / label_file).read_text(encoding="utf-8"))["labels"]
        out = self._dlucky(p, "verify", graph_file, label_file)
        if out is not FAILED:
            expect(out.strip(), f"d-lucky: 0 conflict(s), max label {eta}", f"{what}: verify")
        out = self._dlucky(p, "bound", graph_file, "--json")
        if out is not FAILED:
            check_family_bound(what, family, values, json.loads(out)["bound"])
        out = self._dlucky(p, "export-dot", graph_file, "--labeling", label_file, "-o", dot_file)
        if graph is None or labels is None:
            return
        sums = check_family_labeling(what, family, values, (graph["n"], len(edges)), edges, labels)
        if out is not FAILED:
            dot = (self.dir / dot_file).read_text(encoding="utf-8")
            check_dot(dot, graph["n"], len(edges), labels, sums, what)


WORKLOADS = {w.name: w for w in (Corpus6, SearchHard, FamiliesLarge, Cli)}


def self_test() -> None:
    """Each workload's check of one output accepts the right answer and rejects wrong ones.

    The right answers come from brute force; each wrong one changes a single
    thing: a label so that an edge conflicts, eta by one either way, the
    bound by one.
    """

    def wrong(what: str, fn, *args) -> None:
        if not checks.rejects(fn, *args):
            raise CheckError(f"self-test {what} was accepted")

    prism_eta = json.loads((HERE / "prism_eta.json").read_text(encoding="utf-8"))["eta"]
    for name, n, edges in [
        ("corona(3,1)", *checks.corona_edges(3, 1)),
        ("K_4 with a pendant", *checks.K4_PENDANT),
        ("prism(5)", *checks.prism_edges(5)),
    ]:
        eta, labels = checks.smallest_labeling(n, edges)
        broken = checks.conflicting(n, edges, labels, eta)
        bound = checks.thm1_networkx(n, edges)
        report = ((), tuple(checks.d_sums(n, edges, labels)))
        check_corpus_case(n, edges, (bound, eta, labels, report))
        wrong(f"corpus6 {name}: conflicting witness", check_corpus_case, n, edges, (bound, eta, broken, report))
        wrong(f"corpus6 {name}: eta + 1", check_corpus_case, n, edges, (bound, eta + 1, labels, report))
        wrong(f"corpus6 {name}: eta - 1", check_corpus_case, n, edges, (bound, eta - 1, labels, report))
        wrong(f"corpus6 {name}: bound + 1", check_corpus_case, n, edges, (bound + 1, eta, labels, report))

    for name, n, edges, eta in [
        ("K_4", 4, checks.complete_edges(4), checks.eta_complete(4)),
        ("cocktail(2,3,1)", *checks.cocktail_edges(2, 3, 1), checks.eta_cocktail(2, 3, 1)),
        ("prism(5)", *checks.prism_edges(5), prism_eta["5"]),
    ]:
        _, labels = checks.smallest_labeling(n, edges)
        check_search_case(name, n, edges, eta, (eta, labels))
        broken = checks.conflicting(n, edges, labels, eta)
        wrong(f"search-hard {name}: conflicting witness", check_search_case, name, n, edges, eta, (eta, broken))
        wrong(f"search-hard {name}: eta + 1", check_search_case, name, n, edges, eta, (eta + 1, labels))
        wrong(f"search-hard {name}: eta - 1", check_search_case, name, n, edges, eta, (eta - 1, labels))

    for family, params, (n, edges) in [
        ("corona", (3, 1), checks.corona_edges(3, 1)),
        ("cocktail", (2, 3, 1), checks.cocktail_edges(2, 3, 1)),
    ]:
        what = f"families {family}{params}"
        eta, labels = checks.smallest_labeling(n, edges)
        bound = FAMILIES[family][2](*params)
        size = (n, len(edges))
        sums = check_family_labeling(what, family, params, size, edges, labels, eta)
        check_family_bound(what, family, params, bound)
        wrong(f"{what}: conflicting witness", check_family_labeling, what, family, params, size, edges,
              checks.conflicting(n, edges, labels, eta), eta)
        wrong(f"{what}: claimed eta + 1", check_family_labeling, what, family, params, size, edges, labels, eta + 1)
        wrong(f"{what}: claimed eta - 1", check_family_labeling, what, family, params, size, edges, labels, eta - 1)
        wrong(f"{what}: one edge too many", check_family_labeling, what, family, params, (n, len(edges) + 1), edges, labels)
        wrong(f"{what}: bound + 1", check_family_bound, what, family, params, bound + 1)
        # a DOT text as to_dot writes it, then with one d-sum off by one
        nodes = [f'  v{v} [label="{x}", dsum="{d}"]' for v, (x, d) in enumerate(zip(labels, sums))]
        lines = nodes + [f"  v{u} -- v{v};" for u, v in edges]
        check_dot("\n".join(lines), n, len(edges), labels, sums, what)
        lines[0] = f'  v0 [label="{labels[0]}", dsum="{sums[0] + 1}"]'
        wrong(f"{what}: DOT d-sum + 1", check_dot, "\n".join(lines), n, len(edges), labels, sums, what)
