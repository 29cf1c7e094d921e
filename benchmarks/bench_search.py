#!/usr/bin/env python3
"""The exact solver per label budget on the search-hard graphs.

Run from the root of a source checkout::

    PYTHONPATH=src python3 benchmarks/bench_search.py

and it writes ``benchmarks/BENCH_26.json`` (``BENCH_25.json`` is the record
from before the root check tested grown structures on one slot per vertex,
with the same nodes here, ``BENCH_24.json`` from before each grown part
structure was tested in the search once, on a slot per vertex, in place of
the cliques inside it, ``BENCH_23.json`` from before the mirrored depths of
regular graphs recorded complement images, ``BENCH_20.json`` from before depths recorded a mirrored key,
``BENCH_18.json`` from before the memo keyed every depth where an edge
check retires, and ``BENCH_15.json`` from before the complement cut and the
symmetric-difference edge checks).
The graphs are the six of the benchmark's search-hard workload, K_9 minus
the edge (7, 8), P_2 x C_15, the generalized Petersen graphs GP(9,2) and
GP(11,2), and ``cocktail(2,7,1)`` and ``cocktail(3,6,1)``, built with
``dlucky``'s own constructors; each is solved with its vertex count as the
vertex cap, so the 28 and 36 vertices of the last two pass it.
For each budget k from 1 to eta it records whether the root checks
(:func:`dlucky.solver._clique_refutes`) refuted k or the kernel searched it,
the kernel's nodes and whether it found a labeling, and the median
reference seconds (``record.py``) of ``REPEATS`` kernel calls, all on the
structures and steps of :func:`dlucky.solver._setup`, as the solver builds
them; per graph, it records the number of depths that carry a memo key,
the number of those that also record a mirrored key, the number of those
that also record complement images, the t-slots of its grown part
structures and the cliques of at least ``HALL_MIN_SIZE`` vertices inside
them, whose tests theirs replace, all read off ``_setup``'s structures and
steps.
Node counts do not depend on the machine, so they are checked exactly: per
graph they must sum to ``exact_eta``'s ``nodes_explored`` and to ``NODES``,
and the first labeling found must verify.
"""

from __future__ import annotations

import json
from pathlib import Path

import dlucky
from dlucky import _search
from dlucky.solver import HALL_MIN_SIZE, _clique_refutes, _setup, _top

OUT = Path(__file__).resolve().parent / "BENCH_26.json"
REPEATS = 5
GRAPHS = {
    "K_8": lambda: dlucky.complete_graph(8),
    "corona(9,1)": lambda: dlucky.build_corona(9, 1).graph,
    "corona(7,2)": lambda: dlucky.build_corona(7, 2).graph,
    "cocktail(2,6,1)": lambda: dlucky.build_cocktail(2, 6, 1).graph,
    "prism(11)": lambda: dlucky.cartesian_product(dlucky.path_graph(2), dlucky.cycle_graph(11)),
    "prism(13)": lambda: dlucky.cartesian_product(dlucky.path_graph(2), dlucky.cycle_graph(13)),
    "K_9 minus (7,8)": lambda: dlucky.Graph(
        9, [(u, v) for u in range(9) for v in range(u + 1, 9) if (u, v) != (7, 8)]),
    "prism(15)": lambda: dlucky.cartesian_product(dlucky.path_graph(2), dlucky.cycle_graph(15)),
    "GP(9,2)": lambda: generalized_petersen(9, 2),
    "GP(11,2)": lambda: generalized_petersen(11, 2),
    "cocktail(2,7,1)": lambda: dlucky.build_cocktail(2, 7, 1).graph,
    "cocktail(3,6,1)": lambda: dlucky.build_cocktail(3, 6, 1).graph,
}
# search nodes of exact_eta(g, max_k=n+2, vertex_cap=n) on each graph; the
# first six make a search-hard pass, 25,095 nodes
NODES = {"K_8": 36, "corona(9,1)": 38, "corona(7,2)": 34, "cocktail(2,6,1)": 36,
         "prism(11)": 9740, "prism(13)": 15211, "K_9 minus (7,8)": 35,
         "prism(15)": 19974, "GP(9,2)": 3389, "GP(11,2)": 5332,
         "cocktail(2,7,1)": 44, "cocktail(3,6,1)": 51}


def generalized_petersen(n: int, k: int) -> dlucky.Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i ~ n + i, inner edges n + i ~ n + (i + k) mod n."""
    return dlucky.Graph(2 * n, [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
                        + [(n + i, n + (i + k) % n) for i in range(n)])


def measure(name: str) -> tuple[list[dict], dict]:
    from record import timed  # here, not at the top: tests load this file by path

    g = GRAPHS[name]()
    solved = dlucky.exact_eta(g, max_k=g.n + 2, vertex_cap=g.n)
    structures, steps, slots, regular = _setup(g)
    memos = [memo for *_, memo in steps if memo is not None]
    # the structures the kernel tests, once each, read off the steps' test lists
    tests = {id(test): test for *_, hall, _ in steps if hall for test in hall[2]}.values()
    counts = {"memoized": len(memos), "mirrored": sum(memo[1] is not None for memo in memos),
              "complemented": sum(memo[2] is not None for memo in memos),
              "structure_slots": sum(len(members) for members, _, part_of in structures
                                     if part_of is not None),
              "replaced_cliques": sum(len(members) >= HALL_MIN_SIZE for members, _, part_of in structures
                                      if part_of is None) - sum(part_of is None for _, part_of in tests)}
    rows = []
    for k in range(1, solved.eta + 1):
        row = {"graph": name, "vertices": g.n, "edges": g.edge_count, "k": k}
        if _clique_refutes(structures, k):
            row.update(by="root", nodes=0, found=False, kernel_s=None)
        else:
            (labels, nodes), seconds = timed(REPEATS, _search.search, k, steps, slots, _top(k, regular))
            row.update(by="search", nodes=nodes, found=labels is not None, kernel_s=round(seconds, 6))
            if labels is not None and not dlucky.verify(g, dlucky.Labeling(labels, k_max=k)).is_d_lucky:
                raise AssertionError(f"{name}: the labeling found at k = {k} does not verify")
        rows.append(row)
    nodes = sum(row["nodes"] for row in rows)
    if not rows[-1]["found"] or any(row["found"] for row in rows[:-1]):
        raise AssertionError(f"{name}: a labeling must be found at k = eta = {solved.eta} alone")
    if nodes != solved.nodes_explored or nodes != NODES[name]:
        raise AssertionError(f"{name}: {nodes} nodes, exact_eta {solved.nodes_explored}, expected {NODES[name]}")
    return rows, counts


def main() -> int:
    from record import UNIT, write

    rows = []
    per_graph = {"memoized": {}, "mirrored": {}, "complemented": {}, "structure_slots": {},
                 "replaced_cliques": {}}
    for name in GRAPHS:
        graph_rows, counts = measure(name)
        for kind, count in counts.items():
            per_graph[kind][name] = count
        for row in graph_rows:
            print(json.dumps(row), flush=True)
        rows.extend(graph_rows)
    searched = [row for row in rows if row["by"] == "search"]
    kernel_s = sum(row["kernel_s"] for row in searched)
    nodes = sum(row["nodes"] for row in searched)
    result = {
        "what": "the exact solver per label budget on the search-hard graphs, K_9 minus (7,8), "
                "P_2 x C_15, GP(9,2), GP(11,2), cocktail(2,7,1) and cocktail(3,6,1): root refutation "
                "or kernel search, nodes (exact), whether a labeling was found, kernel seconds, and "
                "the graph's memoized depths, mirrored depths, depths that record complement images, "
                "t-slots of grown part structures and cliques whose Hall tests those structures replace",
        "command": "PYTHONPATH=src python3 benchmarks/bench_search.py",
        "seconds": f"{UNIT}; each the median of {REPEATS} calls of dlucky._search.search",
        "total": {"nodes": nodes, "kernel_s": round(kernel_s, 6),
                  "nodes_per_s": round(nodes / kernel_s)},
        "memoized_depths": per_graph["memoized"],
        "mirrored_depths": per_graph["mirrored"],
        "complemented_depths": per_graph["complemented"],
        "structure_slots": per_graph["structure_slots"],
        "replaced_cliques": per_graph["replaced_cliques"],
        "budgets": rows,
    }
    write(OUT, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
