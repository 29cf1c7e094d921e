"""Canonical JSON interchange for graphs, labelings, and verification reports.

The graph form is an object with ``n``, ``edges`` (each pair sorted
ascending, the list sorted lexicographically), and optional ``tags``; the
labeling form has ``labels`` plus an optional budget ``k``.  Serialization
is bit-exact canonical (sorted keys, compact separators, trailing newline)
so emitted files are usable as golden fixtures.
"""

from __future__ import annotations

import json

from .graph import Graph
from .labeling import ConflictReport, Labeling


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _loads(text: str, what: str):
    # a deeply nested document exhausts the decoder's recursion limit
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid {what} file: {exc}") from None


def graph_to_json(g: Graph) -> str:
    # tuples serialize as JSON arrays: the edge tuple is written as it is
    obj: dict = {"n": g.n, "edges": g.edges}
    if g.tags is not None:
        obj["tags"] = list(g.tags)
    return _dumps(obj)


def graph_from_json(text: str) -> Graph:
    obj = _loads(text, "graph")
    if not isinstance(obj, dict):
        raise ValueError("invalid graph file: expected a JSON object")
    unknown = set(obj) - {"n", "edges", "tags"}
    if unknown:
        raise ValueError(f"invalid graph file: unknown keys {sorted(unknown)}")
    n = obj.get("n")
    edges = obj.get("edges", [])
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("invalid graph file: 'n' must be an integer")
    if not isinstance(edges, list):
        raise ValueError("invalid graph file: 'edges' must be a list")
    # json.loads makes exact lists and ints, and bools are not exact ints
    for e in edges:
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise ValueError(f"invalid graph file: bad edge entry {e!r}")
    tags = obj.get("tags")
    if tags is not None:
        if not isinstance(tags, list) or not all(isinstance(s, str) for s in tags):
            raise ValueError("invalid graph file: 'tags' must be a list of strings")
    return Graph(n, edges, tags=tags)


def labeling_to_json(labeling: Labeling) -> str:
    return _dumps({"labels": list(labeling.labels), "k": labeling.k_max})


def labeling_from_json(text: str) -> Labeling:
    obj = _loads(text, "labeling")
    if not isinstance(obj, dict):
        raise ValueError("invalid labeling file: expected a JSON object")
    unknown = set(obj) - {"labels", "k"}
    if unknown:
        raise ValueError(f"invalid labeling file: unknown keys {sorted(unknown)}")
    labels = obj.get("labels")
    if not isinstance(labels, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in labels
    ):
        raise ValueError("invalid labeling file: 'labels' must be a list of integers")
    k = obj.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
        raise ValueError("invalid labeling file: 'k' must be an integer")
    return Labeling(labels, k_max=k)


def report_to_json(report: ConflictReport, labeling: Labeling) -> str:
    from .labeling import max_label

    obj = {
        "conflicts": [
            {"edge": [u, v], "d_sum": s} for (u, v), s in report.conflicts
        ],
        "d_sums": list(report.d_sums),
        "max_label": max_label(labeling) if labeling.labels else None,
    }
    return _dumps(obj)
