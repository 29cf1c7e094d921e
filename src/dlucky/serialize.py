"""Canonical JSON interchange for graphs, labelings, and verification reports.

The graph form is an object with ``n``, ``edges`` (each pair sorted
ascending, the list sorted lexicographically), and optional ``tags``; the
labeling form has ``labels`` plus an optional budget ``k``.  Serialization
is bit-exact canonical (sorted keys, compact separators, trailing newline)
so emitted files are usable as golden fixtures.

The readers check the document: that it is a JSON object with known keys,
and the type of each field.  The constructors check the content: ``Graph``
each edge entry (a pair of in-range, distinct, exact ints) and
``Labeling`` the labels against the budget.  Each reader re-raises its
constructor's ``ValueError`` behind the file's prefix, so every error
names the kind of file it is about.
"""

from __future__ import annotations

import json

from .graph import Graph
from .labeling import ConflictReport, Labeling, max_label


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _document(text: str, what: str, keys: set[str]) -> dict:
    """The JSON object of a ``what`` file whose keys all lie in ``keys``."""
    # a deeply nested document exhausts the decoder's recursion limit, and an
    # int of over 4,300 digits is refused with a plain ValueError
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid {what} file: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"invalid {what} file: expected a JSON object")
    unknown = set(obj) - keys
    if unknown:
        raise ValueError(f"invalid {what} file: unknown keys {sorted(unknown)}")
    return obj


def graph_to_json(g: Graph) -> str:
    # tuples serialize as JSON arrays: the edge tuple is written as it is
    obj: dict = {"n": g.n, "edges": g.edges}
    if g.tags is not None:
        obj["tags"] = list(g.tags)
    return _dumps(obj)


def graph_from_json(text: str) -> Graph:
    obj = _document(text, "graph", {"n", "edges", "tags"})
    n = obj.get("n")
    edges = obj.get("edges", [])
    tags = obj.get("tags")
    # json.loads makes exact ints, and a bool is not one
    if type(n) is not int or n < 0:
        raise ValueError("invalid graph file: 'n' must be a nonnegative integer")
    if not isinstance(edges, list):
        raise ValueError("invalid graph file: 'edges' must be a list")
    if tags is not None and (
        not isinstance(tags, list) or len(tags) != n or not all(isinstance(s, str) for s in tags)
    ):
        raise ValueError("invalid graph file: 'tags' must be a list of n strings")
    # n and tags are valid, so an error from Graph is about an edge entry
    try:
        return Graph(n, edges, tags=tags)
    except ValueError as exc:
        raise ValueError(f"invalid graph file: bad edge entry: {exc}") from None


def labeling_to_json(labeling: Labeling) -> str:
    return _dumps({"labels": list(labeling.labels), "k": labeling.k_max})


def labeling_from_json(text: str) -> Labeling:
    obj = _document(text, "labeling", {"labels", "k"})
    labels = obj.get("labels")
    k = obj.get("k")
    # Labeling takes any __index__ int, a bool too; a labeling file may not
    if not isinstance(labels, list) or not all(type(x) is int for x in labels):
        raise ValueError("invalid labeling file: 'labels' must be a list of integers")
    if k is not None and type(k) is not int:
        raise ValueError("invalid labeling file: 'k' must be an integer")
    try:
        return Labeling(labels, k_max=k)
    except ValueError as exc:
        raise ValueError(f"invalid labeling file: {exc}") from None


def report_to_json(report: ConflictReport, labeling: Labeling) -> str:
    obj = {
        "conflicts": [
            {"edge": [u, v], "d_sum": s} for (u, v), s in report.conflicts
        ],
        "d_sums": list(report.d_sums),
        "max_label": max_label(labeling) if labeling.labels else None,
    }
    return _dumps(obj)
