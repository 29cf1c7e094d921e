"""Vertex labelings, degree-augmented neighbor sums, and conflict reporting.

A labeling assigns a positive integer label to every vertex.  The quantity
checked throughout the package is the per-vertex sum ``deg(u) + sum of the
labels of u's neighbors``; a labeling is d-lucky when adjacent vertices
never share that sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable

from .graph import Graph


class Labeling:
    """Total map from vertices to labels in ``1..k_max``.

    ``k_max`` is the declared label budget; it may exceed the largest label
    actually used, but no label may exceed it and labels below 1 are invalid.
    """

    __slots__ = ("labels", "k_max")

    def __init__(self, labels: Iterable[int], k_max: int | None = None):
        labels = tuple(labels)
        try:
            labels = tuple(map(index, labels))
        except TypeError:
            bad = next(x for x in labels if not hasattr(x, "__index__"))
            raise ValueError(f"labels must be integers, got {bad!r}") from None
        if labels and min(labels) < 1:
            bad = next(x for x in labels if x < 1)
            raise ValueError(f"labels must be positive integers, got {bad}")
        top = max(labels) if labels else 1
        k_max = top if k_max is None else int(k_max)
        if k_max < 1:
            raise ValueError("label budget k_max must be >= 1")
        if top > k_max:
            raise ValueError(f"label {top} exceeds declared budget k_max={k_max}")
        self.labels = labels
        self.k_max = k_max

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, v: int) -> int:
        return self.labels[v]

    def __iter__(self):
        return iter(self.labels)

    def __eq__(self, other):
        if not isinstance(other, Labeling):
            return NotImplemented
        return self.labels == other.labels and self.k_max == other.k_max

    def __hash__(self):
        return hash((self.labels, self.k_max))

    def __repr__(self):
        return f"Labeling({list(self.labels)!r}, k_max={self.k_max})"


@dataclass(frozen=True)
class ConflictReport:
    """Outcome of checking a labeling: offending edges plus all vertex sums.

    ``conflicts`` lists each edge whose endpoints share a sum, together with
    that shared value, in lexicographic edge order.  ``d_sums`` always holds
    every vertex's sum so callers can print full sum tables even on success.
    """

    conflicts: tuple[tuple[tuple[int, int], int], ...]
    d_sums: tuple[int, ...]

    @property
    def is_d_lucky(self) -> bool:
        return not self.conflicts


def _require_total(g: Graph, labeling: Labeling) -> None:
    if len(labeling) != g.n:
        raise ValueError(
            f"labeling has {len(labeling)} entries for a graph on {g.n} vertices"
        )


def d_lucky_sum(g: Graph, labeling: Labeling, u: int) -> int:
    """Degree of ``u`` plus the labels of its neighbors (0 for an isolated vertex)."""
    _require_total(g, labeling)
    g._check_vertex(u)
    return g.degree(u) + sum(labeling[v] for v in g.neighbors(u))


def d_lucky_sums(g: Graph, labeling: Labeling) -> tuple[int, ...]:
    """All per-vertex sums at once."""
    _require_total(g, labeling)
    labels = labeling.labels
    sums = list(map(len, g._adj))
    for u, v in g.edges:
        sums[u] += labels[v]
        sums[v] += labels[u]
    return tuple(sums)


def verify(g: Graph, labeling: Labeling) -> ConflictReport:
    """Check the labeling; conflicts are exactly the edges with equal endpoint sums."""
    sums = d_lucky_sums(g, labeling)
    conflicts = tuple(
        ((u, v), sums[u]) for u, v in g.edges if sums[u] == sums[v]
    )
    return ConflictReport(conflicts=conflicts, d_sums=sums)


def max_label(labeling: Labeling) -> int:
    """Largest label actually used; rejects an empty labeling."""
    if not labeling.labels:
        raise ValueError("empty labeling has no maximum label")
    return max(labeling.labels)
