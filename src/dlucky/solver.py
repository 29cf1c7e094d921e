"""Exact d-lucky numbers on small graphs by exhaustive backtracking.

Before a label budget k reaches the search, a clique check (Theorem 1's
pigeonhole argument, see :func:`_clique_refutes`) tries to refute it outright.
A budget that survives is searched: labels are assigned in breadth-first
vertex order (from vertex 0, ties by index) and checking an edge is deferred
until every neighbor of both endpoints is labeled; only then are the two
endpoint sums final, so earlier checks would prune wrongly.  Budgets are tried
k = 1, 2, ... so the first success is the exact minimum, and each smaller
budget is certified infeasible either by the clique argument or by exhaustion.

Witnesses are the first labeling found, i.e. the lexicographically smallest
one with respect to the search's vertex order; the clique check removes only
budgets without any labeling, so it never changes a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _search
from .bounds import enumerate_maximal_cliques
from .graph import Graph, bfs_order
from .labeling import Labeling

DEFAULT_VERTEX_CAP = 16


def solver_backend() -> str:
    """Name of the search kernel; the only one is the plain-Python ``"pure"``."""
    return "pure"


def _kernel(_ignored=None):
    """The module whose ``search`` runs the backtracking; tracers wrap it there."""
    return _search


@dataclass(frozen=True)
class SolveResult:
    """Exact search outcome: the minimum budget with a witness, or exhaustion.

    ``eta is None`` means every budget up to ``k_tried`` was proved
    infeasible.  On success the witness verifies with zero conflicts, and
    minimality is certified at every smaller budget either by the clique
    check or by an exhausted search.  ``nodes_explored`` counts label
    placements over all budgets searched; a budget refuted by the clique
    check adds none.
    """

    eta: int | None
    witness: Labeling | None
    nodes_explored: int
    k_tried: int

    @property
    def exceeded(self) -> bool:
        return self.eta is None


def _prepare(g: Graph) -> tuple:
    """The kernel's steps: per BFS position, the vertex, its neighbors and its edge checks.

    Edge {u, v} is checked at the position of the last vertex of
    N(u) | N(v), where both endpoint sums become final.
    """
    order = bfs_order(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    ready: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        ready[max(pos[w] for w in g.neighbors(u) + g.neighbors(v))].append((u, v))
    return tuple((v, g.neighbors(v), tuple(ready[d])) for d, v in enumerate(order))


def _clique_members(g: Graph) -> list[list[tuple[int, int]]]:
    """``(deg(v), |N(v) \\ Q|)`` per vertex v, for each maximal clique Q of size >= 3."""
    return [
        [(g.degree(v), g.degree(v) - len(q) + 1) for v in q]
        for q in enumerate_maximal_cliques(g, min_size=3)
    ]


def _clique_refutes(cliques: list[list[tuple[int, int]]], k: int) -> bool:
    """True when some clique proves that no d-lucky labeling into 1..k exists.

    For a clique Q, a vertex v of Q and ``S(v) = N(v) \\ Q``, the d-lucky sum
    splits as ``d(v) = t(v) + sum of l(w) over w in Q`` with
    ``t(v) = deg(v) - l(v) + sum of l(w) over w in S(v)``.  The second term is
    the same for every vertex of Q, and Q's vertices are pairwise adjacent,
    so their ``t`` values must be pairwise distinct.  With labels in 1..k,
    ``t(v)`` lies in ``[deg(v) - k + |S(v)|, deg(v) - 1 + k*|S(v)|]``.  If some
    interval ``[a, b]`` contains the ranges of more than ``b - a + 1``
    vertices of Q, those vertices need more distinct values than the interval
    holds (Hall's condition fails), so no labeling into 1..k exists.  Only
    intervals from a range's low end to another range's high end need testing.
    ``cliques`` comes from :func:`_clique_members`.
    """
    for members in cliques:
        ranges = [(deg - k + s, deg - 1 + k * s) for deg, s in members]
        for a in {lo for lo, _ in ranges}:
            his = sorted(hi for lo, hi in ranges if lo >= a)
            for count, b in enumerate(his, 1):
                if count > b - a + 1:
                    return True
    return False


def _run(k: int, steps: tuple) -> tuple[Labeling | None, int]:
    labels, nodes = _search.search(k, steps)
    return (Labeling(labels, k_max=k) if labels is not None else None), nodes


def _check_search_args(g: Graph, k: int) -> None:
    if g.n == 0:
        raise ValueError("search requires a nonempty graph")
    if k < 1:
        raise ValueError(f"label budget must be >= 1, got {k}")


def exists_labeling(g: Graph, k: int) -> Labeling | None:
    """A verifying labeling into 1..k, or None after certified exhaustion."""
    _check_search_args(g, k)
    if _clique_refutes(_clique_members(g), k):
        return None
    witness, _ = _run(k, _prepare(g))
    return witness


def exact_eta(g: Graph, max_k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> SolveResult:
    """Least budget k <= max_k admitting a d-lucky labeling, with witness.

    Budgets are tried in increasing order, so success at k certifies that
    every smaller budget was refuted by the clique check or exhausted by the
    search.  Graphs above ``vertex_cap`` vertices are refused; raise the cap
    explicitly for bigger (slower) runs.
    """
    _check_search_args(g, max_k)
    if g.n > vertex_cap:
        raise ValueError(
            f"graph has {g.n} vertices, above the solver vertex cap of {vertex_cap}"
        )
    steps = _prepare(g)
    cliques = _clique_members(g)
    total_nodes = 0
    for k in range(1, max_k + 1):
        if _clique_refutes(cliques, k):
            continue
        witness, nodes = _run(k, steps)
        total_nodes += nodes
        if witness is not None:
            return SolveResult(
                eta=k, witness=witness, nodes_explored=total_nodes, k_tried=k
            )
    return SolveResult(
        eta=None, witness=None, nodes_explored=total_nodes, k_tried=max_k
    )
