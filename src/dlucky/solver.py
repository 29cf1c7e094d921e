"""Exact d-lucky numbers on small graphs by exhaustive backtracking.

Before a label budget k reaches the search, a clique check (Theorem 1's
pigeonhole argument, see :func:`_clique_refutes`) tries to refute it outright.
A budget that survives is searched: labels are assigned in breadth-first
vertex order (from vertex 0, ties by index) and checking an edge is deferred
until every neighbor of both endpoints is labeled; only then are the two
endpoint sums final, so earlier checks would prune wrongly.  Budgets are tried
k = 1, 2, ... so the first success is the exact minimum, and each smaller
budget is certified infeasible either by the clique argument or by exhaustion.

Inside the search the same argument runs after every placement that passes
its edge checks.  For a clique Q and v in Q, ``t(v) = deg(v) - l(v) + sum of
l(w) over w in N(v) \\ Q`` must be pairwise distinct on Q in every d-lucky
labeling (see :func:`_clique_refutes`).  Under a partial labeling, each label
not yet placed lies in 1..k, so ``t(v)`` lies in ``[lo, hi]``: ``lo`` counts
each unplaced label of N(v) \\ Q as 1 and an unplaced l(v) as k, ``hi`` the
other way round.  Every completion of the partial labeling puts each ``t(v)``
inside its range, so when Q's ranges fail Hall's condition no completion is
d-lucky: the placement's subtree holds no labeling, and the placement is
undone (it still counts as one node).  The rule removes only subtrees
without a labeling, so each budget keeps its outcome and its first labeling.

Witnesses are the first labeling found, i.e. the lexicographically smallest
one with respect to the search's vertex order; neither clique check removes
a labeling, so neither changes a witness.

The search tests cliques of at least ``HALL_MIN_SIZE`` = 4 vertices: on a
triangle the test costs more than the placements it saves.  Over the
connected graphs with up to 6 vertices, testing triangles as well cut the
nodes from 319,512 to 277,348 but made the solves about 70% slower (Python
3.11, 2-core x86_64).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

from . import _search
from .bounds import enumerate_maximal_cliques
from .graph import Graph, bfs_order
from .labeling import Labeling

DEFAULT_VERTEX_CAP = 16
HALL_MIN_SIZE = 4


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


def _prepare(g: Graph, cliques: list[list[tuple[int, int, int]]]) -> tuple[tuple, tuple]:
    """The kernel's steps and t-slots; see :func:`_search.search`.

    Per BFS position: the vertex, its neighbors, its edge checks and its Hall
    tables.  Edge {u, v} is checked at the position of the last vertex of
    N(u) | N(v), where both endpoint sums become final.  Every vertex of
    every clique in ``cliques`` (from :func:`_clique_members`) with at least
    ``HALL_MIN_SIZE`` vertices gets a t-slot; a placement is Hall-tested on
    the cliques whose slots it moves.
    """
    adj = g._adj
    order = bfs_order(g)
    last = [0] * g.n  # position of each vertex's last neighbor in the order
    for i, v in enumerate(order):
        for w in adj[v]:
            last[w] = i
    ready: list[list[tuple[int, int]]] = [[] for _ in order]
    for u, v in g.edges:
        ready[last[u] if last[u] > last[v] else last[v]].append((u, v))

    slots: list[tuple[int, int]] = []
    # vertex -> (its own slots, slots it neighbors from outside, cliques to test)
    hall: defaultdict[int, tuple[list, list, list]] = defaultdict(lambda: ([], [], []))
    for members in cliques:
        if len(members) < HALL_MIN_SIZE:
            continue
        first = len(slots)
        inside = {v for v, _, _ in members}
        moved = set(inside)
        for i, (v, deg, s) in enumerate(members, first):
            slots.append((deg, s))
            hall[v][0].append(i)
            for w in adj[v]:
                if w not in inside:
                    hall[w][1].append(i)
                    moved.add(w)
        clique = itemgetter(*range(first, len(slots)))
        for w in moved:
            hall[w][2].append(clique)
    steps = tuple([(v, adj[v], ready[d], hall.get(v)) for d, v in enumerate(order)])
    return steps, tuple(slots)


def _clique_members(g: Graph) -> list[list[tuple[int, int, int]]]:
    """``(v, deg(v), |N(v) \\ Q|)`` per vertex v, for each maximal clique Q of size >= 3."""
    adj = g._adj
    return [
        [(v, len(adj[v]), len(adj[v]) - len(q) + 1) for v in q]
        for q in enumerate_maximal_cliques(g, min_size=3)
    ]


def _clique_refutes(cliques: list[list[tuple[int, int, int]]], k: int) -> bool:
    """True when some clique proves that no d-lucky labeling into 1..k exists.

    For a clique Q, a vertex v of Q and ``S(v) = N(v) \\ Q``, the d-lucky sum
    splits as ``d(v) = t(v) + sum of l(w) over w in Q`` with
    ``t(v) = deg(v) - l(v) + sum of l(w) over w in S(v)``.  The second term is
    the same for every vertex of Q, and Q's vertices are pairwise adjacent,
    so their ``t`` values must be pairwise distinct.  With labels in 1..k,
    ``t(v)`` lies in ``[deg(v) - k + |S(v)|, deg(v) - 1 + k*|S(v)|]``.  If
    these ranges fail Hall's condition (:func:`_search.hall_fails`), no
    labeling into 1..k exists.  ``cliques`` comes from :func:`_clique_members`.
    """
    for members in cliques:
        if _search.hall_fails(
            [deg - k + s for _, deg, s in members],
            [deg - 1 + k * s for _, deg, s in members],
        ):
            return True
    return False


def _run(k: int, prepared: tuple) -> tuple[Labeling | None, int]:
    labels, nodes = _search.search(k, *prepared)
    return (Labeling(labels, k_max=k) if labels is not None else None), nodes


def _check_search_args(g: Graph, k: int) -> None:
    if g.n == 0:
        raise ValueError("search requires a nonempty graph")
    if k < 1:
        raise ValueError(f"label budget must be >= 1, got {k}")


def exists_labeling(g: Graph, k: int) -> Labeling | None:
    """A verifying labeling into 1..k, or None after certified exhaustion."""
    _check_search_args(g, k)
    cliques = _clique_members(g)
    if _clique_refutes(cliques, k):
        return None
    witness, _ = _run(k, _prepare(g, cliques))
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
    cliques = _clique_members(g)
    prepared = _prepare(g, cliques)
    total_nodes = 0
    for k in range(1, max_k + 1):
        if _clique_refutes(cliques, k):
            continue
        witness, nodes = _run(k, prepared)
        total_nodes += nodes
        if witness is not None:
            return SolveResult(
                eta=k, witness=witness, nodes_explored=total_nodes, k_tried=k
            )
    return SolveResult(
        eta=None, witness=None, nodes_explored=total_nodes, k_tried=max_k
    )
