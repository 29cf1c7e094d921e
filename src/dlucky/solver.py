"""Exact d-lucky numbers on small graphs by exhaustive backtracking.

Before a label budget k reaches the search, a clique check (Theorem 1's
pigeonhole argument, see :func:`_search.clique_ranges`) and a part check
(below) try to refute it outright.  A budget that survives is searched:
labels are assigned in breadth-first vertex order (from vertex 0, ties by
index) and checking an edge is deferred until every neighbor of both
endpoints is labeled; only then are the two endpoint sums final, so earlier
checks would prune wrongly.  Budgets are tried k = 1, 2, ... so the first
success is the exact minimum, and each smaller budget is certified
infeasible either by the root checks or by exhaustion.

The part check counts over the parts of a complete multipartite subgraph, as
the paper does for the cocktail-party graphs: each part needs a t-value that
no other part uses, so when the parts' t-ranges fail Hall's condition no
labeling into 1..k exists (:func:`_search.part_hulls` gives the argument).
Parts of one vertex give the clique check, so both checks and the kernel's
clique test take their ranges from that one routine.  The structures come
from :func:`_root_structures`: every clique as parts of one vertex, and the
structures :func:`parts.grow_parts` grows from the large maximal cliques.
Every clique range and part hull only widens as k grows, so once a budget
passes both root checks every larger one does: :func:`exact_eta` tests
nothing more from there, and the budgets the root checks refute are exactly
those below the least one they pass.  Only budgets are refuted, never a
subtree, so the search, its visit order and the witness do not change;
``nodes_explored`` can only fall.  On ``cocktail(2,6,1)`` the six base parts
of two vertices refute k = 2, which the clique check passes: 405 nodes fall
to 39.

Inside the search the clique argument runs after every placement that passes
its edge checks.  For a clique Q and v in Q, ``t(v) = deg(v) - l(v) + sum of
l(w) over w in N(v) \\ Q`` must be pairwise distinct on Q in every d-lucky
labeling (see :func:`_search.part_hulls`).  Under a partial labeling, each
label not yet placed lies in 1..k, so ``t(v)`` lies in ``[lo, hi]``: ``lo``
counts each unplaced label of N(v) \\ Q as 1 and an unplaced l(v) as k,
``hi`` the other way round.  Every completion of the partial labeling puts
each ``t(v)`` inside its range, so when Q's ranges fail Hall's condition no
completion is d-lucky: the placement's subtree holds no labeling, and the
placement is undone (it still counts as one node).  The rule removes only
subtrees without a labeling, so each budget keeps its outcome and its first
labeling.

The search also remembers refuted states.  Take a fresh entry to depth d,
the labels of the first d vertices placed.  The checks still to come are
those at depth >= d; each compares two final sums, and a final sum is the
current sum plus the labels of the neighbors not yet placed.  The current
sum of a vertex with no placed neighbor is its degree, so whether some
labels of the remaining vertices pass every check still to come depends only
on d and the current sums of the live vertices: those with a check at depth
>= d and a neighbor placed before d.  The search below the entry misses no
labeling, because neither clique check removes one; so when it exhausts
depth d, no completion exists, and none exists for any later entry to d
with the same live sums.  The kernel records those sums as the depth's key
and backtracks from a later entry with a recorded key (a memo hit) without
placing a label.  The clique ranges are left out of the key: they can cut
placements but never decide whether a completion exists.  Only subtrees
without a labeling are skipped, so each budget keeps its outcome and its
first labeling, and the nodes of the remaining subtrees are visited in the
same order; a hit counts no node, so ``nodes_explored`` can only fall.

Witnesses are the first labeling found, i.e. the lexicographically smallest
one with respect to the search's vertex order; neither clique check, the part
check nor the memo removes a labeling, so none of them changes a witness.

The search tests cliques of at least ``HALL_MIN_SIZE`` = 4 vertices: on a
triangle the test costs more than the placements it saves.  Over the
connected graphs with up to 6 vertices, testing triangles as well cut the
nodes from 319,512 to 277,348 but made the solves about 70% slower (Python
3.11, 2-core x86_64).

Part structures are grown from the maximal cliques of more than
``HALL_MIN_SIZE`` vertices, and only when there are two of them.  Nodes and
solve times of ``exact_eta(g, n + 2)`` on graphs outside the benchmark,
least of 3 runs (one run for the slow ones; Python 3.11, shared 2-core
x86_64, runs differ by up to 30%), with the part check off / grown from
cliques of at least 3 vertices / at least 4 / at least 4 with a lone such
clique grown too::

    cocktail(3,6,1)      143,300  235 s      438  388 ms      438  330 ms      438  328 ms
    K_8 minus (6,7)      131,991  523 ms  13,437   65 ms   13,437   51 ms   13,437   53 ms
    K_9 minus (7,8)    2,753,059 12.4 s  186,823  812 ms  186,823  874 ms  186,823  869 ms
    400 random, 7-10     129,676  914 ms 126,734  884 ms  126,734  878 ms  126,734  863 ms
    1,500 random, 7-9  1,101,791  5.1 s  444,185  2.1 s   444,185  2.0 s   444,185  2.1 s

These gates give the same nodes on these graphs (for the lone clique, as
the argument in :func:`_root_structures` predicts).  Growing from cliques
of at least 5 vertices, the default, gives the same nodes too, except
444,677 on the 1,500 random graphs.  The gate is set by the connected
graphs with up to 6 vertices: at 4, 1,455 of the 27,476 grow a structure
(17,638 would at 3), which saves 1,718 of their 319,512 nodes but made the
benchmark's corpus6 ``run_s`` 3.5% slower; at 5, 15 graphs grow, 774
nodes are saved and ``run_s`` did not rise.
(The 400 graphs have edge probability 0.4-0.85, seed 7; the 1,500 have
0.2-0.9, seed 11.)

The memo costs a key per entry and the tables that build it, so it is kept
to the depths where it can pay: those where some vertex's last check was
one depth up (memoizing the other depths as well saved no node on the graphs
below and cost up to 40% more time) and where at least ``MEMO_MIN_BELOW`` = 6
vertices are left to place, so graphs with at most 6 vertices build no
table.  Solve times of ``exact_eta(g, 6)`` on graphs outside the benchmark,
in ms, least of 5 runs (Python 3.11, shared 2-core x86_64, runs differ by up
to 30%), for ``MEMO_MIN_BELOW`` = 1 / 3 / 6 / 8 / memo off::

    P_2 x C_15                    95    63    76   113  4611
    C_25                         1.8   1.1   1.3   1.7  25.9
    GP(9,2), few hits           10.0   8.7   8.7   8.9   7.0
    GP(11,2), few hits          24.8  21.7  15.9  16.0  12.4
    1,500 random, 7-9 vertices   267   241   210   209   178

A lower gate saves nodes on the prisms and cycles (P_2 x C_15 takes 63,721
nodes at 1, 93,885 at 6 and 4,777,501 with the memo off) and costs time on
graphs whose states seldom repeat; 6 keeps most of the saving.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import NamedTuple

from . import _search
from .bounds import enumerate_maximal_cliques
from .graph import Graph, bfs_order
from .labeling import Labeling

DEFAULT_VERTEX_CAP = 16
HALL_MIN_SIZE = 4
MEMO_MIN_BELOW = 6


def solver_backend() -> str:
    """Name of the search kernel; the only one is the plain-Python ``"pure"``."""
    return "pure"


def _kernel(_ignored=None):
    """The module whose ``search`` runs the backtracking; tracers wrap it there."""
    return _search


class SolveResult(NamedTuple):
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


def _prepare(g: Graph, cliques: list[tuple[int, ...]], structures: list) -> tuple[tuple, tuple]:
    """The kernel's steps and t-slots; see :func:`_search.search`.

    Per BFS position: the vertex, its neighbors, its edge checks, its Hall
    tables and its memo key (see :func:`_memo_keys`).  Edge {u, v} is checked
    at the position of the last vertex of N(u) | N(v), where both endpoint
    sums become final.  Every vertex of every clique in ``cliques`` with at
    least ``HALL_MIN_SIZE`` vertices gets a t-slot, its part from
    ``structures``, which :func:`_root_structures` built from ``cliques``
    and which starts with their ranges, in order; a placement is Hall-tested
    on the cliques whose slots it moves.
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

    slots: list[tuple[int, int, int, int]] = []
    # vertex -> (its own slots, slots it neighbors from outside, cliques to test)
    hall: defaultdict[int, tuple[list, list, list]] = defaultdict(lambda: ([], [], []))
    for q, ranges in zip(cliques, structures):
        if len(q) < HALL_MIN_SIZE:
            continue
        first = len(slots)
        slots.extend(ranges)
        inside = set(q)
        moved = set(inside)
        for i, v in enumerate(q, first):
            hall[v][0].append(i)
            for w in adj[v]:
                if w not in inside:
                    hall[w][1].append(i)
                    moved.add(w)
        clique = itemgetter(*range(first, len(slots)))
        for w in moved:
            hall[w][2].append(clique)
    memo = _memo_keys(adj, order, ready) if g.n > MEMO_MIN_BELOW else [None] * g.n
    steps = tuple([(v, adj[v], ready[d], hall.get(v), memo[d]) for d, v in enumerate(order)])
    return steps, tuple(slots)


def _memo_keys(adj, order, ready) -> list:
    """Per depth d, None or an ``itemgetter`` of the sums live at d.

    A vertex is live at d when it has an edge check at depth >= d and a
    neighbor placed before d.  Depth d is memoized when at least
    ``MEMO_MIN_BELOW`` vertices are left to place and some vertex had its
    last edge check at d - 1.
    """
    n = len(order)
    first = [n] * n  # position of each vertex's first neighbor in the order
    for i in range(n - 1, -1, -1):
        for w in adj[order[i]]:
            first[w] = i
    final = [-1] * n  # depth of each vertex's last edge check
    for d, checks in enumerate(ready):
        for u, w in checks:
            final[u] = final[w] = d
    retiring = set(final)
    memo: list = [None] * n
    for d in range(1, n - MEMO_MIN_BELOW + 1):
        live = [x for x in range(n) if first[x] < d <= final[x]]
        if d - 1 in retiring and live:
            memo[d] = itemgetter(*live)
    return memo


def _root_structures(g: Graph, cliques: list[tuple[int, ...]]) -> list[list[tuple[int, int, int, int]]]:
    """The parts (see :func:`_search.part_hulls`) of every structure the root check tests.

    First each clique of ``cliques``, in order, as parts of one vertex
    (:func:`_search.clique_ranges`).  Then the structures grown by
    :func:`parts.grow_parts` from the maximal cliques of more than
    ``HALL_MIN_SIZE`` vertices (see the module docstring); one is kept when
    some part has 2 or more vertices.  A clique inside the vertices of a kept
    structure is not grown (all 64 cliques of ``cocktail(2,6,1)`` lie in the
    first one), so every kept structure holds a seed clique that no earlier
    one holds, and none is kept twice.  With fewer than two such cliques
    nothing is grown: a vertex that could join a lone clique Q would lie in
    a second one, Q minus the member it misses plus itself.
    """
    structures = [_search.clique_ranges(g._adj, q) for q in cliques]
    big = [q for q in cliques if len(q) > HALL_MIN_SIZE]
    if len(big) < 2:
        return structures
    from .parts import grow_parts, part_ranges  # not at module level: see the parts docstring

    grown = []  # the vertex set of each kept structure
    for q in big:
        if any(grown_set.issuperset(q) for grown_set in grown):
            continue
        parts = grow_parts(g, q)
        if len(parts) < sum(map(len, parts)):
            grown.append(set().union(*parts))
            structures.append(part_ranges(g, parts))
    return structures


def _clique_refutes(structures: list, k: int) -> bool:
    """True when some clique or part structure proves that no d-lucky labeling into 1..k exists.

    A structure from :func:`_root_structures` refutes k when its part ranges
    (:func:`_search.part_hulls`, which gives the argument) fail
    :func:`_search.hall_fails`.
    """
    for parts in structures:
        if _search.hall_fails(*_search.part_hulls(parts, k)):
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
    cliques = enumerate_maximal_cliques(g, min_size=3)
    structures = _root_structures(g, cliques)
    if _clique_refutes(structures, k):
        return None
    witness, _ = _run(k, _prepare(g, cliques, structures))
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
    cliques = enumerate_maximal_cliques(g, min_size=3)
    structures = _root_structures(g, cliques)
    prepared = _prepare(g, cliques, structures)
    total_nodes = 0
    for k in range(1, max_k + 1):
        if _clique_refutes(structures, k):
            continue
        # the ranges only widen as k grows, so every later budget passes too
        structures = ()
        witness, nodes = _run(k, prepared)
        total_nodes += nodes
        if witness is not None:
            return SolveResult(
                eta=k, witness=witness, nodes_explored=total_nodes, k_tried=k
            )
    return SolveResult(
        eta=None, witness=None, nodes_explored=total_nodes, k_tried=max_k
    )
