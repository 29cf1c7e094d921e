"""Clique searches and Theorem 1's clique-degree lower bound.

For a clique Q of a connected graph G with clique number w, every d-lucky
labeling forces at least ``f(Q) = ceil((2*delta(Q) - Delta(Q) + 1) / (Delta(Q) - w + 2))``
labels, where delta/Delta are the smallest and largest G-degrees over Q.
The bound is the largest f over the maximum cliques, clamped below at 1,
and its witness is the first maximum clique, in lexicographic order, that
attains it.  Two branch-and-bound searches over bitmask vertex sets find
both without listing the maximum cliques; ``cocktail(n, t, r)`` has n^t.

1. **w** (:func:`_omega`), by a maximum-clique search with the colouring
   bound of Tomita and Seki's MCQ.  The first incumbent is the degree-greedy
   clique :func:`_greedy_clique`.  A node is a clique C with its candidates
   P, the vertices adjacent to all of C.  Greedy colouring splits P into
   independent sets, and a clique holds at most one vertex of each, so no
   clique through C has more than |C| + (colour classes of P) vertices:
   when that is at most the best size found, the node is cut.
2. **The witness** (:func:`_best_clique`), by a depth-first walk over the
   cliques in lexicographic order: a child adds a candidate above C's last
   vertex.  A vertex of a w-clique has degree at least w - 1, so only those
   vertices are candidates, and every denominator is at least 1.  Two cuts:

   - A level returns once |C| plus its candidates not yet tried is below w:
     every w-clique below it would need that many vertices.
   - A clique Q containing C has ``delta(Q) <= lo`` and ``Delta(Q) >= hi``,
     the least and largest degree over C.  The clamped f rises with delta
     and falls with Delta (with Delta >= w - 1, a larger Delta shrinks the
     numerator and grows the denominator, and a numerator at or below 0
     clamps to 1), so ``f(lo, hi)`` bounds every w-clique below C.  Until
     the first w-clique is found no child is skipped, as f never falls
     below 1.  From then on the incumbent is the best clique found, and a
     child is skipped when its bound is no higher: every later clique comes
     later in lexicographic order.  So the first clique found with the best
     value is the documented witness.

   Search 1 needs its greedy incumbent: from none, ``cocktail(5,100,5)``
   takes 836,741 nodes and 41 s against 1 node and 3 ms.  Search 2 does
   not: seeding ``need`` with the greedy clique's value cut its nodes on
   the 27,476 connected graphs with up to 6 vertices from 148,392 to
   144,915, but the bound took more CPU time over them, 0.403 against
   0.383 s (median of 6 alternating processes, each the median of 3
   passes; Python 3.11, shared 2-core x86_64), and the bound and witness
   are the same either way.

:func:`enumerate_maximum_cliques` takes w from search 1 and lists the
maximal cliques of at least w vertices with the one Bron-Kerbosch search,
:func:`_pivot_search`, which also serves :func:`enumerate_maximal_cliques`.

The part bound of :mod:`dlucky.parts` counts over the parts of a complete
multipartite subgraph instead of one clique, as the paper does for the
cocktail-party graphs; it comes with a certificate that
:func:`dlucky.parts.check_hall_bound` re-verifies.  On ``cocktail(2,14,1)``
Theorem 1 gives 2 and the part bound 6, the optimum.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, _ceil_div, is_connected


class CliqueRecord(NamedTuple):
    """A clique plus the extreme host-graph degrees attained on it."""

    vertices: tuple[int, ...]
    delta: int
    max_deg: int


def _masks(g: Graph) -> list[int]:
    """The neighborhood of each vertex as a bitmask."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _greedy_clique(g: Graph) -> list[int]:
    """A maximal clique: repeatedly add the candidate of largest degree (ties: smallest index).

    The candidates of the next pick are the common neighbors of the picks so
    far, so one scan in that order of preference picks the same vertices.
    """
    adj = g._adj
    order = sorted(range(g.n), key=[v - len(adj[v]) * g.n for v in range(g.n)].__getitem__)
    clique = [order[0]]
    cand = set(adj[order[0]])
    for v in order:
        if not cand:
            break
        if v in cand:
            clique.append(v)
            cand.intersection_update(adj[v])
    return clique


def _pivot_search(masks: list[int], min_size: int) -> list[tuple[int, ...]]:
    """Every maximal clique with at least ``min_size`` vertices, by Bron-Kerbosch with pivoting.

    Branches whose clique plus candidates fall below ``min_size`` are cut.
    """
    found: list[tuple[int, ...]] = []
    if not masks:
        return found
    # Iterative: the search goes as deep as the largest clique, which may
    # exceed the recursion limit.  Each open search node keeps a frame
    # [cand, done, branch]; while one of its children is searched, that
    # child's vertex ends ``clique``, so len(clique) == len(stack) means the
    # top frame's child has finished.
    clique: list[int] = []
    stack: list[list[int]] = []
    cand, done = (1 << len(masks)) - 1, 0
    while True:
        if cand == 0 and done == 0:
            if len(clique) >= min_size:
                found.append(tuple(sorted(clique)))
        elif len(clique) + cand.bit_count() >= min_size:
            # pivot: vertex of cand|done covering the most candidates (ties: smallest index)
            pool = cand | done
            pivot = -1
            pivot_cover = -1
            while pool:
                u = (pool & -pool).bit_length() - 1
                cover = (cand & masks[u]).bit_count()
                if cover > pivot_cover:
                    pivot_cover = cover
                    pivot = u
                pool &= pool - 1
            stack.append([cand, done, cand & ~masks[pivot]])
        while stack:
            frame = stack[-1]
            if len(clique) == len(stack):
                bit = 1 << clique.pop()
                frame[0] &= ~bit
                frame[1] |= bit
            branch = frame[2]
            if branch:
                frame[2] = branch & (branch - 1)
                v = (branch & -branch).bit_length() - 1
                clique.append(v)
                cand, done = frame[0] & masks[v], frame[1] & masks[v]
                break
            stack.pop()
        else:
            return found


def _omega(masks: list[int], incumbent: int) -> tuple[int, int]:
    """Search 1 (module docstring) from a clique of ``incumbent`` vertices: the clique number and the nodes."""
    best = incumbent
    nodes = 0
    stack = [(0, (1 << len(masks)) - 1)]  # (|C|, P)
    while stack:
        size, cand = stack.pop()
        nodes += 1
        # colour P greedily, stopping once |C| + classes beats the best size
        spare = best - size  # the classes a node may have and still be cut
        classes = 0
        rest = cand
        while rest and classes <= spare:
            classes += 1
            free = rest
            while free:
                bit = free & -free
                rest ^= bit
                free &= ~(masks[bit.bit_length() - 1] | bit)
        if classes <= spare:
            continue
        if not cand:
            best = size
            continue
        while cand:
            bit = cand & -cand
            cand ^= bit
            stack.append((size + 1, cand & masks[bit.bit_length() - 1]))
    return best, nodes


def _best_clique(masks: list[int], omega: int) -> tuple[int, list[int], int]:
    """Search 2 (module docstring): the bound, its witness and the nodes."""
    degs = [mask.bit_count() for mask in masks]
    need = 1  # a child whose value is below ``need``, one more than the best found, is cut
    best = 0
    witness: list[int] = []
    nodes = 0
    clique: list[int] = []
    root = (1 << len(masks)) - 1
    for v, d in enumerate(degs):
        if d < omega - 1:
            root ^= 1 << v
    # per open level: its candidates not yet tried, least and largest degree over C
    stack = [(root, len(masks), omega - 1)]
    while stack:
        cand, lo, hi = stack[-1]
        if not cand or len(clique) + cand.bit_count() < omega:
            stack.pop()
            if clique:
                clique.pop()
            continue
        bit = cand & -cand
        cand ^= bit
        stack[-1] = (cand, lo, hi)
        v = bit.bit_length() - 1
        d = degs[v]
        if d < lo:
            lo = d
        if d > hi:
            hi = d
        # the clamped f, inline: this loop is most of the bound's time on small graphs
        value = 2 * lo - hi + 1
        value = -(-value // (hi - omega + 2)) if value > 1 else 1
        if value < need:
            continue
        nodes += 1
        if len(clique) + 1 == omega:
            best, witness, need = value, clique + [v], value + 1
            continue
        clique.append(v)
        stack.append((cand & masks[v], lo, hi))
    return best, witness, nodes


def enumerate_maximal_cliques(g: Graph, min_size: int = 1) -> list[tuple[int, ...]]:
    """Every maximal clique with at least ``min_size`` vertices, in lexicographic order.

    Each clique is a sorted vertex tuple and appears exactly once.
    """
    return sorted(_pivot_search(_masks(g), min_size))


def _record(g: Graph, vertices: tuple[int, ...]) -> CliqueRecord:
    degs = [len(g._adj[v]) for v in vertices]
    return CliqueRecord(vertices=vertices, delta=min(degs), max_deg=max(degs))


def enumerate_maximum_cliques(g: Graph) -> list[CliqueRecord]:
    """Every clique of maximum size, each exactly once, in lexicographic order.

    The clique number comes from search 1 (module docstring); the maximum
    cliques are the maximal cliques that large.  Their number can be
    exponential even on few vertices: ``cocktail(2,16,1)`` has 64 vertices
    and 65,536 maximum cliques.
    """
    if g.n == 0:
        return []
    masks = _masks(g)
    omega, _ = _omega(masks, len(_greedy_clique(g)))
    return [_record(g, vertices) for vertices in sorted(_pivot_search(masks, omega))]


def lower_bound_thm1_witness(g: Graph) -> tuple[int, CliqueRecord]:
    """Theorem 1's bound on the d-lucky number of a connected graph, with its witness.

    The witness is the first maximum clique, in lexicographic order, whose
    bound is the largest; both come from the two searches of the module
    docstring.  Disconnected input is a hard error (the bound's hypothesis),
    not a wrong answer.
    """
    if g.n < 1:
        raise ValueError("lower bound requires a nonempty graph")
    if not is_connected(g):
        raise ValueError("lower bound is stated for connected graphs only")
    masks = _masks(g)
    omega, _ = _omega(masks, len(_greedy_clique(g)))
    bound, witness, _ = _best_clique(masks, omega)
    return bound, _record(g, tuple(witness))


def lower_bound_thm1(g: Graph) -> int:
    """Best clique-degree lower bound; see :func:`lower_bound_thm1_witness`."""
    return lower_bound_thm1_witness(g)[0]


def lower_bound_cor2(r: int, omega: int) -> int:
    """Bound specialization when every maximum-clique vertex has degree ``r``."""
    if omega < 1:
        raise ValueError("clique size omega must be >= 1")
    if r < omega - 1:
        raise ValueError(
            f"degree r={r} below omega-1={omega - 1}; a vertex of an omega-clique has degree >= omega-1"
        )
    return _ceil_div(r + 1, r - omega + 2)
