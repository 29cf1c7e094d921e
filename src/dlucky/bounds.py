"""Clique enumeration (maximal and maximum) and the clique-degree lower bound.

For a clique Q of a connected graph G with clique number w, every d-lucky
labeling forces at least ``ceil((2*delta(Q) - Delta(Q) + 1) / (Delta(Q) - w + 2))``
labels, where delta/Delta are the smallest and largest G-degrees over Q.
The bound is evaluated over all largest cliques and clamped below at 1.

The part bound of :mod:`dlucky.parts` counts over the parts of a complete
multipartite subgraph instead of one clique, as the paper does for the
cocktail-party graphs; it comes with a certificate that
:func:`dlucky.parts.check_hall_bound` re-verifies.  On ``cocktail(2,14,1)``
Theorem 1 gives 2 and the part bound 6, the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graph import Graph, is_connected


@dataclass(frozen=True)
class CliqueRecord:
    """A clique plus the extreme host-graph degrees attained on it."""

    vertices: tuple[int, ...]
    delta: int
    max_deg: int


def _ceil_div(a: int, b: int) -> int:
    # b > 0; correct for negative numerators too
    return -((-a) // b)


def _pivot_search(g: Graph, report: Callable[[list[int]], int], floor: int) -> None:
    """Bron-Kerbosch search with pivoting over bitmask vertex sets.

    Calls ``report`` at most once with each maximal clique of ``g``.  Each
    call returns the new size floor (``floor`` is the initial one); branches
    whose clique plus candidates fall below the floor are cut, so every
    maximal clique that reaches the floor is reported.  Some smaller ones are
    reported too, so ``report`` filters.
    """
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if not g.n:
        return

    # Iterative: the search goes as deep as the largest clique, which may
    # exceed the recursion limit.  Each open search node keeps a frame
    # [cand, done, branch]; while one of its children is searched, that
    # child's vertex ends ``clique``, so len(clique) == len(stack) means the
    # top frame's child has finished.
    clique: list[int] = []
    stack: list[list[int]] = []
    cand, done = (1 << g.n) - 1, 0
    while True:
        if cand == 0 and done == 0:
            floor = report(clique)
        elif len(clique) + cand.bit_count() >= floor:
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
            return


def enumerate_maximal_cliques(g: Graph, min_size: int = 1) -> list[tuple[int, ...]]:
    """Every maximal clique with at least ``min_size`` vertices, in lexicographic order.

    Each clique is a sorted vertex tuple and appears exactly once.
    """
    found: list[tuple[int, ...]] = []

    def report(clique: list[int]) -> int:
        if len(clique) >= min_size:
            found.append(tuple(sorted(clique)))
        return min_size

    _pivot_search(g, report, min_size)
    return sorted(found)


def enumerate_maximum_cliques(
    g: Graph, vertex_cap: int | None = 64
) -> list[CliqueRecord]:
    """Every clique of maximum size, each exactly once, in lexicographic order.

    Branch-and-bound over the maximal-clique search: branches that cannot
    reach the best size found so far are cut.  Worst case is exponential, so
    inputs above ``vertex_cap`` vertices are refused (pass ``None`` to lift
    the guard).
    """
    if vertex_cap is not None and g.n > vertex_cap:
        raise ValueError(
            f"graph has {g.n} vertices, above the clique-enumeration cap of {vertex_cap}"
        )

    best: list[tuple[int, ...]] = []

    def report(clique: list[int]) -> int:
        size = len(clique)
        if not best or size > len(best[0]):
            best[:] = [tuple(sorted(clique))]
        elif size == len(best[0]):
            best.append(tuple(sorted(clique)))
        return len(best[0])

    _pivot_search(g, report, 0)

    records = []
    for vertices in sorted(best):
        degs = [g.degree(v) for v in vertices]
        records.append(
            CliqueRecord(vertices=vertices, delta=min(degs), max_deg=max(degs))
        )
    return records


def clique_bound(record: CliqueRecord, omega: int) -> int:
    """Label lower bound contributed by one maximum clique (clamped at 1)."""
    denominator = record.max_deg - omega + 2
    if denominator < 1:
        raise ValueError("clique vertex of degree below omega - 1; input is not a clique of its host")
    return max(1, _ceil_div(2 * record.delta - record.max_deg + 1, denominator))


def lower_bound_thm1_witness(
    g: Graph, vertex_cap: int | None = None
) -> tuple[int, CliqueRecord]:
    """Theorem 1's bound on the d-lucky number of a connected graph, with its witness.

    The witness is the first maximum clique, in lexicographic order, whose
    bound is the largest.  Disconnected input is a hard error (the bound's
    hypothesis), not a wrong answer.  Enumeration of maximum cliques is
    uncapped by default here because family instances routinely exceed the
    general-purpose guard of :func:`enumerate_maximum_cliques`.
    """
    if g.n < 1:
        raise ValueError("lower bound requires a nonempty graph")
    if not is_connected(g):
        raise ValueError("lower bound is stated for connected graphs only")
    records = enumerate_maximum_cliques(g, vertex_cap=vertex_cap)
    omega = len(records[0].vertices)
    best = max(records, key=lambda record: clique_bound(record, omega))
    return clique_bound(best, omega), best


def lower_bound_thm1(g: Graph, vertex_cap: int | None = None) -> int:
    """Best clique-degree lower bound; see :func:`lower_bound_thm1_witness`."""
    return lower_bound_thm1_witness(g, vertex_cap)[0]


def lower_bound_cor2(r: int, omega: int) -> int:
    """Bound specialization when every maximum-clique vertex has degree ``r``."""
    if omega < 1:
        raise ValueError("clique size omega must be >= 1")
    if r < omega - 1:
        raise ValueError(
            f"degree r={r} below omega-1={omega - 1}; a vertex of an omega-clique has degree >= omega-1"
        )
    return _ceil_div(r + 1, r - omega + 2)
