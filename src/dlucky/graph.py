"""Simple undirected graphs: representation, generators, and combining operators.

Vertices are dense 0-based indices.  Every operator documents its vertex
numbering, so labelings built on top of these graphs are reproducible
across runs and platforms.
"""

from __future__ import annotations

from itertools import islice
from operator import eq
from typing import Iterable, Sequence


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Edges are normalized to ``(min, max)`` pairs, stored as a sorted tuple;
    construction rejects self-loops and out-of-range endpoints and collapses
    duplicates.  ``tags`` is an optional per-vertex role annotation (e.g.
    ``"clique"``, ``"pendant"``, ``"layer:2"``) used only for export and
    diagnostics, never by algorithms.  Equality compares vertex count and
    edge set; tags are ignored.

    Construction costs O(n + m log m) in the worst case and about O(n + m)
    when the edges arrive as a few sorted runs, as the builders emit them
    (rows of K_n, corona blocks, cylinder rows): the normalized pairs are
    sorted in place, which merges such runs in linear time, and duplicates
    are then exactly the equal neighbors.  No set of pairs is built: it
    would hash every pair, hold a second copy of them, and hand the sort an
    order with the runs lost.
    """

    __slots__ = ("n", "edges", "tags", "_adj")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = (), tags=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = []
        append = normalized.append
        for edge in edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if v < u:
                edge = (v, u)
            elif type(edge) is not tuple:  # an ordered tuple is kept as it is
                edge = (u, v)
            append(edge)
        normalized.sort()
        if any(map(eq, normalized, islice(normalized, 1, None))):
            normalized = dict.fromkeys(normalized)
        self.n = n
        self.edges = tuple(normalized)
        # walking the sorted edges appends every neighbor list in increasing order
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))
        self.tags = _checked_tags(tags, n)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise IndexError(f"vertex {u} out of range for {self.n} vertices")

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self._adj[u])

    def neighbors(self, u: int) -> tuple[int, ...]:
        self._check_vertex(u)
        return self._adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def with_tags(self, tags) -> "Graph":
        """Copy of this graph carrying the given per-vertex tags.

        The copy shares this graph's (immutable) edge tuple and adjacency.
        """
        copy = object.__new__(Graph)
        copy.n, copy.edges, copy._adj = self.n, self.edges, self._adj
        copy.tags = _checked_tags(tags, self.n)
        return copy

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _checked_tags(tags, n: int) -> tuple[str, ...] | None:
    if tags is None:
        return None
    tags = tuple(str(t) for t in tags)
    if len(tags) != n:
        raise ValueError("tags length must equal vertex count")
    return tags


def _ceil_div(a: int, b: int) -> int:
    # b > 0; correct for negative numerators too
    return -((-a) // b)


def complete_graph(n: int) -> Graph:
    """K_n; rejects n = 0."""
    if n < 1:
        raise ValueError("complete graph requires n >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(m: int) -> Graph:
    """P_m on vertices 0..m-1 with edges between consecutive indices."""
    if m < 1:
        raise ValueError("path graph requires m >= 1")
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n on vertices 0..n-1; rejects n < 3."""
    if n < 3:
        raise ValueError("cycle graph requires n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return Graph(n, edges)


def complement(g: Graph) -> Graph:
    """Graph with exactly the non-edges of ``g`` (tags preserved)."""
    edges = []
    for u, row in enumerate(map(set, g._adj)):
        edges += [(u, v) for v in range(u + 1, g.n) if v not in row]
    return Graph(g.n, edges, tags=g.tags)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product of two nonempty graphs.

    Vertex (a, x) with a in V(g), x in V(h) is flattened row-major to index
    ``a * h.n + x`` (g-index major).  (a, x) ~ (b, y) iff a = b and x ~ y in
    h, or x = y and a ~ b in g; degrees add up coordinate-wise.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("cartesian product requires nonempty factors")
    edges = []
    for a in range(g.n):
        base = a * h.n
        for x, y in h.edges:
            edges.append((base + x, base + y))
    for a, b in g.edges:
        for x in range(h.n):
            edges.append((a * h.n + x, b * h.n + x))
    return Graph(g.n * h.n, edges)


def corona(g: Graph, h: Graph) -> Graph:
    """Corona of ``g`` with ``h``: one fresh copy of h joined to each g-vertex.

    Numbering: g's vertices keep indices 0..g.n-1; the copy attached to
    g-vertex i occupies the block ``g.n + i * h.n .. g.n + (i + 1) * h.n - 1``
    (copies in g-vertex order).
    """
    if g.n == 0:
        raise ValueError("corona requires a nonempty base graph")
    edges = list(g.edges)
    for i in range(g.n):
        base = g.n + i * h.n
        for x, y in h.edges:
            edges.append((base + x, base + y))
        for x in range(h.n):
            edges.append((i, base + x))
    return Graph(g.n + g.n * h.n, edges)


def complete_multipartite(n: int, t: int) -> Graph:
    """Complete t-partite graph with parts of size n, numbered part-major.

    Part j (0-based) occupies indices ``j * n .. (j + 1) * n - 1``; edges run
    exactly between distinct parts, so every degree is n * (t - 1).
    """
    if n < 1 or t < 1:
        raise ValueError("complete multipartite graph requires n >= 1 and t >= 1")
    nt = n * t
    # u's neighbors above it start at the first vertex of the next part
    return Graph(nt, [(u, v) for u in range(nt) for v in range((u // n + 1) * n, nt)])


def subdivide_edges(g: Graph, edges_to_split: Iterable[Sequence[int]]) -> Graph:
    """Replace each listed edge {u, v} by a path u - w - v through a fresh vertex.

    New vertices are appended after the existing indices, one per replaced
    edge, in lexicographic order of the replaced (normalized) edges.  Tags,
    when present, are extended with ``"subdivision"`` for the new vertices.
    """
    present = set(g.edges)
    split = set()
    for edge in edges_to_split:
        u, v = edge
        e = (u, v) if u < v else (v, u)
        if e not in present:
            raise ValueError(f"cannot subdivide non-edge {e}")
        split.add(e)
    ordered = sorted(split)
    edges = [e for e in g.edges if e not in split]
    for rank, (u, v) in enumerate(ordered):
        w = g.n + rank
        edges.append((u, w))
        edges.append((w, v))
    tags = None
    if g.tags is not None:
        tags = g.tags + ("subdivision",) * len(ordered)
    return Graph(g.n + len(ordered), edges, tags=tags)


def _bfs(g: Graph, start: int, seen: list[bool]) -> list[int]:
    """Unseen vertices reachable from ``start`` in breadth-first order, ties by
    index; marks them seen."""
    adj = g._adj
    seen[start] = True
    order = [start]
    for u in order:  # the list grows while it is walked: it is the queue
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    return order


def bfs_order(g: Graph) -> list[int]:
    """Breadth-first vertex order from vertex 0, ties by index.

    Later components are entered at their smallest unvisited index.
    """
    seen = [False] * g.n
    order = []
    for start in range(g.n):
        if not seen[start]:
            order += _bfs(g, start, seen)
    return order


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(_bfs(g, 0, [False] * g.n)) == g.n
