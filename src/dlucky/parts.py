"""Complete multipartite part structures, and the part bound with its certificate.

The paper gets the optimum of the cocktail-party graphs by counting over the
parts of their multipartite base: each part needs a t-value that no other
part uses, so when the part ranges fail Hall's condition no labeling into
1..k exists (:func:`_search.part_hulls` gives the argument; a clique is the
structure whose parts each hold one vertex).  The ranges only widen as k
grows, so the part bound is the least k whose ranges pass, and every
smaller k fails.

:func:`grow_parts` grows a structure from a maximal clique.  The solver grows
one from each large maximal clique (see :func:`solver._grow`);
:func:`lower_bound_hall` grows one from a single greedily chosen maximal
clique, so it never lists cliques, and keeps the better of the grown parts
and the seed clique alone.  On ``cocktail(n, t, r)`` growing finds the t
base parts, whose equal ranges pass exactly when ``t <= (k-1)*(n+r) + 1``:
the claimed optimum ``ceil((t+n+r-1)/(n+r))``.

:func:`lower_bound_hall_witness` returns the bound with a certificate read
off the :func:`hall_fails` call that refuted ``bound - 1``: the parts, its
interval ``[a, b]`` and ``b - a + 2`` parts whose ranges lie inside it.
:func:`check_hall_bound` re-verifies a certificate from the graph alone.

Like every module of the package, this one is imported only where it is
used (see :mod:`dlucky`): Python compiles a module on every fresh import
when bytecode is not cached, and most solves need no part structure.  The
solver and ``dlucky bound`` import it when they use it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ._search import hall_fails, part_hulls, part_slots
from .bounds import _greedy_clique
from .graph import Graph


class HallCertificate(NamedTuple):
    """Why no labeling into 1..bound-1 exists: see :func:`check_hall_bound`.

    ``parts`` are the parts of a complete multipartite subgraph.  When the
    bound is above 1, ``interval`` = ``[a, b]``, with ``a <= b``, is named by
    :func:`hall_fails` on the part ranges at ``k = bound - 1``, and the first
    ``b - a + 2`` parts whose ranges lie inside it are ``overfull``.
    Otherwise ``interval`` is None and ``overfull`` is empty.
    """

    parts: tuple[tuple[int, ...], ...]
    interval: tuple[int, int] | None
    overfull: tuple[int, ...]


def grow_parts(g: Graph, clique: Sequence[int]) -> list[list[int]]:
    """Grow a maximal clique into the parts of a complete multipartite subgraph.

    Part i starts as ``[clique[i]]``.  Then, in increasing vertex order, a
    vertex x outside the parts joins part i when it is adjacent to every
    current member of every other part and to no member of part i; clique[i]
    is then the one clique vertex it misses.  So every part stays an
    independent set, and every two parts stay completely joined.  A vertex
    turned away is never admitted later, since members are only added, so
    one pass suffices.  Costs O(n + m).
    """
    adj = g._adj
    part_of = {v: i for i, v in enumerate(clique)}
    parts = [[v] for v in clique]
    size = len(clique)  # vertices in all parts
    everyone = size * (size - 1) // 2  # sum of all part indices
    for x in range(g.n):
        nbrs = adj[x]
        # a joining vertex is adjacent to at least one member of all parts but one
        if len(nbrs) < len(parts) - 1 or x in part_of:
            continue
        touched = set()
        hits = 0
        for w in nbrs:
            i = part_of.get(w)
            if i is not None:
                touched.add(i)
                hits += 1
        if len(touched) != len(parts) - 1:
            continue
        j = everyone - sum(touched)  # the one part x does not touch
        if hits == size - len(parts[j]):
            parts[j].append(x)
            part_of[x] = j
            size += 1
    return parts


def part_ranges(g: Graph, parts: list[list[int]]) -> list[tuple[int, int, int, int]]:
    """The parts grown by :func:`grow_parts` in the form of :func:`_search.part_hulls`.

    A vertex v of part P is adjacent to exactly M \\ P inside M, so
    ``s(v) = deg(v) - |M| + |P|``; the least and the largest degree of P
    give the ends of its hull.
    """
    adj = g._adj
    size = sum(map(len, parts))
    ranges = []
    for part in parts:
        degs = [len(adj[v]) for v in part]
        low, high = min(degs), max(degs)
        outside = size - len(part)  # deg(v) - s(v) on this part
        ranges.append((2 * low - outside, high, high - outside, len(part)))
    return ranges


def _least_passing(ranges: list[tuple[int, int, int, int]]) -> tuple[int, tuple[int, int] | None]:
    """The least k at which the part ranges pass Hall's condition, with the
    interval :func:`hall_fails` names at ``k - 1`` (None when k is 1)."""
    # every range has at least k values, so k = len(ranges) passes; the last
    # failing probe is the one that raised low to its final value, at k - 1
    low, high, interval = 1, len(ranges), None
    while low < high:
        mid = (low + high) // 2
        if failed := hall_fails(*part_hulls(ranges, mid)):
            low, interval = mid + 1, failed
        else:
            high = mid
    return low, interval


def lower_bound_hall_witness(g: Graph) -> tuple[int, HallCertificate]:
    """The part bound on the d-lucky number (see the module docstring), with its certificate.

    The parts grow by :func:`grow_parts` from one greedily chosen maximal
    clique.  Growing a part widens its range, so the seed clique alone, as
    parts of one vertex, can give more (P_4 with edges (0,1), (0,3), (1,2):
    2 against 1); the better of the two is taken, the grown parts on a tie.
    Graphs need not be connected.
    """
    if g.n < 1:
        raise ValueError("lower bound requires a nonempty graph")
    seed = _greedy_clique(g)
    parts = grow_parts(g, seed)
    ranges = part_ranges(g, parts)
    low, interval = _least_passing(ranges)
    alone_ranges = part_slots(g._adj, seed, None)
    alone_low, alone_interval = _least_passing(alone_ranges)
    if alone_low > low:
        parts, ranges = [[v] for v in seed], alone_ranges
        low, interval = alone_low, alone_interval
    frozen = tuple(tuple(p) for p in parts)
    if interval is None:
        return 1, HallCertificate(frozen, None, ())
    a, b = interval
    los, his = part_hulls(ranges, low - 1)
    inside = [i for i, (lo, hi) in enumerate(zip(los, his)) if a <= lo and hi <= b]
    return low, HallCertificate(frozen, interval, tuple(inside[: b - a + 2]))


def lower_bound_hall(g: Graph) -> int:
    """The part bound; see :func:`lower_bound_hall_witness`."""
    return lower_bound_hall_witness(g)[0]


def check_hall_bound(g: Graph, bound: int, cert: HallCertificate) -> bool:
    """True when ``cert`` proves that no d-lucky labeling of ``g`` uses labels 1..bound-1 only.

    Recomputed from the graph: the parts are disjoint nonempty independent
    sets, completely joined to each other; ``a <= b``; and at
    ``k = bound - 1`` the range ``[deg(v) - k*|P| + s(v), deg(v) - |P| + k*s(v)]``
    of every vertex v of every part P listed in ``overfull`` lies inside
    ``[a, b]``, with ``b - a + 2`` such parts, one more than the values of
    ``[a, b]``.  A bound of 1 needs no interval.  The bound, the vertices,
    the interval's ends and the indices must be exact ints (not bools), the
    interval a pair, the parts and indices iterable, and ``cert`` a triple
    ``(parts, interval, overfull)``, a plain tuple or a
    :class:`HallCertificate`; anything else is False.
    """
    if type(bound) is not int or bound < 1:
        return False
    try:
        parts, interval, overfull = cert
        parts = [set(p) for p in parts]
        overfull = tuple(overfull)
    except (TypeError, ValueError):  # not a triple, not iterable, or an unhashable vertex
        return False
    union = set().union(*parts)
    if not all(parts) or sum(map(len, parts)) != len(union):
        return False
    if not all(type(v) is int and 0 <= v < g.n for v in union):
        return False
    nbrs = {v: set(g.neighbors(v)) for v in union}
    for part in parts:
        others = union - part
        for v in part:
            if nbrs[v] & part or not others <= nbrs[v]:
                return False
    if bound == 1:
        return interval is None and not overfull
    if not isinstance(interval, (tuple, list)) or len(interval) != 2:
        return False
    a, b = interval
    if not (type(a) is type(b) is int and a <= b and all(type(i) is int for i in overfull)):
        return False
    chosen = set(overfull)
    if len(chosen) != len(overfull) or not chosen <= set(range(len(parts))):
        return False
    if len(chosen) != b - a + 2:
        return False
    k = bound - 1
    for i in chosen:
        size = len(parts[i])
        for v in parts[i]:
            deg = len(nbrs[v])
            s = len(nbrs[v] - union)
            if deg - k * size + s < a or deg - size + k * s > b:
                return False
    return True
