"""Complete multipartite part structures, and the part bound with its certificate.

The paper gets the optimum of the cocktail-party graphs by counting over the
parts of their multipartite base: each part needs a t-value that no other
part uses, so when some choice of one vertex per part has t-ranges that fail
Hall's condition no labeling into 1..k exists (:func:`_search.slot_ranges`
gives the argument; a clique is the structure whose parts each hold one
vertex).  :func:`structure` puts the parts in the solver's form, one t-slot
per vertex, and the bound tests them with the solver's test,
:func:`_search.choice_fails`.  The ranges only widen as k grows, so the part
bound is the least k at which every choice passes, and every smaller k fails.

:func:`grow_parts` grows a structure from a maximal clique.  The solver grows
one from each large maximal clique (see :func:`solver._grow`);
:func:`lower_bound_hall` grows one from a single greedily chosen maximal
clique, so it never lists cliques, and keeps the better of the grown parts
and the seed clique alone.  On ``cocktail(n, t, r)`` growing finds the t
base parts, whose equal ranges pass exactly when ``t <= (k-1)*(n+r) + 1``:
the claimed optimum ``ceil((t+n+r-1)/(n+r))``.

:func:`lower_bound_hall_witness` returns the bound with a certificate read
off the :func:`_search.choice_fails` call that refuted ``bound - 1``: the
parts, its interval ``[a, b]`` and ``b - a + 2`` parts that each have a
vertex whose range lies inside it.  :func:`check_hall_bound` re-verifies a
certificate from the graph alone.

Like every module of the package, this one is imported only where it is
used (see :mod:`dlucky`): Python compiles a module on every fresh import
when bytecode is not cached, and most solves need no part structure.  The
solver and ``dlucky bound`` import it when they use it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import _search
from .bounds import _greedy_clique
from .graph import Graph


class HallCertificate(NamedTuple):
    """Why no labeling into 1..bound-1 exists: see :func:`check_hall_bound`.

    ``parts`` are the parts of a complete multipartite subgraph.  When the
    bound is above 1, ``interval`` = ``[a, b]``, with ``a <= b``, is named by
    :func:`_search.choice_fails` on the vertex ranges at ``k = bound - 1``,
    and the first ``b - a + 2`` parts with a vertex whose range lies inside
    it are ``overfull``.
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


def structure(g: Graph, parts: list[list[int]]) -> tuple[list[int], list, tuple[int, ...] | None]:
    """The parts of a complete multipartite subgraph in the solver's form ``(members, slots, part_of)``.

    ``members`` lists the vertices part by part, ``slots`` holds their
    t-slots from :func:`_search.part_slots`, and ``part_of`` the part of
    each, or None when every part holds one vertex, so that a clique takes
    the :func:`_search.hall_fails` path of :func:`_search.choice_fails`.
    """
    members = [v for part in parts for v in part]
    part_of = None
    if len(members) > len(parts):
        part_of = tuple([p for p, part in enumerate(parts) for _ in part])
    return members, _search.part_slots(g._adj, members, part_of), part_of


def _least_passing(slots, part_of, t: int) -> tuple[int, tuple[int, int] | None]:
    """The least k at which every choice of one slot per part passes Hall's
    condition, with the interval :func:`_search.choice_fails` names at
    ``k - 1`` (None when k is 1); the structure has ``t`` parts."""
    # every range has at least k values, so k = t passes; the last failing
    # probe is the one that raised low to its final value, at k - 1
    low, high, interval = 1, t, None
    while low < high:
        mid = (low + high) // 2
        if failed := _search.choice_fails(*_search.slot_ranges(slots, mid), part_of):
            low, interval = mid + 1, failed
        else:
            high = mid
    return low, interval


def lower_bound_hall_witness(g: Graph) -> tuple[int, HallCertificate]:
    """The part bound on the d-lucky number (see the module docstring), with its certificate.

    The parts grow by :func:`grow_parts` from one greedily chosen maximal
    clique.  Growing lowers both ends of each seed vertex's range (its
    ``s(v)`` falls and its part grows), which can undo an overlap, so the
    structure's test is not proven stronger than the seed clique's alone,
    as parts of one vertex (see the :mod:`dlucky.solver` docstring); the
    better of the two is taken, the grown parts on a tie.  (On P_4 with
    edges (0,1), (0,3), (1,2) both give 2: the grown parts {0, 2} and {1}
    hold vertices 0 and 1, whose ranges under one label both lie in
    ``[1, 1]``.)  Graphs need not be connected.
    """
    if g.n < 1:
        raise ValueError("lower bound requires a nonempty graph")
    seed = _greedy_clique(g)
    best = None
    for parts in (grow_parts(g, seed), [[v] for v in seed]):
        _, slots, part_of = structure(g, parts)
        low, interval = _least_passing(slots, part_of, len(parts))
        if best is None or low > best[0]:
            best = low, interval, parts, slots, part_of
        if part_of is None:  # no part grew, so the seed clique alone is this structure
            break
    low, interval, parts, slots, part_of = best
    frozen = tuple(tuple(p) for p in parts)
    if interval is None:
        return 1, HallCertificate(frozen, None, ())
    a, b = interval
    los, his = _search.slot_ranges(slots, low - 1)
    owner = part_of or range(len(slots))  # the part of each slot
    inside = sorted({p for p, lo, hi in zip(owner, los, his) if a <= lo and hi <= b})
    return low, HallCertificate(frozen, interval, tuple(inside[: b - a + 2]))


def lower_bound_hall(g: Graph) -> int:
    """The part bound; see :func:`lower_bound_hall_witness`."""
    return lower_bound_hall_witness(g)[0]


def check_hall_bound(g: Graph, bound: int, cert: HallCertificate) -> bool:
    """True when ``cert`` proves that no d-lucky labeling of ``g`` uses labels 1..bound-1 only.

    Recomputed from the graph: the parts are disjoint nonempty independent
    sets, completely joined to each other; ``a <= b``; and at
    ``k = bound - 1`` each part P listed in ``overfull`` has a vertex v whose
    range ``[deg(v) + s(v) - k*|P|, deg(v) + k*s(v) - |P|]`` lies inside
    ``[a, b]``, with ``b - a + 2`` such parts, one more than the values of
    ``[a, b]``: these vertices lie in distinct parts, so each needs a
    t-value of its own, and every such value lies in ``[a, b]``.  A bound of
    1 needs no interval.  The bound, the vertices, the interval's ends and
    the indices must be exact ints (not bools), the interval a pair, the
    parts and indices iterable, and ``cert`` a triple ``(parts, interval,
    overfull)``, a plain tuple or a :class:`HallCertificate`; anything else
    is False.
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
        ends = [(len(nbrs[v]), len(nbrs[v] - union)) for v in parts[i]]  # (deg(v), s(v))
        if not any(a <= deg + s - k * size and deg + k * s - size <= b for deg, s in ends):
            return False
    return True
