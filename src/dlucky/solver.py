"""Exact d-lucky numbers on small graphs by exhaustive backtracking.

Before a label budget k reaches the search, the root check (below; on a
clique it is Theorem 1's pigeonhole argument) tries to refute it
outright.  A budget that survives is searched:
labels are assigned in breadth-first vertex order (from vertex 0, ties by
index) and checking edge {u, v} is deferred until every vertex of
N(u) Δ N(v) is labeled.  A common neighbor adds its label to both sums, so
from then on ``sums[u] - sums[v]`` is final, and an earlier check would
prune wrongly.  On K_8 minus (6, 7) most pairs share every neighbor but each
other, and checking at the last vertex of N(u) ∪ N(v) instead took 13,437
nodes against 27.  Budgets are tried k = 1, 2, ... so the first
success is the exact minimum, and each smaller budget is certified
infeasible either by the root check or by exhaustion.

The root check counts over the parts of a complete multipartite subgraph,
as the paper does for the cocktail-party graphs: each part needs a t-value
that no other part uses, so when some choice of one vertex per part has
t-ranges that fail Hall's condition no labeling into 1..k exists
(:func:`_search.slot_ranges` gives the argument).  A clique is the structure
whose parts each hold one vertex, and its one choice is Theorem 1's count.
The root check and the kernel share one form of a structure,
``(members, slots, part_of)`` (see :func:`_setup`): one t-slot per vertex
from :func:`_search.part_slots`, tested by :func:`_search.choice_fails`;
:func:`dlucky.parts.structure` builds the grown ones, and the part bound of
:mod:`dlucky.parts` tests its structures the same way.
The root check tests every maximal clique of 3 or more vertices and the
structures :func:`_grow` grows from the large maximal cliques.  Every
vertex's t-range only widens as k grows, so once a budget passes the root
check every larger one does: :func:`_solve` tests nothing more from there,
and the budgets the root check refutes are exactly those below the least
one it passes.  Only budgets are refuted, never a subtree, so the search,
its visit order and the witness do not change; ``nodes_explored`` can only
fall.  On ``cocktail(2,6,1)`` the six base parts of two vertices refute
k = 2, which the cliques pass: the search at k = 2 is skipped, and the
solve takes 36 nodes instead of 405 (39 when the search tested the
structure's cliques one by one, below).

The root check, like the part bound, tests a grown structure on its
vertices' own t-ranges, as the search does, not on the hull of each part's
ranges (from their least low end to their largest high end).  Each
vertex's range lies inside its part's hull, so every choice fails where
the hulls fail, and the check refutes every budget the hulls would.  On
K_10 minus the edges 04, 05, 07, 49 and 68 it refutes k = 2, which the
hulls pass, and the solve takes 23 nodes instead of 25.  The part bound
rose over the hulls' on 822 of the 27,476 connected graphs with up to 6
vertices and on 15 of 600 dense random graphs (7-11 vertices, edge
probability 0.45-0.95, seed 2028), never above eta.

Inside the search the same count runs after every placement that passes its
edge checks.  Let M be the vertex set of a structure and v a vertex of its
part P.  Then ``d(v) = t(v) + l(M)`` with ``t(v) = deg(v) - l(P) + sum of
l(w) over w in N(v) \\ M`` (see :func:`_search.slot_ranges`).  ``l(M)`` is
the same for every vertex of M, and vertices in different parts are
adjacent, so in every d-lucky labeling vertices in different parts have
different t-values.  A clique is the structure whose parts are its vertices.
Under a partial labeling, each label not yet placed lies in 1..k, so
``t(v)`` lies in ``[lo, hi]``: ``lo`` counts each unplaced label of P as k
and of N(v) \\ M as 1, ``hi`` the other way round.  The kernel keeps that
range in a slot per vertex of M.  Placing l on a vertex of P moves the
slot of every vertex of P, placing it on a vertex outside M moves the slots
of its neighbors in M, and placing it in another part moves none, as l(M)
is not in t.  Every completion of the partial labeling puts each ``t(v)``
inside its range, so when the ranges of some choice of one vertex per part
fail Hall's condition no completion is d-lucky: the placement's subtree
holds no labeling, and the placement is undone (it still counts as one
node).  :func:`_search.choice_fails` tests every choice at once; a clique
has one, which :func:`_search.hall_fails` tests.  The rule removes only
subtrees without a labeling, so each budget keeps its outcome and its first
labeling.

A grown structure is tested once per placement that moves its slots, and
the cliques inside it get no slots and no test of their own.  A maximal
clique inside M is a choice of one vertex per part, as a part it missed
would extend it, so the structure's test counts over every such clique.  It
does so on ranges of its own.  A clique Q's rest is ``t(v) + l(M \\ Q)``,
and its range counts the unplaced labels of M \\ Q, which t cancels; at its
low end those in v's own part count as k and the others as 1, so the
offset differs from vertex to vertex.  So the structure's test is not
proven the stronger one, and the nodes below are measured.  Nodes and
solve times of ``exact_eta(g, n + 2)``, CPU ms, with each clique
inside a structure tested on its own (off, as before) and with the
structure's one test (on); median of 5 runs, each a process of its own that
takes the median of 5 solves (one solve of each of the 750 graphs and of
corpus6, the 27,476 connected graphs with up to 6 vertices), off and on
interleaved (Python 3.11, shared 2-core x86_64)::

                                  off               on
    cocktail(2,6,1)                39    4.22        36    1.12
    cocktail(2,7,1)               101    21.9        44    1.85
    cocktail(3,5,1)                99    28.3        39    1.89
    cocktail(3,6,1)               438     460        51    7.19
    K_9 minus (7,8)                35    0.20        35    0.23
    search-hard pass           25,098    23.8    25,095    21.2
    750 random, 7-11 vertices 262,994   2,041   133,094   1,163
    corpus6                   284,193   1,112   284,193   1,139

Eta and witness are the same in both columns on every graph here.  No
graph takes more nodes, and 133 of the 750 take fewer.  The 15 structures
that corpus6 grows leave its nodes as they are, and its time moves within
the spread of the runs.  ``K_9 minus (7,8)`` grows one structure of 9
slots in place of its two cliques of 8, with the same nodes, and the
choice test costs a little more than the two Hall tests did.  (The 750 are
600 random graphs with 7-11 vertices and edge probability 0.45-0.95, not
all connected, and 150 complete multipartite graphs with 3-5 parts of 1-3
vertices and up to 3 pendants, seed 2025.)

The search also remembers refuted states.  Take a fresh entry to depth d,
the labels of the first d vertices placed.  The checks still to come are
those at depth >= d; each compares two final sums, and a final sum is the
current sum plus the labels of the neighbors not yet placed.  The current
sum of a vertex with no placed neighbor is its degree, so whether some
labels of the remaining vertices pass every check still to come depends only
on d and the current sums of the live vertices: those with a check at depth
>= d and a neighbor placed before d.  The search below the entry misses no
labeling, because no Hall test removes one; so when it exhausts
depth d, no completion exists, and none exists for any later entry to d
with the same live sums.  The kernel records those sums as the depth's key
and backtracks from a later entry with a recorded key (a memo hit) without
placing a label.  The Hall slots' ranges are left out of the key: they can cut
placements but never decide whether a completion exists.  Only subtrees
without a labeling are skipped, so each budget keeps its outcome and its
first labeling, and the nodes of the remaining subtrees are visited in the
same order; a hit counts no node, so ``nodes_explored`` can only fall.
Checking at N(u) Δ N(v) leaves this argument as it is: a check still
compares the current sums of two vertices with a check pending, and the
labels still to come decide it.

Mirrored keys.  Let σ be an automorphism of the graph that maps the
vertices placed before depth d onto themselves.  It maps the unplaced
vertices onto themselves too, so it maps an edge whose N(u) Δ N(v) holds an
unplaced vertex, one with a check still to come, onto another such edge,
and a vertex with a placed neighbor onto another: σ maps the live set at d
onto itself.  Let labels M of the unplaced vertices complete the state with
live sums s, and let s' and M' read s and M through σ: s'(x) = s(σx) and
M'(y) = M(σy).  The final sum of x under s' and M' is s(σx) plus M over the
images of x's unplaced neighbors, which are σx's unplaced neighbors: the
final sum of σx under s and M.  So M' completes s', as σ maps the checks
still to come onto themselves; with σ^-1 in place of σ, a completion of s'
gives one of s.  When the search exhausts depth d, then, the sums s∘σ are
refuted as well as s, and the kernel records both: its ``mirror`` reads the
sums at σ(x) over the live vertices x, in the key's order, once every label
of the depth has been taken off the sums and they are the entry sums again.
Entries and lookups are unchanged, so a depth without a mirror costs
nothing more.  A hit on a mirrored key skips a subtree without a labeling,
as a hit on an own key does: each budget keeps its outcome and its first
labeling, and ``nodes_explored`` can only fall.  This is symmetry breaking
by dominance detection (Fahle, Schamberger and Sellmann, CP 2001; Focacci
and Milano, CP 2001), on the states the memo already keeps.

:func:`_symmetries` looks for such σ among the automorphisms that fix the
first vertex of the order, within ``SYMMETRY_STEPS`` = 400 candidate images,
and keeps at most ``SYMMETRIES_KEPT`` = 2 besides the identity;
:func:`_memos` gives each memoized depth the first of them that maps the
depth's placed vertices onto themselves and moves a live vertex (one that
moves none would read the key itself).  Graphs with at most
``MEMO_OFF_UP_TO`` vertices have no memo and look for no σ.  On the prisms
P_2 x C_n the one σ is the reflection through vertex 0, which fixes the
prefixes of half the memoized depths.  Memoized and mirrored depths, then
nodes and solve times of ``exact_eta(g, n + 2)``, ms, median of 15 runs,
with mirrors off (no σ looked for) and on, interleaved in one process,
before complement images were recorded (Python 3.11, shared 2-core
x86_64)::

    P_2 x C_11                     8     4   21,758    22.5   12,912    14.5
    P_2 x C_13                    10     5   37,229    41.1   22,553    26.5
    P_2 x C_15                    12     6   53,422    58.1   32,686    38.2
    C_25                          20    10    1,112    1.31      758    1.32
    GP(9,2)                        6     3    5,811    5.83    3,389    4.25
    GP(11,2)                       9     4    9,734    10.2    5,346    6.74
    600 random, 7-9 vertices     343    86   34,698     435   34,678     449

Eta and witness are the same with mirrors off and on.  The 600 graphs are
those of the memo table below; their states rarely repeat, and the σ
search on the 229 of them with a memo, 12.6 ms, is most of the 14 ms they
take more.  ``cocktail(2,6,1)`` is dense, so each vertex has many
candidate images, and its 400 steps run out before a σ is found.

The complement cut.  On a regular graph the search's first vertex v0 tries
only the labels 1..(k + 1) // 2.  The complement ``l'(v) = k + 1 - l(v)`` of
a labeling into 1..k is one too, with ``d'(u) = (k + 3) deg(u) - d(u)``.
When the two ends of every edge have equal degrees, d'(u) = d'(v) exactly
when d(u) = d(v), so l' is d-lucky exactly when l is.  (Equal degrees on
every edge is regularity on a connected graph; on a disconnected one the
solver asks for one degree overall, which a set of the degrees decides.)  The first labeling found is the lexicographically
smallest, so it is at most its complement, and its label on v0 is at most
``k + 1 - l(v0)``.  The cut therefore keeps every budget's outcome and first
labeling and only shortens exhausted searches: the k = 2 refutations of
P_2 x C_11 and P_2 x C_13 fall from 31,263 and 47,504 nodes to 21,758 and
37,229.  It removes labels of depth 0 only, where the memo keeps no key.
This is the lex-leader rule (Crawford, Ginsberg, Luks and Roy, KR 1996) for
interchangeable values (Freuder, AAAI 1991).

Complement images.  The same relabeling maps refuted memo states to refuted
states.  Let the graph be regular, take the state at depth d with live sums
s, and let ``p_d(x)`` be the number of neighbors of x placed before d.  If
labels M of the unplaced vertices complete s, relabel them with
k + 1 - M and start from the live sums ``C_d - s``, where
``C_d(x) = 2 deg(x) + (k + 1) p_d(x)``.  The final sum of x, F(x) under s
and M, becomes ``C_d(x) - s(x) + (k + 1)(deg(x) - p_d(x)) - (M over the
unplaced neighbors of x) = (k + 3) deg(x) - F(x)``.  A vertex with no placed
neighbor has the sum ``C_d(x) - deg(x) = deg(x)`` either way, so it stays
out of the key.  On a regular graph ``(k + 3) deg(x)`` is one number, so the
two ends of an edge still to check have equal final sums under the
relabeling exactly when they have under M.  So ``k + 1 - M`` completes
``C_d - s`` exactly when M completes s, and when the search exhausts depth
d, ``C_d - s`` is refuted with s.  At a
mirrored depth σ fixes the placed prefix, so it keeps each vertex's degree
and its number of placed neighbors: ``C_d∘σ = C_d``, and ``C_d - s∘σ`` is
refuted too.  When a mirrored depth of a regular graph runs out, the kernel
records these two complement images beside the key and its mirror.  The
memo entry holds the pairs ``(2 deg(x), p_d(x))`` over the live vertices,
read off :func:`_prepare`'s position bitmasks, and
:func:`_search.memo_tables` makes ``C_d`` from them once per search call.
Entries and lookups are unchanged, each budget keeps its outcome and its
first labeling, and ``nodes_explored`` can only fall.  This is dominance
detection on values (Freuder, AAAI 1991; Fahle, Schamberger and Sellmann,
CP 2001).  ``C_d - s`` is also the state of the complemented prefix,
``k + 1 - l`` on the placed vertices, whose first label the complement cut
skips when the prefix's is below the middle; so a complement image is hit
only when another prefix reaches the same sums.  Nodes and solve times of
``exact_eta(g, n + 2)``, ms, with complement images off, at the mirrored
depths (the rule) and at every memoized depth, the last two with the depths
that record them; median of 8 runs, each a process of its own that takes
the median of 15 solves (3 for the 420 graphs), the three interleaved
(Python 3.11, shared 2-core x86_64)::

                                     off         mirrored depths        every depth
    P_2 x C_11              12,912  8.46    4   9,740  8.09    8   9,338  8.63
    P_2 x C_13              22,553  14.6    5  15,211  12.3   10  14,707  14.7
    P_2 x C_15              32,686  21.5    6  19,974  16.0   12  19,488  17.8
    C_25                       758  0.76   10     466  0.77   20     464  0.85
    GP(9,2)                  3,389  2.68    3   3,389  3.59    6   3,389  3.99
    GP(11,2)                 5,346  4.27    4   5,332  5.61    9   5,324  6.55
    Möbius ladder, 24       15,444  11.5    4  10,976  10.1   12  10,306  11.5
    search-hard pass        35,612  29.8       25,098  25.9       24,192  28.2
    420 random regular      88,089   118       86,577   116       86,463   124

Eta and witness are the same in all three columns.  Every memoized depth
cuts a few more nodes than the mirrored ones alone, but records images at
twice as many depths and is slower on every row; the rule is the mirrored
depths.  On GP(9,2) and GP(11,2) the images are recorded and almost
never hit, and cost a third more time.  (The 420 regular graphs are
connected, with degree 2-5 and 7-14 vertices, random pairings, seed 1.)

Witnesses are the first labeling found, i.e. the lexicographically smallest
one with respect to the search's vertex order; neither the root check nor
the kernel's Hall tests, the memo, its mirrored keys and complement images nor the complement
cut removes the first labeling, so none of them changes a witness.

The search tests cliques of at least ``HALL_MIN_SIZE`` = 4 vertices: on a
triangle the test costs more than the placements it saves.  Over the
connected graphs with up to 6 vertices, testing triangles as well cut the
nodes from 319,512 to 277,348 but made the solves about 70% slower (Python
3.11, 2-core x86_64).

Part structures are grown from the maximal cliques of more than
``HALL_MIN_SIZE`` vertices, and only when there are two of them.  Nodes and
solve times of ``exact_eta(g, n + 2)`` on graphs outside the benchmark,
least of 3 runs (one run for the slow ones; Python 3.11, shared 2-core
x86_64, runs differ by up to 30%; edges checked at N(u) ∪ N(v), before the
symmetric difference), with the part check off / grown from
cliques of at least 3 vertices / at least 4 / at least 4 with a lone such
clique grown too::

    cocktail(3,6,1)      143,300  180 s       51  7.6 ms       51  8.1 ms       51  8.1 ms
    K_8 minus (6,7)      131,991  523 ms  13,437   65 ms   13,437   51 ms   13,437   53 ms
    K_9 minus (7,8)    2,753,059 12.4 s  186,823  812 ms  186,823  874 ms  186,823  869 ms
    400 random, 7-10     129,676  914 ms 126,734  884 ms  126,734  878 ms  126,734  863 ms
    1,500 random, 7-9  1,101,791  5.1 s  444,185  2.1 s   444,185  2.0 s   444,185  2.1 s

These gates give the same nodes on these graphs (for the lone clique, as
the argument in :func:`_grow` predicts).  The
``cocktail(3,6,1)`` row is measured with the search as it is now: edges
checked at N(u) Δ N(v), and the structure, which every gate grows from its
729 cliques of 6, tested in place of them (median of 5 solves, one with
the part check off, whose search tests the 729 cliques; the lone-clique
rule grows nothing more there, so its column repeats the one before).
Growing from cliques of at least 5 vertices, the default, gives the same
nodes too, except 444,677 on the 1,500 random graphs.  The gate is set by
the connected graphs with up to 6 vertices: at 4, 1,455 of the 27,476 grow
a structure (17,638 would at 3), which saves 1,718 of their 319,512 nodes
but made the benchmark's corpus6 ``run_s`` 3.5% slower; at 5, 15 graphs
grow, 774 nodes are saved and ``run_s`` did not rise.
(The 400 graphs have edge probability 0.4-0.85, seed 7; the 1,500 have
0.2-0.9, seed 11.)

The memo costs a key per entry and a table per memoized depth.  It keys
every depth d >= 1, down to the last one, where some vertex had its last
edge check at d - 1 and some vertex is live.  Keying the depths where no
check retires as well gave the same 59,134 nodes on a search-hard pass and
took 67 -> 90 ms (median of 6 interleaved runs).  Graphs with at most
``MEMO_OFF_UP_TO`` = 6 vertices build no table: on the 27,476 connected
graphs with up to 6 vertices, tables saved 540 of 284,193 nodes and took
the solves 1.86 -> 2.29 s (median of 6 interleaved runs).  Nodes and solve
times of ``exact_eta(g, n + 2)``, ms, median of 15 runs, the two rules
interleaved in one process (Python 3.11, shared 2-core x86_64), when only
depths with at least 6 vertices left to place were keyed, as before, and
now::

    P_2 x C_11                   40,594  24.4     21,758  18.2
    P_2 x C_13                   65,129  36.7     37,229  28.2
    P_2 x C_15                   83,586  65.4     53,422  53.7
    C_25                          1,592   1.10     1,112   0.88
    GP(9,2)                       5,811   3.7      5,811   5.5
    GP(11,2)                      9,742   6.7      9,734   9.7
    600 random, 7-9 vertices     34,708   335     34,698   326

Eta and witness are the same in both columns.  The deep keys pay where
states repeat near the bottom, as on the prisms and cycles, and cost time
where they do not: the four depths they add to GP(9,2) are entered 1,145
times without a hit.  (The 600 graphs are connected, with edge
probability 0.2-0.9, seed 11.)
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import NamedTuple

from . import _search
from .bounds import _masks, enumerate_maximal_cliques
from .graph import Graph, bfs_order
from .labeling import Labeling

DEFAULT_VERTEX_CAP = 16
HALL_MIN_SIZE = 4
MEMO_OFF_UP_TO = 6
SYMMETRY_STEPS = 400
SYMMETRIES_KEPT = 2


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
    minimality is certified at every smaller budget either by the root
    check or by an exhausted search.  On a regular graph a search is
    exhausted over the labels 1..(k + 1) // 2 on its first vertex: by the complement cut (module docstring) a labeling
    that starts higher has a complement that starts lower.
    ``nodes_explored`` counts label placements over all budgets searched; a
    budget refuted by the root check adds none.  The failure memo, with
    the mirrored keys a graph automorphism gives it and, on a regular
    graph, their complement images (module docstring), skips only
    subtrees without a labeling: it lowers ``nodes_explored`` and changes
    no ``eta`` and no witness.
    """

    eta: int | None
    witness: Labeling | None
    nodes_explored: int
    k_tried: int

    @property
    def exceeded(self) -> bool:
        return self.eta is None


def _prepare(g: Graph, tested: list) -> tuple[tuple, tuple, bool]:
    """The kernel's steps and t-slots, and whether the complement cut applies.

    Per BFS position: the vertex, its neighbors, its edge checks, its Hall
    tables and its memo entry (see :func:`_memos`: the key over the live
    vertices of :func:`_live_sets`, a mirror where an automorphism
    :func:`_symmetries` found serves the depth, and complement pairs at the
    mirrored depths of a regular graph; graphs with at most
    ``MEMO_OFF_UP_TO`` vertices have no memo).  Edge {u, v} is checked
    at the position of the last vertex of N(u) Δ N(v), where the difference
    of the two endpoint sums becomes final: the highest bit of the XOR of
    the two neighbor sets as bitmasks over positions.  The cut applies (see
    :func:`_top`) when the graph is regular.

    Each structure ``(members, slots, part_of)`` in ``tested`` (see
    :func:`_setup`) hands the kernel its slots, one per member, and one
    test, :func:`_search.choice_fails` on them.  Placing a member moves the
    slots of its part as its own, placing a vertex outside the structure
    moves the slots of its neighbors inside, and a placement is tested on
    every structure whose slots it moves.
    """
    adj = g._adj
    order = bfs_order(g)
    bits = [0] * g.n  # each vertex's neighbors, bit i for the vertex at position i
    for i, v in enumerate(order):
        for w in adj[v]:
            bits[w] |= 1 << i
    ready: list[list[tuple[int, int]]] = [[] for _ in order]
    for u, v in g.edges:
        # the highest bit of N(u) Δ N(v), which holds u and v, so is never empty
        ready[(bits[u] ^ bits[v]).bit_length() - 1].append((u, v))

    slots: list[tuple[int, int, int, int]] = []
    # vertex -> (its own slots, slots it neighbors from outside, structures to test)
    hall: defaultdict[int, tuple[list, list, list]] = defaultdict(lambda: ([], [], []))
    for members, ranges, part_of in tested:
        first = len(slots)
        slots.extend(ranges)
        inside = set(members)
        moved = set(inside)
        for i, v in enumerate(members, first):
            if part_of is None:
                hall[v][0].append(i)
            else:
                hall[v][0].extend([j for j, p in enumerate(part_of, first) if p == part_of[i - first]])
            for w in adj[v]:
                if w not in inside:
                    hall[w][1].append(i)
                    moved.add(w)
        test = (itemgetter(*range(first, len(slots))), part_of)
        for w in moved:
            hall[w][2].append(test)
    live = _live_sets(bits, ready) if g.n > MEMO_OFF_UP_TO else [None] * g.n
    regular = len(set(map(len, adj))) == 1
    memos = [None] * g.n
    if any(live):
        memos = _memos(order, bits, live, _symmetries(g, order), regular)
    steps = tuple([(v, adj[v], ready[d], hall.get(v), memos[d]) for d, v in enumerate(order)])
    return steps, tuple(slots), regular


def _live_sets(bits, ready) -> list:
    """Per depth d, None or the vertices live at d, by index, if d is memoized.

    A vertex is live at d when it has an edge check at depth >= d and a
    neighbor placed before d.  Depth d >= 1, the last one included, is
    memoized when some vertex had its last edge check at d - 1 and some
    vertex is live at d.  ``bits`` are :func:`_prepare`'s neighbor bitmasks
    over positions.
    """
    n = len(ready)
    # position of each vertex's first neighbor in the order, from its lowest
    # bit; -1 for no neighbor, which leaves the vertex without checks
    first = [(b & -b).bit_length() - 1 for b in bits]
    final = [-1] * n  # depth of each vertex's last edge check
    for d, checks in enumerate(ready):
        for u, w in checks:
            final[u] = final[w] = d
    retiring = set(final)
    live: list = [None] * n
    for d in range(1, n):
        if d - 1 in retiring:
            live[d] = [x for x in range(n) if first[x] < d <= final[x]] or None
    return live


def _symmetries(g: Graph, order: list[int]) -> list[list[int]]:
    """Up to ``SYMMETRIES_KEPT`` automorphisms of ``g`` that fix ``order[0]``, identity left out.

    Each is the list of the vertices' images.  The search backtracks over
    ``order``: a vertex's image is a neighbor of the image of its earliest
    neighbor in the order (its BFS parent) with the vertex's degree, not yet
    an image, and adjacent to the images of exactly the earlier vertices the
    vertex is adjacent to; the first vertex of a later component is its own
    image.  Each vertex tries itself first, so the identity comes first and
    the next ones found fix the longest start of the order pointwise.  The
    search gives up after ``SYMMETRY_STEPS`` candidate images.
    """
    adj = g._adj
    n = g.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    nbits = _masks(g)  # neighbor sets as bitmasks over vertices
    identity = list(range(n))
    sigma = identity[:]
    used = 1 << order[0]  # the images of the vertices placed so far
    found: list[list[int]] = []
    steps = 0
    tries: list = [None] * n  # per position, an iterator over its remaining candidate images
    i, entering = 1, True
    while i > 0:
        x = order[i]
        if entering:
            earlier = [w for w in adj[x] if pos[w] < i]
            pool = adj[sigma[min(earlier, key=pos.__getitem__)]] if earlier else (x,)
            steps += len(pool)
            if steps > SYMMETRY_STEPS:
                break
            want = sum(1 << sigma[w] for w in earlier)
            fits = [c for c in pool
                    if not used >> c & 1 and len(adj[c]) == len(adj[x]) and nbits[c] & used == want]
            tries[i] = iter(sorted(fits, key=x.__ne__))
        else:
            used ^= 1 << sigma[x]
        c = next(tries[i], None)
        if c is None:
            i, entering = i - 1, False
            continue
        sigma[x] = c
        used |= 1 << c
        if i < n - 1:
            i, entering = i + 1, True
            continue
        entering = False  # a full image list: try x's next candidate
        if sigma != identity:
            found.append(sigma[:])
            if len(found) == SYMMETRIES_KEPT:
                break
    return found


def _memos(order: list[int], bits: list[int], live: list, symmetries: list[list[int]],
           regular: bool) -> list:
    """Per depth d, None or the memo entry ``(key, mirror, complement)`` of a memoized depth.

    ``key`` is an ``itemgetter`` of the sums of the vertices live at d.
    ``mirror`` is None or an ``itemgetter`` of the sums at σ(x) over those
    x, for σ the first of ``symmetries`` that maps the vertices placed
    before d onto themselves and moves a vertex live at d.  ``complement``
    is None, or at a mirrored depth of a regular graph the pairs
    ``(2 deg(x), p_d(x))`` over those x, with p_d(x) the neighbors of x
    placed before d, read off :func:`_prepare`'s bitmasks ``bits``: the
    search makes ``C_d(x) = 2 deg(x) + (k + 1) p_d(x)`` from them.  See the
    module docstring for why a key read through σ, and its complement
    ``C_d - key``, are refuted with the depth's own key.
    """
    memos: list = [None] * len(order)
    placed = 0  # the vertices before d, as a bitmask
    images = [0] * len(symmetries)  # their images under each σ
    for d, v in enumerate(order):
        if live[d] is not None:
            mirror = complement = None
            for sigma, image in zip(symmetries, images):
                if image == placed and any(sigma[x] != x for x in live[d]):
                    mirror = itemgetter(*[sigma[x] for x in live[d]])
                    break
            if mirror is not None and regular:
                before = (1 << d) - 1  # the positions placed before d
                complement = tuple([(2 * bits[x].bit_count(), (bits[x] & before).bit_count())
                                    for x in live[d]])
            memos[d] = (itemgetter(*live[d]), mirror, complement)
        placed |= 1 << v
        images = [image | 1 << sigma[v] for sigma, image in zip(symmetries, images)]
    return memos


def _grow(g: Graph, cliques: list[tuple[int, ...]]) -> list:
    """The structures :func:`parts.grow_parts` grows from the maximal cliques of
    more than ``HALL_MIN_SIZE`` vertices, as :func:`parts.structure` builds them.

    One is kept when some part has 2 or more vertices.  A clique inside the
    vertices of a kept structure is not grown (all 64 cliques of
    ``cocktail(2,6,1)`` lie in the first one), so every kept structure holds
    a seed clique that no earlier one holds, and none is kept twice.  With
    fewer than two such cliques nothing is grown: a vertex that could join a
    lone clique Q would lie in a second one, Q minus the member it misses
    plus itself.
    """
    grown: list = []
    big = [q for q in cliques if len(q) > HALL_MIN_SIZE]
    if len(big) < 2:
        return grown
    from .parts import grow_parts, structure  # not at module level: see the parts docstring

    for q in big:
        if any(set(members).issuperset(q) for members, _, _ in grown):
            continue
        parts = grow_parts(g, q)
        if len(parts) < sum(map(len, parts)):
            grown.append(structure(g, parts))
    return grown


def _clique_refutes(structures: list, k: int) -> bool:
    """True when some structure proves that no d-lucky labeling into 1..k exists.

    A structure ``(members, slots, part_of)`` from :func:`_setup` refutes k
    when some choice of one vertex per part has t-ranges under labels 1..k
    (:func:`_search.slot_ranges` of its slots, which gives the argument) that
    fail Hall's condition: :func:`_search.choice_fails`, which on a clique
    is :func:`_search.hall_fails`.
    """
    for _, slots, part_of in structures:
        if _search.choice_fails(*_search.slot_ranges(slots, k), part_of):
            return True
    return False


def _top(k: int, regular: bool) -> int:
    """The largest label the search tries on its first vertex (the complement cut)."""
    return (k + 1) // 2 if regular else k


def _setup(g: Graph) -> tuple[list, tuple, tuple, bool]:
    """The structures of the root check, and :func:`_prepare`'s steps, slots
    and complement flag from those the search tests.

    A structure is ``(members, slots, part_of)``: its vertices part by part,
    their t-slots from :func:`_search.part_slots`, and the part of each, or
    None on a clique, whose parts are its vertices.  The root check tests
    every maximal clique of 3 or more vertices and every structure
    :func:`_grow` keeps.  The search tests each grown structure and each
    clique of at least ``HALL_MIN_SIZE`` vertices that lies inside none of
    them: a maximal clique inside a structure's vertex set M is a choice of
    one vertex per part, as a part it missed would extend it, so the
    structure's test counts over it.
    """
    adj = g._adj
    cliques = enumerate_maximal_cliques(g, min_size=3)
    grown = _grow(g, cliques)
    singles = [(q, _search.part_slots(adj, q, None), None) for q in cliques]
    tested = [single for single in singles if len(single[0]) >= HALL_MIN_SIZE
              and not (grown and any(set(members).issuperset(single[0]) for members, _, _ in grown))]
    return (singles + grown, *_prepare(g, tested + grown))


def _solve(g: Graph, budgets) -> SolveResult:
    """The least of ``budgets``, an increasing nonempty sequence, that has a labeling.

    Each budget goes to :func:`_clique_refutes`; the first one that passes is
    searched, and so is every later one, and the nodes add up over the searches.
    """
    structures, steps, slots, regular = _setup(g)
    total_nodes = 0
    for k in budgets:
        if _clique_refutes(structures, k):
            continue
        # the ranges only widen as k grows, so every later budget passes too
        structures = ()
        labels, nodes = _search.search(k, steps, slots, _top(k, regular))
        total_nodes += nodes
        if labels is not None:
            witness = Labeling(labels, k_max=k)
            return SolveResult(eta=k, witness=witness, nodes_explored=total_nodes, k_tried=k)
    return SolveResult(eta=None, witness=None, nodes_explored=total_nodes, k_tried=budgets[-1])


def _check_search_args(g: Graph, k: int) -> None:
    # the kernel exhausts a depth at ell == k, which never holds for a float k
    if g.n == 0:
        raise ValueError("search requires a nonempty graph")
    if type(k) is not int or k < 1:
        raise ValueError(f"label budget must be an int >= 1, got {k!r}")


def exists_labeling(g: Graph, k: int) -> Labeling | None:
    """A verifying labeling into 1..k, or None after certified exhaustion."""
    _check_search_args(g, k)
    return _solve(g, (k,)).witness


def exact_eta(g: Graph, max_k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> SolveResult:
    """Least budget k <= max_k admitting a d-lucky labeling, with witness.

    Budgets are tried in increasing order, so success at k certifies that
    every smaller budget was refuted by the root check or exhausted by the
    search.  Graphs above ``vertex_cap`` vertices are refused; raise the cap
    explicitly for bigger (slower) runs.
    """
    _check_search_args(g, max_k)
    if type(vertex_cap) is not int:
        raise ValueError(f"vertex cap must be an int, got {vertex_cap!r}")
    if g.n > vertex_cap:
        raise ValueError(f"graph has {g.n} vertices, above the solver vertex cap of {vertex_cap}")
    return _solve(g, range(1, max_k + 1))
