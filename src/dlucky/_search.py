"""Backtracking kernel for the labeling search, and the t-range model it shares.

:func:`slot_ranges` and :func:`choice_fails` are the counting argument of
Theorem 1 and of the cocktail-party optimum, where a clique is the structure
whose parts each hold one vertex.  :func:`part_slots` gives every structure
one t-slot per vertex, and :func:`choice_fails` is its Hall test, the one
routine behind the solver's root check, the kernel's tests and the part
bound of :mod:`dlucky.parts`.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter, sub


def hall_fails(los, his) -> tuple[int, int] | None:
    """An interval ``[a, b]`` holding ``b - a + 2`` of the ranges ``[los[i], his[i]]``, or None.

    By Hall's theorem the integer ranges admit no distinct values (and the
    result is not None) exactly when some interval holds more of them than
    its values.  The test is the greedy matching that decides it: ranges by
    increasing high end, each takes the least value of its range that no
    earlier one took.  ``above`` maps each taken value v, and only those, to
    some w > v with every value in [v, w) taken; the paths are compressed,
    so the test is near-linear even when many ranges share a low end
    (López-Ortiz, Quimper, Tromp and van Beek, 2003).

    The witness comes from the first range ``[x, hi]`` whose least free value
    is above ``hi``: ``b = hi``, and ``a`` walks down from x while ``a - 1``
    is taken.  Every value in ``[a, hi]`` is taken by an earlier range, whose
    high end is at most ``hi`` as the ranges come by high end, and whose low
    end is at least a: else ``a - 1``, free then as now, would have given it
    a value below a.  So these ``hi - a + 1`` ranges and the failing one lie
    inside ``[a, hi]``.  When every range is nonempty, ``a <= b``; an empty
    range can fail with ``a > b``.
    """
    above = {}
    for hi, x in sorted(zip(his, los)):
        free = x
        while free in above:
            free = above[free]
        if free > hi:
            while x - 1 in above:
                x -= 1
            return x, hi
        above[free] = free + 1
        while x != free:
            above[x], x = free + 1, above[x]
    return None


def choice_fails(los, his, part_of) -> tuple[int, int] | None:
    """An interval ``[a, b]`` where some choice of one range per part fails
    :func:`hall_fails`, or None when every choice passes.

    Range i is ``[los[i], his[i]]`` and belongs to part ``part_of[i]``; a
    ``part_of`` of None makes every range a part of its own, a clique's,
    whose one choice :func:`hall_fails` tests directly.  A
    choice fails exactly when some interval ``[a, b]`` holds the chosen
    ranges of more than ``b - a + 1`` parts, and the choice that fills
    ``[a, b]`` most takes, from each part, a range inside it where the part
    has one.  So the test sweeps ``a`` down over the distinct low ends,
    keeps for each part the least high end among its ranges that start at
    or above ``a``, and fails when the m-th smallest of those (m from 0) is
    below ``top = a + m``: then ``m + 1`` parts have a range inside
    ``[a, top - 1]``, the interval returned.  An interval that some choice
    over-fills can be shrunk to start at the least low end inside it, so the
    sweep misses none.  An empty range (low end above high end) fails at its
    own low end, with ``a > b``, as in :func:`hall_fails`; when every range
    is nonempty, ``a <= b``.
    """
    if part_of is None:
        return hall_fails(los, his)
    least: dict = {}  # part -> the least high end of its ranges from a up
    ranges = sorted(zip(los, his, part_of), reverse=True)
    last = len(ranges) - 1
    for i, (a, hi, p) in enumerate(ranges):
        if hi < least.get(p, hi + 1):
            least[p] = hi
        if i < last and ranges[i + 1][0] == a:
            continue
        for top, h in enumerate(sorted(least.values()), a):  # top = a + m
            if h < top:
                return a, top - 1
    return None


def slot_ranges(slots, k) -> tuple[list[int], list[int]]:
    """The low and high ends of each slot's t-range under labels 1..k.

    Let parts P_1..P_t be independent sets, each completely joined to every
    other part, and let M be their union.  For v in P_i the d-lucky sum splits
    as ``d(v) = sum of l over M + t(v)`` with
    ``t(v) = deg(v) - sum of l over P_i + sum of l over N(v) \\ M``.  The
    first term is the same for every vertex of M, and vertices in different
    parts are adjacent, so each part needs a t-value that no other part uses.
    With labels in 1..k and ``s(v) = |N(v) \\ M|``, ``t(v)`` lies in
    ``[deg(v) + s(v) - k*|P_i|, deg(v) + k*s(v) - |P_i|]``; when the ranges
    of some choice of one vertex per part fail :func:`hall_fails` (see
    :func:`choice_fails`), no labeling into 1..k exists.  The ranges only
    widen as k grows.  A slot is ``(deg(v), s(v), |P_i|)``: see
    :func:`part_slots`.
    """
    return [deg + s - k * p for deg, s, p in slots], [deg + k * s - p for deg, s, p in slots]


def part_slots(adj, members, part_of) -> list[tuple[int, int, int]]:
    """One t-slot per vertex of a structure, in the form of :func:`slot_ranges`.

    ``members`` lists the structure's vertices part by part, and vertex
    ``members[i]`` lies in part ``part_of[i]``; a ``part_of`` of None is a
    clique, every part one vertex.  Slot i belongs to v = ``members[i]``, in
    part P of the structure's vertex set M: it is ``(deg(v), s(v), |P|)``.
    Inside M, v is adjacent to exactly M \\ P, so ``s(v) = deg(v) - |M| +
    |P|``; on a clique ``s(v) = deg(v) - |M| + 1``, Theorem 1's pigeonhole.
    The clique, by far the most frequent structure, takes a path of its own
    with no part sizes to count.
    """
    if part_of is None:
        inside = len(members) - 1  # deg(v) - s(v) on the clique
        return [(d, d - inside, 1) for v in members for d in [len(adj[v])]]
    sizes = Counter(part_of)
    return [(d, d - len(members) + sizes[p], sizes[p]) for v, p in zip(members, part_of)
            for d in [len(adj[v])]]


def _shift(lo, hi, own, outside, a, b):
    # placing label l on a vertex moves its own slots' (lo, hi) by
    # (+(k-l), -(l-1)), in a structure the slots of its whole part; placing
    # it on a vertex outside a structure moves the slot of each neighbor
    # inside by (+(l-1), -(k-l)); negated a, b undo
    for i in own:
        lo[i] += b
        hi[i] -= a
    for i in outside:
        lo[i] += a
        hi[i] -= b


def _hall_refutes(lo, hi, hall, ell, k) -> bool:
    """Shift the slots for label ``ell``; True, with the shift undone, when
    some structure has a choice of one slot per part that fails Hall."""
    own, outside, tests = hall
    _shift(lo, hi, own, outside, ell - 1, k - ell)
    for get, part_of in tests:
        if choice_fails(get(lo), get(hi), part_of):
            _shift(lo, hi, own, outside, 1 - ell, ell - k)
            return True
    return False


_memo = itemgetter(4)  # a step's memo entry


def memo_tables(steps, k) -> tuple[list, list]:
    """:func:`search`'s per-call memo tables: per depth, ``refuted`` and ``complements``.

    ``refuted[d]`` is an empty set, to hold the keys refuted at d, where
    depth d is memoized, and None elsewhere.  ``complements[d]`` is
    ``C_d``, the sums ``C_d(x) = 2 deg(x) + (k + 1) p_d(x)`` over the
    vertices x live at d, where the memo entry of depth d has the pairs
    ``(2 deg(x), p_d(x))`` that make it, and None elsewhere.
    """
    refuted: list = [None] * len(steps)
    complements: list = [None] * len(steps)
    for d, step in enumerate(steps):
        memo = step[4]
        if memo is not None:
            refuted[d] = set()
            if memo[2] is not None:
                complements[d] = tuple([twice + (k + 1) * placed for twice, placed in memo[2]])
    return refuted, complements


def search(k, steps, slots, top):
    """Depth-first search for a conflict-free labeling into 1..k.

    ``steps[d]`` is ``(v, neighbors of v, checks, hall, memo)``: the vertex
    placed at depth ``d``, the edges ``(u, w)`` whose two endpoint sums are
    final once it is placed, ``hall``, which is None or ``(own, outside,
    tests)``, and ``memo``, which is None or ``(live, mirror,
    complement)``: ``live`` is an ``itemgetter`` of sums, ``mirror`` is
    None or one, and ``complement`` is None or the pairs from which
    :func:`memo_tables` makes ``C_d``.
    ``slots[i]`` belongs to one vertex v of one structure with vertex set M,
    v in its part P (a clique's parts are its vertices), from
    :func:`part_slots`; slot i keeps the range ``[lo[i], hi[i]]`` of
    ``t(v) = deg(v) - l(P) + sum of l(w) over w in N(v) \\ M`` under the
    labels placed so far, from :func:`slot_ranges` with none placed.  Placing
    v moves the slots in ``own`` (those of the vertices of v's part, v's own
    on a clique) and ``outside`` (v is outside their M, next to their
    vertex).  After a placement passes its edge checks, each structure in
    ``tests``, an ``itemgetter`` of its slots and the part of each (None on
    a clique), must pass :func:`choice_fails`, or the placement is undone.

    ``live`` picks the sums that decide whether the labels not yet placed
    can complete a labeling; their values on entry to depth ``d`` are its
    key.  When the depth has tried every label, the sums are the entry sums
    again, so ``live(sums)`` is the key once more, and it is recorded as
    refuted.  So is ``mirror(sums)`` when the depth has a mirror: the sums
    read through a graph automorphism that makes their state as refuted as
    the key's.  Where the memo entry has complement pairs as well, so are
    the complement images ``C_d - key`` and ``C_d - mirror(sums)``, which
    relabeling the unplaced vertices with ``k + 1 - l`` maps to the key's
    and the mirror's state on a regular graph (the solver's module docstring
    gives both arguments).  A later entry with a recorded key backtracks at
    once, places no label and counts no node; mirrors and complement images
    add work only to a depth that runs out.  The keys are kept for this call
    only: they hold for this ``k``.  The memo tables are built only when
    some step has a memo entry, and the slots' ranges only when there are
    slots.

    Labels are tried in increasing order, so the first labeling found is the
    lexicographically smallest in step order.  The labels of a depth are
    stepped, not placed anew: entering the depth adds 1 to each neighbor
    sum, a refuted label adds 1 more, and running out subtracts ``k`` once;
    backtracking into a depth leaves its label on the sums and steps from
    there.  The Hall ranges move only once a label passes its edge checks.
    Nodes are counted once per visit to a depth: a visit that starts at
    label ``start`` counts ``ell - start + 1`` when it keeps label ``ell``
    and ``k - start + 1`` when it runs out, so each label tried counts one
    node (a label the Hall test refutes too) and a memo hit counts none.
    Depth 0 tries the labels 1..``top`` only, for a ``top`` of at most
    ``k``.  It has no edge checks, as an edge is checked no earlier than its
    later endpoint, and depth 1 has no memo key, as no vertex has its last
    check at depth 0.  So a label of depth 0 fails only when the Hall test
    refutes it or depth 1 runs out, and only those two paths test ``top``,
    not the per-label step.
    The loop is iterative: the depth reaches the vertex count, which
    ``vertex_cap`` lets callers raise past the recursion limit.  Returns
    ``(labels, nodes)``: the witness indexed by vertex, or None when no
    labeling exists, and the number of label placements attempted.
    """
    n = len(steps)
    sums = [0] * n  # d-lucky sums: degree plus the labels placed on neighbors
    for step in steps:
        sums[step[0]] = len(step[1])
    lo = hi = None  # the slots' t-ranges, where there are slots
    if slots:
        lo, hi = slot_ranges(slots, k)
    refuted = complements = None  # see memo_tables, where some depth is memoized
    if any(map(_memo, steps)):
        refuted, complements = memo_tables(steps, k)
    labels = [0] * n
    nodes = 0
    depth = 0
    v, nbrs, checks, hall, memo = steps[0]  # depth 0 is entered once, so it needs no key
    ell = start = 1  # the label on v's neighbor sums, and the first one of this visit
    for w in nbrs:
        sums[w] += 1
    while True:
        for u, w in checks:
            if sums[u] == sums[w]:
                break
        else:  # no conflict: keep ell and go deeper unless a clique refutes it
            if hall is None or not _hall_refutes(lo, hi, hall, ell, k):
                nodes += ell - start + 1
                labels[v] = ell
                if depth == n - 1:
                    return labels, nodes
                depth += 1
                v, nbrs, checks, hall, memo = steps[depth]
                if memo is None or memo[0](sums) not in refuted[depth]:
                    ell = start = 1
                    for w in nbrs:
                        sums[w] += 1
                    continue
                # the same state failed before: place nothing, and the label above fails
                depth -= 1
                v, nbrs, checks, hall, memo = steps[depth]
                if hall is not None:
                    _shift(lo, hi, hall[0], hall[1], 1 - ell, ell - k)
                start = ell + 1
            elif depth == 0 and ell == top:  # a clique refutes the last label of depth 0
                return None, nodes + ell - start + 1
        while ell == k:  # every label failed: undo this depth and the label above fails
            for w in nbrs:
                sums[w] -= k
            nodes += k - start + 1
            if memo is not None:  # the sums are the entry sums again
                live, mirror, _ = memo
                seen = refuted[depth]
                key = live(sums)
                seen.add(key)
                if mirror is not None:
                    image = mirror(sums)
                    seen.add(image)
                    complement = complements[depth]
                    if complement is not None:
                        seen.add(tuple(map(sub, complement, key)))
                        seen.add(tuple(map(sub, complement, image)))
            depth -= 1
            v, nbrs, checks, hall, memo = steps[depth]
            ell = labels[v]
            if hall is not None:
                _shift(lo, hi, hall[0], hall[1], 1 - ell, ell - k)
            start = ell + 1
            if depth == 0 and ell == top:
                return None, nodes
        ell += 1
        for w in nbrs:
            sums[w] += 1
