"""Backtracking kernel for the labeling search, and the clique Hall test it shares."""

from __future__ import annotations

from collections import defaultdict


def hall_fails(los, his) -> bool:
    """True when the integer ranges ``[los[i], his[i]]`` admit no distinct values.

    By Hall's theorem that happens exactly when some interval ``[a, b]``
    contains more of the ranges than its ``b - a + 1`` values.  The test is
    the greedy matching that decides it: ranges by increasing high end, each
    takes the least value of its range that no earlier one took.
    """
    taken = set()
    for hi, x in sorted(zip(his, los)):
        while x in taken:
            x += 1
        if x > hi:
            return True
        taken.add(x)
    return False


def _shift(lo, hi, own, outside, a, b):
    # placing label l on a clique vertex moves its own slot's (lo, hi) by
    # (+(k-l), -(l-1)); placing it on a vertex outside the clique moves the
    # slot of each clique neighbor by (+(l-1), -(k-l)); negated a, b undo
    for i in own:
        lo[i] += b
        hi[i] -= a
    for i in outside:
        lo[i] += a
        hi[i] -= b


def search(k, steps, slots):
    """Depth-first search for a conflict-free labeling into 1..k.

    ``steps[d]`` is ``(v, neighbors of v, checks, hall, live)``: the vertex
    placed at depth ``d``, the edges ``(u, w)`` whose two endpoint sums are
    final once it is placed, ``hall``, which is None or ``(own, outside,
    cliques)``, and ``live``, which is None or an ``itemgetter`` of sums.
    ``slots[i]`` is ``(deg(v), |N(v) \\ Q|)`` for one vertex v of one clique
    Q; slot i keeps the range ``[lo[i], hi[i]]`` of
    ``t(v) = deg(v) - l(v) + sum of l(w) over w in N(v) \\ Q`` under the
    labels placed so far.  Placing v moves the slots in ``own`` (v's own) and
    ``outside`` (v is outside their clique, next to their vertex); after a
    placement passes its edge checks, each clique in ``cliques`` (an
    ``itemgetter`` of its slots) must pass :func:`hall_fails`, or the
    placement is undone.

    ``live`` picks the sums that decide whether the labels not yet placed
    can complete a labeling; their values on entry to depth ``d`` are its
    key.  When the depth has tried every label, its key is recorded as
    refuted; a later entry with a recorded key backtracks at once, places no
    label and counts no node.  The keys are kept for this call only: they
    hold for this ``k``.

    Labels are tried in increasing order, so the first labeling found is the
    lexicographically smallest in step order.  The loop is iterative: the
    depth reaches the vertex count, which ``vertex_cap`` lets callers raise
    past the recursion limit.  Returns ``(labels, nodes)``: the witness
    indexed by vertex, or None when no labeling exists, and the number of
    label placements attempted (a placement the Hall test refutes counts).
    """
    n = len(steps)
    sums = [0] * n  # d-lucky sums: degree plus the labels placed on neighbors
    for v, nbrs, _, _, _ in steps:
        sums[v] = len(nbrs)
    lo = [deg - k + s for deg, s in slots]
    hi = [deg - 1 + k * s for deg, s in slots]
    labels = [0] * n
    refuted = defaultdict(set)  # depth -> keys whose subtree holds no labeling
    keys = [None] * n  # each memoized depth's key on its latest entry
    nodes = 0
    depth = 0
    start = 1
    while True:
        v, nbrs, checks, hall, live = steps[depth]
        if live is not None and start == 1:
            keys[depth] = key = live(sums)
            if key in refuted[depth]:
                start = k + 1  # the same state failed before: try no label
        for ell in range(start, k + 1):
            nodes += 1
            for w in nbrs:
                sums[w] += ell
            for u, w in checks:
                if sums[u] == sums[w]:
                    break
            else:  # no conflict: keep ell and go deeper unless a clique refutes it
                if hall is None:
                    labels[v] = ell
                    break
                own, outside, cliques = hall
                _shift(lo, hi, own, outside, ell - 1, k - ell)
                for get in cliques:
                    if hall_fails(get(lo), get(hi)):
                        break
                else:
                    labels[v] = ell
                    break
                _shift(lo, hi, own, outside, 1 - ell, ell - k)
            for w in nbrs:
                sums[w] -= ell
        else:  # every label conflicts, or a memo hit tried none: undo the previous depth's label
            if live is not None:
                refuted[depth].add(keys[depth])
            if depth == 0:
                return None, nodes
            depth -= 1
            v, nbrs, _, hall, _ = steps[depth]
            ell = labels[v]
            for w in nbrs:
                sums[w] -= ell
            if hall is not None:
                _shift(lo, hi, hall[0], hall[1], 1 - ell, ell - k)
            start = ell + 1
            continue
        if depth == n - 1:
            return labels, nodes
        depth += 1
        start = 1
