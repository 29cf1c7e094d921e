"""Shared test helpers: random inputs, independent brute-force oracles, and
the package's own answers on the small connected graphs, computed once.

The oracles here recompute everything from the definitions with naive loops
and never call the code paths they are used to check.
"""

from __future__ import annotations

import collections
import functools
import itertools
import random

from dlucky import Graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_regular_graph(rng: random.Random, n: int, r: int) -> Graph:
    """A connected r-regular graph on n vertices: random pairings of r stubs per
    vertex, drawn again until one has no loop, no repeated edge and one component."""
    from dlucky import is_connected

    while True:
        stubs = [v for v in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(edges) == n * r // 2:
            g = Graph(n, sorted(edges))
            if is_connected(g):
                return g


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i ~ n + i, inner edges n + i ~ n + (i + k) mod n."""
    return Graph(2 * n, [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
                 + [(n + i, n + (i + k) % n) for i in range(n)])


def k_minus(n: int, *missing) -> Graph:
    """K_n without the edges in ``missing``, each given as ``(u, v)`` with u < v."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in missing])


def oracle_d_sum(g: Graph, labels, u: int) -> int:
    # definition, written independently of the package's sum code
    total = 0
    degree = 0
    for a, b in g.edges:
        if a == u:
            total += labels[b]
            degree += 1
        elif b == u:
            total += labels[a]
            degree += 1
    return degree + total


def oracle_is_d_lucky(g: Graph, labels) -> bool:
    for u, v in g.edges:
        if oracle_d_sum(g, labels, u) == oracle_d_sum(g, labels, v):
            return False
    return True


def oracle_exists_labeling(g: Graph, k: int):
    """First valid assignment in plain lexicographic vertex-index order, or None."""
    for assignment in itertools.product(range(1, k + 1), repeat=g.n):
        if oracle_is_d_lucky(g, assignment):
            return assignment
    return None


def oracle_bfs_order(g: Graph):
    """Breadth-first order from vertex 0, ties by index; later components from
    their smallest vertex."""
    order = []
    for root in range(g.n):
        if root in order:
            continue
        order.append(root)
        i = len(order) - 1
        while i < len(order):
            u = order[i]
            i += 1
            order += [v for v in range(g.n) if v not in order and g.has_edge(u, v)]
    return order


def oracle_first_labeling(g: Graph, max_k: int):
    """(eta, labels) for the least budget with a labeling, the labels being the
    lexicographically smallest d-lucky ones read in breadth-first order;
    (None, None) when no budget up to ``max_k`` has one."""
    order = oracle_bfs_order(g)
    for k in range(1, max_k + 1):
        for values in itertools.product(range(1, k + 1), repeat=g.n):
            labels = [0] * g.n
            for v, x in zip(order, values):
                labels[v] = x
            if oracle_is_d_lucky(g, labels):
                return k, labels
    return None, None


def oracle_eta(g: Graph, max_k: int):
    for k in range(1, max_k + 1):
        if oracle_exists_labeling(g, k) is not None:
            return k
    return None


def oracle_live(g: Graph, d: int):
    """The state at depth ``d``, read off the graph alone, once the first d
    vertices of the breadth-first order are placed: the neighbor sets, the
    edges still to check (N(u) Δ N(v) holds an unplaced vertex), and the
    live vertices by index, those with such an edge and a placed neighbor."""
    placed = set(oracle_bfs_order(g)[:d])
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    pending = [(u, v) for u, v in g.edges if (nbrs[u] ^ nbrs[v]) - placed]
    live = sorted({x for edge in pending for x in edge if nbrs[x] & placed})
    return nbrs, pending, live


def oracle_completable(g: Graph, k: int, d: int, keys) -> list:
    """The keys of depth ``d`` whose state some labels into 1..k of the
    vertices not yet placed complete, by trying the labels of those vertices
    one by one in breadth-first order.

    A key lists the sums of :func:`oracle_live`'s live vertices; every other
    vertex with an edge still to check has no placed neighbor, so its degree
    is its sum.  A completion gives the two ends of every such edge
    different final sums.  Once the first j vertices are placed, an edge
    whose N(u) Δ N(v) they hold has final sums that differ by its current
    ones (the unplaced neighbors are common), so it is checked then; what
    is left to decide depends only on j and the current sums of the ends of
    the edges not yet checked, and the answer for each such state is kept."""
    order = oracle_bfs_order(g)
    nbrs, _, live = oracle_live(g, d)
    pending = [oracle_live(g, j)[1] for j in range(g.n + 1)]
    ends = [sorted({x for edge in edges for x in edge}) for edges in pending]
    decided = [[e for e in pending[j] if e not in pending[j + 1]] for j in range(g.n)]
    known = {}

    def completes(j, sums):
        if j == g.n:
            return True
        state = (j, tuple(sums[x] for x in ends[j]))
        if state not in known:
            known[state] = False
            for label in range(1, k + 1):
                after = dict(sums)
                for w in nbrs[order[j]]:
                    if w in after:
                        after[w] += label
                if all(after[u] != after[v] for u, v in decided[j]) and completes(j + 1, after):
                    known[state] = True
                    break
        return known[state]

    completable = []
    for key in keys:
        sums = {x: len(nbrs[x]) for x in ends[d]}
        sums.update(zip(live, key if len(live) > 1 else (key,)))
        if completes(d, sums):
            completable.append(key)
    return completable


def oracle_maximum_cliques(g: Graph):
    """All maximum cliques by scanning every vertex subset, largest first."""
    for size in range(g.n, 0, -1):
        found = [
            combo
            for combo in itertools.combinations(range(g.n), size)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
        ]
        if found:
            return sorted(found)
    return []


def oracle_maximal_cliques(g: Graph):
    """All cliques that no further vertex extends, by scanning every vertex subset."""
    cliques = [
        combo
        for size in range(1, g.n + 1)
        for combo in itertools.combinations(range(g.n), size)
        if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
    ]
    return sorted(
        c for c in cliques
        if not any(all(g.has_edge(w, u) for u in c) for w in range(g.n) if w not in c)
    )


def oracle_hall_fails(los, his) -> bool:
    """Hall's condition read off its definition: some interval [a, b] holds
    more of the ranges [los[i], his[i]] than its values (none when b < a)."""
    return any(
        sum(a <= lo and hi <= b for lo, hi in zip(los, his)) > max(0, b - a + 1)
        for a in los
        for b in his
    )


def hull_ranges(g: Graph, parts, k: int) -> tuple[list[int], list[int]]:
    """Each part's hull under labels 1..k, read off the graph: from the least
    low end to the largest high end of the t-ranges
    ``[deg(v) + s(v) - k*|P|, deg(v) + k*s(v) - |P|]`` of its vertices, with
    ``s(v) = |N(v) \\ M|`` for M the union of the parts.  A test on the
    hulls is weaker than one on every choice of one vertex per part, which
    the package makes; the tests compare the two."""
    inside = {v for part in parts for v in part}
    los, his = [], []
    for part in parts:
        ends = [(g.degree(v) + s - k * len(part), g.degree(v) + k * s - len(part))
                for v in part for s in [len(set(g.neighbors(v)) - inside)]]
        los.append(min(lo for lo, _ in ends))
        his.append(max(hi for _, hi in ends))
    return los, his


@functools.lru_cache(maxsize=None)
def connected_graphs(max_n: int) -> tuple[Graph, ...]:
    """Every connected labeled graph on 1..max_n vertices, built once per ``max_n``."""
    from dlucky import is_connected

    graphs = []
    for nv in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(nv), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(nv, edges)
            if is_connected(g):
                graphs.append(g)
    return tuple(graphs)


@functools.lru_cache(maxsize=None)
def corpus6_facts() -> tuple:
    """Per graph of ``connected_graphs(6)``: ``(g, (Theorem 1 bound, its witness
    clique), (part bound, its certificate), exact_eta(g, n + 2))``, from the
    package, computed once for the tests that check them."""
    from dlucky import exact_eta, lower_bound_thm1_witness
    from dlucky.parts import lower_bound_hall_witness

    return tuple(
        (g, lower_bound_thm1_witness(g), lower_bound_hall_witness(g), exact_eta(g, max_k=g.n + 2))
        for g in connected_graphs(6)
    )


def reference_search(k, steps, slots, top, refuted=None):
    """The search kernel as a per-label loop: each label tried is added to the
    neighbor sums and, when refuted, subtracted again, and each counts one
    node; depth 0 tries the labels 1..top only.  A depth that runs out, not
    on a memo hit, records its key and, when it has a mirror, the mirror of
    its sums; when its memo entry also has complement pairs
    ``(2 deg(x), p(x))``, it records ``C - key`` and ``C - mirror`` too,
    for ``C(x) = 2 deg(x) + (k + 1) p(x)``.  The kernel must return the same
    ``(labels, nodes)``.  Pass a ``collections.defaultdict(set)`` as
    ``refuted`` to read the keys recorded per depth.  A test ``(get,
    part_of)`` fails when some choice of one of its slots per part, each of
    them tried, fails the Hall test; a ``part_of`` of None makes every slot
    a part of its own."""
    from dlucky._search import hall_fails, slot_ranges

    def some_choice_fails(los, his, part_of):
        parts = collections.defaultdict(list)
        for i, p in enumerate(part_of or range(len(los))):
            parts[p].append(i)
        return any(hall_fails([los[i] for i in choice], [his[i] for i in choice])
                   for choice in itertools.product(*parts.values()))

    def shift(lo, hi, own, outside, a, b):
        for i in own:
            lo[i] += b
            hi[i] -= a
        for i in outside:
            lo[i] += a
            hi[i] -= b

    n = len(steps)
    sums = [0] * n
    for v, nbrs, *_ in steps:
        sums[v] = len(nbrs)
    lo, hi = slot_ranges(slots, k)
    labels = [0] * n
    if refuted is None:
        refuted = collections.defaultdict(set)
    keys = [None] * n
    nodes = 0
    depth = 0
    start = 1
    while True:
        v, nbrs, checks, hall, memo = steps[depth]
        hit = False
        if memo is not None and start == 1:
            keys[depth] = key = memo[0](sums)
            hit = key in refuted[depth]
            if hit:
                start = k + 1
        for ell in range(start, (top if depth == 0 else k) + 1):
            nodes += 1
            for w in nbrs:
                sums[w] += ell
            for u, w in checks:
                if sums[u] == sums[w]:
                    break
            else:
                if hall is None:
                    labels[v] = ell
                    break
                own, outside, tests = hall
                shift(lo, hi, own, outside, ell - 1, k - ell)
                if not any(some_choice_fails(get(lo), get(hi), part_of) for get, part_of in tests):
                    labels[v] = ell
                    break
                shift(lo, hi, own, outside, 1 - ell, ell - k)
            for w in nbrs:
                sums[w] -= ell
        else:
            if memo is not None and not hit:
                _, mirror, pairs = memo
                recorded = [keys[depth]] + ([mirror(sums)] if mirror is not None else [])
                if pairs is not None:
                    c = [twice + (k + 1) * placed for twice, placed in pairs]
                    recorded += [tuple(a - b for a, b in zip(c, key)) for key in recorded]
                refuted[depth].update(recorded)
            if depth == 0:
                return None, nodes
            depth -= 1
            v, nbrs, _, hall, *_ = steps[depth]
            ell = labels[v]
            for w in nbrs:
                sums[w] -= ell
            if hall is not None:
                shift(lo, hi, hall[0], hall[1], 1 - ell, ell - k)
            start = ell + 1
            continue
        if depth == n - 1:
            return labels, nodes
        depth += 1
        start = 1
