import collections
import importlib.util
import itertools
import random
import sys
from operator import itemgetter
from pathlib import Path

import pytest

from dlucky import (
    Graph,
    Labeling,
    build_cocktail,
    build_corona,
    cartesian_product,
    complete_graph,
    corona,
    cycle_graph,
    exact_eta,
    exists_labeling,
    is_connected,
    path_graph,
    solver_backend,
    verify,
)
from dlucky import _search, solver
from dlucky.graph import bfs_order
from dlucky.solver import _clique_refutes, _setup, _top
from conftest import (
    connected_graphs,
    generalized_petersen,
    hull_ranges,
    k_minus,
    oracle_eta,
    oracle_exists_labeling,
    oracle_bfs_order,
    oracle_completable,
    oracle_first_labeling,
    oracle_is_d_lucky,
    oracle_live,
    random_graph,
    random_regular_graph,
    reference_search,
)


# K_4 {1, 3, 5, 6}, triangle {0, 5, 6}, pendants 2, 4 at 0: at k = 2 vertex 1's depth hits the
# memo below vertex 6 of the K_4, whose Hall shift must then be undone (eta 3, not 2, without)
HALL_MEMO = Graph(7, [(0, 2), (0, 4), (0, 5), (0, 6), (1, 3), (1, 5), (1, 6), (3, 5), (3, 6), (5, 6)])


def test_backend_reports_something_sensible():
    assert solver_backend() == "pure"


def test_k3_needs_three_labels():
    res = exact_eta(complete_graph(3), max_k=4)
    assert res.eta == 3
    assert verify(complete_graph(3), res.witness).is_d_lucky


def test_p4_is_two():
    # frozen from the brute-force oracle: all-ones fails on the middle edge
    g = path_graph(4)
    assert oracle_eta(g, 3) == 2
    res = exact_eta(g, max_k=3)
    assert res.eta == 2
    assert verify(g, res.witness).is_d_lucky
    assert verify(g, Labeling([1, 1, 2, 1])).is_d_lucky  # known witness


def test_c4_is_two():
    g = cycle_graph(4)
    assert oracle_eta(g, 3) == 2
    res = exact_eta(g, max_k=3)
    assert res.eta == 2
    assert verify(g, res.witness).is_d_lucky
    assert verify(g, Labeling([1, 2, 1, 2])).is_d_lucky  # known witness


def test_exists_labeling_k2_cases():
    assert exists_labeling(complete_graph(2), 1) is None
    found = exists_labeling(complete_graph(2), 2)
    assert found is not None and verify(complete_graph(2), found).is_d_lucky


def test_exists_matches_claimed_on_tiny_corona():
    g = corona(complete_graph(2), complete_graph(1))
    assert exists_labeling(g, 1) is None
    assert exists_labeling(g, 2) is not None  # matches the family's claimed value


def test_agreement_with_brute_force_oracle():
    rng = random.Random(401)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 5), rng.random())
        for k in (1, 2, 3):
            mine = exists_labeling(g, k)
            brute = oracle_exists_labeling(g, k)
            assert (mine is None) == (brute is None)
            if mine is not None:
                assert verify(g, mine).is_d_lucky
                assert max(mine.labels) <= k


def test_exact_eta_agrees_with_oracle_on_small_graphs():
    rng = random.Random(409)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 5), rng.random())
        assert exact_eta(g, max_k=5).eta == oracle_eta(g, 5)


def test_monotonicity():
    rng = random.Random(419)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        for k in (1, 2):
            if exists_labeling(g, k) is not None:
                assert exists_labeling(g, k + 1) is not None


def test_determinism_same_inputs_same_everything():
    rng = random.Random(421)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        a = exact_eta(g, max_k=4)
        b = exact_eta(g, max_k=4)
        assert a.eta == b.eta
        assert a.nodes_explored == b.nodes_explored
        assert (a.witness is None and b.witness is None) or (
            a.witness.labels == b.witness.labels
        )


def test_search_visit_order_is_pinned():
    # eta, nodes and witness of exact_eta(g, max_k=n+2, vertex_cap=n): node
    # counts and witnesses change with the order in which labels and vertices
    # are tried, with the depth at which each edge is checked, with the
    # depths the memo keys, with the depths that also record a mirrored key
    # (2,480 / 9,355 / 460 nodes on the prisms and C_15 without) and with
    # the depths that also record complement images (1,502 / 5,329 / 326
    # without).  C_5, C_15 and the prisms are regular, so their first vertex
    # tries the lower half of the labels only (62, 263, 1,621 and 4,744
    # nodes without)
    cases = [
        (complete_graph(6), 6, 21, [1, 2, 3, 4, 5, 6]),
        (cycle_graph(5), 3, 37, [1, 1, 2, 3, 1]),
        (build_corona(8, 1).graph, 5, 32,
         [1, 1, 1, 1, 1, 2, 3, 4, 1, 2, 3, 4, 5, 1, 1, 1]),
        (build_cocktail(2, 4, 1).graph, 2, 21,
         [1, 2, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 1, 1]),
        (cartesian_product(path_graph(2), cycle_graph(7)), 3, 1426,
         [1, 1, 1, 1, 3, 1, 1, 1, 2, 1, 1, 1, 1, 2]),
        (cartesian_product(path_graph(2), cycle_graph(9)), 3, 4549,
         [1, 1, 1, 1, 1, 3, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 2]),
        (cycle_graph(15), 3, 238, [1, 1, 2, 1, 1, 1, 2, 1, 3, 2, 1, 1, 1, 2, 1]),
        # the part check refutes k = 2 at the root (405 nodes without it),
        # and the search tests its one structure instead of its 64 cliques
        # (39 nodes with the clique tests)
        (build_cocktail(2, 6, 1).graph, 3, 36,
         [1, 3, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 1, 1, 1, 1, 2, 2, 3, 3, 1, 1, 1, 1]),
        # K_8 minus (6, 7): parts {0}..{5}, {6, 7} refute k = 5 (131,991 without).
        # In K_n minus edges, most vertex pairs share every neighbor but each
        # other, so their edge is checked once both are placed, not once the
        # last vertex is: 13,437 / 186,823 / 483,448 / 37,061 nodes without
        (k_minus(8, (6, 7)), 6, 27, [1, 2, 3, 4, 5, 6, 1, 5]),
        (k_minus(9, (7, 8)), 7, 35, [1, 2, 3, 4, 5, 6, 7, 1, 6]),
        (k_minus(10, (6, 7), (8, 9)), 6, 34, [1, 2, 3, 4, 5, 6, 1, 5, 1, 6]),
        (k_minus(10, (4, 5), (6, 7), (8, 9)), 4, 25, [1, 2, 3, 4, 1, 3, 1, 4, 2, 4]),
        (HALL_MEMO, 2, 55, [1, 1, 2, 2, 2, 1, 2]),
    ]
    for g, eta, nodes, witness in cases:
        res = exact_eta(g, max_k=g.n + 2, vertex_cap=g.n)
        assert (res.eta, res.nodes_explored, list(res.witness.labels)) == (eta, nodes, witness)
        assert verify(g, res.witness).is_d_lucky


def test_search_matches_the_per_label_reference():
    # the kernel steps each label by 1 and counts nodes once per visit to a
    # depth; the per-label loop it replaced must give the same labels and
    # nodes at every budget up to eta, under the same depth-0 limit and with
    # the same mirrors and complement images.  The random graphs have more
    # than 6 vertices, so some have memo tables; K_6, K_8 minus (6, 7),
    # cocktail(2,4,1), cocktail(2,6,1) and HALL_MEMO take the Hall path,
    # cocktail(2,6,1) with a grown structure's choice test, and the prism,
    # GP(9,2) and HALL_MEMO have memo hits; the prism and GP(9,2) have
    # mirrored depths that record complement images, and the prism has a
    # limit below k at k = 2, 3
    rng = random.Random(15)
    randoms = [random_graph(rng, rng.randint(7, 11), rng.uniform(0.1, 0.4)) for _ in range(60)]
    hall = [complete_graph(6), k_minus(8, (6, 7)), build_cocktail(2, 4, 1).graph,
            build_cocktail(2, 6, 1).graph, HALL_MEMO]
    symmetric = [cartesian_product(path_graph(2), cycle_graph(9)), generalized_petersen(9, 2)]
    memoized = mirrored = complemented = hall_steps = structured = capped = 0
    for g in list(connected_graphs(5)) + randoms + hall + symmetric:
        _, steps, slots, regular = _setup(g)
        memos = [step[4] for step in steps if step[4] is not None]
        memoized += bool(memos)
        mirrored += sum(memo[1] is not None for memo in memos)
        complemented += sum(memo[2] is not None for memo in memos)
        hall_steps += any(step[3] is not None for step in steps)
        structured += any(part_of is not None for *_, hall, _ in steps if hall for _, part_of in hall[2])
        eta = exact_eta(g, max_k=g.n + 2, vertex_cap=g.n).eta
        for k in range(1, eta + 1):
            top = _top(k, regular)
            capped += top < k
            assert _search.search(k, steps, slots, top) == reference_search(k, steps, slots, top), (g, k)
    assert memoized >= 10 and mirrored >= 7 and complemented >= 5 and hall_steps >= 3 and capped >= 3
    assert structured >= 2


def test_the_complement_of_a_d_lucky_labeling_is_d_lucky_on_regular_graphs():
    # the complement cut's premise: l'(v) = k + 1 - l(v) gives
    # d'(u) = (k + 3) deg(u) - d(u), so when the two ends of every edge have
    # equal degrees, l' is d-lucky exactly when l is
    regular = [g for g in connected_graphs(6) if len(set(map(g.degree, range(g.n)))) == 1]
    assert len(regular) == 166
    prisms = [cartesian_product(path_graph(2), cycle_graph(n)) for n in (3, 4, 5)]
    cases = [(g, k) for g in regular + [cycle_graph(n) for n in range(7, 10)] for k in (2, 3)]
    cases += [(g, 2) for g in prisms] + [(prisms[0], 3)]
    lucky = 0
    for g, k in cases:
        nbrs = [[w for e in g.edges if v in e for w in e if w != v] for v in range(g.n)]
        for labels in itertools.product(range(1, k + 1), repeat=g.n):
            sums = [len(ws) + sum(labels[w] for w in ws) for ws in nbrs]
            if all(sums[u] != sums[v] for u, v in g.edges):
                lucky += 1
                assert oracle_is_d_lucky(g, [k + 1 - x for x in labels]), (g, labels)
    assert lucky > 1000


def test_the_complement_cut_is_kept_to_regular_graphs():
    # degrees 5, 1, 4, 5, 4, 5, 3, 5: the least labeling starts at 2 = k, so
    # cutting the first vertex to the labels up to (k + 1) // 2 = 1 would
    # refute k = 2 and report 3
    g = Graph(8, [(0, 1), (0, 3), (0, 5), (0, 6), (0, 7), (2, 3), (2, 4), (2, 5), (2, 7),
                  (3, 4), (3, 5), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7)])
    res = exact_eta(g, max_k=g.n + 2)
    assert (res.eta, list(res.witness.labels)) == (2, [2, 1, 2, 1, 2, 2, 1, 2])
    assert oracle_first_labeling(g, 2) == (2, [2, 1, 2, 1, 2, 2, 1, 2])


def test_budget_exhaustion_is_reported():
    # K_4 at k <= 3: the clique check refutes every budget before any search
    res = exact_eta(complete_graph(4), max_k=3)
    assert res.exceeded
    assert res.eta is None and res.witness is None
    assert res.k_tried == 3
    assert res.nodes_explored == 0
    # C_5 has no triangle, so its infeasible budgets are left to the search
    g = cycle_graph(5)
    assert oracle_eta(g, 2) is None
    res = exact_eta(g, max_k=2)
    assert res.exceeded
    assert res.eta is None and res.witness is None
    assert res.k_tried == 2
    assert res.nodes_explored > 0


def test_clique_refutation_agrees_with_oracle():
    refuted = 0
    for g in connected_graphs(5):
        structures = _setup(g)[0]
        for k in (1, 2, 3):
            if _clique_refutes(structures, k):
                assert oracle_exists_labeling(g, k) is None
                refuted += 1
    assert refuted > 0


def _grown(structures) -> list:
    """The grown structures among ``_setup``'s, those with a part of more than one vertex."""
    return [structure for structure in structures if structure[2] is not None]


def _hulls_refute(g, members, part_of, k) -> bool:
    """Whether the hulls of the structure's parts (:func:`conftest.hull_ranges`)
    fail Hall's condition at k, a weaker check than the one on its vertices'
    own ranges."""
    parts = [[v for v, q in zip(members, part_of) if q == p] for p in sorted(set(part_of))]
    return _search.hall_fails(*hull_ranges(g, parts, k)) is not None


def test_part_refutation_agrees_with_oracle(monkeypatch):
    # with the gate at 2, structures grow from triangles too, so graphs this
    # small get part checks; each budget one refutes must have no labeling,
    # and the vertices' own ranges must refute every budget the hulls of
    # their parts refute, and some that the hulls pass.  The random graphs
    # are dense
    monkeypatch.setattr(solver, "HALL_MIN_SIZE", 2)
    rng = random.Random(26)
    dense = [random_graph(rng, 7, rng.uniform(0.6, 0.95)) for _ in range(30)]
    refuted = beyond_cliques = beyond_hulls = 0
    for g in connected_graphs(6) + tuple(dense):
        structures = _setup(g)[0]
        grown = _grown(structures)
        for k in range(1, g.n + 1):
            hulls = any(_hulls_refute(g, members, part_of, k) for members, _, part_of in grown)
            if not _clique_refutes(grown, k):
                # the ranges only widen as k grows, so no larger budget is refuted
                assert not hulls
                break
            assert oracle_exists_labeling(g, k) is None
            refuted += 1
            beyond_cliques += not _clique_refutes([s for s in structures if s[2] is None], k)
            beyond_hulls += not hulls
    assert refuted > 0 and beyond_cliques > 0 and beyond_hulls > 0


def test_the_root_check_tests_grown_structures_on_vertex_slots():
    # two structures grow from the cliques of 7; the hulls of their parts
    # pass k = 2, and the ranges of some choice of one vertex per part fail
    g = k_minus(10, (0, 4), (0, 5), (0, 7), (4, 9), (6, 8))
    structures = _setup(g)[0]
    grown = _grown(structures)
    assert [part_of for *_, part_of in grown] == [(0, 0, 1, 2, 3, 4, 4, 5), (0, 1, 2, 3, 3, 4, 5, 5, 6)]
    assert not any(_hulls_refute(g, members, part_of, 2) for members, _, part_of in grown)
    assert _clique_refutes(grown, 2) and not _clique_refutes(grown, 3)
    assert not _clique_refutes([s for s in structures if s[2] is None], 2)
    assert oracle_exists_labeling(g, 2) is None
    res = exact_eta(g, max_k=g.n + 2)
    assert (res.eta, tuple(res.witness.labels), res.nodes_explored) == (3, (1, 1, 2, 3, 3, 2, 2, 3, 3, 3), 23)


def test_part_structures_are_built_for_two_large_cliques_only():
    k6 = complete_graph(6)
    assert _setup(k6)[0] == [(tuple(range(6)), _search.part_slots(k6._adj, range(6), None), None)]
    g = build_cocktail(2, 6, 1).graph
    structures, steps, slots, _ = _setup(g)
    singles = [s for s in structures if s[2] is None]
    assert len(singles) == 64  # every base transversal; all grow into one structure
    grown = _grown(structures)
    (members, ranges, part_of), = grown
    assert members == list(range(12))
    assert part_of == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5)  # the six base parts
    # in the search the 64 cliques get no slots: the structure has one per
    # base vertex, and every vertex's tables test it and no clique
    assert len(slots) == 12
    assert all(len(tests) == 1 and tests[0][1] == part_of for *_, tests in (step[3] for step in steps))
    assert all(size == 1 for _, single, _ in singles for *_, size in single)
    assert [size for *_, size in ranges] == [2] * 12
    assert _clique_refutes(grown, 2) and not _clique_refutes(singles, 2)
    assert not _clique_refutes(grown, 3)
    assert exists_labeling(g, 2) is None
    found = exists_labeling(g, 3)
    assert found is not None and verify(g, found).is_d_lucky


def _structure_tables_hold(graphs, oracle, rng) -> bool:
    """Whether, on every graph of ``graphs`` that grows a structure, eta and
    the witness are ``oracle``'s and the slots of each structure hold the
    t-ranges of its vertices, read off the graph alone, after random labels
    on a random prefix of the search order, each placement shifted in by its
    step's own and outside lists.  For v in part P of the structure's vertex
    set M, ``t(v) = deg(v) - l(P) + l(N(v) \\ M)``, and a label not placed
    counts as 1 or k, whichever gives the end."""
    tested = 0
    for g in graphs:
        structures, steps, slots, regular = _setup(g)
        grown = _grown(structures)
        if not grown:
            continue
        tested += 1
        entries = {id(e): e for *_, hall, _ in steps if hall for e in hall[2] if e[1] is not None}.values()
        indices = sorted(get(range(len(slots))) for get, _ in entries)
        nbrs = [set(g.neighbors(v)) for v in range(g.n)]
        for _ in range(2):
            k = rng.randint(2, 4)
            prefix = steps[: rng.randint(0, g.n)]
            labels = {step[0]: rng.randint(1, k) for step in prefix}
            lo, hi = _search.slot_ranges(slots, k)
            for v, *_, hall, _ in prefix:
                if hall is not None:
                    _search._shift(lo, hi, hall[0], hall[1], labels[v] - 1, k - labels[v])
            for (members, _, part_of), slot_of in zip(grown, indices):
                inside = set(members)
                for i, v, p in zip(slot_of, members, part_of):
                    part = [w for w, q in zip(members, part_of) if q == p]
                    out = nbrs[v] - inside
                    # the least t(v) takes the labels not placed in P as k and outside M as 1
                    ends = [len(nbrs[v]) - sum(labels.get(w, mine) for w in part)
                            + sum(labels.get(w, k + 1 - mine) for w in out) for mine in (k, 1)]
                    if [lo[i], hi[i]] != ends:
                        return False
        # exact_eta's budget loop, on these tables
        k = next(k for k in itertools.count(1) if not _clique_refutes(structures, k))
        while (labels := _search.search(k, steps, slots, _top(k, regular))[0]) is None:
            k += 1
        if (k, labels) != oracle(g):
            return False
    assert tested > 0
    return True


def test_structure_slots_track_the_part_t_ranges_and_keep_eta_and_witness(monkeypatch):
    # with the gate at 2, structures grow from triangles too, so graphs this
    # small test them in the search (16,378 of the connected graphs with up
    # to 6 vertices); the random graphs with 7 vertices are dense.  Two
    # mutants must fail: the own shift moving only the placed vertex's slot
    # (sound but weaker: its part-mates' slots stop tracking their t-ranges),
    # and part_slots taking s(v) over all of N(v), not N(v) \\ M
    monkeypatch.setattr(solver, "HALL_MIN_SIZE", 2)
    rng = random.Random(25)
    graphs = list(connected_graphs(6)) + [random_graph(rng, 7, rng.uniform(0.5, 0.9)) for _ in range(12)]
    known = {}

    def oracle(g):
        if g not in known:
            known[g] = oracle_first_labeling(g, g.n + 2)
        return known[g]

    assert _structure_tables_hold(graphs, oracle, random.Random(26))
    prepare, part_slots = solver._prepare, _search.part_slots

    def own_slot_only(g, tested):
        steps, slots, regular = prepare(g, tested)
        vertex_of = [v for members, _, _ in tested for v in members]  # slot -> its vertex
        steps = tuple([(v, nbrs, checks, hall and ([i for i in hall[0] if vertex_of[i] == v], *hall[1:]), memo)
                       for v, nbrs, checks, hall, memo in steps])
        return steps, slots, regular

    def all_neighbors_outside(adj, members, part_of):
        ranges = part_slots(adj, members, part_of)
        return ranges if part_of is None else [(deg, deg, size) for deg, _, size in ranges]

    mutants = ((solver, "_prepare", own_slot_only), (_search, "part_slots", all_neighbors_outside))
    for module, name, mutant in mutants:
        with monkeypatch.context() as patched:
            patched.setattr(module, name, mutant)
            assert not _structure_tables_hold(graphs, oracle, random.Random(26)), name


def test_eta_and_witness_match_the_breadth_first_oracle():
    # the clique checks, at the root and after each placement, and the
    # complement cut may only cut subtrees without a labeling: eta and the
    # first witness stay those of plain enumeration in the search's vertex
    # order.  The cut also runs on disconnected regular graphs
    disconnected = [
        Graph(4, [(0, 2), (1, 3)]),
        Graph(6, [(0, 1), (2, 3), (4, 5)]),
        Graph(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)]),
        Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]),
    ]
    for g in list(connected_graphs(5)) + disconnected:
        res = exact_eta(g, max_k=g.n + 2)
        assert (res.eta, list(res.witness.labels)) == oracle_first_labeling(g, g.n + 2)


def test_failure_memo_keeps_eta_and_witness_and_never_adds_nodes(monkeypatch):
    # with no size gate the memo builds tables on graphs this small too, and
    # it may only skip subtrees without a labeling.  No search state repeats
    # on the graphs with up to 5 vertices; on a cycle or prism with one
    # pendant vertex states repeat before the first labeling is found, and
    # there the reference is the search with the memo off
    small = list(connected_graphs(5))
    bases = [cycle_graph(11), cycle_graph(13), cartesian_product(path_graph(2), cycle_graph(7))]
    repeating = [
        Graph(base.n + 1, list(base.edges) + [(j, base.n)]) for base in bases for j in range(base.n)
    ]
    monkeypatch.setattr(solver, "MEMO_OFF_UP_TO", 10**9)
    memo_off = [exact_eta(g, max_k=g.n + 2, vertex_cap=g.n) for g in small + repeating]
    monkeypatch.setattr(solver, "MEMO_OFF_UP_TO", 0)
    saved = 0
    for g, off in zip(small + repeating, memo_off):
        res = exact_eta(g, max_k=g.n + 2, vertex_cap=g.n)
        expected = oracle_first_labeling(g, g.n + 2) if g.n <= 5 else (
            off.eta, list(off.witness.labels))
        assert (res.eta, list(res.witness.labels)) == expected
        assert res.nodes_explored <= off.nodes_explored
        saved += off.nodes_explored - res.nodes_explored
    assert saved > 0


def test_exists_labeling_on_a_prism_with_the_memo():
    g = cartesian_product(path_graph(2), cycle_graph(9))
    assert g.n > solver.MEMO_OFF_UP_TO  # the default gate memoizes this graph
    assert exists_labeling(g, 2) is None
    found = exists_labeling(g, 3)
    assert found is not None and verify(g, found).is_d_lucky


def test_memo_keys_every_depth_where_a_check_retires():
    # the rule, derived here from the graph alone: depth d >= 1 has a key
    # when some vertex had its last edge check at depth d - 1, and the key
    # picks the sums of the live vertices, those with a check at depth >= d
    # and a neighbor placed before d.  An edge is checked at the last vertex
    # of N(u) Δ N(v).  Graphs with at most 6 vertices build no table
    rng = random.Random(20)
    randoms = [random_graph(rng, rng.randint(7, 12), rng.uniform(0.15, 0.6)) for _ in range(80)]
    prisms = [cartesian_product(path_graph(2), cycle_graph(n)) for n in (7, 9, 11, 13)]
    keyed_near_the_bottom = 0
    for g in randoms + prisms:
        steps = _setup(g)[1]
        pos = {v: d for d, (v, *_) in enumerate(steps)}
        nbrs = [set(g.neighbors(v)) for v in range(g.n)]
        final = [-1] * g.n
        for u, v in g.edges:
            at = max(pos[w] for w in nbrs[u] ^ nbrs[v])
            final[u] = max(final[u], at)
            final[v] = max(final[v], at)
        for d, (*_, memo) in enumerate(steps):
            expected = [x for x in range(g.n)
                        if nbrs[x] and min(pos[w] for w in nbrs[x]) < d <= final[x]]
            if d >= 1 and d - 1 in final and expected:
                assert memo is not None, (g, d)
                got = memo[0](list(range(g.n)))
                assert list(got if len(expected) > 1 else (got,)) == expected, (g, d)
                keyed_near_the_bottom += d > g.n - 6
            else:
                assert memo is None, (g, d)
    for g in prisms:
        assert _setup(g)[1][-1][4] is not None  # the last depth is keyed too
    assert keyed_near_the_bottom > 50
    for g in connected_graphs(6):
        assert all(memo is None for *_, memo in _setup(g)[1]), g


def _prism(n):
    return cartesian_product(path_graph(2), cycle_graph(n))


def _mirrors(g):
    """Per depth of the solver's steps on ``g``, the mirror of its memo entry, or None."""
    return [memo and memo[1] for *_, memo in _setup(g)[1]]


def test_the_automorphism_fixes_the_first_vertex_and_the_longest_start_of_the_order():
    # brute force over every permutation that fixes order[0], on connected
    # graphs with at most 8 vertices: the solver's σ is None exactly when no
    # automorphism other than the identity fixes order[0]; otherwise it is
    # one, and none fixes a longer start of the order pointwise.  On the
    # breadth-first order, ties by index make each vertex its own first
    # candidate anyway, so each graph is also tried on a random order in
    # which every vertex after the first has an earlier neighbor
    rng = random.Random(29)
    randoms = [g for g in (random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.8)) for _ in range(150))
               if is_connected(g)]
    named = [cycle_graph(7), cycle_graph(8), _prism(4), complete_graph(8),
             Graph(8, [(u, v) for u in range(4) for v in range(4, 8)])]

    def random_order(g):
        order = [rng.randrange(g.n)]
        while len(order) < g.n:
            order.append(rng.choice([v for v in range(g.n) if v not in order
                                     and any(g.has_edge(u, v) for u in order)]))
        return order

    found = 0
    for g, order in [(g, make(g)) for g in randoms + named for make in (oracle_bfs_order, random_order)]:
        edges = {frozenset(e) for e in g.edges}

        def fixed_start(sigma):  # how many vertices at the start of the order sigma fixes
            return next((i for i, v in enumerate(order) if sigma[v] != v), g.n)

        rest = order[1:]
        automorphisms = []
        for images in itertools.permutations(rest):
            sigma = list(range(g.n))
            for v, image in zip(rest, images):
                sigma[v] = image
            if fixed_start(sigma) < g.n and {frozenset((sigma[u], sigma[v])) for u, v in edges} == edges:
                automorphisms.append(sigma)
        sigma = solver._automorphism(g, order)
        assert (sigma is None) == (not automorphisms), g
        if sigma is not None:
            assert sigma in automorphisms, g
            assert fixed_start(sigma) == max(map(fixed_start, automorphisms)), g
            found += 1
    assert len(randoms) >= 80 and found >= 80


def test_mirrors_read_the_sums_through_an_automorphism_that_fixes_the_prefix():
    # derived from the graph alone: at every mirrored depth d, the mirror
    # picks sums[σ(x)] over the vertices x live at d, in index order, for a
    # σ other than the identity on them that maps the edge set and the
    # first d vertices of the breadth-first order onto themselves.  The
    # solver's own automorphism is the candidate σ, checked whole
    rng = random.Random(23)
    randoms = [random_graph(rng, rng.randint(7, 12), rng.uniform(0.15, 0.6)) for _ in range(80)]
    named = [_prism(n) for n in range(7, 14)] + [generalized_petersen(9, 2), generalized_petersen(11, 2)]
    with_mirrors = []
    for g in randoms + named:
        order = oracle_bfs_order(g)
        edges = {frozenset(e) for e in g.edges}
        sigma = solver._automorphism(g, order) or list(range(g.n))  # the identity mirrors nothing
        assert sorted(sigma) == list(range(g.n)), g
        assert {frozenset((sigma[u], sigma[v])) for u, v in edges} == edges, g
        mirrors = _mirrors(g)
        for d, mirror in enumerate(mirrors):
            if mirror is None:
                continue
            live = oracle_live(g, d)[2]
            picked = mirror(list(range(g.n)))
            picked = list(picked) if len(live) > 1 else [picked]
            assert picked != live, (g, d)
            assert [sigma[x] for x in live] == picked, (g, d)
            assert {sigma[x] for x in order[:d]} == set(order[:d]), (g, d)
        with_mirrors.append(any(mirrors))
    assert all(with_mirrors[len(randoms):]) and sum(with_mirrors[:len(randoms)]) >= 10
    assert sum(m is not None for m in _mirrors(_prism(11))) >= 4
    assert sum(m is not None for m in _mirrors(_prism(13))) >= 5


def test_complement_pairs_are_read_off_the_graph_at_the_mirrored_depths_of_regular_graphs():
    # derived from the graph alone: a memo entry has complement pairs exactly
    # at the mirrored depths of a regular graph, and they are
    # (2 deg(x), the neighbors of x among the first d vertices of the
    # breadth-first order) over the vertices x live at d, in index order
    rng = random.Random(26)
    cubic = [random_regular_graph(rng, rng.choice([8, 10, 12, 14]), 3) for _ in range(30)]
    randoms = [random_graph(rng, rng.randint(7, 12), rng.uniform(0.15, 0.6)) for _ in range(40)]
    named = ([_prism(n) for n in range(7, 14)] + [cycle_graph(25)]
             + [generalized_petersen(9, 2), generalized_petersen(11, 2)])
    complemented = 0
    for g in cubic + randoms + named:
        regular = len(set(map(g.degree, range(g.n)))) == 1
        order = oracle_bfs_order(g)
        for d, (*_, memo) in enumerate(_setup(g)[1]):
            if memo is None:
                continue
            _, mirror, pairs = memo
            if mirror is None or not regular:
                assert pairs is None, (g, d)
                continue
            nbrs, _, live = oracle_live(g, d)
            placed = set(order[:d])
            assert list(pairs) == [(2 * len(nbrs[x]), len(nbrs[x] & placed)) for x in live], (g, d)
            complemented += 1
    assert complemented >= 40


def _recorded_keys(steps, k):
    """Per depth, the keys the per-label reference records as refuted at budget k on a
    regular graph, and its nodes."""
    refuted = collections.defaultdict(set)
    _, nodes = reference_search(k, steps, (), _top(k, True), refuted)
    return refuted, nodes


def test_every_recorded_key_is_refuted_and_a_wrong_mirror_records_a_completable_one():
    # checked key by key with the brute-force completion oracle at k = 2 on
    # P_2 x C_5 and P_2 x C_7: the solver's mirrors record only keys without
    # a completion, and prune more than the own keys alone.  Two mutants
    # whose σ does not fix the prefix must record a completable key: the
    # rotation by one, which does not even fix vertex 0, and the reflection
    # through vertex 0 at every memoized depth, also where it moves the prefix
    for n in (5, 7):
        g = _prism(n)
        steps = _setup(g)[1]
        rotation = [a * n + (x + 1) % n for a in range(2) for x in range(n)]
        reflection = [a * n + -x % n for a in range(2) for x in range(n)]

        def mirrored_by(sigma):  # sigma at every memoized depth, and no complement images
            return [step[:4] + (step[4] and (step[4][0], itemgetter(*[sigma[x] for x in live]), None),)
                    for step, live in zip(steps, (oracle_live(g, d)[2] for d in range(g.n)))]

        def completable(recorded):
            return sum(len(oracle_completable(g, 2, d, keys)) for d, keys in recorded.items())

        own_keys = [step[:4] + (step[4] and (step[4][0], None, None),) for step in steps]
        _, own_nodes = _recorded_keys(own_keys, 2)
        recorded, nodes = _recorded_keys(steps, 2)
        assert nodes < own_nodes, n
        assert completable(recorded) == 0, n
        for sigma in (rotation, reflection):
            assert completable(_recorded_keys(mirrored_by(sigma), 2)[0]) > 0, (n, sigma)


def _kernel_records(g, tables=_search.memo_tables, memos=solver._memos):
    """Per budget the solver searches on ``g``, up to the first with a labeling:
    ``(k, {depth: the keys the kernel recorded as refuted there})``, read off
    the per-call tables that ``tables`` hands the kernel, on the steps that
    ``memos`` gives ``_prepare`` (the kernel's and solver's own by default)."""
    made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_search, "memo_tables", lambda steps, k: made.append(tables(steps, k)) or made[-1])
        mp.setattr(solver, "_memos", memos)
        structures, steps, slots, regular = _setup(g)
        records = []
        for k in range(1, g.n + 3):
            if _clique_refutes(structures, k):
                continue
            made.clear()
            labels, _ = _search.search(k, steps, slots, _top(k, regular))
            if made:
                records.append((k, {d: keys for d, keys in enumerate(made[0][0]) if keys}))
            if labels is not None:
                return records
    raise AssertionError(f"{g}: no labeling up to n + 2 labels")


def _completable(g, records):
    """The recorded keys that the brute-force oracle completes, and all recorded keys."""
    completable = recorded = 0
    for k, per_depth in records:
        for d, keys in per_depth.items():
            recorded += len(keys)
            completable += len(oracle_completable(g, k, d, keys))
    return completable, recorded


def test_every_key_the_kernel_records_is_refuted_and_two_complement_mutants_record_completable_ones():
    # the kernel's own records, read through a wrapped memo_tables at every
    # budget the solver searches: own keys, mirrored keys and complement
    # images alike must have no completion.  The graphs with complement
    # images are P_2 x C_11, C_25, GP(9,2) and random cubic graphs with a
    # mirrored depth; the non-regular ones are the prisms P_2 x C_5 and
    # P_2 x C_7 with pendants at 1 and n - 1, and at 2 and n - 2, which keep
    # the reflection through vertex 0.  Two mutants must record a completable
    # key: C_d made with k in place of k + 1, on the regular graphs, and
    # complement images recorded on the non-regular graphs
    def complemented(g):  # the keys recorded at depths with complement images
        depths = {d for d, (*_, memo) in enumerate(_setup(g)[1]) if memo and memo[2]}
        return sum(len(keys) for _, per_depth in _kernel_records(g) for d, keys in per_depth.items()
                   if d in depths)

    rng = random.Random(27)
    cubic = [random_regular_graph(rng, rng.choice([10, 12, 14]), 3) for _ in range(40)]
    cubic = [g for g in cubic if complemented(g)][:6]
    regular = [_prism(11), cycle_graph(25), generalized_petersen(9, 2)] + cubic
    pendants = [Graph(2 * n + 2, list(_prism(n).edges) + [(j, 2 * n), (n - j, 2 * n + 1)])
                for n, j in ((5, 1), (7, 2))]
    assert len(cubic) >= 4 and all(complemented(g) for g in regular)
    for g in regular + pendants:
        completable, recorded = _completable(g, _kernel_records(g))
        assert completable == 0 and recorded > 0, g

    tables, memos = _search.memo_tables, solver._memos

    def k_for_k_plus_1(steps, k):  # 2 deg(x) + k p_d(x)
        return tables(steps, k - 1)

    def on_any_graph(g, order, bits, ready, regular):
        return memos(g, order, bits, ready, True)

    assert all(_completable(g, _kernel_records(g, tables=k_for_k_plus_1))[0] > 0 for g in regular[:3])
    assert any(_completable(g, _kernel_records(g, tables=k_for_k_plus_1))[0] > 0 for g in cubic)
    assert all(_completable(g, _kernel_records(g, memos=on_any_graph))[0] > 0 for g in pendants)


@pytest.mark.parametrize("g, spent, found", [
    (build_cocktail(2, 6, 1).graph, 406, 407),
    (generalized_petersen(9, 2), 146, 147),
    (_prism(11), 131, 132),
])
def test_the_automorphism_budget_counts_every_candidate_image(monkeypatch, g, spent, found):
    # the least budgets at which the σ search on the breadth-first order
    # finds its σ: any change to how steps are counted moves them
    order = bfs_order(g)
    monkeypatch.setattr(solver, "SYMMETRY_STEPS", spent)
    assert solver._automorphism(g, order) is None
    monkeypatch.setattr(solver, "SYMMETRY_STEPS", found)
    sigma = solver._automorphism(g, order)
    assert sigma is not None and sigma != list(range(g.n))
    assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in g.edges} == set(g.edges)


def test_the_automorphism_search_stays_within_the_recursion_limit():
    # each position the σ search enters costs at least one step, so its
    # recursion is at most SYMMETRY_STEPS + 1 calls deep; on one edge and
    # 2,998 lone vertices each position costs exactly one, the deepest the
    # budget allows, and on a long cycle two
    assert solver.SYMMETRY_STEPS + 100 < sys.getrecursionlimit()
    for g in (Graph(3000, [(0, 1)]), cycle_graph(3000)):
        assert solver._automorphism(g, bfs_order(g)) is None


def test_mirrors_keep_eta_and_witness_and_never_add_nodes(monkeypatch):
    # with a σ-search budget of 0 no graph gets a mirror, nor complement
    # images, which ride on mirrors; with both on, eta and the witness must
    # stay and the nodes may only fall
    rng = random.Random(24)
    randoms = [random_graph(rng, rng.randint(7, 12), rng.uniform(0.15, 0.7)) for _ in range(100)]
    named = ([cycle_graph(n) for n in range(7, 21)] + [_prism(n) for n in range(4, 13)]
             + [generalized_petersen(n, 2) for n in range(5, 12)])
    graphs = randoms + named
    monkeypatch.setattr(solver, "SYMMETRY_STEPS", 0)
    assert all(m is None for g in named for m in _mirrors(g))
    off = [exact_eta(g, max_k=g.n + 2, vertex_cap=g.n) for g in graphs]
    monkeypatch.undo()
    saved = 0
    for g, before in zip(graphs, off):
        res = exact_eta(g, max_k=g.n + 2, vertex_cap=g.n)
        assert (res.eta, list(res.witness.labels)) == (before.eta, list(before.witness.labels)), g
        assert res.nodes_explored <= before.nodes_explored, g
        saved += before.nodes_explored - res.nodes_explored
    assert saved > 0


def test_vertex_cap_enforced_and_adjustable():
    g = path_graph(17)
    with pytest.raises(ValueError, match="16"):
        exact_eta(g, max_k=2)
    assert exact_eta(g, max_k=2, vertex_cap=17).eta == 2


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        exact_eta(path_graph(2), max_k=0)
    with pytest.raises(ValueError):
        exact_eta(Graph(0), max_k=2)
    with pytest.raises(ValueError):
        exists_labeling(path_graph(2), 0)


def test_budgets_and_the_vertex_cap_must_be_exact_ints():
    # a float budget never meets the kernel's ell == k exhaustion test, so
    # the search on C_5 at k = 2.5 used to place the label 3
    g = cycle_graph(5)
    for call in (lambda: exists_labeling(g, 2.5), lambda: exact_eta(g, 2.5)):
        with pytest.raises(ValueError, match=r"^label budget must be an int >= 1, got 2\.5$"):
            call()
    with pytest.raises(ValueError, match=r"^label budget must be an int >= 1, got True$"):
        exact_eta(g, True)
    with pytest.raises(ValueError, match=r"^vertex cap must be an int, got 16\.0$"):
        exact_eta(g, 3, vertex_cap=16.0)
    assert exact_eta(g, 3, vertex_cap=5).eta == exists_labeling(g, 3).k_max == 3


def test_witness_respects_budget_flag():
    res = exact_eta(cycle_graph(5), max_k=4)
    assert res.witness.k_max == res.eta


def test_bench_search_node_table_matches_the_solver():
    # benchmarks/bench_search.py checks its runs against NODES; the table
    # must follow every change to the search, or that script fails
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_search.py"
    spec = importlib.util.spec_from_file_location("bench_search", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert set(bench.NODES) == set(bench.GRAPHS)
    for name, build in bench.GRAPHS.items():
        g = build()
        assert exact_eta(g, max_k=g.n + 2, vertex_cap=g.n).nodes_explored == bench.NODES[name], name
