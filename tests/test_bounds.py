import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dlucky import (
    Graph,
    build_cocktail,
    build_corona,
    build_web,
    complete_graph,
    corona,
    cycle_graph,
    enumerate_maximal_cliques,
    enumerate_maximum_cliques,
    lower_bound_cor2,
    lower_bound_thm1,
    lower_bound_thm1_witness,
    max_label,
    verify,
)
from dlucky._search import choice_fails, hall_fails, part_slots, slot_ranges
from dlucky.bounds import _best_clique, _greedy_clique, _masks, _omega
from dlucky.parts import (
    HallCertificate,
    check_hall_bound,
    grow_parts,
    lower_bound_hall,
    lower_bound_hall_witness,
    structure,
)
from conftest import (
    connected_graphs,
    corpus6_facts,
    hull_ranges,
    oracle_exists_labeling,
    oracle_hall_fails,
    oracle_maximal_cliques,
    oracle_maximum_cliques,
    random_graph,
)


def test_k5_single_maximum_clique():
    records = enumerate_maximum_cliques(complete_graph(5))
    assert len(records) == 1
    rec = records[0]
    assert rec.vertices == (0, 1, 2, 3, 4)
    assert rec.delta == rec.max_deg == 4


def test_c6_maximum_cliques_are_the_edges():
    records = enumerate_maximum_cliques(cycle_graph(6))
    assert [rec.vertices for rec in records] == list(cycle_graph(6).edges)
    assert all(rec.delta == rec.max_deg == 2 for rec in records)


def test_web_graph_has_unique_maximum_clique():
    for m, n in [(3, 5), (3, 6), (4, 6)]:
        fam = build_web(m, n)
        records = enumerate_maximum_cliques(fam.graph)
        assert len(records) == 1
        rec = records[0]
        assert rec.vertices == fam.role_index["clique"]
        assert rec.delta == rec.max_deg == n


def test_enumeration_agrees_with_subset_scan():
    rng = random.Random(301)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        got = [rec.vertices for rec in enumerate_maximum_cliques(g)]
        assert got == oracle_maximum_cliques(g)
        maximal = oracle_maximal_cliques(g)
        assert enumerate_maximal_cliques(g) == maximal
        assert enumerate_maximal_cliques(g, min_size=3) == [c for c in maximal if len(c) >= 3]
    for _ in range(5):
        g = random_graph(rng, 12, 0.5)
        got = [rec.vertices for rec in enumerate_maximum_cliques(g)]
        assert got == oracle_maximum_cliques(g)


def test_each_record_is_a_clique_with_true_degree_extremes():
    rng = random.Random(307)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), 0.6)
        records = enumerate_maximum_cliques(g)
        omega = len(records[0].vertices)
        for rec in records:
            assert len(rec.vertices) == omega
            for i, u in enumerate(rec.vertices):
                for v in rec.vertices[i + 1 :]:
                    assert g.has_edge(u, v)
            degs = [g.degree(v) for v in rec.vertices]
            assert rec.delta == min(degs) and rec.max_deg == max(degs)
            # each clique vertex has degree >= omega - 1, so the
            # bound's denominator stays positive
            assert rec.max_deg - omega + 2 >= 1


def test_search_node_counts_are_pinned():
    # the answers stay right under a weaker cut, so pin the nodes (omega,
    # nodes of the omega search, bound, nodes of the witness search); this
    # runs before the cocktail and corona tests, which a weaker colour cut
    # makes exponential
    k8_minus = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) != (6, 7)])
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
    dense = random_graph(random.Random(10), 16, 0.7)
    for g, pinned in [(k8_minus, (7, 1, 3, 22)), (petersen, (2, 11, 2, 2)), (dense, (8, 28, 2, 25))]:
        masks = _masks(g)
        omega, omega_nodes = _omega(masks, len(_greedy_clique(g)))
        bound, _, nodes = _best_clique(masks, omega)
        assert (omega, omega_nodes, bound, nodes) == pinned


def test_thm1_on_cocktails_without_listing_their_cliques():
    for n, t, r in [(2, 16, 1), (5, 100, 5)]:  # 65,536 and 5^100 maximum cliques
        g = build_cocktail(n, t, r).graph
        masks = _masks(g)
        # the root's colour classes are the t parts, so the root is cut; the
        # first clique found is a best one, and every other is cut
        assert _omega(masks, len(_greedy_clique(g))) == (t, 1)
        assert _best_clique(masks, t)[2] == t
        start = time.perf_counter()
        assert lower_bound_thm1(g) == 2
        assert time.perf_counter() - start < 1.0


def _thm1_by_listing(g):
    """(omega, bound, witness): Theorem 1 over the oracle's list of maximum
    cliques, the first best one in lexicographic order."""
    cliques = oracle_maximum_cliques(g)
    omega = len(cliques[0])
    best = None
    for q in cliques:
        lo, hi = min(map(g.degree, q)), max(map(g.degree, q))
        value = max(1, -(-(2 * lo - hi + 1) // (hi - omega + 2)))
        if best is None or value > best[0]:
            best = (value, q)
    return (omega, *best)


def _check_thm1_searches(g, got, record):
    omega, bound, witness = _thm1_by_listing(g)
    assert (got, record.vertices) == (bound, witness)
    degs = [g.degree(v) for v in witness]
    assert (record.delta, record.max_deg) == (min(degs), max(degs))
    assert _omega(_masks(g), len(_greedy_clique(g)))[0] == omega


def test_thm1_searches_match_the_listing_on_small_connected_graphs():
    for g, thm1, _, _ in corpus6_facts():
        _check_thm1_searches(g, *thm1)


@st.composite
def connected_graph(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tree | {pair for pair, keep in zip(pairs, extra) if keep})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(connected_graph())
def test_thm1_searches_match_the_listing_on_drawn_graphs(g):
    _check_thm1_searches(g, *lower_bound_thm1_witness(g))


def test_greedy_clique_picks_the_candidate_of_largest_degree():
    rng = random.Random(337)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        cand = set(range(g.n))
        clique = []
        while cand:
            v = max(cand, key=lambda u: (g.degree(u), -u))
            clique.append(v)
            cand &= set(g.neighbors(v))
        assert _greedy_clique(g) == clique


def test_lower_bound_complete_graphs():
    for n in range(2, 7):
        assert lower_bound_thm1(complete_graph(n)) == n


def test_lower_bound_examples():
    from dlucky import build_corona

    assert lower_bound_thm1(build_corona(5, 4).graph) == 2
    assert lower_bound_thm1(build_web(3, 6).graph) == 4


def test_lower_bound_clamps_at_one():
    # star: every maximum clique is an edge with delta 1, Delta 5,
    # making the raw numerator nonpositive
    star = Graph(6, [(0, i) for i in range(1, 6)])
    assert lower_bound_thm1(star) == 1


def test_lower_bound_rejects_disconnected_and_empty():
    with pytest.raises(ValueError):
        lower_bound_thm1(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        lower_bound_thm1(Graph(0))


def test_lower_bound_on_a_clique_deeper_than_the_recursion_limit():
    # build_corona(1000, 3)'s graph: the clique search goes 1000 vertices deep
    assert lower_bound_thm1(corona(complete_graph(1000), Graph(3))) == 251


def test_the_clique_listing_has_no_depth_limit():
    # the listing keeps its own stack: the one maximum clique of build_corona(1000, 3)'s
    # graph is 1000 vertices deep, past the default recursion limit
    records = enumerate_maximum_cliques(corona(complete_graph(1000), Graph(3)))
    assert [rec.vertices for rec in records] == [tuple(range(1000))]
    fam = build_cocktail(2, 10, 1)
    parts = [set(fam.role_index[f"part_{j}"]) for j in range(1, 11)]
    records = enumerate_maximum_cliques(fam.graph)
    assert len({rec.vertices for rec in records}) == len(records) == 1024
    assert all(all(len(part.intersection(rec.vertices)) == 1 for part in parts) for rec in records)


def test_lower_bound_k1():
    assert lower_bound_thm1(Graph(1)) == 1


def test_cor2_values():
    for n in range(2, 8):
        assert lower_bound_cor2(n - 1, n) == n
    assert lower_bound_cor2(8, 5) == 2
    assert lower_bound_cor2(6, 6) == 4


def test_cor2_rejects_impossible_degree():
    with pytest.raises(ValueError):
        lower_bound_cor2(3, 5)
    with pytest.raises(ValueError):
        lower_bound_cor2(1, 0)


def test_bound_sound_against_solver_on_random_corpus():
    from dlucky import exact_eta, is_connected

    rng = random.Random(313)
    checked = 0
    while checked < 25:
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.6))
        if not is_connected(g):
            continue
        result = exact_eta(g, max_k=8)
        assert result.eta is not None
        assert lower_bound_thm1(g) <= result.eta
        assert lower_bound_hall(g) <= result.eta
        checked += 1


def test_thm1_matches_cor2_when_clique_degrees_equal():
    rng = random.Random(311)
    checked = 0
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        from dlucky import is_connected

        if not is_connected(g):
            continue
        records = enumerate_maximum_cliques(g)
        omega = len(records[0].vertices)
        degrees = {
            g.degree(v) for rec in records for v in rec.vertices
        }
        if len(degrees) == 1:
            r = degrees.pop()
            assert lower_bound_thm1(g) == lower_bound_cor2(r, omega)
            checked += 1
    assert checked > 5


def test_part_bound_is_never_below_its_seed_clique():
    # on this P_4 the seed clique alone and the parts grown from it, {0, 2}
    # and {1}, both refute k = 1; the hulls of the grown parts do not, as
    # vertex 2's range widens its part's hull
    p4 = Graph(4, [(0, 1), (0, 3), (1, 2)])
    bound, cert = lower_bound_hall_witness(p4)
    assert bound == 2 and check_hall_bound(p4, bound, cert)
    assert cert == (((0, 2), (1,)), (1, 1), (0, 1))
    assert not hall_fails(*hull_ranges(p4, cert.parts, 1))
    raised = 0
    for g, _, (bound, cert), _ in corpus6_facts():
        seed = _greedy_clique(g)
        alone = [[v] for v in seed]
        seed_bound = next(k for k in itertools.count(1) if not hall_fails(*hull_ranges(g, alone, k)))
        grown = grow_parts(g, seed)
        hull_bound = next(k for k in itertools.count(1) if not hall_fails(*hull_ranges(g, grown, k)))
        assert bound >= max(seed_bound, hull_bound)
        raised += bound > max(seed_bound, hull_bound)
        assert check_hall_bound(g, bound, cert)
    assert raised > 0



def test_hall_fails_matches_the_definition():
    rng = random.Random(2003)
    answers = set()
    for _ in range(3000):
        los = [rng.randint(-3, 6) for _ in range(rng.randint(0, 8))]
        his = [lo + rng.randint(-1, 5) for lo in los]
        witness = hall_fails(los, his)
        answers.add(witness is not None)
        assert (witness is not None) == oracle_hall_fails(los, his), (los, his)
        if witness is not None:
            # the named interval holds one more range than its values
            a, b = witness
            inside = sum(a <= lo and hi <= b for lo, hi in zip(los, his))
            assert inside >= b - a + 2, (los, his, witness)
            if all(lo <= hi for lo, hi in zip(los, his)):
                assert a <= b, (los, his, witness)
    assert answers == {False, True}


def test_choice_fails_matches_every_choice_of_one_range_per_part():
    # the structure test: some choice of one range per part fails Hall,
    # against every choice tried with the definition; empty ranges included
    rng = random.Random(2025)
    answers = set()
    for _ in range(3000):
        lows = [[rng.randint(-2, 5) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 5))]
        parts = [[(lo, lo + rng.randint(-1, 4)) for lo in part] for part in lows]
        flat = [(lo, hi, p) for p, part in enumerate(parts) for lo, hi in part]
        got = choice_fails([lo for lo, _, _ in flat], [hi for _, hi, _ in flat], [p for *_, p in flat])
        expected = any(oracle_hall_fails([lo for lo, _ in choice], [hi for _, hi in choice])
                       for choice in itertools.product(*parts))
        answers.add(expected)
        assert (got is not None) == expected, parts
        if got is not None:
            # the named interval holds a range of one more part than its values
            a, b = got
            inside = sum(any(a <= lo and hi <= b for lo, hi in part) for part in parts)
            assert inside >= b - a + 2, (parts, got)
            if all(lo <= hi for lo, hi, _ in flat):
                assert a <= b, (parts, got)
    assert answers == {False, True}


def test_hall_fails_is_near_linear_when_ranges_share_a_low_end():
    # every range starts at 0: a linear walk over the taken values is quadratic
    start = time.perf_counter()
    assert hall_fails([0] * 20000, [19999] * 20000) is None
    assert hall_fails([0] * 20001, [19999] * 20001) == (0, 19999)
    # T wide ranges [i, 2T] and two points at T + 5: the points come first by
    # high end and the second fails at once; a search for the interval that
    # tries each low end in turn is quadratic here
    T = 20000
    los = list(range(T)) + [T + 5] * 2
    his = [2 * T] * T + [T + 5] * 2
    assert hall_fails(los, his) == (T + 5, T + 5)
    assert time.perf_counter() - start < 2


def test_part_slots_on_a_clique_match_the_parts_of_one_vertex():
    # part_slots' clique fast path gives what its general path gives, and
    # its ranges are the hulls of one-vertex parts, read off the graph
    for g in connected_graphs(6):
        for q in enumerate_maximal_cliques(g):
            slots = part_slots(g._adj, q, None)
            assert slots == part_slots(g._adj, q, tuple(range(len(q))))
            assert slot_ranges(slots, 3) == hull_ranges(g, [[v] for v in q], 3)


def test_structure_slots_match_the_definition_on_the_family_grid():
    # one slot (deg(v), |N(v) \ M|, |P|) per vertex v, part by part, on the
    # parts grown from each family graph's greedy clique; part_of is None
    # exactly when every part holds one vertex
    grown = 0
    for fam in family_grid():
        g = fam.graph
        parts = grow_parts(g, _greedy_clique(g))
        members, slots, part_of = structure(g, parts)
        inside = set(members)
        assert members == [v for part in parts for v in part]
        assert slots == [(g.degree(v), len(set(g.neighbors(v)) - inside), len(part))
                         for part in parts for v in part]
        assert (part_of is None) == (len(parts) == len(members))
        if part_of is not None:
            grown += 1
            assert part_of == tuple(p for p, part in enumerate(parts) for _ in part)
    assert grown > 100


COCKTAILS = [(2, 6, 1), (3, 10, 1), (2, 14, 1), (4, 12, 1), (2, 30, 3), (5, 100, 5)]


def test_hall_bound_is_the_cocktail_optimum():
    # Theorem 1 gives 2 on the first three; the part bound counts over the
    # base parts, as the paper's optimality argument does
    for n, t, r in COCKTAILS:
        fam = build_cocktail(n, t, r)
        start = time.perf_counter()
        bound, cert = lower_bound_hall_witness(fam.graph)
        seconds = time.perf_counter() - start
        assert bound == fam.claimed_eta
        assert sorted(cert.parts) == [tuple(range(j * n, (j + 1) * n)) for j in range(t)]
        assert check_hall_bound(fam.graph, bound, cert)
    assert seconds < 1.0  # cocktail(5,100,5): 3,000 vertices, 5^100 maximum cliques


def test_hall_bound_on_k8_minus_an_edge():
    g = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) != (6, 7)])
    bound, cert = lower_bound_hall_witness(g)
    assert bound == 6 and lower_bound_thm1(g) == 3
    assert cert.parts == ((0,), (1,), (2,), (3,), (4,), (5,), (6, 7))
    assert cert.interval == (2, 6) and cert.overfull == (0, 1, 2, 3, 4, 5)


def _certified(graphs):
    for g in graphs:
        bound, cert = lower_bound_hall_witness(g)
        assert check_hall_bound(g, bound, cert)
        yield g, bound, cert


def test_checker_accepts_every_certificate():
    rng = random.Random(331)
    randoms = [random_graph(rng, rng.randint(2, 12), rng.uniform(0.3, 0.9)) for _ in range(200)]
    cocktails = [build_cocktail(*params).graph for params in COCKTAILS[:4]]
    assert sum(bound > 1 for _, bound, _ in _certified(randoms + cocktails)) > 0


def family_grid() -> list:
    """The 282 family instances of the acceptance grid."""
    return (
        [build_corona(n, r) for n in range(2, 16) for r in range(1, 6)]
        + [build_web(m, n) for m in range(3, 7) for n in range(5, 25)]
        + [
            build_cocktail(n, t, r)
            for n in range(1, 5) for t in range(2, 13) for r in range(1, 4)
        ]
    )


def test_family_grid_is_certified():
    # each family's labeling passes verify, its part bound passes the
    # checker, and the better bound meets the labeling's max label
    grid = family_grid()
    assert len(grid) == 282
    for fam in grid:
        g = fam.graph
        assert verify(g, fam.labeling).is_d_lucky
        assert max_label(fam.labeling) == fam.claimed_eta
        bound, cert = lower_bound_hall_witness(g)
        assert check_hall_bound(g, bound, cert)
        assert max(lower_bound_thm1(g), bound) == fam.claimed_eta


def test_checker_rejects_tampered_certificates():
    g = build_cocktail(2, 6, 1).graph
    bound, cert = lower_bound_hall_witness(g)
    assert bound == 3 and check_hall_bound(g, bound, cert)
    parts = list(cert.parts)
    assert not check_hall_bound(g, bound + 1, cert)
    merged = [parts[0] + parts[1]] + parts[2:]  # a part with internal edges
    assert not check_hall_bound(g, bound, cert._replace(parts=tuple(merged)))
    pendant = g.neighbors(parts[0][0])[-1]  # joined to one part only
    loose = parts + [(pendant,)]
    assert not check_hall_bound(g, bound, cert._replace(parts=tuple(loose)))
    one_less = cert.overfull[:-1]  # the ranges then fit their interval
    assert not check_hall_bound(g, bound, cert._replace(overfull=one_less))
    # the right count of parts, but their ranges stick out of the interval
    a, b = cert.interval
    for shift in (-1, 1):
        assert not check_hall_bound(g, bound, cert._replace(interval=(a + shift, b + shift)))
    # one vertex per listed part inside the interval suffices: on this P_4
    # vertex 2 of part (0, 2) has its range at [-1, -1], outside [1, 1]
    p4 = Graph(4, [(0, 1), (0, 3), (1, 2)])
    assert oracle_exists_labeling(p4, 1) is None
    assert check_hall_bound(p4, 2, HallCertificate(((0, 2), (1,)), (1, 1), (0, 1)))
    # still over-filled, but a certificate lists exactly b - a + 2 parts
    one_more = tuple(range(len(cert.overfull) + 1))
    assert len(one_more) <= len(parts)
    assert not check_hall_bound(g, bound, cert._replace(overfull=one_more))
    # each index once, and each naming a part
    assert not check_hall_bound(g, bound, cert._replace(overfull=cert.overfull + cert.overfull[:1]))
    assert not check_hall_bound(g, bound, cert._replace(overfull=cert.overfull[:-1] + (len(parts),)))
    # parts are disjoint and nonempty.  Two different parts that share a vertex
    # fail the join test too, so the overlap only the count catches is a vertex
    # set listed twice; unchecked, it and an empty part prove K_3 needs 4
    # labels and K_1 needs 2
    assert not check_hall_bound(g, bound, cert._replace(parts=tuple(parts + [parts[0]])))
    triple = HallCertificate(((0,), (1,), (2,), (0,)), (-1, 1), (0, 1, 2, 3))
    assert not check_hall_bound(complete_graph(3), 4, triple)
    assert not check_hall_bound(complete_graph(1), 2, HallCertificate(((0,), ()), (-1, -1), (0, 1)))
    # an inverted interval has a negative count of values, which no parts
    # at all would exceed
    inverted = cert._replace(interval=(5, 3), overfull=())
    assert not check_hall_bound(g, bound, inverted)
    assert not check_hall_bound(g, 100, HallCertificate((), (5, 3), ()))
    # malformed certificates are rejected, not raised on
    floats = cert._replace(overfull=tuple(map(float, cert.overfull)))
    assert not check_hall_bound(g, bound, floats)
    assert not check_hall_bound(g, bound, cert._replace(interval=(1,)))
    assert not check_hall_bound(g, bound, cert._replace(parts=None))
    assert not check_hall_bound(g, bound, cert._replace(overfull=None))
    assert not check_hall_bound(g, bound, cert._replace(parts=(parts[0], 7) + tuple(parts[2:])))
    assert not check_hall_bound(g, bound, cert._replace(parts=(parts[0], [[0]]) + tuple(parts[2:])))
    assert not check_hall_bound(g, bound, None)
    assert not check_hall_bound(g, bound, cert[:2])
    # a certificate is a tuple: a plain one with the same values passes too
    assert check_hall_bound(g, bound, tuple(cert))
    # bools compare like ints, but a bound or a vertex must be an int
    assert check_hall_bound(complete_graph(1), 1, HallCertificate(((0,),), None, ()))
    assert not check_hall_bound(complete_graph(1), True, HallCertificate(((0,),), None, ()))
    assert not check_hall_bound(complete_graph(1), 1, HallCertificate(((False,),), None, ()))
