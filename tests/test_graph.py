import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from dlucky import (
    Graph,
    cartesian_product,
    complement,
    complete_graph,
    complete_multipartite,
    corona,
    cycle_graph,
    is_connected,
    path_graph,
    subdivide_edges,
)
from conftest import random_graph


def test_graph_rejects_self_loops_and_bad_endpoints():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_normalizes_and_deduplicates():
    g = Graph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.neighbors(0) == (1, 2)
    assert g.degree(0) == 2 and g.degree(1) == 1


def reference_graph(n, edges):
    """``(edges, adjacency)`` by the plain definition: a set of normalized pairs, sorted."""
    pairs = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(pairs), tuple(map(tuple, adj))


@st.composite
def edge_lists(draw):
    """A vertex count and an edge list with repeats, either orientation, in any order."""
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=60))
    edges += draw(st.lists(st.sampled_from(edges), max_size=20)) if edges else []
    order = draw(st.sampled_from(["drawn", "sorted", "runs", "shuffled"]))
    if order == "sorted":
        edges.sort()
    elif order == "runs":  # sorted runs of ordered pairs, as the builders emit them
        cut = draw(st.integers(0, len(edges)))
        edges = [tuple(sorted(e)) for e in edges]
        edges = sorted(edges[:cut]) + sorted(edges[cut:])
    elif order == "shuffled":
        edges = draw(st.permutations(edges))
    as_lists = draw(st.booleans())  # graph files hand over lists, builders tuples
    return n, [list(e) for e in edges] if as_lists else edges


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge_lists())
def test_graph_matches_the_set_and_sort_definition(case):
    n, edges = case
    g = Graph(n, edges)
    assert (g.edges, g._adj) == reference_graph(n, edges)
    assert all(type(e) is tuple for e in g.edges)


def test_graph_keeps_one_live_copy_of_its_arrays():
    # about 400k presorted ordered pairs of shared ints, as the family builders hand over:
    # beyond what the graph keeps, only the sort's list (one pointer per edge) may be live
    n = 895
    ids = list(range(n))
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    gc.collect()
    tracemalloc.start()
    try:
        g = Graph(n, edges)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count == len(edges) == 400_065
    assert all(a is b for a, b in zip(g.edges, edges))  # the ordered input tuples are kept
    assert (peak - held) / len(edges) <= 12.0


def test_graph_reports_the_first_bad_edge_in_input_order():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph(4, [(1, 0), (2, 2), (0, 9), (3, 3)])
    with pytest.raises(ValueError, match=r"^edge \(5, 0\) out of range for 4 vertices$"):
        Graph(4, [(0, 1), (5, 0), (3, 3), (0, -1)])
    with pytest.raises(ValueError, match=r"^edge \(0, -1\) out of range for 4 vertices$"):
        Graph(4, [[3, 2], [0, -1], [1, 1]])
    # bools and floats compare like ints, so they would pass the checks above
    with pytest.raises(ValueError, match=r"^edge \(0, True\) has an endpoint that is not an int$"):
        Graph(3, [(0, True), (1, 2)])
    with pytest.raises(ValueError, match=r"^edge \(0, 1\.5\) has an endpoint that is not an int$"):
        Graph(3, [(0, 1.5)])
    with pytest.raises(ValueError, match=r"^edge \(2\.0, 2\.0\) has an endpoint that is not an int$"):
        Graph(4, [(0, 1), (2.0, 2.0), (3, 3)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 3$"):
        Graph(4, [(0, 1), (3, 3), (False, 2)])


def test_graph_names_an_entry_that_is_not_a_pair():
    with pytest.raises(ValueError, match=r"^edge entry 5 is not a pair$"):
        Graph(2, [5])
    with pytest.raises(ValueError, match=r"^edge entry None is not a pair$"):
        Graph(2, [(0, 1), None, (0, 9)])
    with pytest.raises(ValueError, match=r"^edge entry \[0, 1, 2\] is not a pair$"):
        Graph(3, [[0, 1, 2], (1, 1)])
    with pytest.raises(ValueError, match=r"^edge entry \(1,\) is not a pair$"):
        Graph(3, [(1,)])
    # a two-character string unpacks, and its characters are not ints
    with pytest.raises(ValueError, match=r"^edge \('0', '1'\) has an endpoint that is not an int$"):
        Graph(2, ["01"])


def test_graph_requires_an_exact_nonnegative_int_vertex_count():
    # Graph(True, []) used to keep n=True, which graph_to_json wrote as "n":true
    for n in (True, 2.5, None, "3", -1):
        with pytest.raises(ValueError, match=r"^vertex count must be a nonnegative int, got "):
            Graph(n, [])
    with pytest.raises(ValueError, match=r"^vertex count must be a nonnegative int, got 2\.0$"):
        Graph(2.0, [(0, 1)])
    assert Graph(0).n == 0 and Graph(2, []).edge_count == 0


def test_adjacency_is_symmetric():
    rng = random.Random(7)
    g = random_graph(rng, 9, 0.4)
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_out_of_range_vertex_rejected():
    g = complete_graph(3)
    with pytest.raises(IndexError):
        g.degree(3)
    with pytest.raises(IndexError):
        g.neighbors(-1)


def test_complete_graph():
    assert complete_graph(1).n == 1 and complete_graph(1).edge_count == 0
    assert complete_graph(3).edge_count == 3
    g = complete_graph(5)
    assert g.edge_count == 10
    assert all(g.degree(u) == 4 for u in range(5))
    with pytest.raises(ValueError):
        complete_graph(0)


def test_path_and_cycle():
    assert path_graph(2).edges == ((0, 1),)
    assert path_graph(1).edge_count == 0
    assert cycle_graph(3).edge_count == 3
    c6 = cycle_graph(6)
    assert c6.edge_count == 6
    assert all(c6.degree(u) == 2 for u in range(6))
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_complement_small_cases():
    assert complement(complete_graph(3)).edge_count == 0
    assert complement(Graph(4)) == complete_graph(4)


def test_complement_is_involution():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        assert complement(complement(g)) == g


def test_complement_of_a_dense_graph_is_its_non_edges():
    g = complete_multipartite(4, 5).with_tags(map(str, range(20)))
    c = complement(g)
    assert c.edges == tuple(
        (u, v) for u in range(20) for v in range(u + 1, 20) if u // 4 == v // 4
    )
    assert c.tags == g.tags and complement(c) == g


def test_cartesian_product_square():
    g = cartesian_product(path_graph(2), path_graph(2))
    # a 4-cycle, numbered row-major: 0-1, 0-2, 1-3, 2-3
    assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert all(g.degree(u) == 2 for u in range(4)) and is_connected(g)


def test_cartesian_product_p3_c6():
    g = cartesian_product(path_graph(3), cycle_graph(6))
    assert g.n == 18
    degs = [g.degree(u) for u in range(18)]
    # exactly the two boundary cycle layers (12 vertices) have degree 3
    assert degs[:6] == [3] * 6 and degs[12:] == [3] * 6
    assert degs[6:12] == [4] * 6


def test_cartesian_product_edge_count_identity():
    for m in (1, 2, 4):
        for n in (3, 5, 7):
            g = cartesian_product(path_graph(m), cycle_graph(n))
            assert g.edge_count == n * (m - 1) + m * n


def test_cartesian_product_degree_additivity():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        h = random_graph(rng, rng.randint(1, 6), 0.5)
        prod = cartesian_product(g, h)
        for a in range(g.n):
            for x in range(h.n):
                assert prod.degree(a * h.n + x) == g.degree(a) + h.degree(x)


def test_corona_clique_with_pendant_sets():
    g = corona(complete_graph(5), complement(complete_graph(4)))
    assert g.n == 25
    assert all(g.degree(u) == 8 for u in range(5))
    # pendant block of clique vertex i sits at 5 + 4*i .. 5 + 4*i + 3
    assert g.neighbors(5) == (0,)
    assert g.neighbors(5 + 4) == (1,)


def test_corona_single_edge():
    assert corona(complete_graph(1), complete_graph(1)).edges == ((0, 1),)


def test_corona_counts():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        h = random_graph(rng, rng.randint(0, 5), 0.5)
        c = corona(g, h)
        assert c.n == g.n * (1 + h.n)
        assert c.edge_count == g.edge_count + g.n * (h.edge_count + h.n)


def test_complete_multipartite():
    assert complete_multipartite(1, 4) == complete_graph(4)
    assert complete_multipartite(3, 1).edge_count == 0
    g = complete_multipartite(3, 8)
    assert g.n == 24
    assert all(g.degree(u) == 21 for u in range(24))
    # part-major numbering: no edges inside a part
    assert not g.has_edge(0, 1) and g.has_edge(0, 3)
    # edges exactly between different parts, by the definition
    for n, t in [(1, 3), (2, 2), (2, 5), (3, 4), (4, 3)]:
        defined = [
            (u, v) for u in range(n * t) for v in range(u + 1, n * t) if u // n != v // n
        ]
        assert complete_multipartite(n, t).edges == tuple(defined)


def test_subdivide_one_edge_of_triangle_gives_c4():
    g = subdivide_edges(complete_graph(3), [(0, 1)])
    assert g.n == 4 and g.edge_count == 4
    assert sorted(g.degree(u) for u in range(4)) == [2, 2, 2, 2]
    assert g.neighbors(3) == (0, 1)


def test_subdivide_all_edges_of_k2_gives_p3():
    g = subdivide_edges(complete_graph(2), [(0, 1)])
    assert g.n == 3 and g.edges == ((0, 2), (1, 2))


def test_subdivide_nothing_is_identity():
    g = cycle_graph(5)
    assert subdivide_edges(g, []) == g


def test_subdivide_rejects_non_edges():
    with pytest.raises(ValueError):
        subdivide_edges(path_graph(3), [(0, 2)])


def test_subdivide_counts_and_degrees():
    rng = random.Random(19)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        if not g.edges:
            continue
        chosen = [e for e in g.edges if rng.random() < 0.5]
        s = subdivide_edges(g, chosen)
        assert s.n == g.n + len(chosen)
        assert s.edge_count == g.edge_count + len(chosen)
        assert all(s.degree(w) == 2 for w in range(g.n, s.n))


def test_handshake_identity():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 10), 0.5)
        assert sum(g.degree(u) for u in range(g.n)) == 2 * g.edge_count


def test_isolated_vertex_neighbors():
    g = Graph(3, [(0, 1)])
    assert g.degree(2) == 0 and g.neighbors(2) == ()


def test_tags_length_checked_and_ignored_by_equality():
    g = path_graph(2)
    with pytest.raises(ValueError):
        g.with_tags(["a"])
    tagged = g.with_tags(["a", "b"])
    assert tagged.tags == ("a", "b")
    assert tagged == g


def test_with_tags_keeps_the_graph_and_leaves_the_original_untagged():
    g = Graph(4, [(2, 1), (0, 3), (1, 0)])
    tagged = g.with_tags([1, "b", "c", "d"])
    assert tagged.tags == ("1", "b", "c", "d") and g.tags is None
    assert tagged.n == 4 and tagged.edges == ((0, 1), (0, 3), (1, 2))
    assert [tagged.neighbors(u) for u in range(4)] == [g.neighbors(u) for u in range(4)]
    assert tagged.with_tags(None).tags is None
    for wrong in (["a", "b", "c"], ["a", "b", "c", "d", "e"]):
        with pytest.raises(ValueError, match="tags length"):
            tagged.with_tags(wrong)


def test_is_connected():
    assert is_connected(path_graph(4))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert not is_connected(Graph(5, [(0, 1), (2, 3)]))
