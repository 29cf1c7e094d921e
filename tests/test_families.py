import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from dlucky import (
    ConstructionError,
    Graph,
    build_cocktail,
    build_corona,
    build_web,
    cartesian_product,
    complete_graph,
    complete_multipartite,
    complement,
    corona,
    cycle_graph,
    descending_sum_tuple,
    exact_eta,
    family_dsum_table,
    graph_to_json,
    labeling_to_json,
    lower_bound_thm1,
    max_label,
    path_graph,
    subdivide_edges,
    verify,
)
from dlucky.families import _seal
from conftest import oracle_eta


def eta_corona(n, r):
    return -((-(n + r)) // (r + 1))


def eta_web(n):
    return -((-(n + 1)) // 2)


def eta_cocktail(n, t, r):
    return -((-(t + n + r - 1)) // (n + r))


# ---------------------------------------------------------------- tuples


def test_sum_tuple_spans_full_range_and_is_sorted():
    for k in (1, 2, 3, 5):
        for length in (1, 2, 4):
            for total in range(length, k * length + 1):
                tup = descending_sum_tuple(total, length, k)
                assert sum(tup) == total
                assert len(tup) == length
                assert all(1 <= x <= k for x in tup)
                assert list(tup) == sorted(tup, reverse=True)


def test_sum_tuple_walk_moves_one_coordinate_at_a_time():
    for k in (2, 3, 4):
        for length in (2, 3, 5):
            prev = descending_sum_tuple(length, length, k)
            for total in range(length + 1, k * length + 1):
                cur = descending_sum_tuple(total, length, k)
                assert sum(a != b for a, b in zip(prev, cur)) == 1
                prev = cur


def test_sum_tuple_rejects_unreachable_sums():
    with pytest.raises(ValueError):
        descending_sum_tuple(1, 2, 3)
    with pytest.raises(ValueError):
        descending_sum_tuple(7, 2, 3)


# ---------------------------------------------------------------- corona


def test_corona_figure_instances():
    fam = build_corona(5, 4)
    assert fam.claimed_eta == 2
    assert fam.graph.n == 25
    assert verify(fam.graph, fam.labeling).is_d_lucky
    assert max_label(fam.labeling) == 2

    fam = build_corona(11, 1)
    assert fam.claimed_eta == 6
    assert max_label(fam.labeling) == 6


def test_corona_smallest_instance_exact_by_oracle():
    fam = build_corona(2, 1)
    assert fam.claimed_eta == 2
    assert oracle_eta(fam.graph, 3) == 2
    assert exact_eta(fam.graph, max_k=2).eta == 2


def test_corona_handles_head_exceeding_clique():
    # here ceil((n+r)/(r+1))*r - r + 1 > n, so every clique vertex stays at 1
    fam = build_corona(6, 3)
    assert fam.claimed_eta == 3
    assert all(fam.labeling[v] == 1 for v in fam.role_index["clique"])


def test_corona_clique_sums_distinct():
    fam = build_corona(5, 4)
    clique_sums = [s for role, v, s in family_dsum_table(fam) if role == "clique"]
    assert len(set(clique_sums)) == 5


def test_corona_label_budget_invariant():
    for n in range(2, 13):
        for r in range(1, 6):
            fam = build_corona(n, r)
            k = fam.claimed_eta
            head = min(k * r - r + 1, n)
            if n > head:
                assert n - head + 1 <= k


def test_corona_matches_clique_lower_bound():
    for n in range(2, 10):
        for r in range(1, 5):
            fam = build_corona(n, r)
            assert lower_bound_thm1(fam.graph) == fam.claimed_eta


def test_corona_pendant_sums_follow_the_walk():
    fam = build_corona(7, 2)
    k = fam.claimed_eta
    head = min(k * 2 - 2 + 1, 7)
    for i in range(head):
        block = fam.role_index[f"pendants_{i + 1}"]
        assert sum(fam.labeling[v] for v in block) == 2 + i


def test_corona_rejects_bad_params():
    with pytest.raises(ValueError, match="n >= 2"):
        build_corona(1, 3)
    with pytest.raises(ValueError, match="r >= 1"):
        build_corona(4, 0)


# ---------------------------------------------------------------- web


def test_web_figure_instances():
    fam = build_web(3, 6)
    assert fam.claimed_eta == 4
    assert fam.graph.n == 48
    assert verify(fam.graph, fam.labeling).is_d_lucky

    fam = build_web(4, 6)
    assert fam.claimed_eta == 4
    assert fam.graph.n == 60


def test_web_exactness_without_search():
    fam = build_web(3, 5)
    assert fam.claimed_eta == 3
    assert lower_bound_thm1(fam.graph) == 3


def test_web_counts():
    for m, n in [(3, 6), (5, 9), (6, 16)]:
        fam = build_web(m, n)
        assert fam.graph.n == 2 * m * n + 2 * n
        expected_edges = n * (m - 1) + 2 * m * n + n * (n - 1) // 2 + 2 * n
        assert fam.graph.edge_count == expected_edges


def test_web_numbering_and_roles():
    m, n = 3, 6
    fam = build_web(m, n)
    g = fam.graph
    assert fam.role_index["top_layer"] == tuple(range(n))
    assert fam.role_index["clique"] == tuple(range(m * n, m * n + n))
    assert fam.role_index["match_subdivision"] == tuple(
        range(m * n + n, m * n + 2 * n)
    )
    # u_x sits between top-layer vertex x and clique vertex x
    for x in range(n):
        u = m * n + n + x
        assert g.neighbors(u) == (x, m * n + x)
    # all roles together cover every vertex exactly once
    covered = [v for verts in fam.role_index.values() for v in verts]
    assert sorted(covered) == list(range(g.n))


def test_web_clique_sums_consecutive_from_13_for_3_6():
    # recomputed by hand from the emitted labeling of the (3, 6) instance
    fam = build_web(3, 6)
    sums = sorted(s for role, v, s in family_dsum_table(fam) if role == "clique")
    assert sums == list(range(13, 19))


def test_web_relabeled_vertices_stay_in_budget():
    # instances on both sides of every top-layer patch threshold
    for m, n in [(3, 7), (3, 14), (3, 15), (3, 16), (4, 6), (4, 7), (4, 8), (4, 15), (6, 16), (5, 15)]:
        fam = build_web(m, n)
        assert fam.claimed_eta == eta_web(n)
        assert max_label(fam.labeling) == eta_web(n)
        assert verify(fam.graph, fam.labeling).is_d_lucky


def test_web_rejects_bad_params():
    with pytest.raises(ValueError, match="m >= 3"):
        build_web(2, 6)
    with pytest.raises(ValueError, match="n >= 5"):
        build_web(3, 4)


# ---------------------------------------------------------------- cocktail


def test_cocktail_figure_instance():
    fam = build_cocktail(3, 8, 4)
    assert fam.claimed_eta == 2
    assert fam.graph.n == 120
    assert verify(fam.graph, fam.labeling).is_d_lucky
    assert max_label(fam.labeling) == 2


def test_cocktail_1_2_1_is_p4():
    fam = build_cocktail(1, 2, 1)
    assert fam.claimed_eta == 2
    # cores 0-1 joined, pendants 2 and 3 hang off them: that is a 4-path
    assert fam.graph.edges == ((0, 1), (0, 2), (1, 3))
    assert oracle_eta(path_graph(4), 3) == 2
    assert exact_eta(fam.graph, max_k=2).eta == 2


def test_cocktail_rejects_single_part():
    with pytest.raises(ValueError, match="t >= 2"):
        build_cocktail(3, 1, 2)
    with pytest.raises(ValueError):
        build_cocktail(0, 3, 1)
    with pytest.raises(ValueError):
        build_cocktail(2, 3, 0)


def test_cocktail_group_walk_overflow_instance():
    # part size exceeds the head length here, so uniform core labels cannot
    # realize enough distinct part sums; the builder spills into core labels
    fam = build_cocktail(3, 5, 1)
    assert fam.claimed_eta == 2
    core_label_sets = {
        tuple(fam.labeling[v] for v in fam.role_index[f"part_{j + 1}"])
        for j in range(5)
    }
    assert any(len(set(t)) > 1 for t in core_label_sets)


def test_cocktail_part_sums_consecutive_even_with_residual_group():
    for n, t, r in [(2, 4, 2), (3, 5, 1), (3, 8, 4), (2, 7, 1), (1, 9, 3)]:
        fam = build_cocktail(n, t, r)
        reps = []
        for j in range(t):
            part = fam.role_index[f"part_{j + 1}"]
            sums = {
                s for role, v, s in family_dsum_table(fam)
                if role == f"part_{j + 1}"
            }
            assert len(sums) == 1  # all vertices of a part share one sum
            reps.append(sums.pop())
        reps.sort()
        assert reps == list(range(reps[0], reps[0] + t))


def test_cocktail_pendant_tuples_identical_within_part():
    fam = build_cocktail(2, 5, 3)
    r = 3
    for j in range(5):
        part = fam.role_index[f"part_{j + 1}"]
        pend = fam.role_index[f"part_{j + 1}_pendants"]
        tuples = {
            tuple(fam.labeling[p] for p in pend[i * r : (i + 1) * r])
            for i in range(len(part))
        }
        assert len(tuples) == 1


def test_cocktail_with_singleton_parts_matches_corona():
    for t, r in [(5, 1), (7, 2), (4, 3)]:
        a = build_cocktail(1, t, r)
        b = build_corona(t, r)
        assert a.graph == b.graph
        assert a.labeling.labels == b.labeling.labels
        assert a.claimed_eta == b.claimed_eta


def test_web_clique_and_match_labels_are_the_one_pendant_corona():
    for m, n in [(3, 5), (4, 6), (3, 9), (6, 16)]:
        web = build_web(m, n)
        pendant = build_cocktail(1, n, 1)
        assert web.claimed_eta == pendant.claimed_eta
        assert web.labeling.labels[m * n : m * n + 2 * n] == pendant.labeling.labels


def test_cocktail_solver_confirms_small_instances():
    for n, t, r in [(1, 3, 1), (2, 2, 1), (1, 4, 2), (3, 2, 1)]:
        fam = build_cocktail(n, t, r)
        assert fam.graph.n <= 16
        assert exact_eta(fam.graph, max_k=fam.claimed_eta).eta == fam.claimed_eta


# ---------------------------------------------------------------- shared


def test_builders_always_return_verified_families():
    fams = [build_corona(4, 2), build_web(3, 5), build_cocktail(2, 3, 2)]
    for fam in fams:
        report = verify(fam.graph, fam.labeling)
        assert report.is_d_lucky
        assert max_label(fam.labeling) == fam.claimed_eta
        assert fam.labeling.k_max == fam.claimed_eta


def test_dsum_table_rows_match_roles():
    fam = build_corona(3, 2)
    rows = family_dsum_table(fam)
    assert {role for role, _, _ in rows} == set(fam.role_index)
    assert len(rows) == fam.graph.n


def test_corona_graph_matches_plain_operators():
    # the builders emit their own edge lists; the graph.py operators are the reference
    for n, t, r in [(1, 2, 1), (1, 4, 3), (1, 9, 1), (2, 3, 1), (2, 6, 1), (2, 9, 1),
                    (3, 5, 1), (3, 8, 1), (3, 10, 2), (4, 5, 1), (3, 8, 4)]:
        pendant_corona = corona(complete_multipartite(n, t), complement(complete_graph(r)))
        assert build_cocktail(n, t, r).graph == pendant_corona
        if n == 1:
            assert build_corona(t, r).graph == pendant_corona
    for m in (3, 4, 5):
        for n in range(5, 13):
            cylinder = cartesian_product(path_graph(m), cycle_graph(n))
            mn = m * n
            clique = [(mn + u, mn + v) for u, v in complete_graph(n).edges]
            matching = [(x, mn + x) for x in range(n)]
            g = Graph(mn + n, list(cylinder.edges) + clique + matching)
            g = subdivide_edges(g, matching)
            g = subdivide_edges(g, [(u, v) for u, v in cylinder.edges if u // n == v // n])
            assert build_web(m, n).graph == g


def _degrees(g):
    return [g.degree(v) for v in range(g.n)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 80), st.integers(1, 6))
@example(80, 6)
def test_corona_counts_and_degrees_at_larger_parameters(n, r):
    g = build_corona(n, r).graph
    assert (g.n, g.edge_count) == (n + n * r, n * (n - 1) // 2 + n * r)
    assert _degrees(g) == [n - 1 + r] * n + [1] * (n * r)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(3, 8), st.integers(5, 60))
@example(8, 60)
def test_web_counts_and_degrees_at_larger_parameters(m, n):
    g = build_web(m, n).graph
    mn = m * n
    assert (g.n, g.edge_count) == (2 * mn + 2 * n, 3 * mn + n + n * (n - 1) // 2)
    # a cylinder vertex sees two cycle subdivisions, the layer below (none for the
    # bottom layer) and the layer above, or u_x for the top layer
    layers = [4] * (mn - n) + [3] * n
    assert _degrees(g) == layers + [n] * n + [2] * n + [2] * mn


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(2, 30), st.integers(1, 5))
@example(5, 30, 5)
def test_cocktail_counts_and_degrees_at_larger_parameters(n, t, r):
    g = build_cocktail(n, t, r).graph
    nt = n * t
    assert (g.n, g.edge_count) == (nt + nt * r, n * n * t * (t - 1) // 2 + nt * r)
    assert _degrees(g) == [n * (t - 1) + r] * nt + [1] * (nt * r)


def test_seal_raises_construction_error_with_the_report():
    triangle = complete_graph(3)
    # all labels equal on K_3: every edge joins two vertices of d-sum 4
    with pytest.raises(ConstructionError, match="3 conflicting edge") as exc:
        _seal(triangle, [1, 1, 1], 1, {}, "triangle")
    assert len(exc.value.report.conflicts) == 3
    # d-lucky with labels 1, 2, 3 but claimed with budget 4
    with pytest.raises(ConstructionError, match="max label 3, expected 4") as exc:
        _seal(triangle, [1, 2, 3], 4, {}, "triangle")
    assert exc.value.report.is_d_lucky


# instances on both sides of the corona head, the web patch thresholds, and
# the cocktail residual group and spill; the digest pins every byte of their
# graph JSON (tags included), labeling JSON and role order
GOLDEN_GRID = [
    (build_corona, (2, 1)), (build_corona, (5, 4)), (build_corona, (6, 3)),
    (build_corona, (7, 2)), (build_corona, (11, 1)),
    (build_web, (3, 5)), (build_web, (3, 6)), (build_web, (4, 6)),
    (build_web, (4, 15)), (build_web, (3, 16)),
    (build_cocktail, (1, 2, 1)), (build_cocktail, (2, 3, 2)), (build_cocktail, (3, 5, 1)),
    (build_cocktail, (2, 6, 1)), (build_cocktail, (2, 7, 1)), (build_cocktail, (3, 8, 1)),
    (build_cocktail, (3, 8, 4)),
]
GOLDEN_SHA256 = "996a40325fa9b13002de23b93eff7aef08e1f99f90275fbb9e3c40edefd57391"


def test_family_output_is_byte_stable():
    digest = hashlib.sha256()
    for build, args in GOLDEN_GRID:
        fam = build(*args)
        digest.update(graph_to_json(fam.graph).encode())
        digest.update(labeling_to_json(fam.labeling).encode())
        digest.update(repr(fam.role_index).encode())
    assert digest.hexdigest() == GOLDEN_SHA256
