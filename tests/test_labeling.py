import random

import pytest

from dlucky import (
    Graph,
    Labeling,
    complete_graph,
    cycle_graph,
    d_lucky_sum,
    d_lucky_sums,
    max_label,
    verify,
)
from conftest import oracle_d_sum, oracle_is_d_lucky, random_graph


def test_labeling_validation():
    with pytest.raises(ValueError):
        Labeling([0, 1])
    with pytest.raises(ValueError):
        Labeling([1, 2], k_max=1)
    with pytest.raises(ValueError):
        Labeling([1], k_max=0)
    lab = Labeling([1, 2], k_max=5)  # budget may exceed the max used label
    assert lab.k_max == 5
    assert Labeling([3, 1]).k_max == 3
    # labels are never rounded or parsed: the first non-integer is named
    with pytest.raises(ValueError, match=r"^labels must be integers, got 2\.5$"):
        Labeling([1, 2.5, 1.0])
    with pytest.raises(ValueError, match=r"^labels must be integers, got '3'$"):
        Labeling(iter(["3", 1]))
    with pytest.raises(ValueError, match=r"^labels must be integers, got 2\.0$"):
        Labeling([2.0])
    assert Labeling([True, 2]).labels == (1, 2)


def test_labeling_names_the_first_bad_label():
    with pytest.raises(ValueError, match=r"^labels must be positive integers, got 0$"):
        Labeling([2, 0, -1])
    with pytest.raises(ValueError, match=r"^label 4 exceeds declared budget k_max=3$"):
        Labeling([1, 4, 2], k_max=3)
    assert Labeling([], k_max=2).k_max == 2 and Labeling([]).k_max == 1


def test_d_lucky_sum_k2():
    g = complete_graph(2)
    lab = Labeling([1, 1])
    assert d_lucky_sum(g, lab, 0) == 2
    assert d_lucky_sum(g, lab, 1) == 2


def test_d_lucky_sum_isolated_vertex_is_zero():
    g = Graph(2)
    assert d_lucky_sum(g, Labeling([7, 9]), 0) == 0


def test_d_lucky_sum_c4_derived():
    g = cycle_graph(4)
    lab = Labeling([1, 2, 1, 2])
    # hand evaluation of the definition, cross-checked by the naive oracle
    assert oracle_d_sum(g, lab.labels, 0) == 6
    assert d_lucky_sum(g, lab, 0) == 6


def test_d_lucky_sum_rejects_bad_vertex_and_partial_labeling():
    g = complete_graph(3)
    with pytest.raises(IndexError):
        d_lucky_sum(g, Labeling([1, 1, 1]), 3)
    with pytest.raises(ValueError):
        d_lucky_sum(g, Labeling([1, 1]), 0)


def test_verify_k2_conflict_and_success():
    g = complete_graph(2)
    report = verify(g, Labeling([1, 1]))
    assert report.conflicts == (((0, 1), 2),)
    assert not report.is_d_lucky
    report = verify(g, Labeling([1, 2]))
    assert report.conflicts == ()
    assert report.is_d_lucky
    assert report.d_sums == (3, 2)


def test_verify_rejects_length_mismatch():
    with pytest.raises(ValueError):
        verify(complete_graph(3), Labeling([1, 1]))


def test_verify_reports_sums_even_on_success():
    g = cycle_graph(4)
    report = verify(g, Labeling([1, 1, 2, 1]))
    assert len(report.d_sums) == 4


def test_verify_matches_definition_on_random_inputs():
    rng = random.Random(101)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        lab = Labeling([rng.randint(1, 4) for _ in range(g.n)], k_max=4)
        report = verify(g, lab)
        assert report.is_d_lucky == oracle_is_d_lucky(g, lab.labels)
        for u in range(g.n):
            assert report.d_sums[u] == oracle_d_sum(g, lab.labels, u)
        for (u, v), s in report.conflicts:
            assert g.has_edge(u, v)
            assert report.d_sums[u] == report.d_sums[v] == s


def test_conflict_count_invariant_under_relabeling():
    rng = random.Random(103)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        labels = [rng.randint(1, 3) for _ in range(g.n)]
        perm = list(range(g.n))
        rng.shuffle(perm)
        mapped = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        mapped_labels = [0] * g.n
        for v in range(g.n):
            mapped_labels[perm[v]] = labels[v]
        before = len(verify(g, Labeling(labels, k_max=3)).conflicts)
        after = len(verify(mapped, Labeling(mapped_labels, k_max=3)).conflicts)
        assert before == after


def test_adding_isolated_vertex_preserves_sums():
    rng = random.Random(107)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        labels = [rng.randint(1, 3) for _ in range(g.n)]
        bigger = Graph(g.n + 1, g.edges)
        old = d_lucky_sums(g, Labeling(labels, k_max=3))
        new = d_lucky_sums(bigger, Labeling(labels + [2], k_max=3))
        assert new[: g.n] == old
        assert new[g.n] == 0


def test_max_label():
    assert max_label(Labeling([1, 1, 1])) == 1
    assert max_label(Labeling([2, 5, 1], k_max=9)) == 5
    with pytest.raises(ValueError):
        max_label(Labeling([], k_max=1))
