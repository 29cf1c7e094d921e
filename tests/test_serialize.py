import json

import pytest
from hypothesis import given, settings, strategies as st

from dlucky import (
    Graph,
    Labeling,
    build_cocktail,
    build_corona,
    build_web,
    graph_from_json,
    graph_to_json,
    labeling_from_json,
    labeling_to_json,
    to_dot,
)


def test_graph_round_trip():
    g = Graph(4, [(2, 0), (1, 3), (0, 1)], tags=["a", "b", "c", "d"])
    back = graph_from_json(graph_to_json(g))
    assert back == g
    assert back.tags == g.tags


def test_graph_canonical_bytes_are_frozen():
    g = Graph(3, [(2, 1), (0, 2)])
    assert graph_to_json(g) == '{"edges":[[0,2],[1,2]],"n":3}\n'
    tagged = g.with_tags(["x", "y", "z"])
    assert (
        graph_to_json(tagged)
        == '{"edges":[[0,2],[1,2]],"n":3,"tags":["x","y","z"]}\n'
    )


def test_graph_serialization_is_deterministic():
    fam = build_corona(5, 4)
    assert graph_to_json(fam.graph) == graph_to_json(fam.graph)


def test_graph_from_json_validates():
    with pytest.raises(ValueError):
        graph_from_json("not json")
    with pytest.raises(ValueError):
        graph_from_json("[1,2]")
    with pytest.raises(ValueError):
        graph_from_json('{"n":"three","edges":[]}')
    with pytest.raises(ValueError):
        graph_from_json('{"n":2,"edges":[[0,1,2]]}')
    with pytest.raises(ValueError):
        graph_from_json('{"n":2,"edges":[[0,2]]}')  # endpoint out of range
    with pytest.raises(ValueError):
        graph_from_json('{"n":2,"edges":[],"weird":1}')
    with pytest.raises(ValueError):
        graph_from_json('{"n":2,"edges":[],"tags":["only-one"]}')
    for edges in ("[[true,1]]", "[[0,1.0]]", '["01"]', '[{"a":1}]', '[{"a":1,"b":2}]',
                  "[5]", "[null]", "[[0,1,2]]"):
        with pytest.raises(ValueError, match="invalid graph file: bad edge entry"):
            graph_from_json('{"n":2,"edges":%s}' % edges)


def test_graph_file_errors_carry_the_file_prefix():
    cases = [
        ('{"n":-1,"edges":[]}', r"'n' must be a nonnegative integer"),
        ('{"n":true,"edges":[]}', r"'n' must be a nonnegative integer"),
        ('{"n":2,"edges":[],"tags":["a"]}', r"'tags' must be a list of n strings"),
        ('{"n":2,"edges":[],"tags":[1,2]}', r"'tags' must be a list of n strings"),
        ('{"n":2,"edges":[[0,2]]}', r"bad edge entry: edge \(0, 2\) out of range for 2 vertices"),
        ('{"n":2,"edges":[[1,1]]}', r"bad edge entry: self-loop at vertex 1"),
        ('{"n":2,"edges":[5]}', r"bad edge entry: edge entry 5 is not a pair"),
        # the first bad entry is named, whatever the kind of its fault
        ('{"n":2,"edges":[[0,2],[0]]}', r"bad edge entry: edge \(0, 2\) out of range"),
        ('{"n":%s,"edges":[]}' % ("1" * 5000), r"Exceeds the limit"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=r"^invalid graph file: " + message):
            graph_from_json(text)


def old_rule_accepts(entry):
    """The per-edge rule that graph_from_json once applied before Graph's checks."""
    return type(entry) is list and len(entry) == 2 and all(type(x) is int for x in entry)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-1, 4), min_size=2, max_size=2) | json_values, max_size=4))
def test_graph_from_json_accepts_the_edge_entries_of_the_old_rule(edges):
    text = json.dumps({"n": 4, "edges": edges})
    shaped = all(map(old_rule_accepts, edges))
    in_range = shaped and all(0 <= x < 4 for e in edges for x in e) and all(u != v for u, v in edges)
    try:
        g = graph_from_json(text)
    except ValueError as exc:
        assert not in_range
        assert str(exc).startswith("invalid graph file: bad edge entry: ")
    else:
        assert in_range
        assert g == Graph(4, [tuple(e) for e in edges])


def test_graph_to_json_writes_the_bytes_of_edge_lists():
    for fam in (build_web(3, 6), build_cocktail(2, 3, 1)):
        g = fam.graph
        old_form = {"n": g.n, "edges": [[u, v] for u, v in g.edges], "tags": list(g.tags)}
        assert graph_to_json(g) == json.dumps(old_form, sort_keys=True, separators=(",", ":")) + "\n"


def test_labeling_round_trip_and_bytes():
    lab = Labeling([2, 1, 3], k_max=4)
    text = labeling_to_json(lab)
    assert text == '{"k":4,"labels":[2,1,3]}\n'
    back = labeling_from_json(text)
    assert back == lab


def test_labeling_defaults_budget_to_max():
    back = labeling_from_json('{"labels":[1,3,2]}')
    assert back.k_max == 3


def test_labeling_from_json_validates():
    with pytest.raises(ValueError):
        labeling_from_json('{"labels":"abc"}')
    with pytest.raises(ValueError):
        labeling_from_json('{"labels":[0]}')
    with pytest.raises(ValueError):
        labeling_from_json('{"labels":[1],"extra":true}')
    # Labeling takes True as 1; a labeling file may not
    cases = [
        ('{"labels":[true,2]}', r"'labels' must be a list of integers"),
        ('{"labels":[1],"k":false}', r"'k' must be an integer"),
        ('{"labels":[0]}', r"labels must be positive integers, got 0"),
        ('{"labels":[1,3],"k":2}', r"label 3 exceeds declared budget k_max=2"),
        ('{"labels":[1],"k":0}', r"label budget k_max must be >= 1"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=r"^invalid labeling file: " + message + "$"):
            labeling_from_json(text)


def test_deeply_nested_files_are_invalid_not_a_crash():
    deep = "[" * 100000
    with pytest.raises(ValueError, match="invalid graph file"):
        graph_from_json(deep)
    with pytest.raises(ValueError, match="invalid labeling file"):
        labeling_from_json(deep)


def test_dot_plain_and_annotated():
    g = Graph(2, [(0, 1)], tags=["clique", "pendant"])
    plain = to_dot(g)
    assert plain.startswith("graph G {")
    assert '  v0 [role="clique"];' in plain
    assert "  v0 -- v1;" in plain

    annotated = to_dot(g, Labeling([1, 2]))
    assert '  v0 [label="1", dsum="3", role="clique"];' in annotated
    assert '  v1 [label="2", dsum="2", role="pendant"];' in annotated


def test_dot_escapes_quotes_and_backslashes_in_roles():
    g = Graph(2, [(0, 1)], tags=['a"b', "c\\d"])
    out = to_dot(g)
    assert '  v0 [role="a\\"b"];' in out
    assert '  v1 [role="c\\\\d"];' in out


def test_dot_without_tags_or_labels():
    g = Graph(2, [(0, 1)])
    out = to_dot(g)
    assert "  v0;" in out and "  v1;" in out
