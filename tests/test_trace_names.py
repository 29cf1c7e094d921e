"""The package names that the benchmark's tracer wraps stay in place.

``perfbench/spans.py`` records its spans by replacing module attributes of
``dlucky`` (the solver's layers, the kernel's ``search``, the clique and
bound routines, the graph operators the builders call, serialization and
DOT).  Dropping or renaming one of them breaks every traced run, so this
test wraps them all, checks the list, and puts the originals back.
"""

import sys
from pathlib import Path

import dlucky

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

WRAPPED = {
    "dlucky.solver": {"exact_eta", "_prepare", "_clique_refutes", "enumerate_maximal_cliques"},
    "dlucky._search": {"search"},
    "dlucky.bounds": {"lower_bound_thm1", "enumerate_maximum_cliques"},
    "dlucky.labeling": {"verify"},
    "dlucky.families": {
        "verify", "build_web", "build_corona", "build_cocktail", "subdivide_edges",
        *spans.GENERATORS,
    },
    "dlucky.serialize": {"graph_to_json", "labeling_to_json", "graph_from_json", "labeling_from_json"},
    "dlucky.dot": {"to_dot"},
}


def test_tracer_wraps_every_name_and_restores_it():
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, dlucky)
        wrapped = list(tracer._undo)
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in wrapped)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in wrapped)
    names = {}
    for owner, attr, _ in wrapped:
        names.setdefault(owner.__name__, set()).add(attr)
    assert names == WRAPPED
    assert len(wrapped) == 26
