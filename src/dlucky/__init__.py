"""d-lucky labelings: graph families, explicit optimal labelings, clique
lower bounds, and an exact brute-force solver for small instances.

``import dlucky`` imports no submodule.  Each public name is imported from
its home module on first access (PEP 562), and so is each submodule
(``dlucky.solver``, ``dlucky.parts``, ...).  Python compiles a module on
every fresh import when bytecode is not cached, so a process pays only for
the modules it uses: ``dlucky verify`` never compiles the solver.
"""

__version__ = "0.1.0"

# home module -> the public names it defines, in the order of ``__all__``
_EXPORTS = {
    "graph": (
        "Graph", "bfs_order", "cartesian_product", "complement", "complete_graph",
        "complete_multipartite", "corona", "cycle_graph", "is_connected", "path_graph",
        "subdivide_edges",
    ),
    "labeling": (
        "ConflictReport", "Labeling", "d_lucky_sum", "d_lucky_sums", "max_label", "verify",
        "ConstructionError",
    ),
    "bounds": (
        "CliqueRecord", "enumerate_maximal_cliques", "enumerate_maximum_cliques",
        "lower_bound_cor2", "lower_bound_thm1", "lower_bound_thm1_witness",
    ),
    "families": (
        "LabeledFamily", "build_cocktail", "build_corona", "build_web", "descending_sum_tuple",
        "family_dsum_table",
    ),
    "solver": ("SolveResult", "exact_eta", "exists_labeling", "solver_backend"),
    "serialize": ("graph_from_json", "graph_to_json", "labeling_from_json", "labeling_to_json"),
    "dot": ("to_dot",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "_search", "cli", "parts"})

__all__ = list(_HOME)


def _submodule(name: str):
    # the import statement's own path, unlike importlib's, so -X importtime lists it;
    # importing a submodule binds it in this namespace
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
