"""d-lucky labelings: graph families, explicit optimal labelings, clique
lower bounds, and an exact brute-force solver for small instances."""

from .graph import (
    Graph,
    bfs_order,
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
from .labeling import (
    ConflictReport,
    Labeling,
    d_lucky_sum,
    d_lucky_sums,
    max_label,
    verify,
)
from .bounds import (
    CliqueRecord,
    enumerate_maximal_cliques,
    enumerate_maximum_cliques,
    lower_bound_cor2,
    lower_bound_thm1,
    lower_bound_thm1_witness,
)
from .families import (
    ConstructionError,
    LabeledFamily,
    build_cocktail,
    build_corona,
    build_web,
    descending_sum_tuple,
    family_dsum_table,
)
from .solver import (
    SolveResult,
    exact_eta,
    exists_labeling,
    solver_backend,
)
from .serialize import (
    graph_from_json,
    graph_to_json,
    labeling_from_json,
    labeling_to_json,
)
from .dot import to_dot

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "bfs_order",
    "cartesian_product",
    "complement",
    "complete_graph",
    "complete_multipartite",
    "corona",
    "cycle_graph",
    "is_connected",
    "path_graph",
    "subdivide_edges",
    "ConflictReport",
    "Labeling",
    "d_lucky_sum",
    "d_lucky_sums",
    "max_label",
    "verify",
    "CliqueRecord",
    "enumerate_maximal_cliques",
    "enumerate_maximum_cliques",
    "lower_bound_cor2",
    "lower_bound_thm1",
    "lower_bound_thm1_witness",
    "ConstructionError",
    "LabeledFamily",
    "build_cocktail",
    "build_corona",
    "build_web",
    "descending_sum_tuple",
    "family_dsum_table",
    "SolveResult",
    "exact_eta",
    "exists_labeling",
    "solver_backend",
    "graph_from_json",
    "graph_to_json",
    "labeling_from_json",
    "labeling_to_json",
    "to_dot",
]
