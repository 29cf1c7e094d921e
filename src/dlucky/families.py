"""Builders for the three graph families and their explicit d-lucky labelings.

Each builder returns the family graph together with a labeling that attains
the family's closed-form optimum.  The labelings are transcribed from prose
constructions, so every builder re-verifies its own output and refuses to
return anything that does not check out: a failed verification here is a
transcription bug, never an expected path.

Vertex numbering is documented per builder so emitted labelings are stable
golden-file material.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (
    Graph,
    cartesian_product,
    complement,
    complete_graph,
    complete_multipartite,
    corona,
    cycle_graph,
    path_graph,
    subdivide_edges,
)
from .bounds import _ceil_div
from .labeling import ConflictReport, Labeling, max_label, verify


class ConstructionError(RuntimeError):
    """A builder produced a labeling that fails verification (a bug trap)."""

    def __init__(self, message: str, report: ConflictReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class CoronaParams:
    """Clique size n >= 2 with r >= 1 pendants per clique vertex."""

    n: int
    r: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"corona family requires clique size n >= 2, got n={self.n}")
        if self.r < 1:
            raise ValueError(f"corona family requires r >= 1 pendants, got r={self.r}")


@dataclass(frozen=True)
class WebParams:
    """Cylinder depth m >= 3 and cycle length n >= 5."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"web family requires m >= 3, got m={self.m}")
        if self.n < 5:
            raise ValueError(f"web family requires n >= 5, got n={self.n}")


@dataclass(frozen=True)
class CocktailParams:
    """Part size n >= 1, part count t >= 2, and r >= 1 pendants per vertex."""

    n: int
    t: int
    r: int

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ValueError(
                f"cocktail family requires n >= 1 and r >= 1, got n={self.n}, r={self.r}"
            )
        if self.t < 2:
            raise ValueError(f"cocktail family requires t >= 2 parts, got t={self.t}")


@dataclass(frozen=True)
class LabeledFamily:
    """A family instance: graph, verified labeling, and its claimed optimum.

    ``role_index`` maps family roles (clique, pendant blocks, layers, parts)
    to the vertex indices playing them, in a deterministic order.
    """

    graph: Graph
    labeling: Labeling
    claimed_eta: int
    role_index: dict[str, tuple[int, ...]] = field(default_factory=dict)
    params: object = None


def descending_sum_tuple(total: int, length: int, k: int) -> tuple[int, ...]:
    """Non-increasing tuple of ``length`` labels in 1..k with the given total.

    Greedy form: as many k's as fit, one middle coordinate, then 1's.  Walking
    ``total`` upward one step at a time changes exactly one coordinate, which
    is the Hamming-distance-1 property the pendant schemes rely on.
    """
    if length < 1 or k < 1:
        raise ValueError("tuple length and label bound must be >= 1")
    excess = total - length
    if excess < 0 or excess > (k - 1) * length:
        raise ValueError(f"sum {total} not reachable with {length} labels in 1..{k}")
    if k == 1:
        return (1,) * length
    q, s = divmod(excess, k - 1)
    if q == length:
        return (k,) * length
    return (k,) * q + (1 + s,) + (1,) * (length - q - 1)


def _seal(graph, labels, k, role_index, params, what: str) -> LabeledFamily:
    labeling = Labeling(labels, k_max=k)
    report = verify(graph, labeling)
    if report.conflicts:
        head = ", ".join(f"{e} -> {s}" for e, s in report.conflicts[:12])
        raise ConstructionError(
            f"{what} labeling failed verification with {len(report.conflicts)} "
            f"conflicting edge(s): {head}",
            report,
        )
    used = max_label(labeling)
    if used != k:
        raise ConstructionError(
            f"{what} labeling uses max label {used}, expected {k}", report
        )
    return LabeledFamily(
        graph=graph,
        labeling=labeling,
        claimed_eta=k,
        role_index=role_index,
        params=params,
    )


def _pendant_labels(n: int, t: int, r: int) -> tuple[int, list[int]]:
    """Budget k and labels for t parts of size n with r pendants per vertex.

    The labels follow the numbering of ``corona(complete_multipartite(n, t),
    complement(complete_graph(r)))``: core part j at j*n..(j+1)*n-1, then the
    pendant blocks of size r per core vertex in core order.  A corona
    K_n o rK_1 is the case of singleton parts, ``(1, n, r)``.

    With k = ceil((t+n+r-1)/(n+r)), the first min(k*r - r + 1, t) parts form
    the head group with core label 1 and pendant-walk sums r, r+1, ...; the
    remaining parts split into full groups of n parts with core label 2, 3,
    ... and a residual group that takes the *top* q steps of its walk so that
    the per-part sums stay consecutive across groups.  Every vertex of a part
    carries the same pendant tuple, keeping part sums equal, and adjacent
    parts never collide.  When a group walk would need a pendant sum above
    k*r (possible for small r), the overflowing parts switch to the all-k
    pendant tuple and absorb the difference in their core labels instead,
    which preserves the part's target sum without leaving the budget.
    """
    k = _ceil_div(t + n + r - 1, n + r)
    nt, block = n * t, n * r
    head = min(k * r - r + 1, t)
    groups, residue = divmod(t - head, n)

    labels = [0] * (nt + nt * r)
    for j in range(t):
        if j < head:
            group_label, walk_sum = 1, r + j
        else:
            gi, h = divmod(j - head, n)
            if gi == groups:  # residual group: top q steps of the walk
                h += n - residue
            group_label, walk_sum = gi + 2, r + h
        if walk_sum <= k * r:
            core = (group_label,) * n
            pendants = descending_sum_tuple(walk_sum, r, k)
        else:
            spill = walk_sum - k * r
            core = descending_sum_tuple(n * group_label - spill, n, k)
            pendants = (k,) * r
        labels[j * n : (j + 1) * n] = core
        labels[nt + j * block : nt + (j + 1) * block] = pendants * n
    return k, labels


def build_corona(n: int, r: int) -> LabeledFamily:
    """Complete graph on n vertices with r pendants each, labeled optimally.

    Numbering: clique vertices 0..n-1, then pendant blocks of size r per
    clique vertex in order.  The labeling is the pendant scheme of
    ``_pendant_labels`` with n singleton parts, k = ceil((n+r)/(r+1)): clique
    sums come out consecutive, so adjacent vertices never collide.
    """
    params = CoronaParams(n, r)
    k, labels = _pendant_labels(1, n, r)
    graph = corona(complete_graph(n), complement(complete_graph(r)))
    graph = graph.with_tags(["clique"] * n + ["pendant"] * (n * r))
    role_index = {"clique": tuple(range(n))}
    for i in range(n):
        role_index[f"pendants_{i + 1}"] = tuple(range(n + i * r, n + (i + 1) * r))
    return _seal(graph, labels, k, role_index, params, f"corona({n},{r})")


def _web_layer_label(a: int, m: int) -> int:
    # proper 2-coloring of the cylinder layers seeded at the top layer:
    # top gets 1 for odd m and 2 for even m, so the bottom layer is always 1
    base = 1 if m % 2 == 1 else 2
    return base if a % 2 == 0 else 3 - base


def build_web(m: int, n: int) -> LabeledFamily:
    """Web graph on a cylinder of depth m over an n-cycle, labeled optimally.

    Construction and numbering: cylinder vertices (a, x) = a*n + x for layers
    a = 0..m-1 (layer 0 is the top); the n-clique occupies m*n..m*n+n-1; a
    matching joins top-layer vertex x to clique vertex x and is subdivided,
    placing vertex u_x at m*n + n + x; finally every cycle edge of the
    cylinder is subdivided, the new vertices appended from m*n + 2*n onward
    in lexicographic order of the replaced edges, which puts layer a's n
    cycle edges at m*n + 2*n + a*n onward.  Total 2*m*n + 2*n vertices.

    Labeling with k = ceil((n+1)/2): the clique plus the u-vertices induce a
    one-pendant corona labeled by the corona scheme, ``_pendant_labels(1, n,
    1)``; cylinder layers take the alternating 2-coloring seeded at the top
    (1 for odd m, 2 for even m) with cycle-subdivision vertices opposite
    their layer; three targeted top-layer relabels to 3 remove the only
    colliding edge families:

    * odd m:  w_{k+7} <- 3 when k+7 <= n,
    * even m: w_5 <- 3 when 5 <= k, and w_{k+3} <- 3 when k+3 <= n.
    """
    params = WebParams(m, n)

    cylinder = cartesian_product(path_graph(m), cycle_graph(n))
    mn = m * n
    union_edges = list(cylinder.edges)
    union_edges += [(mn + i, mn + j) for i in range(n) for j in range(i + 1, n)]
    matching = [(x, mn + x) for x in range(n)]
    union_edges += matching
    g = Graph(mn + n, union_edges)
    g = subdivide_edges(g, matching)  # u_x = mn + n + x
    # the cycle edges are the cylinder edges inside one layer, in sorted order
    g = subdivide_edges(g, [(u, v) for u, v in cylinder.edges if u // n == v // n])
    sub_base = mn + 2 * n

    labels = [0] * g.n
    k, labels[mn:sub_base] = _pendant_labels(1, n, 1)
    for a in range(m):
        layer = _web_layer_label(a, m)
        labels[a * n : (a + 1) * n] = [layer] * n
        labels[sub_base + a * n : sub_base + (a + 1) * n] = [3 - layer] * n
    if m % 2 == 1:
        if k + 7 <= n:
            labels[k + 6] = 3
    else:
        if 5 <= k:
            labels[4] = 3
        if k + 3 <= n:
            labels[k + 2] = 3

    tags = [f"layer:{a}" for a in range(m) for _ in range(n)]
    tags += ["clique"] * n + ["subdivision:match"] * n + ["subdivision:cycle"] * mn
    g = g.with_tags(tags)

    role_index = {
        "clique": tuple(range(mn, mn + n)),
        "match_subdivision": tuple(range(mn + n, sub_base)),
        "top_layer": tuple(range(n)),
    }
    for a in range(1, m):
        role_index[f"layer_{a}"] = tuple(range(a * n, (a + 1) * n))
    role_index["cycle_subdivision"] = tuple(range(sub_base, g.n))
    return _seal(g, labels, k, role_index, params, f"web({m},{n})")


def build_cocktail(n: int, t: int, r: int) -> LabeledFamily:
    """Complete t-partite graph (parts of size n) with r pendants per vertex.

    Numbering: core part j occupies j*n..(j+1)*n-1 (part-major), followed by
    pendant blocks of size r per core vertex in core order, so the pendants
    of part j are n*t + j*n*r .. n*t + (j+1)*n*r - 1.  The labeling is the
    pendant scheme of ``_pendant_labels``, k = ceil((t+n+r-1)/(n+r)).
    """
    params = CocktailParams(n, t, r)
    k, labels = _pendant_labels(n, t, r)
    graph = corona(complete_multipartite(n, t), complement(complete_graph(r)))
    nt, block = n * t, n * r

    tags = [f"part:{j + 1}" for j in range(t) for _ in range(n)]
    tags += ["pendant"] * (nt * r)
    graph = graph.with_tags(tags)
    role_index = {f"part_{j + 1}": tuple(range(j * n, (j + 1) * n)) for j in range(t)}
    for j in range(t):
        role_index[f"part_{j + 1}_pendants"] = tuple(
            range(nt + j * block, nt + (j + 1) * block)
        )
    return _seal(graph, labels, k, role_index, params, f"cocktail({n},{t},{r})")


def family_dsum_table(family: LabeledFamily) -> list[tuple[str, int, int]]:
    """Rows (role, vertex, d-sum) in role_index order, for sum-table printing."""
    from .labeling import d_lucky_sums

    sums = d_lucky_sums(family.graph, family.labeling)
    rows = []
    for role, vertices in family.role_index.items():
        for v in vertices:
            rows.append((role, v, sums[v]))
    return rows
