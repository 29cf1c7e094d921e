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

from typing import NamedTuple

# The builders call only ``Graph`` and ``_ceil_div``.  The operators stay imported
# because the benchmark's tracer (perfbench/spans.py) wraps them as attributes of
# this module.
from .graph import (  # noqa: F401
    Graph,
    _ceil_div,
    cartesian_product,
    complement,
    complete_graph,
    complete_multipartite,
    corona,
    cycle_graph,
    path_graph,
    subdivide_edges,
)
from .labeling import ConstructionError, Labeling, max_label, verify


class LabeledFamily(NamedTuple):
    """A family instance: graph, verified labeling, and its claimed optimum.

    ``role_index`` maps family roles (clique, pendant blocks, layers, parts)
    to the vertex indices playing them, in a deterministic order.
    """

    graph: Graph
    labeling: Labeling
    claimed_eta: int
    role_index: dict[str, tuple[int, ...]]


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


def _seal(graph, labels, k, role_index, what: str) -> LabeledFamily:
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
    return LabeledFamily(graph=graph, labeling=labeling, claimed_eta=k, role_index=role_index)


def _pendant_corona(n: int, t: int, r: int) -> tuple[int, list[int], list[tuple[int, int]]]:
    """Budget k, labels and sorted edges for t parts of size n with r pendants per vertex.

    The graph is ``corona(complete_multipartite(n, t), complement(
    complete_graph(r)))``: core part j at j*n..(j+1)*n-1, then the pendant
    blocks of size r per core vertex in core order.  Core vertex u is joined
    to every vertex of the later parts and to its pendants nt + u*r ..
    nt + (u+1)*r - 1; both runs ascend, so the edges come out sorted.  A
    corona K_n o rK_1 is the case of singleton parts, ``(1, n, r)``.

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
    edges = []
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
        later = range((j + 1) * n, nt)
        for u in range(j * n, (j + 1) * n):
            edges += [(u, v) for v in later]
            edges += [(u, p) for p in range(nt + u * r, nt + (u + 1) * r)]
    return k, labels, edges


def build_corona(n: int, r: int) -> LabeledFamily:
    """Complete graph on n vertices with r pendants each, labeled optimally.

    Numbering: clique vertices 0..n-1, then pendant blocks of size r per
    clique vertex in order.  The labeling is the pendant scheme of
    ``_pendant_corona`` with n singleton parts, k = ceil((n+r)/(r+1)): clique
    sums come out consecutive, so adjacent vertices never collide.
    """
    if n < 2:
        raise ValueError(f"corona family requires clique size n >= 2, got n={n}")
    if r < 1:
        raise ValueError(f"corona family requires r >= 1 pendants, got r={r}")
    k, labels, edges = _pendant_corona(1, n, r)
    graph = Graph(n + n * r, edges, tags=["clique"] * n + ["pendant"] * (n * r))
    role_index = {"clique": tuple(range(n))}
    for i in range(n):
        role_index[f"pendants_{i + 1}"] = tuple(range(n + i * r, n + (i + 1) * r))
    return _seal(graph, labels, k, role_index, f"corona({n},{r})")


def _web_layer_label(a: int, m: int) -> int:
    # proper 2-coloring of the cylinder layers seeded at the top layer:
    # top gets 1 for odd m and 2 for even m, so the bottom layer is always 1
    base = 1 if m % 2 == 1 else 2
    return base if a % 2 == 0 else 3 - base


def build_web(m: int, n: int) -> LabeledFamily:
    """Web graph on a cylinder of depth m over an n-cycle, labeled optimally.

    Construction and numbering: cylinder vertices (a, x) = a*n + x for layers
    a = 0..m-1 (layer 0 is the top), each (a, x) joined to (a+1, x); the
    n-clique occupies m*n..m*n+n-1; vertex u_x = m*n + n + x subdivides the
    matching edge from top-layer vertex x to clique vertex x.  Every cycle
    edge of every layer is subdivided too: the i-th edge of layer a, in the
    sorted order (0,1), (0,n-1), (1,2), ..., (n-2,n-1) of the n-cycle, goes
    through vertex m*n + 2*n + a*n + i.  Total 2*m*n + 2*n vertices.

    Labeling with k = ceil((n+1)/2): the clique plus the u-vertices induce a
    one-pendant corona labeled by the corona scheme, ``_pendant_corona(1, n,
    1)``; cylinder layers take the alternating 2-coloring seeded at the top
    (1 for odd m, 2 for even m) with cycle-subdivision vertices opposite
    their layer; three targeted top-layer relabels to 3 remove the only
    colliding edge families:

    * odd m:  w_{k+7} <- 3 when k+7 <= n,
    * even m: w_5 <- 3 when 5 <= k, and w_{k+3} <- 3 when k+3 <= n.
    """
    if m < 3:
        raise ValueError(f"web family requires m >= 3, got m={m}")
    if n < 5:
        raise ValueError(f"web family requires n >= 5, got n={n}")
    mn = m * n
    sub_base = mn + 2 * n
    labels = [0] * (sub_base + mn)
    k, labels[mn:sub_base], corona_edges = _pendant_corona(1, n, 1)

    edges = [(x, mn + n + x) for x in range(n)]
    edges += [(v, v + n) for v in range(mn - n)]
    cycle = [(0, 1), (0, n - 1)] + [(x, x + 1) for x in range(1, n - 1)]
    for a in range(m):
        base, w = a * n, sub_base + a * n
        for i, (x, y) in enumerate(cycle):
            edges += ((base + x, w + i), (base + y, w + i))
    edges += [(mn + u, mn + v) for u, v in corona_edges]

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
    g = Graph(len(labels), edges, tags=tags)

    role_index = {
        "clique": tuple(range(mn, mn + n)),
        "match_subdivision": tuple(range(mn + n, sub_base)),
        "top_layer": tuple(range(n)),
    }
    for a in range(1, m):
        role_index[f"layer_{a}"] = tuple(range(a * n, (a + 1) * n))
    role_index["cycle_subdivision"] = tuple(range(sub_base, g.n))
    return _seal(g, labels, k, role_index, f"web({m},{n})")


def build_cocktail(n: int, t: int, r: int) -> LabeledFamily:
    """Complete t-partite graph (parts of size n) with r pendants per vertex.

    Numbering: core part j occupies j*n..(j+1)*n-1 (part-major), followed by
    pendant blocks of size r per core vertex in core order, so the pendants
    of part j are n*t + j*n*r .. n*t + (j+1)*n*r - 1.  The labeling is the
    pendant scheme of ``_pendant_corona``, k = ceil((t+n+r-1)/(n+r)).
    """
    if n < 1 or r < 1:
        raise ValueError(f"cocktail family requires n >= 1 and r >= 1, got n={n}, r={r}")
    if t < 2:
        raise ValueError(f"cocktail family requires t >= 2 parts, got t={t}")
    k, labels, edges = _pendant_corona(n, t, r)
    nt, block = n * t, n * r

    tags = [f"part:{j + 1}" for j in range(t) for _ in range(n)]
    tags += ["pendant"] * (nt * r)
    graph = Graph(nt + nt * r, edges, tags=tags)
    role_index = {f"part_{j + 1}": tuple(range(j * n, (j + 1) * n)) for j in range(t)}
    for j in range(t):
        role_index[f"part_{j + 1}_pendants"] = tuple(
            range(nt + j * block, nt + (j + 1) * block)
        )
    return _seal(graph, labels, k, role_index, f"cocktail({n},{t},{r})")


def family_dsum_table(family: LabeledFamily) -> list[tuple[str, int, int]]:
    """Rows (role, vertex, d-sum) in role_index order, for sum-table printing."""
    from .labeling import d_lucky_sums

    sums = d_lucky_sums(family.graph, family.labeling)
    rows = []
    for role, vertices in family.role_index.items():
        for v in vertices:
            rows.append((role, v, sums[v]))
    return rows
