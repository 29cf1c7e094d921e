"""Independent checkers for the benchmark: every answer the program gives is
compared with a value computed here from the definitions, never with a call
into ``dlucky``.

* :func:`check_witness` -- d-sums from the definition: labels lie in 1..k and
  no edge joins two vertices with the same ``deg(u) + sum of neighbor labels``.
* :func:`has_labeling` / :func:`check_minimal` -- brute force over every
  labeling into 1..k.
* :func:`thm1_networkx` -- Theorem 1 from the maximal cliques that
  ``networkx.find_cliques`` lists.
* The paper's closed forms for the d-lucky numbers, vertex counts and edge
  counts of the families.

``python3 perfbench/checks.py`` runs :func:`self_test` and
:func:`workloads.self_test`, which show that each checker, and each
workload's check of one output, rejects a wrong answer; every benchmark run
runs both too.
"""

from __future__ import annotations

import itertools


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def expect(got, want, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got!r}, want {want!r}")


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# --- d-sums from the definition -------------------------------------------

def neighbor_lists(n: int, edges) -> list[list[int]]:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def d_sums(n: int, edges, labels) -> list[int]:
    """``deg(u) + sum of l(w) over the neighbors w of u``: each edge adds 1 + l(other end)."""
    sums = [0] * n
    for u, v in edges:
        sums[u] += 1 + labels[v]
        sums[v] += 1 + labels[u]
    return sums


def check_witness(n: int, edges, labels, k: int, what: str) -> list[int]:
    """Raise unless ``labels`` is a d-lucky labeling into 1..k; return the d-sums."""
    labels = list(labels)
    expect(len(labels), n, f"{what}: labeling length")
    for v, x in enumerate(labels):
        if not 1 <= x <= k:
            raise CheckError(f"{what}: label {x} of vertex {v} outside 1..{k}")
    sums = d_sums(n, edges, labels)
    for u, v in edges:
        if sums[u] == sums[v]:
            raise CheckError(f"{what}: edge ({u}, {v}) joins two vertices of d-sum {sums[u]}")
    return sums


# --- brute force -------------------------------------------------------------

def has_labeling(n: int, edges, k: int):
    """First d-lucky labeling into 1..k in plain lexicographic order, or None."""
    nbrs = neighbor_lists(n, edges)
    degs = [len(ws) for ws in nbrs]
    for labels in itertools.product(range(1, k + 1), repeat=n):
        sums = [degs[u] + sum(labels[w] for w in nbrs[u]) for u in range(n)]
        if all(sums[u] != sums[v] for u, v in edges):
            return labels
    return None


def check_minimal(n: int, edges, eta: int, what: str) -> None:
    """Raise if some d-lucky labeling uses labels 1..eta-1 only."""
    if eta > 1:
        found = has_labeling(n, edges, eta - 1)
        if found is not None:
            raise CheckError(f"{what}: eta {eta} is not minimal, {list(found)} uses 1..{eta - 1}")


# --- Theorem 1 from networkx ---------------------------------------------------

def thm1_networkx(n: int, edges) -> int:
    """max over maximum cliques Q of ceil((2 delta - Delta + 1) / (Delta - omega + 2)), at least 1."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    cliques = list(nx.find_cliques(g))
    omega = max(len(q) for q in cliques)
    best = 1
    for q in cliques:
        if len(q) == omega:
            degs = [g.degree(v) for v in q]
            lo, hi = min(degs), max(degs)
            best = max(best, ceil_div(2 * lo - hi + 1, hi - omega + 2))
    return best


def thm1_regular_clique(omega: int, degree: int) -> int:
    """Theorem 1 when every maximum-clique vertex has the same degree."""
    return max(1, ceil_div(degree + 1, degree - omega + 2))


# --- the paper's closed forms --------------------------------------------------

def eta_complete(n: int) -> int:
    return n


def eta_corona(n: int, r: int) -> int:
    return ceil_div(n + r, r + 1)


def eta_web(m: int, n: int) -> int:
    return ceil_div(n + 1, 2)


def eta_cocktail(n: int, t: int, r: int) -> int:
    return ceil_div(t + n + r - 1, n + r)


def size_corona(n: int, r: int) -> tuple[int, int]:
    """(vertices, edges) of K_n with r pendants per vertex."""
    return n * (1 + r), n * (n - 1) // 2 + n * r


def size_web(m: int, n: int) -> tuple[int, int]:
    """(vertices, edges): cylinder P_m x C_n plus K_n, matching and cycle edges subdivided."""
    return 2 * m * n + 2 * n, 2 * m * n + (m - 1) * n + n * (n - 1) // 2 + 2 * n


def size_cocktail(n: int, t: int, r: int) -> tuple[int, int]:
    """(vertices, edges) of the complete t-partite graph K_{n,...,n} with r pendants per vertex."""
    return n * t * (1 + r), n * n * t * (t - 1) // 2 + n * t * r


def bound_cocktail(n: int, t: int, r: int) -> int:
    """Theorem 1: the maximum cliques take one vertex per part, each of degree n(t-1)+r."""
    return thm1_regular_clique(t, n * (t - 1) + r)


# --- graphs built here, numbered as the package documents -------------------

def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def with_pendants(n_core: int, core_edges, r: int) -> tuple[int, list[tuple[int, int]]]:
    """Core vertices 0..n_core-1, then r pendants per core vertex in core order."""
    edges = list(core_edges)
    for v in range(n_core):
        base = n_core + v * r
        edges.extend((v, base + j) for j in range(r))
    return n_core * (1 + r), edges


def corona_edges(n: int, r: int):
    return with_pendants(n, complete_edges(n), r)


def cocktail_edges(n: int, t: int, r: int):
    core = [
        (j * n + x, jj * n + y)
        for j in range(t) for jj in range(j + 1, t) for x in range(n) for y in range(n)
    ]
    return with_pendants(n * t, core, r)


def prism_edges(n: int) -> tuple[int, list[tuple[int, int]]]:
    """C_n x K_2: vertex (a, x) is a*n + x, a in {0, 1}, x in Z_n."""
    edges = []
    for a in range(2):
        for x in range(n):
            y = (x + 1) % n
            edges.append((a * n + min(x, y), a * n + max(x, y)))
    edges.extend((x, n + x) for x in range(n))
    return 2 * n, edges


# --- self test ------------------------------------------------------------------

def rejects(fn, *args) -> bool:
    """True when ``fn(*args)`` raises CheckError."""
    try:
        fn(*args)
    except CheckError:
        return True
    return False


def smallest_labeling(n: int, edges) -> tuple[int, list[int]]:
    """(eta, first labeling into 1..eta) by brute force."""
    for k in range(1, n + 2):
        found = has_labeling(n, edges, k)
        if found is not None:
            return k, list(found)
    raise CheckError(f"no labeling into 1..{n + 1}")


def conflicting(n: int, edges, labels, k: int) -> list[int]:
    """``labels`` with one label changed, within 1..k, so that some edge conflicts."""
    for v, x in itertools.product(range(n), range(1, k + 1)):
        trial = labels[:v] + [x] + labels[v + 1:]
        sums = d_sums(n, edges, trial)
        if any(sums[a] == sums[b] for a, b in edges):
            return trial
    raise CheckError("no single change of a label makes an edge conflict")


K4_PENDANT = (5, complete_edges(4) + [(0, 4)])  # maximum clique {0,1,2,3} of degrees 4, 3, 3, 3


def self_test() -> None:
    """Each checker accepts the right answer and rejects a wrong one.

    The workloads' own checks, which combine these, are tested with wrong
    answers by :func:`workloads.self_test`.
    """
    cases = [
        ("K_4", 4, complete_edges(4), eta_complete(4)),
        ("corona(3,1)", *corona_edges(3, 1), eta_corona(3, 1)),
        ("cocktail(2,3,1)", *cocktail_edges(2, 3, 1), eta_cocktail(2, 3, 1)),
        ("prism(5)", *prism_edges(5), None),
    ]
    for name, n, edges, closed in cases:
        eta, witness = smallest_labeling(n, edges)
        if closed is not None:
            expect(eta, closed, f"self-test {name}: brute force against closed form")
        check_witness(n, edges, witness, eta, name)
        check_minimal(n, edges, eta, name)
        if not rejects(check_witness, n, edges, conflicting(n, edges, witness, eta), eta, name):
            raise CheckError(f"self-test {name}: a conflicting witness was accepted")
        # eta one too high: a labeling into 1..eta exists, so eta+1 is not minimal
        if not rejects(check_minimal, n, edges, eta + 1, name):
            raise CheckError(f"self-test {name}: eta + 1 passed the minimality check")
        # eta one too low: the witness uses the label eta
        if eta > 1 and not rejects(check_witness, n, edges, witness, eta - 1, name):
            raise CheckError(f"self-test {name}: eta - 1 passed the witness check")
    # Theorem 1 by hand: K_4 with a pendant on vertex 0 has delta 3, Delta 4 and
    # omega 4 on its one maximum clique, so ceil((2*3 - 4 + 1) / (4 - 4 + 2)) = 2
    expect(thm1_networkx(*K4_PENDANT), 2, "self-test thm1 K_4 with a pendant")
    expect(thm1_networkx(4, complete_edges(4)), 4, "self-test thm1 K_4")  # ceil(4 / 1)
    expect(thm1_networkx(*corona_edges(5, 2)), eta_corona(5, 2), "self-test thm1 corona(5,2)")
    expect(thm1_networkx(*cocktail_edges(2, 4, 1)), bound_cocktail(2, 4, 1), "self-test thm1 cocktail(2,4,1)")
    for n, r in [(3, 1), (4, 2)]:
        n_v, edges = corona_edges(n, r)
        expect((n_v, len(edges)), size_corona(n, r), f"self-test size corona({n},{r})")
    n_v, edges = cocktail_edges(2, 3, 2)
    expect((n_v, len(edges)), size_cocktail(2, 3, 2), "self-test size cocktail(2,3,2)")


if __name__ == "__main__":
    import workloads

    self_test()
    workloads.self_test()
    print("checkers reject every wrong answer they were given")
