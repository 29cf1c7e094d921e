"""Backtracking kernel for the labeling search."""

from __future__ import annotations


def search(k, steps):
    """Depth-first search for a conflict-free labeling into 1..k.

    ``steps[d]`` is ``(v, neighbors of v, checks)``: the vertex placed at depth
    ``d`` and the edges ``(u, w)`` whose two endpoint sums are final once it
    is placed.  Labels are tried in increasing order, so the first labeling
    found is the lexicographically smallest in step order.  The loop is
    iterative: the depth reaches the vertex count, which ``vertex_cap`` lets
    callers raise past the recursion limit.  Returns
    ``(labels, nodes)``: the witness indexed by vertex, or None when no
    labeling exists, and the number of label placements attempted.
    """
    n = len(steps)
    sums = [0] * n  # d-lucky sums: degree plus the labels placed on neighbors
    for v, nbrs, _ in steps:
        sums[v] = len(nbrs)
    labels = [0] * n
    nodes = 0
    depth = 0
    start = 1
    while True:
        v, nbrs, checks = steps[depth]
        for ell in range(start, k + 1):
            nodes += 1
            for w in nbrs:
                sums[w] += ell
            for u, w in checks:
                if sums[u] == sums[w]:
                    break
            else:  # no conflict: keep ell and go deeper
                labels[v] = ell
                break
            for w in nbrs:
                sums[w] -= ell
        else:  # every label conflicts: undo the previous depth's label
            if depth == 0:
                return None, nodes
            depth -= 1
            v, nbrs, _ = steps[depth]
            ell = labels[v]
            for w in nbrs:
                sums[w] -= ell
            start = ell + 1
            continue
        if depth == n - 1:
            return labels, nodes
        depth += 1
        start = 1
