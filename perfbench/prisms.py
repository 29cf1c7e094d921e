"""Make the table of d-lucky numbers of the prisms C_n x K_2 anew.

The paper gives no closed form for prisms, so the benchmark checks the
solver's answer on them against this table.  It is computed here without
``dlucky``: an exhaustive count of the d-lucky labelings into 1..k by a
transfer matrix around the cycle, cross-checked against plain enumeration of
every labeling for the smallest n.

Usage: python3 perfbench/prisms.py    (rewrites perfbench/prism_eta.json)
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from checks import d_sums, prism_edges

TABLE = Path(__file__).resolve().parent / "prism_eta.json"
N_RANGE = range(3, 17)
ENUMERATE_UP_TO = 5


def transfer_matrix(k: int) -> np.ndarray:
    """Transitions between windows of three consecutive columns of the prism.

    Column x holds the labels (p, q) of the vertices (0, x) and (1, x).  The
    window (c[x-1], c[x], c[x+1]) fixes both d-sums of column x; moving it to
    (c[x], c[x+1], c[x+2]) is allowed when the rung at x and the two cycle
    edges from x to x+1 join different d-sums.  Every constraint is checked on
    exactly one move, so the d-lucky labelings of the n-prism are the closed
    walks of length n: their number is trace(T^n).
    """
    cols = list(itertools.product(range(1, k + 1), repeat=2))
    kk = len(cols)
    t = np.zeros((kk ** 3, kk ** 3))
    for i0, i1, i2, i3 in itertools.product(range(kk), repeat=4):
        (p0, q0), (p1, q1), (p2, q2), (p3, q3) = cols[i0], cols[i1], cols[i2], cols[i3]
        top, bottom = 3 + q1 + p0 + p2, 3 + p1 + q0 + q2
        top_next, bottom_next = 3 + q2 + p1 + p3, 3 + p2 + q1 + q3
        if top != bottom and top != top_next and bottom != bottom_next:
            t[(i0 * kk + i1) * kk + i2, (i1 * kk + i2) * kk + i3] = 1
    return t


def count_by_transfer(k: int, ns) -> dict[int, int]:
    """Number of d-lucky labelings into 1..k of each prism in ``ns``."""
    # float64 is exact here: every entry is an integer count below k^(2n) <= 2^53
    if k ** (2 * max(ns)) >= 2 ** 53:
        raise ValueError(f"counts for k={k} up to n={max(ns)} would overflow float64")
    t = transfer_matrix(k)
    power = np.linalg.matrix_power(t, min(ns))
    counts = {}
    for n in range(min(ns), max(ns) + 1):
        if n in ns:
            counts[n] = int(round(np.trace(power)))
        power = power @ t
    return counts


def count_by_enumeration(k: int, n: int) -> int:
    nv, edges = prism_edges(n)
    total = 0
    for labels in itertools.product(range(1, k + 1), repeat=nv):
        sums = d_sums(nv, edges, labels)
        total += all(sums[u] != sums[v] for u, v in edges)
    return total


def make_table() -> dict[int, int]:
    eta: dict[int, int] = {}
    k = 1
    while len(eta) < len(N_RANGE):
        todo = [n for n in N_RANGE if n not in eta]
        counts = count_by_transfer(k, todo)
        for n in todo:
            if n <= ENUMERATE_UP_TO and counts[n] != count_by_enumeration(k, n):
                raise AssertionError(f"transfer matrix and enumeration disagree at n={n}, k={k}")
            if counts[n]:
                eta[n] = k
        k += 1
    return eta


def main() -> int:
    start = time.perf_counter()
    eta = make_table()
    elapsed = time.perf_counter() - start
    table = {
        "graph": "cartesian_product(path_graph(2), cycle_graph(n))",
        "method": "exhaustive count of d-lucky labelings into 1..k by transfer matrix, "
        f"checked against plain enumeration for n <= {ENUMERATE_UP_TO}",
        "eta": {str(n): eta[n] for n in N_RANGE},
    }
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(" ".join(f"n={n}:{eta[n]}" for n in N_RANGE))
    print(f"wrote {TABLE.name} in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
