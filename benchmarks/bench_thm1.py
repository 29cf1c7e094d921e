#!/usr/bin/env python3
"""Theorem 1 by branch and bound, against its definition by listing, and the part bound.

Run from the root of a source checkout::

    PYTHONPATH=src python3 benchmarks/bench_thm1.py

and it writes ``benchmarks/BENCH_28.json`` (``BENCH_7.json`` is the record
from before the part bound was recorded).  The graphs are the six of the
benchmark's families-large workload plus ``cocktail(2,14,1)``.  For each it
records the clique number, the nodes of the two searches of
:mod:`dlucky.bounds` (exact counts, the same on every machine), the
reference seconds (``record.py``) of :func:`dlucky.lower_bound_thm1_witness`
and of the definition by listing (every maximum clique from
:func:`dlucky.enumerate_maximum_cliques`, the first best one in
lexicographic order), each the median of ``REPEATS`` calls, and it checks
that both give the same bound and witness.  The listing
is skipped on ``cocktail(5,100,5)``: no listing of its 5^100 maximum cliques
ends.  It also records the part bound of
:func:`dlucky.parts.lower_bound_hall_witness`, the number of parts and the
interval of its certificate, and its reference seconds, and it raises when
the certificate fails :func:`dlucky.parts.check_hall_bound` or a cocktail
graph's part bound is not the family's claimed optimum.
"""

from __future__ import annotations

import json
from pathlib import Path

import dlucky
from dlucky.bounds import _best_clique, _f, _greedy_clique, _masks, _omega
from dlucky.parts import check_hall_bound, lower_bound_hall_witness
from record import UNIT, timed, write

OUT = Path(__file__).resolve().parent / "BENCH_28.json"
REPEATS = 3
GRAPHS = [
    ("web", (5, 200)), ("web", (20, 100)), ("corona", (500, 3)), ("cocktail", (5, 100, 5)),
    ("cocktail", (2, 16, 1)), ("corona", (1000, 3)), ("cocktail", (2, 14, 1)),
]
UNLISTED = {("cocktail", (5, 100, 5))}


def by_listing(g):
    """Theorem 1 by its definition: the first best of all maximum cliques."""
    records = dlucky.enumerate_maximum_cliques(g)
    omega = len(records[0].vertices)
    best = max(records, key=lambda record: _f(record.delta, record.max_deg, omega))
    return _f(best.delta, best.max_deg, omega), best, len(records)


def measure(family: str, params: tuple) -> dict:
    fam = getattr(dlucky, f"build_{family}")(*params)
    g = fam.graph
    masks, greedy = _masks(g), _greedy_clique(g)
    omega, omega_nodes = _omega(masks, len(greedy))
    _, witness, witness_nodes = _best_clique(masks, omega, greedy)
    (bound, record), search_s = timed(REPEATS, dlucky.lower_bound_thm1_witness, g)
    if list(record.vertices) != witness:
        raise AssertionError(f"{family}{params}: the searches and lower_bound_thm1_witness disagree")
    row = {
        "graph": f"{family}{params}".replace(" ", ""),
        "vertices": g.n,
        "edges": g.edge_count,
        "omega": omega,
        "omega_nodes": omega_nodes,
        "witness_nodes": witness_nodes,
        "bound": bound,
        "witness": {"first": record.vertices[0], "last": record.vertices[-1],
                    "delta": record.delta, "max_deg": record.max_deg},
        "search_s": round(search_s, 6),
        "maximum_cliques": None,
        "listing_s": None,
    }
    (part_bound, cert), part_s = timed(REPEATS, lower_bound_hall_witness, g)
    if not check_hall_bound(g, part_bound, cert):
        raise AssertionError(f"{family}{params}: the part bound's certificate fails check_hall_bound")
    if family == "cocktail" and part_bound != fam.claimed_eta:
        raise AssertionError(f"{family}{params}: part bound {part_bound} != claimed eta {fam.claimed_eta}")
    row.update(part_bound=part_bound, parts=len(cert.parts),
               interval=list(cert.interval) if cert.interval else None, part_s=round(part_s, 6))
    if (family, params) not in UNLISTED:
        (listed_bound, listed, count), listing_s = timed(REPEATS, by_listing, g)
        if (listed_bound, listed) != (bound, record):
            raise AssertionError(f"{family}{params}: search {bound, record} != listing {listed_bound, listed}")
        row.update(maximum_cliques=count, listing_s=round(listing_s, 6))
    return row


def main() -> int:
    rows = []
    for family, params in GRAPHS:
        row = measure(family, params)
        print(json.dumps(row), flush=True)
        rows.append(row)
    result = {
        "what": "Theorem 1's bound and witness by the two branch-and-bound searches of "
                "dlucky.bounds, against the definition by listing every maximum clique; "
                "the part bound of dlucky.parts with its certificate's parts and interval",
        "command": "PYTHONPATH=src python3 benchmarks/bench_thm1.py",
        "seconds": f"{UNIT}; each the median of {REPEATS} calls",
        "graphs": rows,
    }
    write(OUT, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
