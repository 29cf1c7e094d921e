#!/usr/bin/env python3
"""Time and memory of building, sealing and serializing the family graphs.

Run from the root of a source checkout::

    PYTHONPATH=src python3 benchmarks/bench_build.py

and it writes ``benchmarks/BENCH_19.json``.  The graphs are the six of the
benchmark's families-large workload.  For each it records the vertex and
edge counts and the reference seconds (``record.py``), each the median of
``REPEATS`` calls, of: the family builder (build and seal),
:class:`dlucky.Graph` on the final edge list (sorted already, the sort's
best case; the builders hand it a few sorted runs), :func:`dlucky.verify` of
the family's labeling, the graph's JSON round trip, and the decode alone
(:func:`dlucky.graph_from_json` on the canonical text, with the garbage
collected before each call, outside the timed region).  It checks that the
constructor and the round trip give the graph back.

Memory is read with :mod:`tracemalloc` in separate, untimed calls: the MB
the family holds after its builder returns and the peak MB during the
build; the bytes per edge that :class:`dlucky.Graph` allocates on that
edge list above what the finished graph holds (its transient peak); and
the number of distinct int objects among the edge endpoints (at best one
per vertex); and the same held and peak MB and distinct endpoint ints for
the graph that the decode returns.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from pathlib import Path

import dlucky
from record import UNIT, timed, write

OUT = Path(__file__).resolve().parent / "BENCH_19.json"
REPEATS = 3
GRAPHS = [
    ("web", (5, 200)), ("web", (20, 100)), ("corona", (500, 3)),
    ("cocktail", (5, 100, 5)), ("cocktail", (2, 16, 1)), ("corona", (1000, 3)),
]


def traced(fn, *args):
    """Traced bytes ``(held, peak)`` of ``fn(*args)``: held while its result is alive, and at its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841  (alive while the memory is read)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def endpoint_ints(g):
    return len({id(x) for edge in g.edges for x in edge})


def round_trip(g):
    return dlucky.graph_from_json(dlucky.graph_to_json(g))


def measure(family: str, params: tuple) -> dict:
    what = f"{family}{params}".replace(" ", "")
    fam, build_s = timed(REPEATS, getattr(dlucky, f"build_{family}"), *params)
    g = fam.graph
    edges = list(g.edges)
    built, graph_s = timed(REPEATS, dlucky.Graph, g.n, edges)
    if built != g:
        raise AssertionError(f"{what}: the constructor changed the graph")
    report, verify_s = timed(REPEATS, dlucky.verify, g, fam.labeling)
    if report.conflicts:
        raise AssertionError(f"{what}: the family labeling has conflicts")
    back, json_s = timed(REPEATS, round_trip, g)
    if (back.n, back.edges, back.tags) != (g.n, g.edges, g.tags):
        raise AssertionError(f"{what}: the JSON round trip changed the graph")
    text = dlucky.graph_to_json(g)
    # the decode allocates about twice the graph's size per call: collect the
    # previous calls' garbage first, so that no call pays for another's
    decoded, decode_s = timed(REPEATS, dlucky.graph_from_json, text, before=gc.collect)
    if decoded != g or decoded.tags != g.tags:
        raise AssertionError(f"{what}: the decode changed the graph")
    build_held, build_peak = traced(getattr(dlucky, f"build_{family}"), *params)
    graph_held, graph_peak = traced(dlucky.Graph, g.n, edges)
    decode_held, decode_peak = traced(dlucky.graph_from_json, text)
    return {
        "graph": what,
        "vertices": g.n,
        "edges": g.edge_count,
        "build_s": round(build_s, 6),
        "graph_s": round(graph_s, 6),
        "verify_s": round(verify_s, 6),
        "json_round_trip_s": round(json_s, 6),
        "decode_s": round(decode_s, 6),
        "build_held_mb": round(build_held / 2**20, 2),
        "build_peak_mb": round(build_peak / 2**20, 2),
        "graph_transient_bytes_per_edge": round((graph_peak - graph_held) / g.edge_count, 2),
        "endpoint_ints": endpoint_ints(g),
        "decode_held_mb": round(decode_held / 2**20, 2),
        "decode_peak_mb": round(decode_peak / 2**20, 2),
        "decode_endpoint_ints": endpoint_ints(decoded),
    }


def main() -> int:
    rows = []
    for family, params in GRAPHS:
        row = measure(family, params)
        print(json.dumps(row), flush=True)
        rows.append(row)
    result = {
        "what": "family build and seal, Graph on the final edge list, verify, the graph JSON "
                "round trip and its decode alone; the memory of the build and of the decoded "
                "graph, Graph's transient memory, and the distinct endpoint ints of the built "
                "and the decoded graph",
        "command": "PYTHONPATH=src python3 benchmarks/bench_build.py",
        "seconds": f"{UNIT}; each the median of {REPEATS} calls",
        "memory": "tracemalloc, one untimed call each: MB the family holds after the "
                  "build and its peak during it, the same for the decode of the canonical "
                  "text; Graph's peak above what it holds, per edge",
        "graphs": rows,
    }
    write(OUT, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
