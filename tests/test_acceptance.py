"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check also asserts, so a plain ``pytest`` run is authoritative.
"""

import random
import time

from dlucky import (
    Labeling,
    build_cocktail,
    build_corona,
    build_web,
    cartesian_product,
    complete_graph,
    corona,
    exact_eta,
    exists_labeling,
    family_dsum_table,
    lower_bound_thm1,
    max_label,
    subdivide_edges,
    verify,
)
from conftest import corpus6_facts, oracle_is_d_lucky, random_graph


def _report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {verdict} - {detail} [{elapsed:.2f}s]")
    assert ok, f"criterion {num} failed: {detail}"


def _ceil_div(a, b):
    return -((-a) // b)


def test_criterion_1_corona_grid():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(2, 13):
        for r in range(1, 6):
            fam = build_corona(n, r)
            want = _ceil_div(n + r, r + 1)
            ok &= verify(fam.graph, fam.labeling).is_d_lucky
            ok &= max_label(fam.labeling) == want == fam.claimed_eta
            checked += 1
    ok &= build_corona(5, 4).claimed_eta == 2
    ok &= build_corona(11, 1).claimed_eta == 6
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, ok, f"corona grid, {checked} instances verified exactly", elapsed)


def test_criterion_2_corona_exactness_desk_scale():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(2, 17):
        for r in range(1, 16):
            if n * (1 + r) > 16:
                continue
            fam = build_corona(n, r)
            want = _ceil_div(n + r, r + 1)
            result = exact_eta(fam.graph, max_k=want)
            ok &= result.eta == want
            checked += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(2, ok, f"corona exactness by solver, {checked} instances", elapsed)


def test_criterion_3_web_grid():
    start = time.perf_counter()
    checked = 0
    ok = True
    for m in range(3, 7):
        for n in range(5, 17):
            fam = build_web(m, n)
            want = _ceil_div(n + 1, 2)
            ok &= verify(fam.graph, fam.labeling).is_d_lucky
            ok &= max_label(fam.labeling) == want == fam.claimed_eta
            ok &= lower_bound_thm1(fam.graph) == want
            checked += 1
    ok &= build_web(3, 6).claimed_eta == 4
    ok &= build_web(4, 6).claimed_eta == 4
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(3, ok, f"web grid, {checked} instances certified without search", elapsed)


def test_criterion_4_cocktail_grid():
    start = time.perf_counter()
    checked = solved = 0
    ok = True
    for n in range(1, 4):
        for t in range(2, 11):
            for r in range(1, 5):
                fam = build_cocktail(n, t, r)
                want = _ceil_div(t + n + r - 1, n + r)
                ok &= verify(fam.graph, fam.labeling).is_d_lucky
                ok &= max_label(fam.labeling) == want == fam.claimed_eta
                checked += 1
                if fam.graph.n <= 16:
                    ok &= exact_eta(fam.graph, max_k=want).eta == want
                    solved += 1
    ok &= build_cocktail(3, 8, 4).claimed_eta == 2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(
        4, ok, f"cocktail grid, {checked} verified, {solved} solver-confirmed", elapsed
    )


def test_criterion_5_lower_bound_soundness():
    start = time.perf_counter()
    total = violations = raised = 0
    for _, (bound, _), (part_bound, _), solved in corpus6_facts():
        total += 1
        eta = solved.eta
        if eta is None or bound > eta or not 1 <= part_bound <= eta:
            violations += 1
        raised += part_bound > 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and raised > 0 and total == 27476 and elapsed < 600.0
    _report(
        5,
        ok,
        f"Theorem 1 and the part bound <= exact eta on all {total} connected graphs up to "
        f"6 vertices, {violations} violations; the part bound is above 1 on {raised}",
        elapsed,
    )


def test_criterion_6_complete_graph_anchor():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        g = complete_graph(n)
        ok &= lower_bound_thm1(g) == n
        ok &= exact_eta(g, max_k=n).eta == n
    elapsed = time.perf_counter() - start
    _report(6, ok, "complete graphs pinned exactly for n = 2..6", elapsed)


def test_criterion_7_property_suite():
    start = time.perf_counter()
    rng = random.Random(20240)
    cases = 0
    ok = True

    # verify agrees with the definition
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        lab = Labeling([rng.randint(1, 4) for _ in range(g.n)], k_max=4)
        ok &= verify(g, lab).is_d_lucky == oracle_is_d_lucky(g, lab.labels)
        cases += 1

    # product degree additivity
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        h = random_graph(rng, rng.randint(1, 6), 0.5)
        prod = cartesian_product(g, h)
        a = rng.randrange(g.n)
        x = rng.randrange(h.n)
        ok &= prod.degree(a * h.n + x) == g.degree(a) + h.degree(x)
        cases += 1

    # corona counts
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        h = random_graph(rng, rng.randint(0, 5), 0.5)
        c = corona(g, h)
        ok &= c.n == g.n * (1 + h.n)
        ok &= c.edge_count == g.edge_count + g.n * (h.edge_count + h.n)
        cases += 1

    # subdivision counts
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        chosen = [e for e in g.edges if rng.random() < 0.5]
        s = subdivide_edges(g, chosen)
        ok &= s.n == g.n + len(chosen) and s.edge_count == g.edge_count + len(chosen)
        ok &= all(s.degree(w) == 2 for w in range(g.n, s.n))
        cases += 1

    # solver monotonicity
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        k = rng.randint(1, 2)
        if exists_labeling(g, k) is not None:
            ok &= exists_labeling(g, k + 1) is not None
        cases += 1

    # solver determinism
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        a = exact_eta(g, max_k=4)
        b = exact_eta(g, max_k=4)
        ok &= a.eta == b.eta and a.nodes_explored == b.nodes_explored
        if a.witness is not None:
            ok &= a.witness.labels == b.witness.labels
        cases += 1

    elapsed = time.perf_counter() - start
    ok &= cases >= 1000
    _report(7, ok, f"property suite, {cases} randomized cases (seed 20240)", elapsed)


def test_criterion_8_structural_consecutiveness():
    start = time.perf_counter()
    ok = True
    for m in range(3, 7):
        for n in range(5, 17):
            fam = build_web(m, n)
            sums = sorted(
                s for role, _, s in family_dsum_table(fam) if role == "clique"
            )
            ok &= sums == list(range(sums[0], sums[0] + n))
    for n in range(1, 4):
        for t in range(2, 11):
            for r in range(1, 5):
                fam = build_cocktail(n, t, r)
                reps = []
                for j in range(t):
                    part_sums = {
                        s
                        for role, _, s in family_dsum_table(fam)
                        if role == f"part_{j + 1}"
                    }
                    ok &= len(part_sums) == 1
                    reps.append(part_sums.pop())
                reps.sort()
                ok &= reps == list(range(reps[0], reps[0] + t))
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok,
        "web clique sums and cocktail part sums are consecutive on both grids",
        elapsed,
    )
