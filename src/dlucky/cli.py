"""Command-line surface: generate, label, verify, bound, solve, export-dot.

Files are the primary interchange; ``-`` stands for stdin/stdout.  Exit
codes: 0 success, 1 semantic negative (conflicts found or search budget
exceeded), 2 usage or format error, or any internal failure (one
``error: internal error: ...`` line, no traceback).

Each command imports the modules that only it uses (the builders, the bounds,
the solver, DOT), so a process compiles no module that its command does not
run.
"""

from __future__ import annotations

import argparse
import sys

from .graph import (
    cartesian_product,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
)
from .labeling import ConstructionError, max_label, verify
from .serialize import (
    _dumps,
    graph_from_json,
    graph_to_json,
    labeling_from_json,
    labeling_to_json,
    report_to_json,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# family name -> (function, its flags in argument order); ``gen`` writes every
# family, ``label`` only those of LABELED (family name -> its flags), whose
# builders ``families.build_<family>`` also label the graph
GRAPHS = {
    "complete": (complete_graph, ("n",)),
    "path": (path_graph, ("m",)),
    "cycle": (cycle_graph, ("n",)),
    "cylinder": (lambda m, n: cartesian_product(path_graph(m), cycle_graph(n)), ("m", "n")),
    "multipartite": (complete_multipartite, ("n", "t")),
}
LABELED = {
    "corona": ("n", "r"),
    "web": ("m", "n"),
    "cocktail": ("n", "t", "r"),
}


def _build(args):
    """Call the family's function on its flags; the first missing flag is an error.

    A family of GRAPHS gives its graph, one of LABELED its ``LabeledFamily``;
    ``families`` is imported only for the latter.
    """
    fn, flags = GRAPHS[args.family] if args.family in GRAPHS else (None, LABELED[args.family])
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        raise ValueError(f"family '{args.family}' requires --{flags[values.index(None)]}")
    if fn is None:
        from . import families

        fn = getattr(families, "build_" + args.family)
    return fn(*values)


def cmd_gen(args) -> int:
    built = _build(args)
    graph = built.graph if args.family in LABELED else built
    _write(args.out, graph_to_json(graph))
    return 0


def cmd_label(args) -> int:
    fam = _build(args)
    _write(args.out, labeling_to_json(fam.labeling))
    if args.roles:
        roles = {role: list(v) for role, v in fam.role_index.items()}
        _write(args.roles, _dumps(roles))
    report = verify(fam.graph, fam.labeling)
    print(f"claimed_eta={fam.claimed_eta}")
    print(f"max_label={max_label(fam.labeling)}")
    print(f"conflicts={len(report.conflicts)}")
    return 0


def cmd_verify(args) -> int:
    graph = graph_from_json(_read(args.graph))
    labeling = labeling_from_json(_read(args.labeling))
    report = verify(graph, labeling)
    if args.json:
        sys.stdout.write(report_to_json(report, labeling))
    else:
        for (u, v), s in report.conflicts:
            print(f"conflict: edge ({u}, {v}) shares d-sum {s}")
        verdict = "d-lucky" if report.is_d_lucky else "not d-lucky"
        print(f"{verdict}: {len(report.conflicts)} conflict(s), max label "
              f"{max(labeling.labels) if labeling.labels else 0}")
    return 0 if report.is_d_lucky else 1


def cmd_bound(args) -> int:
    from .bounds import lower_bound_thm1_witness
    from .parts import lower_bound_hall_witness

    graph = graph_from_json(_read(args.graph))
    bound, best = lower_bound_thm1_witness(graph)
    omega = len(best.vertices)
    hall_bound, cert = lower_bound_hall_witness(graph)
    if args.json:
        obj = {
            "bound": bound,
            "omega": omega,
            "clique": list(best.vertices),
            "delta": best.delta,
            "max_deg": best.max_deg,
            "hall": {"bound": hall_bound, **cert._asdict()},
        }
        sys.stdout.write(_dumps(obj))
    else:
        print(f"lower bound: {bound}")
        print(
            f"witness clique: {list(best.vertices)} "
            f"(delta={best.delta}, Delta={best.max_deg}, omega={omega})"
        )
        line = f"part bound: {hall_bound} over {len(cert.parts)} part(s)"
        if cert.interval:
            a, b = cert.interval
            line += (f"; with {hall_bound - 1} labels, {len(cert.overfull)} part ranges "
                     f"lie in [{a}, {b}], which has {b - a + 1} values")
        print(line)
    return 0


def cmd_solve(args) -> int:
    from .solver import DEFAULT_VERTEX_CAP, exact_eta

    graph = graph_from_json(_read(args.graph))
    max_k = args.max_k if args.max_k is not None else max(1, graph.n)
    cap = args.vertex_cap if args.vertex_cap is not None else DEFAULT_VERTEX_CAP
    result = exact_eta(graph, max_k=max_k, vertex_cap=cap)
    obj = {
        "eta": result.eta,
        "witness": list(result.witness.labels) if result.witness else None,
        "nodes_explored": result.nodes_explored,
        "k_tried": result.k_tried,
    }
    if args.json:
        sys.stdout.write(_dumps(obj))
    elif result.eta is not None:
        print(f"eta={result.eta}")
        print(f"witness={list(result.witness.labels)}")
        print(f"nodes_explored={result.nodes_explored}")
    else:
        print(f"exceeds budget: no labeling with up to {result.k_tried} labels")
        print(f"nodes_explored={result.nodes_explored}")
    return 0 if result.eta is not None else 1


def cmd_export_dot(args) -> int:
    from .dot import to_dot

    graph = graph_from_json(_read(args.graph))
    labeling = None
    if args.labeling is not None:
        labeling = labeling_from_json(_read(args.labeling))
    _write(args.out, to_dot(graph, labeling))
    return 0


def _add_family_flags(parser) -> None:
    parser.add_argument("--n", type=int, default=None, help="order / part size / cycle length")
    parser.add_argument("--m", type=int, default=None, help="path length (cylinder depth)")
    parser.add_argument("--t", type=int, default=None, help="number of parts")
    parser.add_argument("--r", type=int, default=None, help="pendants per vertex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlucky",
        description="d-lucky labelings: family generators, verification, bounds, exact search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family graph as canonical JSON")
    p.add_argument("family", choices=[*GRAPHS, *LABELED])
    _add_family_flags(p)
    p.add_argument("-o", "--out", default="-", help="output path ('-' = stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="write a family's optimal labeling as JSON")
    p.add_argument("family", choices=list(LABELED))
    _add_family_flags(p)
    p.add_argument("-o", "--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--roles", default=None, help="also write the role index map here")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="check a labeling file against a graph file")
    p.add_argument("graph")
    p.add_argument("labeling")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="clique and part lower bounds with their witnesses")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("solve", help="exact minimum label count by exhaustive search")
    p.add_argument("graph")
    p.add_argument("--max-k", type=int, default=None,
                   help="largest budget to try (default: vertex count)")
    p.add_argument("--vertex-cap", type=int, default=None)  # None: the solver's DEFAULT_VERTEX_CAP
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("export-dot", help="DOT text, annotated when a labeling is given")
    p.add_argument("graph")
    p.add_argument("--labeling", default=None)
    p.add_argument("-o", "--out", default="-", help="output path ('-' = stdout)")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means a semantic negative, never a crash
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
