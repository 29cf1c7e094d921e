#!/usr/bin/env python3
"""Run one workload of the dlucky benchmark and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (a fresh import of ``dlucky`` plus building the inputs) is
timed; then whole passes over the workload's operations run while the next
one is expected to end within ``--seconds`` (at least two); then set-up is
repeated and timed again, at least five times in all.
With ``--trace 1`` the first half of that time runs untraced and the second
half traced (at least one pass each), and the per-layer metrics of
BENCHMARK.json are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment and the details of the run.  Both, and the trace of a
traced run, are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads
from timing import REFERENCE_S, Pass, calibrated, typical_pass_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = (5, 40)  # at least, at most; more while they have taken under SETUP_SECONDS
SETUP_SECONDS = 1.0
MIN_PASSES = 2  # per untraced run; 1 per half of a traced run, which has no bound to meet


def fresh_import():
    """Import dlucky as a new process would: drop every cached dlucky module first."""
    for name in [m for m in sys.modules if m == "dlucky" or m.startswith("dlucky.")]:
        del sys.modules[name]
    return importlib.import_module("dlucky")


class Outputs:
    """What one pass hands to the checks: hashed as it comes, kept only when asked.

    Only the first pass's outputs are kept; a later pass is compared with it
    by digest, so the benchmark holds one pass's outputs at most.
    """

    def __init__(self, keep: bool):
        self.items = [] if keep else None
        self._hash = hashlib.sha256()

    def add(self, item) -> None:
        self._hash.update(repr(item).encode())
        if self.items is not None:
            self.items.append(item)

    def digest(self) -> bytes:
        return self._hash.digest()


@dataclass
class Passes:
    passes: list = field(default_factory=list)
    kept: list | None = None  # outputs of the first pass, when no digest was given
    digest: bytes | None = None  # of the first pass's outputs
    differ: int = 0  # passes that gave other outputs
    first_rss_mb: float = 0.0  # peak resident memory when the first pass had ended


def run_passes(workload, dl, seconds: float, min_passes: int, digest=None, tracer=None) -> Passes:
    """Whole passes while the next is expected to end within ``seconds``; at least ``min_passes``.

    Every pass's outputs are compared with ``digest``, or, when it is not
    given, with the first pass's, which are kept.  A check that fails during
    a pass ends the passes; its message is in that pass's ``error``.
    """
    run = Passes(digest=digest)
    lengths = []
    start = perf_counter()
    while len(run.passes) < min_passes or perf_counter() - start + statistics.median(lengths) <= seconds:
        gc.collect()
        began = perf_counter()
        p = Pass(tracer)
        out = Outputs(keep=run.digest is None)
        if tracer is not None:
            tracer.begin_pass()
        try:
            workload.run_pass(dl, p, out)
        except checks.CheckError as exc:
            p.error = str(exc)
        if tracer is not None:
            tracer.end_pass()
        p.finish()
        run.passes.append(p)
        lengths.append(perf_counter() - began)
        if len(run.passes) == 1:
            run.first_rss_mb = peak_rss_mb(workload.in_children)
        if p.error is not None:
            break
        if run.digest is None:
            run.kept, run.digest = out.items, out.digest()
        elif out.digest() != run.digest:
            run.differ += 1
        del out
    return run


def peak_rss_mb(of_children: bool) -> float:
    """Peak resident memory of this process, or of the largest child it waited for."""
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dlucky" / "__init__.py").is_file():
        print(f"error: no dlucky sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        def set_up():
            dl = fresh_import()
            workload.setup(dl)
            return dl

        dl, seconds = calibrated(set_up)
        setup_s = [seconds]

        tracer = None
        traced_run = Passes()
        startup = Pass()
        if args.trace:
            untraced = run_passes(workload, dl, args.seconds / 2, 1)
            if untraced.passes[-1].error is None:
                tracer = spans.Tracer()
                spans.instrument(tracer, dl)
                try:
                    traced_run = run_passes(workload, dl, args.seconds / 2, 1, untraced.digest, tracer)
                    startup.tracer = tracer
                    workload.measure_startup(startup)
                    startup.finish()
                finally:
                    tracer.restore()
        else:
            untraced = run_passes(workload, dl, args.seconds, MIN_PASSES)
        passes, traced = untraced.passes, traced_run.passes
        differ = untraced.differ + traced_run.differ

        # The other set-ups come after the passes: what repeated imports leave
        # on the heap would otherwise be part of peak_rss_mb.
        spent = perf_counter()
        least, most = SETUP_REPEATS
        while len(setup_s) < least or (perf_counter() - spent < SETUP_SECONDS and len(setup_s) < most):
            dl, seconds = calibrated(set_up)
            setup_s.append(seconds)

        error = next((p.error for p in passes + traced if p.error is not None), None)
        if error is None:
            try:
                checks.self_test()
                workloads.self_test()
                workload.check(untraced.kept)
                if differ:
                    raise checks.CheckError(f"{differ} pass(es) gave other outputs than the first")
            except checks.CheckError as exc:
                error = str(exc)
    finally:
        workload.close()

    everything = passes + traced + [startup]
    attempted = sum(p.attempted for p in everything)
    failures = sum((p.failures for p in everything), Counter())

    if args.trace and not traced:
        measured, wanted = {}, []  # stopped by a failed check before the traced passes
    elif args.trace:
        references = [r for p in traced + [startup] for r in p.reference]
        measured = spans.layer_metrics(tracer, REFERENCE_S / statistics.median(references))
        measured["trace.overhead_s"] = typical_pass_seconds(traced) - typical_pass_seconds(passes)
        wanted = spec["per_layer"]
    else:
        measured = {
            "setup_s": statistics.median(setup_s),
            "run_s": typical_pass_seconds(passes),
            "peak_rss_mb": untraced.first_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": dl.solver_backend(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "recursion_limit": sys.getrecursionlimit(),
        "trace": bool(args.trace),
    }
    stages = [p.stages() for p in passes]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": env,
        "setup_s": setup_s,
        "pass_s": [p.seconds for p in passes],
        "pass_wall_s": [p.wall_seconds for p in passes],
        "traced_pass_s": [p.seconds for p in traced],
        "stage_s": {s: statistics.median(st[s] for st in stages) for s in stages[0]},
        "search_nodes": [p.nodes for p in passes],
        "failures": dict(failures),
        "error": error,
    }
    result = {
        "correct": error is None,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**details, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json", {"env": env, "workload": args.workload, "seed": args.seed})
    if error is not None:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
