#!/usr/bin/env python3
"""The dlucky command line end to end: each command's child wall time.

Run from the root of a source checkout::

    python3 benchmarks/bench_cli.py

and it writes ``benchmarks/BENCH_13.json``.  The children import ``dlucky``
from this checkout's ``src/``.  The inputs are those of the benchmark's cli
workload: ``web(5,100)`` and ``cocktail(2,14,1)`` through gen, label,
verify, bound and export-dot, and ``dlucky solve --json`` on a
``corona(8,1)`` file.  For each command it records the median wall
milliseconds of ``RUNS`` child processes ``python -m dlucky.cli ...`` (the
commands take turns, so drift spreads over all of them), with two baselines
timed the same way: a bare ``python -c pass`` and ``python -c "import
dlucky"``.  The ``dlucky`` modules each command loads are pinned by
``tests/test_imports.py``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "BENCH_13.json"
SRC = HERE.parent / "src"
RUNS = 15
COMMANDS = [
    cmd
    for family, flags in [("web", ["--m", "5", "--n", "100"]),
                          ("cocktail", ["--n", "2", "--t", "14", "--r", "1"])]
    for cmd in [
        ["gen", family, *flags, "-o", f"{family}.json"],
        ["label", family, *flags, "-o", f"{family}-lab.json"],
        ["verify", f"{family}.json", f"{family}-lab.json"],
        ["bound", f"{family}.json", "--json"],
        ["export-dot", f"{family}.json", "--labeling", f"{family}-lab.json", "-o", f"{family}.dot"],
    ]
] + [["gen", "corona", "--n", "8", "--r", "1", "-o", "corona.json"], ["solve", "corona.json", "--json"]]


def child(argv: list[str], cwd: str) -> float:
    """Wall milliseconds of one child; a failed child is an error."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    ms = (time.perf_counter() - start) * 1000
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {done.returncode}: {done.stderr.strip()[-200:]}")
    return ms


def main() -> int:
    exe = sys.executable
    runs = [("python -c pass", [exe, "-c", "pass"]),
            ("python -c 'import dlucky'", [exe, "-c", "import dlucky"])]
    runs += [(" ".join(["dlucky", *cmd]), [exe, "-m", "dlucky.cli", *cmd]) for cmd in COMMANDS]
    with tempfile.TemporaryDirectory() as cwd:
        for _, argv in runs:  # once untimed, so every input file exists
            child(argv, cwd)
        times = [[] for _ in runs]
        for _ in range(RUNS):
            for ms, (_, argv) in zip(times, runs):
                ms.append(child(argv, cwd))
    rows = [{"command": name, "median_ms": round(statistics.median(ms), 2)}
            for ms, (name, _) in zip(times, runs)]
    for row in rows:
        print(json.dumps(row), flush=True)
    result = {
        "what": "each dlucky subcommand as a child process on the cli workload's inputs: median "
                "wall time, against a bare interpreter",
        "command": "python3 benchmarks/bench_cli.py",
        "median_ms": f"median wall milliseconds of {RUNS} child processes, the commands in turn",
        "modules": "the dlucky modules each command loads are pinned by tests/test_imports.py",
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "dont_write_bytecode": sys.dont_write_bytecode,
        },
        "commands": rows,
    }
    OUT.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
