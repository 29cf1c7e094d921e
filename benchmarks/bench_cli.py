#!/usr/bin/env python3
"""The dlucky command line end to end: each command's child time.

Run from the root of a source checkout::

    python3 benchmarks/bench_cli.py

and it writes ``benchmarks/BENCH_31.json`` (``BENCH_13.json`` is the record
from before a command timed into a fresh path).  The children import
``dlucky`` from this checkout's ``src/``.  The inputs are those of the
benchmark's cli workload: ``web(5,100)`` and ``cocktail(2,14,1)`` through
gen, label, verify, bound and export-dot, and ``dlucky solve --json`` on a
``corona(8,1)`` file.  For each command it records the median reference
milliseconds (``record.py``) of ``RUNS`` child processes ``python -m
dlucky.cli ...``, with two baselines timed the same way: a bare ``python -c
pass`` and ``python -c "import dlucky"``.  A command that writes a file
(``-o``) is timed twice: over the file the previous run wrote, as the cli
workload runs it, and into a path that no run has used.  The two agree
when an overwrite costs what a new file does; a file system that writes a
truncated file back on close makes the first column the larger.  The
``dlucky`` modules each command loads are pinned by ``tests/test_imports.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from record import UNIT, timed, write

HERE = Path(__file__).resolve().parent
OUT = HERE / "BENCH_31.json"
SRC = HERE.parent / "src"
RUNS = 15
FRESH = itertools.count()  # numbers the fresh output paths
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


def child(argv: list[str], cwd: str) -> None:
    """Run one child; a failed child is an error."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {done.returncode}: {done.stderr.strip()[-200:]}")


def into_fresh(argv: list[str], cwd: str) -> None:
    """Run one child with its ``-o`` path replaced by one that no run has used."""
    at = argv.index("-o") + 1
    child([*argv[:at], f"fresh-{next(FRESH)}-{argv[at]}", *argv[at + 1:]], cwd)


def median_ms(fn, argv: list[str], cwd: str) -> float:
    return round(timed(RUNS, fn, argv, cwd)[1] * 1000, 2)


def main() -> int:
    exe = sys.executable
    runs = [("python -c pass", [exe, "-c", "pass"]),
            ("python -c 'import dlucky'", [exe, "-c", "import dlucky"])]
    runs += [(" ".join(["dlucky", *cmd]), [exe, "-m", "dlucky.cli", *cmd]) for cmd in COMMANDS]
    with tempfile.TemporaryDirectory() as cwd:
        for _, argv in runs:  # once untimed, so every input file exists
            child(argv, cwd)
        rows = []
        for name, argv in runs:
            rows.append({"command": name, "median_ms": median_ms(child, argv, cwd)})
            if "-o" in argv:
                rows[-1]["fresh_ms"] = median_ms(into_fresh, argv, cwd)
    for row in rows:
        print(json.dumps(row), flush=True)
    result = {
        "what": "each dlucky subcommand as a child process on the cli workload's inputs: median "
                "time, against a bare interpreter",
        "command": "python3 benchmarks/bench_cli.py",
        "median_ms": f"{UNIT}, in milliseconds; each the median of {RUNS} child processes",
        "fresh_ms": "for a command that writes a file, the same median with its -o path one that "
                    "no run has used; median_ms writes over the file the previous run left",
        "modules": "the dlucky modules each command loads are pinned by tests/test_imports.py",
        "commands": rows,
    }
    write(OUT, result, dont_write_bytecode=sys.dont_write_bytecode)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
