"""The timer and the record file that the scripts in this directory share.

Times are in the benchmark's reference seconds (``perfbench/timing.py``): a
call's wall seconds scaled by a fixed reference loop timed just before and
just after it.  The speed of a shared machine drifts by tens of percent
within an hour; the scaling takes most of that out, so records written on
different days compare.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from timing import REFERENCE_S, calibrated  # noqa: E402

UNIT = (f"reference seconds (perfbench/timing.py): wall seconds scaled to a machine where its "
        f"reference loop, timed just before and after each call, takes {REFERENCE_S} s")


def timed(repeats: int, fn, *args, before=None):
    """The result of ``fn(*args)`` and the median reference seconds of ``repeats`` calls.

    ``before``, when given, is called before each call, outside the timed region.
    """
    times = []
    for _ in range(repeats):  # no list of results: large ones kept alive slow the collector
        if before is not None:
            before()
        result, seconds = calibrated(lambda: fn(*args))
        times.append(seconds)
    return result, statistics.median(times)


def write(path: Path, record: dict, **environment) -> None:
    """Write ``record`` to ``path`` as JSON, with the machine's environment block added."""
    environment = {"python": platform.python_version(), "machine": platform.machine(),
                   "cpus": os.cpu_count(), **environment}
    path.write_text(json.dumps({**record, "environment": environment}, indent=1) + "\n",
                    encoding="utf-8")
