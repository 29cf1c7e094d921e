"""Timing of the benchmark's operations, corrected for the speed of the machine.

On a shared machine the speed of the processor drifts by tens of percent over
seconds, and a wall time of the same work drifts with it.  So every
operation's wall time is paired with the wall time of a fixed reference loop
run just before and just after it (every ``CALIBRATE_EVERY`` seconds of
operations at most).  An operation's time is reported as

    wall time * REFERENCE_S / (reference loop time around it)

that is, in seconds on a machine where the reference loop takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

REFERENCE_S = 0.002
CALIBRATE_EVERY = 0.1
FAILED = object()  # what Pass.call returns for an operation that raised

_DATA = tuple(range(500))
_FACTORS = tuple(range(1, 17))
_TABLE = {i: (i * 7919) % 1009 for i in _DATA}


def _step(acc: int, x: int, y: int) -> int:
    return (acc * 31 + x * y) % 1000003


def reference_loop() -> int:
    """Fixed interpreter work: half arithmetic and calls, half building and sorting tuples.

    The two halves slow down differently when other machines load the
    processor or the memory, as the benchmark's own operations do.  The
    collector is paused, and everything built is freed before returning.
    """
    acc = 0
    table = _TABLE
    for x in _DATA:
        for y in _FACTORS:
            acc = _step(acc, table[x], y)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pairs = sorted({(i % 997, (i * 7919) % 5003) for i in range(1500)})
        adj = [[] for _ in range(1000)]
        for u, v in pairs:
            adj[u].append(v)
        return acc + len(adj)
    finally:
        if enabled:
            gc.enable()


def reference_seconds() -> float:
    """Median wall time of three runs of the reference loop."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Pass:
    """Time, count and failures of one pass over a workload's operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: Counter = Counter()
        self.nodes = 0
        self.wall = array("d")  # per operation
        self.chunk = array("i")  # per operation: index of the reference time before it
        self.reference = array("d", [reference_seconds()])
        self.stage_names: list[str] = []
        self.stage_of = array("B")  # per operation: index into stage_names
        self.error: str | None = None  # a failed check that stopped the pass
        self._since = 0.0

    def call(self, stage: str, fn, *args, span: str | None = None, **kwargs):
        """Run one operation and record its wall time; FAILED if it raised."""
        if self._since >= CALIBRATE_EVERY:
            self.reference.append(reference_seconds())
            self._since = 0.0
        self.attempted += 1
        start = perf_counter()
        try:
            if span is not None and self.tracer is not None:
                with self.tracer.span(span):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failures[f"{stage}: {type(exc).__name__}: {str(exc)[:100]}"] += 1
            return FAILED
        finally:
            elapsed = perf_counter() - start
            self._since += elapsed
            self.wall.append(elapsed)
            self.chunk.append(len(self.reference) - 1)
            if stage not in self.stage_names:
                self.stage_names.append(stage)
            self.stage_of.append(self.stage_names.index(stage))

    def finish(self) -> None:
        """Close the last chunk of operations with a reference time after it."""
        self.reference.append(reference_seconds())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def wall_seconds(self) -> float:
        return sum(self.wall)

    def durations(self) -> list[float]:
        """Each operation's time in reference seconds (see the module docstring)."""
        ref = self.reference
        scale = [2 * REFERENCE_S / (ref[c] + ref[c + 1]) for c in range(len(ref) - 1)]
        return [w * scale[c] for w, c in zip(self.wall, self.chunk)]

    @property
    def seconds(self) -> float:
        return sum(self.durations())

    def stages(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for stage, d in zip(self.stage_of, self.durations()):
            out[self.stage_names[stage]] += d
        return out


def typical_pass_seconds(passes: list[Pass]) -> float:
    """Time of one pass: the sum over its operations of each one's median over the passes.

    The median per operation keeps a burst of load, which hits one pass, out of
    the figure.  When a failure changed which operations ran, the median of
    the pass totals is used instead.
    """
    runs = [p.durations() for p in passes]
    if len({len(d) for d in runs}) > 1:
        return statistics.median(sum(d) for d in runs)
    return sum(statistics.median(op) for op in zip(*runs))


def calibrated(step):
    """Result of ``step()`` and its time in reference seconds, calibrated before and after."""
    before = reference_seconds()
    start = perf_counter()
    result = step()
    wall = perf_counter() - start
    return result, wall * 2 * REFERENCE_S / (before + reference_seconds())
