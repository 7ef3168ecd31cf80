"""Machine-speed calibration.

On a shared machine the speed at which this process runs Python changes by
a third from one minute to the next, as other tenants come and go.  The
workloads therefore run a fixed *slice* of pure-Python work, owned by the
benchmark and never by the program, every CADENCE seconds between requests.
Slow periods stretch a slice in proportion to the requests around it, so
dividing a request's time by the mean slice time of the same visit cancels
most of the drift.  Reported rates and set-up times are scaled to the speed
at which one slice takes REFERENCE_SLICE_S.

The slice is a brute-force finite-trace LTL evaluator over tuples (close to
the program's own mix of calls, dict lookups and small objects).  Changing
anything here changes every normalised figure: do not, between two commits
that are compared.
"""

from __future__ import annotations

import gc
import random
import time

clock = time.perf_counter

CADENCE = 0.01
REFERENCE_SLICE_S = 0.0006

_rng = random.Random(20130604)
_TRACES = [tuple(frozenset(a for a in "ab" if _rng.random() < 0.5) for _ in range(6)) for _ in range(40)]
_FORMULA = ("U", ("|", ("a",), ("X", ("b",))), ("&", ("G", ("a",)), ("F", ("b",))))


def _ev(g, u, j, memo) -> bool:
    key = (id(g), j)
    v = memo.get(key)
    if v is not None:
        return v
    op = g[0]
    if op == "a" or op == "b":
        v = op in u[j]
    elif op == "|":
        v = _ev(g[1], u, j, memo) or _ev(g[2], u, j, memo)
    elif op == "&":
        v = _ev(g[1], u, j, memo) and _ev(g[2], u, j, memo)
    elif op == "X":
        v = j + 1 < len(u) and _ev(g[1], u, j + 1, memo)
    elif op == "F":
        v = any(_ev(g[1], u, k, memo) for k in range(j, len(u)))
    elif op == "G":
        v = all(_ev(g[1], u, k, memo) for k in range(j, len(u)))
    else:  # U
        v = False
        for k in range(j, len(u)):
            if _ev(g[2], u, k, memo):
                v = True
                break
            if not _ev(g[1], u, k, memo):
                break
    memo[key] = v
    return v


class Calibrator:
    """Runs a slice whenever CADENCE seconds have passed since the last one;
    `total`/`count` accumulate slice time, `tracer` (if set) records each
    slice as a span so that it is not charged to the layer it interrupts."""

    def __init__(self):
        self.total = 0.0
        self.count = 0
        self.tracer = None
        self._next = clock() + CADENCE

    def tick(self) -> float:
        """Run a slice if one is due; returns the time it took (0 if none)."""
        start = clock()
        if start < self._next:
            return 0.0
        # with the collector off, a collection that the slice's allocations
        # make due runs in the program's time, not in the slice's
        gc.disable()
        try:
            for u in _TRACES:
                _ev(_FORMULA, u, 0, {})
        finally:
            gc.enable()
        end = clock()
        if self.tracer is not None:
            self.tracer.record("bench.calibrate", start, end)
        self.total += end - start
        self.count += 1
        self._next = end + CADENCE
        return end - start

    def mark(self) -> tuple[float, int]:
        return self.total, self.count

    def mean_since(self, mark: tuple[float, int]) -> float:
        """Mean slice time since `mark`; the overall mean if no slice ran."""
        total, count = mark
        if self.count > count:
            return (self.total - total) / (self.count - count)
        return self.total / self.count if self.count else REFERENCE_SLICE_S
