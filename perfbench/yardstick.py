"""A fixed pure-Python reference loop that tracks the host's speed during a run.

On a shared host the same Python code runs up to 1.7x slower for tens of
seconds at a time (neighbours on the same cores and caches), which moves
every timing of a run together.  ``Yardstick.sample`` times ``reference``,
a loop of integer arithmetic, tuple and dict work, string formatting and
splitting and a keyed sort that calls no depthbench code, between the ops
of a run.  A timing taken between two samples is scaled by
``REF_NOMINAL_S / mean(the two samples)``: it reads as seconds on a host
where ``reference`` takes ``REF_NOMINAL_S``.  A change to the program
moves the scaled timings as much as the raw ones, because the reference
does not run program code; a change in the host's speed moves both the
program and the reference and cancels out.
"""

from __future__ import annotations

import gc
import time

# About the median of ``reference()`` on a 2-vCPU Intel Xeon at 2.0 GHz
# under Python 3.11.7 (7 to 9.5 ms there, with the host's load); only the
# ratio of scaled timings between runs matters.
REF_NOMINAL_S = 0.008
# Samples are taken between ops once this long has passed since the last.
EVERY_S = 0.2
LOOPS = 3500


def reference() -> int:
    """Fixed work in the mix of operations the program does; no depthbench code."""
    acc = 0
    for i in range(LOOPS):
        acc = (acc + i * i) % 1000003
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(LOOPS):
        key = (i & 255, i >> 8)
        table[key] = [i, acc]
        acc += len(table.get((i & 255, (i >> 8) - 1), ()))
    ordered = sorted(table, key=lambda key: (key[1] & 3, -key[0]))
    text = "\n".join(f"and {i} {a} {b}" for i, (a, b) in enumerate(ordered))
    return acc + sum(len(line.split()) for line in text.splitlines())


class Yardstick:
    """Reference timings taken through a run, and the scale they give timings."""

    def __init__(self, warmup: int = 3):
        self.samples: list[float] = []
        self._last = 0.0
        for _ in range(warmup):
            self._time()

    def _time(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not make the reference slower
        try:
            start = time.perf_counter()
            reference()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
            self._last = time.perf_counter()

    def sample(self) -> int:
        """Take a sample; returns its index."""
        self.samples.append(self._time())
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._last >= EVERY_S

    def scale(self, before: int, after: int) -> float:
        """Factor for a timing taken between samples ``before`` and ``after``."""
        return REF_NOMINAL_S / ((self.samples[before] + self.samples[after]) / 2)
