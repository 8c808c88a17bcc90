"""The reference loop that turns task wall times into reference units.

The host's speed drifts between runs (shared cores, frequency changes),
so the benchmark divides each task's wall time by the time of this fixed
loop measured just before and just after the task.  The loop does work
shaped like the program's: small immutable objects with ``__hash__`` and
``__eq__``, integer arithmetic and dict lookups.  It imports nothing from
``monochrome`` and runs with the garbage collector paused, so the size of
the program's heap cannot change its speed.  One timing is the median of
a few short passes, so that the process being paused during one pass
(another tenant taking the core) does not move it.
"""

from __future__ import annotations

import gc
import time

# One pass takes about 4 ms on a 2-core x86 host with CPython 3.11.7.
ITERATIONS = 4_000
PASSES = 5
_TABLE_SIZE = 64


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __eq__(self, other) -> bool:
        return self.a == other.a and self.b == other.b

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair((self.a + other.a) & 0xFFFF, (self.b * 3 + other.b) % 97)


def _work(iterations: int) -> int:
    keys = [_Pair(i, i * i % 97) for i in range(_TABLE_SIZE)]
    table = {k: i for i, k in enumerate(keys)}
    probes = [_Pair(k.a, k.b) for k in keys]
    acc = _Pair(0, 0)
    total = 0
    for n in range(iterations):
        p = probes[n % _TABLE_SIZE]
        total += table[p]
        acc = acc + p
        if acc in table:
            total += 1
    return total


def measure(iterations: int = ITERATIONS, passes: int = PASSES) -> float:
    """Median wall seconds of ``passes`` passes of the loop, timed with the
    collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(passes):
            t0 = time.perf_counter()
            _work(iterations)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]
