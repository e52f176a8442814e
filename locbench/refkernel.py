"""The frozen reference kernel that turns wall clock into reference seconds.

On a small shared VM the speed of one vCPU drifts by up to 2x over
stretches of about ten seconds, while steal time stays near zero: the
vCPU is slowed, not descheduled.  Timing the same fixed piece of Python
work on the same vCPU right before and after a unit of measured work
gives that unit's speed factor; dividing the unit's wall clock by the
factor yields seconds at reference speed.

The kernel has the memory behaviour of the engine's hash joins: a dict
hash build over 10^5 tuples, a probe with 3x10^5 tuples, a group-by and
a sort, over a working set of tens of MB.  A small cache-resident kernel
tracks the drift far worse.  It runs with the garbage collector off so
the measured program's heap does not land on it.

This module imports nothing from the program under test and must never
change: every reference second ever reported is defined by it.
"""

from __future__ import annotations

import gc
import time
from operator import itemgetter

BUILD_ROWS = 100_000
PROBE_ROWS = 300_000
GROUPS = 997
#: Kernel seconds that define "reference speed" (one kernel run on an
#: unloaded 2-vCPU x86-64 VM under CPython 3.11).
REFERENCE_KERNEL_S = 0.25
#: The kernel's answer; a different value means the kernel was changed.
_EXPECTED = (75_929, 2_453_770_098)


def _inputs() -> tuple[list, list]:
    state = 12345
    build = []
    for key in range(BUILD_ROWS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        build.append((key * 3, state % GROUPS, state))
    probe = []
    for _ in range(PROBE_ROWS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        probe.append((state % (BUILD_ROWS * 4), state & 0xFFFF))
    return build, probe


def _kernel(build: list, probe: list) -> tuple[int, int]:
    table = {}
    for row in build:
        table[row[0]] = row
    get = table.get
    joined = []
    append = joined.append
    for key, value in probe:
        match = get(key)
        if match is not None:
            append((match[1], value, key))
    groups: dict = {}
    for group, value, _key in joined:
        groups[group] = groups.get(group, 0) + value
    ordered = sorted(joined, key=itemgetter(1, 2))
    return len(ordered) + len(groups), sum(groups.values()) + ordered[-1][2]


class ReferenceClock:
    """Speed factors from kernel runs interleaved with measured units.

    Call :meth:`factor` after each unit of measured work (about a second
    long): it times the kernel once more and returns the mean of the two
    kernel times around the unit, divided by :data:`REFERENCE_KERNEL_S`.
    A unit's wall clock divided by its factor is in reference seconds.
    """

    def __init__(self) -> None:
        self._build, self._probe = _inputs()
        self.kernel_seconds: list[float] = []
        self.factors: list[float] = []
        self._last = self._time_kernel()

    def _time_kernel(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            answer = _kernel(self._build, self._probe)
            elapsed = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        if answer != _EXPECTED:
            raise RuntimeError(f"reference kernel answer changed: {answer}")
        self.kernel_seconds.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Speed factor of the unit that just ended (>1 means slow)."""
        current = self._time_kernel()
        factor = (self._last + current) / 2 / REFERENCE_KERNEL_S
        self._last = current
        self.factors.append(factor)
        return factor
