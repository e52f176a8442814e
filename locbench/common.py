"""Shared pieces of the benchmark: timing units, answer checks, results.

Every workload measures its work in *units* of roughly a second.  After
each unit the reference kernel runs on the same vCPU (see
:mod:`refkernel`), and every raw duration recorded inside the unit is
divided by that unit's speed factor.  Wall-clock metrics are therefore
reported in seconds at reference speed; the raw figures are kept for the
diagnostic lines and the steadiness mode.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from refkernel import ReferenceClock

ROOT = Path(__file__).resolve().parents[1]

#: TPC-H scale and cluster size of every workload (the paper's Fig. 7 and
#: Fig. 10 setup, scaled down from SF 10 on ten nodes).
TPCH_SF = 0.005
NODES = 10
#: TPC-H is a fixed data set per scale factor (as dbgen's is); the run's
#: seed drives the traffic, not the data, so cost-model counts repeat
#: exactly across seeds.
DATA_SEED = 1
#: The four layouts of the paper's Fig. 7 and Fig. 10, as named by
#: ``repro.bench.tpch_variants``.
LAYOUTS = (
    "Classical",
    "SD (wo small tables)",
    "SD (wo small tables, wo redundancy)",
    "WD (wo small tables)",
)
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A p95 is reported only over samples with at least this many beyond it.
TAIL_SAMPLES = 10


def pin_to_one_cpu() -> int:
    """Pin this process (and threads it starts later) to one vCPU.

    The kernel and the measured work must share a vCPU: the two vCPUs of
    a small VM drift independently.  Returns the chosen CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    """The *q* quantile of *values* (linear interpolation)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Outcome:
    """What one run measured: operation counts, metrics and diagnostics."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: metric name -> raw (not normalised) value, for diagnostics only
    raw: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"FAILED: {what}")

    def put(self, name: str, value: float, unit: str, raw: float | None = None):
        self.metrics[name] = (float(value), unit)
        if raw is not None:
            self.raw[name] = float(raw)


class Units:
    """Collects raw durations per unit and normalises them by the clock.

    ``record`` adds one operation's raw seconds under a key (``timed``
    ones count toward ``pending_seconds``, the unit's length so far);
    ``close`` ends the unit: it times the kernel and moves the unit's
    samples into ``normalised`` / ``raw`` (per key) divided by the unit's
    factor.
    """

    def __init__(self, clock: ReferenceClock) -> None:
        self.clock = clock
        self.pending: list[tuple[object, float]] = []
        self.pending_seconds = 0.0
        self.normalised: dict[object, list[float]] = {}
        self.raw: dict[object, list[float]] = {}

    def record(self, key: object, seconds: float, timed: bool = True) -> None:
        self.pending.append((key, seconds))
        if timed:
            self.pending_seconds += seconds

    def close(self) -> float:
        factor = self.clock.factor()
        for key, seconds in self.pending:
            self.normalised.setdefault(key, []).append(seconds / factor)
            self.raw.setdefault(key, []).append(seconds)
        self.pending = []
        self.pending_seconds = 0.0
        return factor

    def values(self, key: object, raw: bool = False) -> list[float]:
        return (self.raw if raw else self.normalised).get(key, [])


def timed_setups(clock: ReferenceClock, build):
    """Run *build* SETUPS times, each as its own unit.

    Returns ``(last built state, normalised seconds, raw seconds)``;
    earlier states are closed through their ``close`` method if any.
    """
    normalised, raw = [], []
    state = None
    for _ in range(SETUPS):
        if state is not None and hasattr(state, "close"):
            state.close()
        started = time.perf_counter()
        state = build()
        elapsed = time.perf_counter() - started
        factor = clock.factor()
        normalised.append(elapsed / factor)
        raw.append(elapsed)
    return state, normalised, raw


def put_latencies(
    outcome: Outcome, normalised: list[float], raw: list[float]
) -> None:
    """p50 and p95 latency metrics; p95 needs TAIL_SAMPLES beyond it."""
    count = len(normalised)
    outcome.notes.append(
        f"latency samples={count} beyond p95={count - math.ceil(0.95 * count)}"
    )
    outcome.put(
        "latency_p50_ms",
        statistics.median(normalised) * 1000,
        "ms",
        statistics.median(raw) * 1000,
    )
    if count * 0.05 < TAIL_SAMPLES:
        raise RuntimeError(
            f"{count} latency samples are too few for a p95 "
            f"(need {TAIL_SAMPLES} beyond it)"
        )
    outcome.put(
        "latency_p95_ms",
        quantile(normalised, 0.95) * 1000,
        "ms",
        quantile(raw, 0.95) * 1000,
    )


# -- answer checks ---------------------------------------------------------


def _cell_key(value):
    if isinstance(value, float):
        return (1, round(value, 4))
    if value is None:
        return (0, 0)
    return (2, str(value))


def same_rows(actual, expected, rel_tol: float = 1e-9) -> bool:
    """Row multisets equal, floats within *rel_tol* (order ignored)."""
    if len(actual) != len(expected):
        return False
    left = sorted(actual, key=lambda row: tuple(map(_cell_key, row)))
    right = sorted(expected, key=lambda row: tuple(map(_cell_key, row)))
    for row_a, row_b in zip(left, right):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None:
                    return False
                if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-6):
                    return False
            elif a != b:
                return False
    return True


# -- fingerprint -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    """SHA-256 prefix over the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(cpu: int, clock: ReferenceClock) -> dict:
    factors = clock.factors or [1.0]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": os.environ.get("REPRO_VECTOR_NUMPY", "").strip().lower()
        in ("1", "true", "yes", "on"),
        "source_sha256": source_digest(),
        "speed_factor_min": round(min(factors), 4),
        "speed_factor_max": round(max(factors), 4),
        "kernel_runs": len(clock.kernel_seconds),
    }
