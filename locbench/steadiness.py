"""Steadiness mode and the benchmark's self-test.

``run.py --steadiness N --workload W`` runs W N times, each in its own
process with seed, seed+1, ..., and prints per metric the median, the
interquartile range as a share of the median, and max/min, for the raw
and the normalised values side by side, next to a third of the metric's
bound from BENCHMARK.json.  Normalised spreads well under raw ones show
that the reference kernel tracks the machine's speed drift.

``run.py --self-test`` corrupts one served answer of serve-adhoc and one
loaded row of bulk-load and checks that each run then reports a failed
operation and ``"correct": false``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from common import ROOT


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, IQR / median, max / min)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / median if median else 0.0
    low = min(values)
    return median, iqr, (max(values) / low if low else float("inf"))


def steadiness(workload: str, runs: int, seed: int, seconds: float,
               trace: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    normalised: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    factors = []
    failed = 0
    for index in range(runs):
        command = [
            sys.executable, str(ROOT / "locbench" / "run.py"),
            "--workload", workload, "--seed", str(seed + index),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        lines = subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=600
        ).stdout.splitlines()
        result = json.loads(lines[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            normalised.setdefault(name, []).append(metric["value"])
        for line in lines:
            if line.startswith("# raw "):
                for name, value in json.loads(line[6:]).items():
                    raw.setdefault(name, []).append(value)
            elif line.startswith("# fingerprint "):
                fp = json.loads(line[14:])
                factors.append((fp["speed_factor_min"], fp["speed_factor_max"]))
        print(f"run {index + 1}/{runs} seed {seed + index}: "
              f"failed={result['failed']} speed factors "
              f"{factors[-1][0]:.2f}-{factors[-1][1]:.2f}", flush=True)
    header = (f"{'metric':<32} {'median':>12} {'IQR/med':>8} {'max/min':>8}"
              f" | {'raw median':>12} {'IQR/med':>8} {'max/min':>8}"
              f" | {'bound/3':>7}")
    print(f"{workload}: {runs} runs of {seconds:g} s, failed ops {failed}")
    print(header)
    for name, values in normalised.items():
        median, iqr, ratio = _spread(values)
        line = f"{name:<32} {median:>12.5g} {iqr:>8.2%} {ratio:>8.3f}"
        if name in raw:
            r_median, r_iqr, r_ratio = _spread(raw[name])
            line += f" | {r_median:>12.5g} {r_iqr:>8.2%} {r_ratio:>8.3f}"
        else:
            line += f" | {'-':>12} {'-':>8} {'-':>8}"
        bound = bounds.get(name)
        if bound is not None:
            line += f" | {bound / 3:>7.2%}"
            if name != "setup_s" and iqr > bound / 3:
                line += "  TOO NOISY"
        print(line)
    return 0 if failed == 0 else 1


def self_test() -> int:
    """A corrupted answer must be counted as a failed operation."""
    from common import pin_to_one_cpu, same_rows
    from refkernel import ReferenceClock

    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import bulkload
    import serving

    from repro.partitioning.bulk_loader import BulkLoader
    from repro.serve.server import Session

    ok = (
        same_rows([(1, 2.0)], [(1, 2.0 + 1e-12)])
        and not same_rows([(1, 2.0)], [(1, 2.001)])
        and not same_rows([(1, 2.0)], [(1, 2.0), (1, 2.0)])
    )
    print("row comparison:", "ok" if ok else "WRONG")
    clock = ReferenceClock()

    execute = Session.execute
    corrupted = []

    def corrupt_execute(self, query, *args, **kwargs):
        result = execute(self, query, *args, **kwargs)
        if not corrupted and result.rows:
            corrupted.append(query)
            result.rows = result.rows + result.rows[:1]
        return result

    Session.execute = corrupt_execute
    try:
        outcome = serving.run_adhoc(1, 1.0, clock)
    finally:
        Session.execute = execute
    print(f"serve-adhoc with one corrupted answer: attempted="
          f"{outcome.attempted} failed={outcome.failed}")
    ok &= outcome.failed == 1

    insert = BulkLoader.insert
    dropped = []

    def dropping_insert(self, table, rows, *args, **kwargs):
        rows = list(rows)
        if table == "lineitem" and len(rows) > 1 and not dropped:
            dropped.append(rows.pop())
        return insert(self, table, rows, *args, **kwargs)

    BulkLoader.insert = dropping_insert
    try:
        outcome = bulkload.run(1, 1.0, clock)
    finally:
        BulkLoader.insert = insert
    print(f"bulk-load with one dropped row: attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    ok &= outcome.failed >= 1
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
