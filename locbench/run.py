"""Benchmark of the PREF reproduction: one workload per run.

    python3 locbench/run.py --workload tpch-fig7 --seed 1 --seconds 15 --trace 0

prints diagnostic lines (each starting with ``#``) and, as the last line
of standard output, one JSON object::

    {"correct": true, "attempted": 560, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--steadiness N`` runs the workload N
times in child processes and prints, per metric, the median, IQR and
max/min of the raw and the normalised values side by side.
``--self-test`` checks that a corrupted answer is counted as failed.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, fingerprint, pin_to_one_cpu  # noqa: E402

#: workload -> (module, measured-run function, traced-run function)
WORKLOADS = {
    "tpch-fig7": ("fig7", "run", "traced"),
    "serve-adhoc": ("serving", "run_adhoc", "traced_adhoc"),
    "bulk-load": ("bulkload", "run", "traced"),
}


def _metric_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from refkernel import ReferenceClock

    cpu = pin_to_one_cpu()
    module_name, measure, profile = WORKLOADS[workload]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    clock = ReferenceClock()
    outcome = getattr(module, profile if trace else measure)(seed, seconds, clock)
    if trace:
        from layers import fill_missing, render_table

        fill_missing(outcome)
        for line in render_table(outcome).splitlines():
            print(f"# {line}")
    names = _metric_names(trace)
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"{workload} did not measure {missing}")
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# fingerprint {json.dumps(fingerprint(cpu, clock))}")
    print(f"# raw {json.dumps(outcome.raw)}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name][0],
                           "unit": outcome.metrics[name][1]}
                    for name in names
                },
            }
        )
    )
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        from steadiness import self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.steadiness:
        from steadiness import steadiness

        return steadiness(
            args.workload, args.steadiness, args.seed, args.seconds, args.trace
        )
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
