"""The traced run: per-layer times and counts, taken from outside.

Spans are recorded in the benchmark's own code around calls to each
layer's public functions (``sql_to_plan``, ``Executor.annotate``,
``certify``, ``compile_plan``, ``Backend.run``, ``BulkLoader.insert``,
``partition_database``, the designers) and from the ``Executor`` trace
hook, which reports every engine task with its operator label.  Every
duration is normalised by the reference clock like the end-to-end
metrics.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import re
import time

from common import Outcome, Units

from repro.engine.backends import Backend, SerialBackend
from repro.engine.compile import compile_plan
from repro.query.certify import certify
from repro.query.executor import Executor
from repro.sql.planner import sql_to_plan

#: Operator kinds of the per-kind busy time and row counts.
KINDS = (
    "scan", "filter", "project", "join", "aggregate",
    "exchange", "gather", "dedup", "sort",
)
#: Operator label head -> kind.  Bloom probes and hasS partner filters are
#: filters; repartitions are the exchanges; ORDER BY is the sort.
_KIND_OF_LABEL = {
    "scan": "scan", "filter": "filter", "bloom_probe": "filter",
    "partner_filter": "filter", "project": "project", "join": "join",
    "aggregate": "aggregate", "repartition": "exchange",
    "gather": "gather", "dedup": "dedup", "order_by": "sort",
}
_HEAD = re.compile(r"[a-z_]+")

#: Every per-layer metric with its unit, in the order of the printed table.
PHASES = (
    ("sql.plan_ms", "ms"),
    ("query.annotate_ms", "ms"),
    ("query.certify_ms", "ms"),
    ("engine.compile_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.assemble_ms", "ms"),
)
TABLES = (
    "region", "nation", "supplier", "customer",
    "part", "partsupp", "orders", "lineitem",
)
LAYER_METRICS = (
    PHASES
    + tuple((f"engine.busy_s.{kind}", "s") for kind in KINDS)
    + (("engine.tasks", "count"),)
    + tuple((f"engine.rows.{kind}", "count") for kind in KINDS)
    + tuple(
        (f"engine.backend_s.{name}", "s")
        for name in ("serial", "thread", "process")
    )
    + (
        ("storage.first_scan_ms", "ms"),
        ("partitioning.partition_s", "s"),
    )
    + tuple((f"partitioning.insert_ms.{table}", "ms") for table in TABLES)
    + (
        ("partitioning.index_lookups", "count"),
        ("partitioning.copies_written", "count"),
        ("partitioning.propagated_copies", "count"),
        ("design.sd_s", "s"),
        ("design.wd_s", "s"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.service_ms", "ms"),
        ("serve.plan_hit_rate", "ratio"),
        ("serve.plan_lookups", "count"),
        ("serve.result_hit_rate", "ratio"),
        ("serve.result_lookups", "count"),
        ("trace.overhead_ratio", "ratio"),
    )
)


def kind_of(label: str) -> str | None:
    match = _HEAD.match(label)
    return _KIND_OF_LABEL.get(match.group(0)) if match else None


class TimingBackend(Backend):
    """Wraps an engine backend and adds up the wall time of its runs."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.name = inner.name
        self.seconds = 0.0

    def run(self, root, ctx) -> None:
        started = time.perf_counter()
        try:
            self.inner.run(root, ctx)
        finally:
            self.seconds += time.perf_counter() - started

    def close(self) -> None:
        self.inner.close()


class QueryProfiler:
    """Runs queries layer by layer and records each layer's time.

    Profiled queries run on the serial backend, whose tasks never overlap,
    so task busy time per operator kind adds up to the engine's run time.
    Layer times go into *units* under the phase metric names, task busy
    time under ``busy.<kind>``; each query also runs once untraced (plan,
    annotate and execute on a plain serial executor) for the overhead.
    """

    def __init__(self, units: Units) -> None:
        self.units = units
        self.tasks = 0
        self.rows = dict.fromkeys(KINDS, 0)
        self.calls = dict.fromkeys((name for name, _ in PHASES), 0)

    def executors(self, partitioned, cost=None) -> tuple:
        """(traced executor, its timing backend, plain executor)."""
        backend = TimingBackend(SerialBackend())
        traced = Executor(partitioned, backend=backend, cost=cost,
                          trace=self.hook)
        return traced, backend, Executor(partitioned, cost=cost)

    def hook(self, event) -> None:
        kind = kind_of(event.label)
        self.tasks += 1
        if kind is not None:
            self.units.record(f"busy.{kind}", event.seconds, timed=False)

    def _span(self, name: str, seconds: float) -> None:
        self.units.record(name, seconds, timed=False)
        self.calls[name] += 1

    def run(self, executors: tuple, plan=None, sql=None, schema=None):
        """Plan (from *sql*), annotate, certify, compile and execute."""
        traced, backend, plain = executors
        began = time.perf_counter()
        plain.execute(sql_to_plan(sql, schema) if sql is not None else plan)
        self.units.record("untraced", time.perf_counter() - began)
        plan_s = 0.0
        if sql is not None:
            began = time.perf_counter()
            plan = sql_to_plan(sql, schema)
            plan_s = time.perf_counter() - began
            self._span("sql.plan_ms", plan_s)
        began = time.perf_counter()
        annotated = traced.annotate(plan)
        annotate_s = time.perf_counter() - began
        self._span("query.annotate_ms", annotate_s)
        began = time.perf_counter()
        certify(annotated, traced.partitioned)
        self._span("query.certify_ms", time.perf_counter() - began)
        began = time.perf_counter()
        compile_plan(annotated, traced.partitioned)
        compile_s = time.perf_counter() - began
        self._span("engine.compile_ms", compile_s)
        backend.seconds = 0.0
        began = time.perf_counter()
        result = traced.execute_annotated(annotated)
        execute_s = time.perf_counter() - began
        self._span("engine.run_ms", backend.seconds)
        self._span(
            "engine.assemble_ms",
            max(execute_s - backend.seconds - compile_s, 0.0),
        )
        self.units.record("traced", plan_s + annotate_s + execute_s)
        for op in result.operators:
            kind = kind_of(op.label)
            if kind is not None:
                self.rows[kind] += op.rows_out
        return result

    def put(self, outcome: Outcome, passes: int) -> None:
        """Phase means per call; busy seconds and counts per pass; the
        traced over untraced time of the same queries."""
        units = self.units
        for name, unit in PHASES:
            calls = self.calls[name] or 1
            outcome.put(name, sum(units.values(name)) / calls * 1000, unit,
                        sum(units.values(name, raw=True)) / calls * 1000)
        for kind in KINDS:
            key = f"busy.{kind}"
            outcome.put(f"engine.busy_s.{kind}",
                        sum(units.values(key)) / passes, "s",
                        sum(units.values(key, raw=True)) / passes)
            outcome.put(f"engine.rows.{kind}", self.rows[kind] / passes,
                        "count")
        outcome.put("engine.tasks", self.tasks / passes, "count")
        outcome.put(
            "trace.overhead_ratio",
            sum(units.values("traced")) / sum(units.values("untraced")),
            "ratio",
        )


def fill_missing(outcome: Outcome) -> None:
    """Report 0 for every layer metric this workload does not exercise."""
    for name, unit in LAYER_METRICS:
        if name not in outcome.metrics:
            outcome.put(name, 0.0, unit)


def render_table(outcome: Outcome) -> str:
    """The per-layer table: query path, operator kinds, then the rest."""
    lines = ["per-layer profile (reference units; raw in brackets)"]
    for name, unit in LAYER_METRICS:
        value, _ = outcome.metrics[name]
        raw = outcome.raw.get(name)
        extra = f"  [{raw:.4g}]" if raw is not None else ""
        lines.append(f"  {name:<34} {value:>14.4f} {unit:<6}{extra}")
    return "\n".join(lines)
