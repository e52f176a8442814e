"""tpch-fig7: the paper's Fig. 7 on the simulated cluster.

TPC-H SF 0.005 on 10 nodes; the 20 runtime queries under the four
layouts (Classical, SD, SD without redundancy, WD) run as pre-built
logical plans through ``SimulatedCluster.run`` on the cluster's default
backend.  Every answer is checked against the same query on a
single-node cluster, and every execution's cost-model record
(``ExecutionStats.canonical()``) must equal its first execution's.
"""

from __future__ import annotations

import random
import time
from statistics import median

from common import (
    DATA_SEED,
    LAYOUTS,
    NODES,
    TPCH_SF,
    Outcome,
    Units,
    peak_rss_mb,
    put_latencies,
    same_rows,
    timed_setups,
)

from repro.bench import tpch_variants
from repro.bench.harness import materialize_variant
from repro.cluster import SimulatedCluster
from repro.design import QuerySpec
from repro.partitioning import PartitioningConfig, ReplicatedScheme
from repro.partitioning.partitioner import partition_database
from repro.workloads.tpch import (
    ALL_QUERIES,
    SMALL_TABLES,
    generate_tpch,
    runtime_queries,
)

#: Measured seconds between two reference-kernel runs.
UNIT_S = 2.0
#: Whole passes over the 80 executions a run makes at least (3 x 80
#: latency samples leave more than ten beyond the p95).
MIN_PASSES = 3


class Fig7Setup:
    """Data, the four layouts' designs, their partitions and clusters."""

    def __init__(self) -> None:
        self.database = generate_tpch(scale_factor=TPCH_SF, seed=DATA_SEED)
        specs = [
            QuerySpec.from_plan(name, build(), self.database.schema)
            for name, build in ALL_QUERIES.items()
        ]
        variants = tpch_variants(self.database, NODES, specs, SMALL_TABLES)
        self.variants = {layout: variants[layout] for layout in LAYOUTS}
        self.clusters: list[SimulatedCluster] = []
        self.executions: list[tuple[str, str, object, SimulatedCluster]] = []
        queries = runtime_queries()
        for layout, variant in self.variants.items():
            clusters = [
                SimulatedCluster(self.database, partitioned, config)
                for partitioned, config in zip(
                    materialize_variant(self.database, variant),
                    variant.configs,
                )
            ]
            self.clusters.extend(clusters)
            for name, plan in queries.items():
                cluster = clusters[variant.config_for(name)]
                self.executions.append((layout, name, plan, cluster))

    def redundancy(self) -> float:
        """Stored rows over base rows, minus 1, over every materialised
        configuration of the four layouts."""
        stored = sum(c.partitioned.total_rows for c in self.clusters)
        base = sum(c.partitioned.canonical_rows for c in self.clusters)
        return stored / base - 1.0

    def close(self) -> None:
        for cluster in self.clusters:
            cluster.close()


def single_node_answers(database) -> dict[str, list]:
    """Each runtime query's rows on a one-node cluster holding every table."""
    config = PartitioningConfig(1)
    for table in database.schema.table_names:
        config.add(table, ReplicatedScheme(1))
    cluster = SimulatedCluster(
        database, partition_database(database, config), config, backend="serial"
    )
    try:
        return {name: cluster.run(plan).rows for name, plan in runtime_queries().items()}
    finally:
        cluster.close()


def _warm_up(setup: Fig7Setup) -> None:
    """Unmeasured full-table scans on every configuration: they build the
    partitions' lazy columnar caches and start each cluster's thread pool."""
    for cluster in setup.clusters:
        for table in cluster.partitioned.table_names:
            cluster.sql(f"SELECT COUNT(*) AS n FROM {table} t")


def run(seed: int, seconds: float, clock) -> Outcome:
    outcome = Outcome()
    setup, setup_s, setup_raw = timed_setups(clock, Fig7Setup)
    try:
        reference = single_node_answers(setup.database)
        _warm_up(setup)
        outcome.put("redundancy", setup.redundancy(), "ratio")
        first = {}
        units = Units(clock)
        rng = random.Random(seed)
        passes = 0
        started = time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - started < seconds:
            order = list(setup.executions)
            rng.shuffle(order)
            pending = []
            for layout, name, plan, cluster in order:
                began = time.perf_counter()
                result = cluster.run(plan)
                units.record((layout, name), time.perf_counter() - began)
                pending.append((layout, name, result))
                if units.pending_seconds >= UNIT_S:
                    units.close()
                    _check(pending, reference, first, outcome)
                    pending = []
            if units.pending:
                units.close()
            _check(pending, reference, first, outcome)
            passes += 1
    finally:
        setup.close()
    keys = [(layout, name) for layout, name, _, _ in setup.executions]
    outcome.put("sim_s", sum(first[key][1] for key in keys), "sim-s")
    outcome.put("network_mb", sum(first[key][2] for key in keys) / 1e6, "MB")
    _put_timings(outcome, units, keys, passes, setup_s, setup_raw)
    per_pass = [sum(units.values(key)[index] for key in keys)
                for index in range(passes)]
    outcome.notes.append(
        f"passes={passes} executions per pass={len(keys)} normalised pass "
        f"seconds={[round(value, 3) for value in per_pass]}"
    )
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    return outcome


def _check(pending, reference, first: dict, outcome: Outcome) -> None:
    """Answers against the reference; cost records against the first
    execution's ``(canonical stats, simulated s, network bytes)``."""
    for layout, name, result in pending:
        stats = result.stats
        first.setdefault(
            (layout, name),
            (stats.canonical(), result.simulated_seconds(), stats.network_bytes),
        )
        outcome.check(
            same_rows(result.rows, reference[name])
            and stats.canonical() == first[layout, name][0],
            f"{layout} {name} answer or cost record",
        )


def _put_timings(outcome, units: Units, keys, passes, setup_s, setup_raw):
    outcome.put("setup_s", median(setup_s), "s", median(setup_raw))
    normalised = [v for key in keys for v in units.values(key)]
    raw = [v for key in keys for v in units.values(key, raw=True)]
    outcome.put("exec_s", sum(normalised) / passes, "s", sum(raw) / passes)
    outcome.put("ops_per_s", len(normalised) / sum(normalised), "1/s",
                len(raw) / sum(raw))
    put_latencies(outcome, normalised, raw)


# -- traced run ------------------------------------------------------------


def traced(seed: int, seconds: float, clock) -> Outcome:
    """Per-layer profile of the fig7 executions (see :mod:`layers`)."""
    from repro.design import SchemaDrivenDesigner, WorkloadDrivenDesigner

    outcome = Outcome()
    database = generate_tpch(scale_factor=TPCH_SF, seed=DATA_SEED)
    specs = [
        QuerySpec.from_plan(name, build(), database.schema)
        for name, build in ALL_QUERIES.items()
    ]
    for metric, design in (
        ("design.sd_s", lambda: SchemaDrivenDesigner(database, NODES).design(
            replicate=SMALL_TABLES)),
        ("design.wd_s", lambda: WorkloadDrivenDesigner(database, NODES).design(
            specs, replicate=SMALL_TABLES)),
    ):
        began = time.perf_counter()
        design()
        elapsed = time.perf_counter() - began
        outcome.put(metric, elapsed / clock.factor(), "s", elapsed)
    setup = Fig7Setup()
    try:
        began = time.perf_counter()
        for variant in setup.variants.values():
            materialize_variant(database, variant)
        elapsed = time.perf_counter() - began
        outcome.put("partitioning.partition_s", elapsed / clock.factor(), "s",
                    elapsed)
        _first_scans(setup, clock, outcome)
        reference = single_node_answers(setup.database)
        _profile_passes(setup, reference, seed, seconds, clock, outcome)
        _backends(setup, clock, outcome)
    finally:
        setup.close()
    return outcome


def _first_scans(setup: Fig7Setup, clock, outcome: Outcome) -> None:
    """Cold minus warm full-table scans on every freshly built layout."""
    total = 0.0
    for cluster in setup.clusters:
        for table in cluster.partitioned.table_names:
            sql = f"SELECT COUNT(*) AS n FROM {table} t"
            began = time.perf_counter()
            cluster.sql(sql)
            cold = time.perf_counter() - began
            began = time.perf_counter()
            cluster.sql(sql)
            total += cold - (time.perf_counter() - began)
    outcome.put("storage.first_scan_ms", total / clock.factor() * 1000, "ms",
                total * 1000)


def _profile_passes(setup, reference, seed, seconds, clock, outcome) -> None:
    from layers import QueryProfiler

    units = Units(clock)
    profiler = QueryProfiler(units)
    executors = {
        id(cluster): profiler.executors(cluster.partitioned, cluster.cost)
        for cluster in setup.clusters
    }
    rng = random.Random(seed)
    passes = 0
    started = time.perf_counter()
    while passes < 1 or time.perf_counter() - started < seconds:
        order = list(setup.executions)
        rng.shuffle(order)
        for layout, name, plan, cluster in order:
            result = profiler.run(executors[id(cluster)], plan=plan)
            outcome.check(same_rows(result.rows, reference[name]),
                          f"{layout} {name} answer")
            if units.pending_seconds >= UNIT_S:
                units.close()
        passes += 1
    units.close()
    profiler.put(outcome, passes)
    outcome.notes.append(f"traced passes={passes}")


def _backends(setup: Fig7Setup, clock, outcome: Outcome) -> None:
    """The SD layout's 20 warm plans on each engine backend.

    Runs on every CPU this process may use (not only the pinned one), so
    the process backend can use its workers; the unpinned numbers are
    noisier than the end-to-end metrics.
    """
    import os

    from repro.engine.backends import make_backend
    from repro.query.executor import Executor

    sd = [
        (plan, cluster) for layout, _, plan, cluster in setup.executions
        if layout == "SD (wo small tables)"
    ]
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, range(os.cpu_count() or 1))
    try:
        for name in ("serial", "thread", "process"):
            backend = make_backend(name)
            try:
                executor = Executor(sd[0][1].partitioned, backend=backend)
                annotated = [executor.annotate(plan) for plan, _ in sd]
                executor.execute_annotated(annotated[0])  # starts the pool
                began = time.perf_counter()
                for plan in annotated:
                    executor.execute_annotated(plan)
                elapsed = time.perf_counter() - began
            finally:
                backend.close()
            outcome.put(f"engine.backend_s.{name}", elapsed / clock.factor(),
                        "s", elapsed)
    finally:
        os.sched_setaffinity(0, pinned)
