"""serve-adhoc: closed-loop clients against ClusterServer, caches missed.

The server runs on the orders-seeded PREF layout of TPC-H SF 0.005 over
10 nodes, with its default worker count and cache sizes.  Two client
threads each send their next request only after the last one is answered
(a closed loop; load never exceeds two requests).  They cycle through a
pool of 600 distinct statements from six templates, more than the plan
cache (256) and the result cache (512) hold, in one seeded order, so
every request misses both caches.  The workload is read-only; every
answer is checked against single-query execution of the same statement.
"""

from __future__ import annotations

import random
import statistics
import threading
import time

from common import (
    DATA_SEED,
    NODES,
    TPCH_SF,
    Outcome,
    Units,
    peak_rss_mb,
    put_latencies,
    same_rows,
    timed_setups,
)

from repro.cluster import SimulatedCluster
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
    ReplicatedScheme,
)
from repro.workloads.tpch import generate_tpch

CLIENTS = 2
#: The statement pool is fixed by the workload; the run's seed orders it.
POOL_SEED = 7
POOL = 600
#: Requests per timing unit (about two seconds of work).
UNIT = 300
#: Requests a run measures at least (1000 leave 50 beyond the p95).
MIN_REQUESTS = 1000

#: {o} is an order key, {c} a customer key, {p} a part key.
TEMPLATES = (
    "SELECT o.o_orderkey, o.o_totalprice, o.o_orderstatus FROM orders o "
    "WHERE o.o_orderkey = {o}",
    "SELECT c.c_name, c.c_acctbal FROM customer c WHERE c.c_custkey = {c}",
    "SELECT o.o_orderkey, o.o_totalprice FROM orders o JOIN customer c "
    "ON o.o_custkey = c.c_custkey WHERE c.c_custkey = {c}",
    "SELECT o.o_orderpriority, COUNT(*) AS n, SUM(o.o_totalprice) AS s "
    "FROM orders o WHERE o.o_custkey = {c} GROUP BY o.o_orderpriority",
    "SELECT ps.ps_suppkey, SUM(ps.ps_availqty) AS q FROM partsupp ps "
    "WHERE ps.ps_partkey = {p} GROUP BY ps.ps_suppkey",
    "SELECT l.l_returnflag, COUNT(*) AS n FROM lineitem l "
    "WHERE l.l_orderkey = {o} GROUP BY l.l_returnflag",
)


def pref_config(n: int) -> PartitioningConfig:
    """The orders-seeded PREF layout of the serving benchmark."""
    config = PartitioningConfig(n)
    config.add("orders", HashScheme(("o_orderkey",), n))
    config.add("lineitem", PrefScheme("orders", JoinPredicate.equi(
        "lineitem", "l_orderkey", "orders", "o_orderkey")))
    config.add("customer", PrefScheme("orders", JoinPredicate.equi(
        "customer", "c_custkey", "orders", "o_custkey")))
    config.add("part", HashScheme(("p_partkey",), n))
    config.add("partsupp", PrefScheme("part", JoinPredicate.equi(
        "partsupp", "ps_partkey", "part", "p_partkey")))
    for small in ("supplier", "nation", "region"):
        config.add(small, ReplicatedScheme(n))
    return config


class ServeSetup:
    """Data, the PREF layout's partitions, the cluster and a started server."""

    def __init__(self) -> None:
        self.database = generate_tpch(scale_factor=TPCH_SF, seed=DATA_SEED)
        self.cluster = SimulatedCluster.partition(
            self.database, pref_config(NODES)
        )
        self.server = self.cluster.serve()

    def close(self) -> None:
        self.server.close()
        self.cluster.close()


def statement_pool(database, seed: int) -> list[str]:
    """POOL distinct statements, round-robin over the templates, in an
    order shuffled by *seed*."""
    rng = random.Random(POOL_SEED)
    orders = [row[0] for row in database.table("orders").rows]
    customers = sorted({row[1] for row in database.table("orders").rows})
    parts = [row[0] for row in database.table("part").rows]
    pool: dict[str, None] = {}
    index = 0
    while len(pool) < POOL:
        template = TEMPLATES[index % len(TEMPLATES)]
        pool[template.format(o=rng.choice(orders), c=rng.choice(customers),
                             p=rng.choice(parts))] = None
        index += 1
    statements = list(pool)
    random.Random(seed).shuffle(statements)
    return statements


class ClosedLoop:
    """Two closed-loop clients cycling through a statement sequence.

    ``unit(count)`` serves the next *count* requests and returns the
    unit's wall seconds; each request is recorded as ``(sql, answer rows,
    seconds from submit to answer)``.
    """

    def __init__(self, server, statements: list[str]) -> None:
        self.statements = statements
        self.sessions = [server.session(f"client-{i}") for i in range(CLIENTS)]
        self.position = 0
        self.records: list[tuple[str, list, float]] = []
        self.errors: list[Exception] = []
        self._lock = threading.Lock()

    def _client(self, session, stop: int) -> None:
        try:
            while True:
                with self._lock:
                    if self.position >= stop:
                        return
                    sql = self.statements[self.position % len(self.statements)]
                    self.position += 1
                began = time.perf_counter()
                rows = session.execute(sql, timeout=120).rows
                elapsed = time.perf_counter() - began
                with self._lock:
                    self.records.append((sql, rows, elapsed))
        except Exception as error:  # noqa: BLE001 - reported as failed ops
            self.errors.append(error)

    def unit(self, count: int) -> float:
        stop = self.position + count
        threads = [
            threading.Thread(target=self._client, args=(session, stop))
            for session in self.sessions
        ]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - began

    def check(self, reference: dict, outcome: Outcome) -> None:
        """Every served answer against its single-query answer."""
        for sql, rows, _seconds in self.records:
            outcome.check(same_rows(rows, reference[sql]), f"answer of {sql}")
        for error in self.errors:
            outcome.check(False, f"client error {error!r}")


def run_adhoc(seed: int, seconds: float, clock) -> Outcome:
    outcome = Outcome()
    setup, setup_s, setup_raw = timed_setups(clock, ServeSetup)
    try:
        outcome.put("setup_s", statistics.median(setup_s), "s",
                    statistics.median(setup_raw))
        outcome.put("redundancy", setup.cluster.data_redundancy(), "ratio")
        statements = statement_pool(setup.database, seed)
        # Single-query reference answers; this pass also builds the
        # partitions' lazy caches and starts the engine's thread pool.
        results = {sql: setup.cluster.sql(sql) for sql in statements}
        outcome.put("sim_s",
                    sum(r.simulated_seconds() for r in results.values()),
                    "sim-s")
        outcome.put(
            "network_mb",
            sum(r.stats.network_bytes for r in results.values()) / 1e6,
            "MB",
        )
        reference = {sql: result.rows for sql, result in results.items()}
        loop = ClosedLoop(setup.server, statements)
        loop.unit(UNIT)  # warm-up: server threads and sessions
        units = Units(clock)
        walls, raw_walls, served = [], [], 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or served < MIN_REQUESTS:
            first = len(loop.records)
            wall = loop.unit(UNIT)
            for _sql, _rows, elapsed in loop.records[first:]:
                units.record("request", elapsed)
            factor = units.close()
            walls.append(wall / factor)
            raw_walls.append(wall)
            served += len(loop.records) - first
        loop.check(reference, outcome)
        hits = setup.server.metrics_summary()["result_cache"]["hits"]
        outcome.notes.append(
            f"units={len(walls)} requests={served} result-cache hits={hits}"
        )
    finally:
        setup.close()
    outcome.put("exec_s", sum(walls) / served * POOL, "s",
                sum(raw_walls) / served * POOL)
    outcome.put("ops_per_s", served / sum(walls), "1/s", served / sum(raw_walls))
    put_latencies(outcome, units.values("request"),
                  units.values("request", raw=True))
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    return outcome


def traced_adhoc(seed: int, seconds: float, clock) -> Outcome:
    """Layer by layer over the pool's statements, then the server's own
    queue and cache figures from a closed-loop phase of the workload."""
    from layers import QueryProfiler

    outcome = Outcome()
    setup = ServeSetup()
    try:
        statements = statement_pool(setup.database, seed)
        cluster = setup.cluster
        reference = {sql: cluster.sql(sql).rows for sql in statements}
        units = Units(clock)
        profiler = QueryProfiler(units)
        executors = profiler.executors(cluster.partitioned, cluster.cost)
        schema = cluster.database.schema
        for sql in statements:
            result = profiler.run(executors, sql=sql, schema=schema)
            outcome.check(same_rows(result.rows, reference[sql]),
                          f"answer of {sql}")
            if units.pending_seconds >= 1.0:
                units.close()
        units.close()
        profiler.put(outcome, 1)
        loop = ClosedLoop(setup.server, statements)
        factors = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds / 2:
            loop.unit(UNIT)
            factors.append(clock.factor())
        loop.check(reference, outcome)
        _server_layers(setup.server, outcome, statistics.median(factors))
        outcome.notes.append(f"served requests={len(loop.records)}")
    finally:
        setup.close()
    return outcome


def _server_layers(server, outcome: Outcome, factor: float) -> None:
    summary = server.metrics_summary()
    for metric, key in (("serve.queue_wait_ms", "queue_wait"),
                        ("serve.service_ms", "service")):
        mean = summary[key]["mean"]
        outcome.put(metric, mean / factor * 1000, "ms", mean * 1000)
    for cache in ("plan", "result"):
        stats = summary[f"{cache}_cache"]
        outcome.put(f"serve.{cache}_hit_rate", stats["hit_rate"], "ratio")
        outcome.put(f"serve.{cache}_lookups", stats["hits"] + stats["misses"],
                    "count")
