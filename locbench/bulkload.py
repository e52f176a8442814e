"""bulk-load: the paper's Fig. 10 through the bulk loader.

Each pass loads TPC-H SF 0.005 from empty into every configuration of
the four Fig. 7 layouts (five configurations: WD has two fragments)
through ``BulkLoader.insert``, table by table in referential order.  The
two SD layouts, whose PREF chains run through orders and lineitem, first
get all but the last TAIL_ORDERS orders and their lineitems.  Once every configuration holds its rows, the tail
goes in one order at a time (the order and its lineitems, into both SD
layouts in their referential order) with ``maintain_referencing=True``,
as incremental loads do.  No query runs.

After each configuration is loaded, the PREF invariants must hold, every
partition must hold exactly the rows ``partition_database`` places there,
and the loader's counts must equal the first pass's.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter

from common import (
    DATA_SEED,
    LAYOUTS,
    NODES,
    TPCH_SF,
    Outcome,
    Units,
    peak_rss_mb,
    put_latencies,
    timed_setups,
)

from repro.bench import tpch_variants
from repro.design import QuerySpec
from repro.partitioning.bulk_loader import BulkLoader, BulkLoadStats
from repro.partitioning.invariants import InvariantViolation, check_pref_invariants
from repro.partitioning.partitioner import partition_database
from repro.storage.partitioned import PartitionedDatabase, PartitionedTable
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES, generate_tpch

TAIL_TABLES = ("orders", "lineitem")
#: The layouts that take the tail: the two SD designs, whose PREF chains
#: run through orders and lineitem.
TAIL_LAYOUTS = ("SD (wo small tables)", "SD (wo small tables, wo redundancy)")
TAIL_ORDERS = 200
#: Measured seconds between two reference-kernel runs.
UNIT_S = 2.0
#: Whole passes a run makes at least: one pass spread 14-16% from run to
#: run, two 5%; their 400 tail batches leave 20 latency samples beyond
#: the p95, more than the batches full garbage collections land on.
MIN_PASSES = 2


class LoadSetup:
    """Data, the four layouts' designs, and the rows to load."""

    def __init__(self) -> None:
        self.database = generate_tpch(scale_factor=TPCH_SF, seed=DATA_SEED)
        specs = [
            QuerySpec.from_plan(name, build(), self.database.schema)
            for name, build in ALL_QUERIES.items()
        ]
        variants = tpch_variants(self.database, NODES, specs, SMALL_TABLES)
        self.configs = [
            (layout, config)
            for layout in LAYOUTS
            for config in variants[layout].configs
        ]
        tail_orders = self.database.table("orders").rows[-TAIL_ORDERS:]
        tail = {row[0] for row in tail_orders}
        lines: dict[int, list] = {key: [] for key in tail}
        for row in self.database.table("lineitem").rows:
            if row[0] in tail:
                lines[row[0]].append(row)
        self.head = {
            name: [row for row in self.database.table(name).rows
                   if row[0] not in tail]
            for name in TAIL_TABLES
        }
        self.tail = [
            {"orders": [row], "lineitem": lines[row[0]]} for row in tail_orders
        ]


def _empty(database, config) -> PartitionedDatabase:
    partitioned = PartitionedDatabase(config.partition_count)
    for table in config.load_order():
        partitioned.add_table(
            PartitionedTable(
                database.schema.table(table),
                config.scheme_of(table),
                config.partition_count,
                seed_table=config.seed_of(table),
            )
        )
    return partitioned


class Loader:
    """Loads every configuration, timing each insert call into *units*.

    Every insert call is recorded under ``"load"`` and, when *per_table*,
    under its table name; every tail batch (one order into each layout
    that takes the tail) also under ``"batch"``.  The unit is closed
    whenever a second of work has been recorded.
    """

    def __init__(self, setup: LoadSetup, units: Units,
                 per_table: bool = False) -> None:
        self.setup = setup
        self.units = units
        self.per_table = per_table

    def _insert(self, loader, table, rows, maintain) -> BulkLoadStats:
        began = time.perf_counter()
        stats = loader.insert(table, rows, maintain_referencing=maintain)
        elapsed = time.perf_counter() - began
        self.units.record("load", elapsed)
        if self.per_table:
            self.units.record(table, elapsed, timed=False)
        return stats

    def _tick(self) -> None:
        if self.units.pending_seconds >= UNIT_S:
            self.units.close()

    def load(self, tail_order) -> list[tuple[PartitionedDatabase, BulkLoadStats]]:
        """Load every configuration from empty, then the tail in
        *tail_order*; returns each configuration's store and counts."""
        database = self.setup.database
        loaded = []
        for layout, config in self.setup.configs:
            partitioned = _empty(database, config)
            loader = BulkLoader(partitioned, config)
            stats = BulkLoadStats()
            order = config.load_order()
            tail_tables = (
                [t for t in order if t in TAIL_TABLES]
                if layout in TAIL_LAYOUTS else []
            )
            for table in order:
                rows = database.table(table).rows
                if tail_tables and table in TAIL_TABLES:
                    rows = self.setup.head[table]
                stats.merge(self._insert(loader, table, rows, False))
                self._tick()
            loaded.append((partitioned, loader, stats, tail_tables))
        for index in tail_order:
            batch = self.setup.tail[index]
            began = time.perf_counter()
            for _partitioned, loader, stats, tail_tables in loaded:
                for table in tail_tables:
                    stats.merge(self._insert(loader, table, batch[table], True))
            self.units.record("batch", time.perf_counter() - began, timed=False)
            self._tick()
        return [(partitioned, stats) for partitioned, _, stats, _ in loaded]


def _placement(partitioned, config) -> dict:
    return {
        table: [Counter(p) for p in partitioned.table(table).partitions]
        for table in config.tables
    }


def _counts(stats: BulkLoadStats) -> tuple:
    return (stats.rows_in, stats.copies_written, stats.bytes_written,
            stats.index_lookups, stats.propagated_copies)


def run(seed: int, seconds: float, clock) -> Outcome:
    outcome = Outcome()
    setup, setup_s, setup_raw = timed_setups(clock, LoadSetup)
    expected = {
        index: _placement(partition_database(setup.database, config), config)
        for index, (_, config) in enumerate(setup.configs)
    }
    units = Units(clock)
    loader = Loader(setup, units)
    rng = random.Random(seed)
    first_counts: dict[int, tuple] = {}
    totals = []
    passes = 0
    started = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        tail_order = rng.sample(range(TAIL_ORDERS), TAIL_ORDERS)
        pass_total = BulkLoadStats()
        loaded = loader.load(tail_order)
        units.close()
        for index, ((layout, config), (partitioned, stats)) in enumerate(
            zip(setup.configs, loaded)
        ):
            pass_total.merge(stats)
            first_counts.setdefault(index, _counts(stats))
            outcome.check(
                _valid(partitioned, config, expected[index])
                and _counts(stats) == first_counts[index],
                f"{layout} load: placement, invariants or counts",
            )
        totals.append(pass_total)
        passes += 1
    normalised = sum(units.values("load"))
    raw = sum(units.values("load", raw=True))
    stats = totals[0]
    outcome.put("setup_s", statistics.median(setup_s), "s",
                statistics.median(setup_raw))
    outcome.put("exec_s", normalised / passes, "s", raw / passes)
    outcome.put("ops_per_s", stats.rows_in * passes / normalised, "1/s",
                stats.rows_in * passes / raw)
    put_latencies(outcome, units.values("batch"),
                  units.values("batch", raw=True))
    outcome.put("sim_s", stats.simulated_seconds(), "sim-s")
    outcome.put("network_mb", stats.bytes_written / 1e6, "MB")
    outcome.put("redundancy", stats.copies_written / stats.rows_in - 1, "ratio")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.notes.append(f"passes={passes} rows per pass={stats.rows_in}")
    return outcome


def _valid(partitioned, config, expected) -> bool:
    try:
        check_pref_invariants(partitioned, config)
    except InvariantViolation:
        return False
    return _placement(partitioned, config) == expected


# -- traced run ------------------------------------------------------------


def traced(seed: int, seconds: float, clock) -> Outcome:
    """Insert time per table, loader counts, and partition_database time."""
    from layers import TABLES

    outcome = Outcome()
    setup = LoadSetup()
    expected = [
        _placement(partition_database(setup.database, config), config)
        for _, config in setup.configs
    ]
    plain, units = Units(clock), Units(clock)
    plain_loader = Loader(setup, plain)
    traced_loader = Loader(setup, units, per_table=True)
    rng = random.Random(seed)
    totals = BulkLoadStats()
    passes = 0
    started = time.perf_counter()
    while passes < 1 or time.perf_counter() - started < seconds:
        tail_order = rng.sample(range(TAIL_ORDERS), TAIL_ORDERS)
        plain_loader.load(tail_order)
        loaded = traced_loader.load(tail_order)
        for index, ((layout, config), (partitioned, stats)) in enumerate(
            zip(setup.configs, loaded)
        ):
            outcome.check(_valid(partitioned, config, expected[index]),
                          f"{layout} load: placement or invariants")
            totals.merge(stats)
        passes += 1
    plain.close()
    units.close()
    for table in TABLES:
        outcome.put(
            f"partitioning.insert_ms.{table}",
            sum(units.values(table)) / passes * 1000,
            "ms",
            sum(units.values(table, raw=True)) / passes * 1000,
        )
    outcome.put("partitioning.index_lookups", totals.index_lookups / passes, "count")
    outcome.put("partitioning.copies_written", totals.copies_written / passes, "count")
    outcome.put(
        "partitioning.propagated_copies", totals.propagated_copies / passes, "count"
    )
    began = time.perf_counter()
    for _layout, config in setup.configs:
        partition_database(setup.database, config)
    elapsed = time.perf_counter() - began
    outcome.put("partitioning.partition_s", elapsed / clock.factor(), "s", elapsed)
    outcome.put(
        "trace.overhead_ratio",
        sum(units.values("load")) / sum(plain.values("load")),
        "ratio",
    )
    outcome.notes.append(f"traced passes={passes}")
    return outcome
