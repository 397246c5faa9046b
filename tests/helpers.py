"""Shared setup helpers for integration-level tests."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

from repro import LakehousePlatform, Role
from repro.data import DataType, Schema, batch_from_pydict
from repro.engine.engine import QueryEngine, QueryResult, QueryStats, StageScan
from repro.metastore.catalog import MetadataCacheMode
from repro.serving.jobs import settle_solo
from repro.simtime import SimContext
from repro.storageapi.fileutil import write_data_file

SALES_SCHEMA = Schema.of(
    ("order_id", DataType.INT64),
    ("region", DataType.STRING),
    ("amount", DataType.FLOAT64),
    ("year", DataType.INT64),
)


def stage_stats(costs: list[float], stage: str = "t") -> QueryStats:
    """Stats of one scan stage whose per-task costs are ``costs``."""
    return QueryStats(
        scan_work_ms=sum(costs),
        scan_tasks=len(costs),
        scan_stages=[StageScan(stage, sum(costs), list(costs))],
    )


def settle_stats(
    stats: QueryStats,
    slots: int,
    *,
    startup_ms: float = 0.0,
    faults=None,
    speculation=None,
) -> QueryStats:
    """Settle ``stats`` as a one-job slot-pool run on a bare engine with
    ``slots`` slots; ``faults`` (a FaultInjector) supplies ``task.slow``
    factors. Returns ``stats`` with the verdict grafted on."""
    ctx = faults.ctx if faults is not None else SimContext()
    ctx.costs = replace(ctx.costs, slot_startup_ms=startup_ms)
    engine = QueryEngine(
        SimpleNamespace(ctx=ctx), catalog=None, slots=slots, speculation=speculation
    )
    settle_solo(engine, QueryResult(schema=Schema.of(), batches=[], stats=stats))
    return stats


def make_platform():
    """A platform with an admin user."""
    platform = LakehousePlatform()
    admin = platform.admin_user()
    return platform, admin


def setup_sales_lake(
    platform,
    admin,
    bucket: str = "lake",
    dataset: str = "ds",
    table: str = "sales",
    cache_mode: MetadataCacheMode = MetadataCacheMode.AUTOMATIC,
    files: int = 4,
    rows_per_file: int = 50,
):
    """Write a small partition-friendly sales lake and register a BigLake
    table over it. Files are written with disjoint order_id ranges and one
    year per file half, so statistics can prune."""
    store = platform.stores.store_for(platform.config.home_region.location)
    if not store.has_bucket(bucket):
        store.create_bucket(bucket)
    connection_name = f"{dataset}.lakeconn"
    if not platform.connections.has_connection(connection_name):
        conn = platform.connections.create_connection(connection_name)
        platform.connections.grant_lake_access(conn, bucket)
    platform.iam.grant(f"connections/{connection_name}", Role.CONNECTION_USER, admin)
    if not platform.catalog.has_dataset(dataset):
        platform.catalog.create_dataset(dataset)

    regions = ["us", "eu", "apac"]
    for i in range(files):
        year = 2022 if i < files // 2 else 2023
        base = i * rows_per_file
        rows = {
            "order_id": list(range(base, base + rows_per_file)),
            "region": [regions[j % 3] for j in range(rows_per_file)],
            "amount": [float(j + 1) for j in range(rows_per_file)],
            "year": [year] * rows_per_file,
        }
        write_data_file(
            store, bucket, f"{table}/part-{i:04d}.pqs", SALES_SCHEMA,
            [batch_from_pydict(SALES_SCHEMA, rows)],
        )
    info = platform.tables.create_biglake_table(
        admin, dataset, table, SALES_SCHEMA, bucket, table, connection_name,
        cache_mode=cache_mode,
    )
    return info, store
