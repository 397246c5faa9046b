"""The layer boundaries the traced run wraps, and the per-layer metrics.

Every per-layer metric is named ``<module>.<boundary>.<quantity>`` after a
``src/repro/`` package and records, in ``moves``, the end-to-end metric
and workload it is expected to move. ``BENCHMARK.json`` cannot carry that
mapping (its per-layer entries have a fixed set of keys), so this table
is where it is written down; ``python3 perfbench/suite.py --write-spec``
regenerates ``BENCHMARK.json`` from it.

The end-to-end names in ``moves`` are the workload-specific names the
report prints (``query_p50_ms`` ...); see ``E2E_ALIASES`` in ``run.py``
for how they map onto the generic ``op_*`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

from perfbench.tracer import Boundary, BoundaryStats


def _count_chars(stat: BoundaryStats, args, kwargs, result) -> None:
    stat.counters["chars"] += len(args[0] if args else kwargs["sql"])


def _count_rows(stat: BoundaryStats, batch) -> None:
    stat.counters["rows"] += batch.num_rows


def _row_group_bytes(stat: BoundaryStats, args, kwargs, result) -> None:
    footer, rg_index = args[1], args[2]
    names = result.schema.names()
    stat.counters["bytes"] += sum(
        footer.row_groups[rg_index].column(name).length for name in names
    )


def _result_bytes(stat: BoundaryStats, args, kwargs, result) -> None:
    stat.counters["bytes"] += len(result)


def _put_bytes(stat: BoundaryStats, args, kwargs, result) -> None:
    # put_object(self, bucket, key, data, ...) / put_if_generation(same).
    stat.counters["bytes"] += len(args[3] if len(args) > 3 else kwargs["data"])


def _files_compacted(stat: BoundaryStats, args, kwargs, result) -> None:
    stat.counters["files_compacted"] += result.files_compacted


def _session_files(stat: BoundaryStats, args, kwargs, result) -> None:
    stat.counters["files_total"] += result.stats.files_total
    stat.counters["files_read"] += result.stats.files_after_pruning


BOUNDARIES: list[Boundary] = [
    Boundary("sql.parse_expression", (("repro.sql.parser", "parse_expression"),), _count_chars),
    Boundary("sql.parse_statement", (("repro.sql.parser", "parse_statement"),)),
    Boundary("sql.bind", (("repro.sql.expressions", "Binder.bind"),)),
    Boundary("engine.plan", (("repro.engine.engine", "QueryEngine.plan"),)),
    Boundary("engine.execute_plan", (("repro.engine.operators", "execute_plan"),)),
    Boundary("cache.decode_chunk", (("repro.cache", "DataCache.decode_chunk"),)),
    Boundary(
        "storageapi.create_read_session",
        (("repro.storageapi.read_api", "ReadApi.create_read_session"),),
        _session_files,
    ),
    Boundary(
        "storageapi.read_rows",
        (("repro.storageapi.read_api", "ReadApi.read_rows"),),
        on_item=_count_rows,
    ),
    Boundary(
        "storageapi.superluminal_init",
        (("repro.storageapi.superluminal", "Superluminal.__init__"),),
    ),
    Boundary("formats.read_footer", (("repro.formats.pqs", "read_footer"),)),
    Boundary(
        "formats.read_row_group", (("repro.formats.pqs", "read_row_group"),), _row_group_bytes
    ),
    Boundary("formats.write_table", (("repro.formats.pqs", "write_table"),), _result_bytes),
    Boundary(
        "objectstore.get",
        (
            ("repro.objectstore.store", "ObjectStore.get_object"),
            ("repro.objectstore.store", "ObjectStore.get_range"),
        ),
        _result_bytes,
    ),
    Boundary("objectstore.list", (("repro.objectstore.store", "ObjectStore.list_objects"),)),
    Boundary(
        "objectstore.put",
        (
            ("repro.objectstore.store", "ObjectStore.put_object"),
            ("repro.objectstore.store", "ObjectStore.put_if_generation"),
        ),
        _put_bytes,
    ),
    Boundary("metastore.prune", (("repro.metastore.bigmeta", "BigMetadataService.prune"),)),
    Boundary("metastore.commit", (("repro.metastore.bigmeta", "MetaTransaction.commit"),)),
    Boundary("txn.execute", (("repro.txn.coordinator", "Transaction.execute"),)),
    Boundary("txn.commit", (("repro.txn.coordinator", "Transaction.commit"),)),
    Boundary(
        "blmt.optimize_storage",
        (("repro.core.blmt", "BlmtManager.optimize_storage"),),
        _files_compacted,
    ),
    Boundary("blmt.garbage_collect", (("repro.core.blmt", "BlmtManager.garbage_collect"),)),
    Boundary("serving.drain", (("repro.serving.jobs", "JobQueue.drain"),)),
    Boundary("serving.pool_run", (("repro.serving.pool", "SlotPool.run"),)),
    Boundary("security.is_allowed", (("repro.security.iam", "IamService.is_allowed"),)),
]

# Boundaries the mapping predicts each workload hits. The traced run fails
# its self-check if one of them records zero calls: that means a wrapper
# missed its call sites, not that the layer is idle. On readapi_scan the
# footer tier holds every footer after warm-up and the cached scan decodes
# through DataCache.decode_chunk, so formats.read_footer/read_row_group are
# not predicted there (they run on txn_rw's compaction and reads).
PREDICTED_HITS: dict[str, tuple[str, ...]] = {
    "analytics": (
        "sql.parse_statement", "sql.parse_expression", "sql.bind",
        "engine.execute_plan", "storageapi.create_read_session",
        "storageapi.read_rows", "storageapi.superluminal_init",
        "metastore.prune", "serving.drain", "serving.pool_run",
        "security.is_allowed",
    ),
    "readapi_scan": (
        "sql.parse_expression", "storageapi.create_read_session",
        "storageapi.read_rows", "storageapi.superluminal_init",
        "cache.decode_chunk", "objectstore.get",
        "metastore.prune", "security.is_allowed",
    ),
    "txn_rw": (
        "sql.parse_statement", "sql.bind", "engine.plan", "engine.execute_plan",
        "formats.write_table", "objectstore.put", "objectstore.list",
        "metastore.commit", "txn.execute", "txn.commit",
        "blmt.optimize_storage", "blmt.garbage_collect", "security.is_allowed",
    ),
}

# (name, unit, better, moves). ``moves`` is "<end-to-end metric>@<workload>".
PER_LAYER: list[tuple[str, str, str, tuple[str, ...]]] = [
    ("sql.parse_expression.calls", "count", "lower", ("query_p50_ms@analytics", "queries_per_s@analytics", "query_p95_ms@txn_rw")),
    ("sql.parse_expression.self_ms", "ms", "lower", ("query_p50_ms@analytics", "queries_per_s@analytics", "query_p95_ms@txn_rw")),
    ("sql.parse_expression.chars", "chars", "lower", ("query_p50_ms@analytics", "queries_per_s@analytics")),
    ("sql.parse_statement.calls", "count", "lower", ("query_p50_ms@analytics", "query_p95_ms@txn_rw")),
    ("sql.parse_statement.self_ms", "ms", "lower", ("query_p50_ms@analytics", "query_p95_ms@txn_rw")),
    ("sql.bind.calls", "count", "lower", ("query_p50_ms@analytics", "query_p95_ms@txn_rw")),
    ("sql.bind.self_ms", "ms", "lower", ("query_p50_ms@analytics", "queries_per_s@analytics", "query_p95_ms@txn_rw")),
    ("engine.plan.calls", "count", "lower", ("query_p90_ms@analytics", "query_p95_ms@txn_rw")),
    ("engine.plan.self_ms", "ms", "lower", ("query_p90_ms@analytics", "query_p95_ms@txn_rw")),
    ("engine.execute_plan.self_ms", "ms", "lower", ("query_p90_ms@analytics",)),
    ("cache.plan.hit_ratio", "ratio", "higher", ("query_p50_ms@analytics", "query_p95_ms@txn_rw")),
    ("cache.chunk.hit_ratio", "ratio", "higher", ("scan_rows_per_s@readapi_scan",)),
    ("cache.chunk.evictions", "count", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("cache.footer.hit_ratio", "ratio", "higher", ("scan_rows_per_s@readapi_scan",)),
    ("cache.decode_chunk.calls", "count", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("cache.decode_chunk.self_ms", "ms", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("storageapi.create_read_session.calls", "count", "lower", ("session_p50_ms@readapi_scan",)),
    ("storageapi.create_read_session.self_ms", "ms", "lower", ("session_p50_ms@readapi_scan",)),
    ("storageapi.read_rows.self_ms", "ms", "lower", ("session_p50_ms@readapi_scan", "scan_rows_per_s@readapi_scan")),
    ("storageapi.read_rows.rows", "rows", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("storageapi.superluminal_init.self_ms", "ms", "lower", ("session_p50_ms@readapi_scan", "queries_per_s@analytics")),
    ("storageapi.files_read_ratio", "ratio", "lower", ("session_p50_ms@readapi_scan", "scan_rows_per_s@readapi_scan")),
    ("formats.read_footer.calls", "count", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("formats.read_footer.self_ms", "ms", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("formats.read_row_group.calls", "count", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("formats.read_row_group.self_ms", "ms", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("formats.read_row_group.bytes", "bytes", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("formats.write_table.calls", "count", "lower", ("commit_p50_ms@txn_rw",)),
    ("formats.write_table.self_ms", "ms", "lower", ("commit_p50_ms@txn_rw",)),
    ("formats.write_table.bytes", "bytes", "lower", ("commit_p50_ms@txn_rw",)),
    ("objectstore.get.calls", "count", "lower", ("scan_rows_per_s@readapi_scan", "session_p50_ms@readapi_scan")),
    ("objectstore.get.bytes", "bytes", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("objectstore.get.self_ms", "ms", "lower", ("scan_rows_per_s@readapi_scan",)),
    ("objectstore.list.calls", "count", "lower", ("session_p50_ms@readapi_scan", "commit_p95_ms@txn_rw")),
    ("objectstore.put.calls", "count", "lower", ("commit_p50_ms@txn_rw", "commits_per_s@txn_rw")),
    ("objectstore.put.bytes", "bytes", "lower", ("commit_p50_ms@txn_rw", "commits_per_s@txn_rw")),
    ("objectstore.cas_failed", "count", "lower", ("commit_p95_ms@txn_rw",)),
    ("objectstore.write_amp", "ratio", "lower", ("commits_per_s@txn_rw",)),
    ("metastore.prune.calls", "count", "lower", ("session_p50_ms@readapi_scan", "query_p50_ms@analytics")),
    ("metastore.prune.self_ms", "ms", "lower", ("session_p50_ms@readapi_scan", "query_p50_ms@analytics")),
    ("metastore.commit.calls", "count", "lower", ("commit_p50_ms@txn_rw", "commit_p95_ms@txn_rw")),
    ("metastore.commit.self_ms", "ms", "lower", ("commit_p50_ms@txn_rw", "commit_p95_ms@txn_rw")),
    ("metastore.log_records", "count", "lower", ("commit_p50_ms@txn_rw", "commit_p95_ms@txn_rw")),
    ("txn.execute.self_ms", "ms", "lower", ("commit_p50_ms@txn_rw", "commit_p95_ms@txn_rw")),
    ("txn.commit.self_ms", "ms", "lower", ("commit_p50_ms@txn_rw", "commit_p95_ms@txn_rw")),
    ("txn.conflicts", "count", "lower", ("commits_per_s@txn_rw",)),
    ("txn.aborts", "count", "lower", ("commits_per_s@txn_rw",)),
    ("blmt.optimize_storage.calls", "count", "lower", ("commit_p95_ms@txn_rw",)),
    ("blmt.optimize_storage.self_ms", "ms", "lower", ("commit_p95_ms@txn_rw",)),
    ("blmt.optimize_storage.files_compacted", "count", "higher", ("commit_p95_ms@txn_rw",)),
    ("blmt.garbage_collect.self_ms", "ms", "lower", ("commit_p95_ms@txn_rw",)),
    ("serving.drain.self_ms", "ms", "lower", ("queries_per_s@analytics",)),
    ("serving.pool_run.self_ms", "ms", "lower", ("queries_per_s@analytics",)),
    ("security.is_allowed.calls", "count", "lower", ("query_p50_ms@analytics", "session_p50_ms@readapi_scan", "commit_p50_ms@txn_rw")),
    ("security.is_allowed.self_ms", "ms", "lower", ("query_p50_ms@analytics", "session_p50_ms@readapi_scan", "commit_p50_ms@txn_rw")),
    ("trace.overhead_ratio", "ratio", "lower", ()),
    # The episode's simulated ms: the clock the paper's figures use. Moves
    # only when a change alters the model on purpose.
    ("simtime.episode_ms", "sim-ms", "lower", ("sim_ms@analytics", "sim_ms@readapi_scan", "sim_ms@txn_rw")),
    ("bench.answer_drift", "count", "lower", ("query_p50_ms@analytics",)),
]


def per_layer_values(
    stats: dict[str, BoundaryStats], extra: dict[str, float]
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric for one traced episode.

    ``<boundary>.calls`` / ``.self_ms`` / ``.<counter>`` come from the
    wrappers; everything else (cache deltas, ratios, benchmark counts) is
    passed in ``extra`` by the workload.
    """
    values: dict[str, float] = {}
    for name, _unit, _better, _moves in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
            continue
        boundary, _, quantity = name.rpartition(".")
        stat = stats[boundary]
        if quantity == "calls":
            values[name] = stat.calls
        elif quantity == "self_ms":
            values[name] = stat.self_ms
        else:
            values[name] = stat.counters[quantity]
    return values
