"""The three benchmark workloads, driven through public ``repro`` APIs only.

Each workload is one client in a closed loop: it sends its next operation
only after the previous one returned. Its inputs come from the seed alone
(``tpch_lite.generate(seed=)``, ``tpcds_lite.generate(seed=)``, operation
order and parameters). A workload exposes:

* ``reference()`` — answers computed once, untimed, on the no-cache path;
* ``setup(log)`` — build the platform, load the data, run one warm-up
  pass (this is what ``setup_s`` times), each step or operation timed
  through ``log``;
* ``prepare(state)`` / ``episode(ep, index, log)`` — one fixed unit of
  measured work (a pass, or a fixed-length transaction episode). Episode 0
  after a fresh ``setup()`` is deterministic, so its ``sim_ms`` and row
  CRCs are the ones the traced run must reproduce.

Every answer is checked; a mismatch raises :class:`AnswerError`.
"""

from __future__ import annotations

import datetime
import math
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench.calibrate import Sampler
from repro.cache import CacheConfig
from repro.core import LakehousePlatform
from repro.core.platform import PlatformConfig
from repro.errors import ReproError
from repro.metastore.catalog import MetadataCacheMode
from repro.security.iam import Role
from repro.serving.workload import mixed_queries
from repro.storageapi.streams import rows_crc
from repro.txn.workload import build_txn_platform, check_invariant
from repro.workloads import tpcds_lite, tpch_lite

SCALE = 1.0
FLOAT_RTOL = 1e-9


class AnswerError(AssertionError):
    """The program returned a wrong answer (never an expected failure)."""


@dataclass
class OpLog:
    """Latencies (ms) by operation kind; a failed op is ``inf``.

    ``ops`` keeps (kind, start, end) of every op in order, ``perf_counter``
    seconds with ``end`` ``inf`` for a failed op. With a ``sampler`` the
    calibration kernel runs before every op, and :meth:`scaled` turns the
    ops into speed-scaled latencies.
    """

    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    sampler: Sampler | None = None
    ops: list[tuple[str, float, float]] = field(default_factory=list)

    def timed(self, kind: str, fn: Callable[[], Any]) -> tuple[bool, Any]:
        """Run one operation; a ``ReproError`` is a counted failure, any
        other exception aborts the run."""
        self.attempted += 1
        if self.sampler:
            self.sampler.tick()
        start = time.perf_counter()
        try:
            result = fn()
        except ReproError as exc:
            self.busy_s += time.perf_counter() - start
            self.failed += 1
            self.latencies.setdefault(kind, []).append(math.inf)
            self.ops.append((kind, start, math.inf))
            return False, exc
        end = time.perf_counter()
        self._record(kind, start, end)
        return True, result

    def step(self, fn: Callable[[], Any]) -> Any:
        """Time one set-up step like an operation of kind ``setup``; an
        exception propagates, since a set-up that fails has no result."""
        if self.sampler:
            self.sampler.tick()
        start = time.perf_counter()
        result = fn()
        self._record("setup", start, time.perf_counter())
        return result

    def _record(self, kind: str, start: float, end: float) -> None:
        self.busy_s += end - start
        self.latencies.setdefault(kind, []).append((end - start) * 1000.0)
        self.ops.append((kind, start, end))

    def scaled(self, first: int = 0, last: int | None = None) -> dict[str, list[float]]:
        """Speed-scaled latencies (ms) by kind of ``ops[first:last]``."""
        return self._by_kind(self.sampler.scaled_ms, first, last)

    def wall(self) -> dict[str, list[float]]:
        """Wall latencies (ms) by kind, less the calibration kernels."""
        return self._by_kind(self.sampler.wall_ms, 0, None)

    def _by_kind(self, measure, first: int, last: int | None) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, start, end in self.ops[first:last]:
            out.setdefault(kind, []).append(math.inf if end == math.inf else measure(start, end))
        return out

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Episode:
    sim_ms: float
    crcs: list[int]


def _analyst(platform, name: str, connections: tuple[str, ...]):
    user = platform.create_user(name, [Role.DATA_VIEWER, Role.JOB_USER])
    for connection in connections:
        platform.iam.grant(f"connections/{connection}", Role.CONNECTION_USER, user)
    return user


def _lake_platform(
    seed: int, data_cache: CacheConfig, cache_mode: MetadataCacheMode, log: OpLog
):
    """Both lite lakes on one platform, read by one analyst principal; each
    generate and load is one step of ``log``."""
    platform = log.step(lambda: LakehousePlatform(PlatformConfig(data_cache=data_cache)))
    admin = platform.admin_user()
    for lake in (tpch_lite, tpcds_lite):
        data = log.step(lambda: lake.generate(scale=SCALE, seed=seed))
        log.step(lambda: lake.load_as_biglake(platform, admin, data, cache_mode=cache_mode))
    return platform, _analyst(platform, "analyst", ("tpch.lake", "tpcds.lake"))


def _no_cache_platform(seed: int):
    return _lake_platform(seed, CacheConfig(enabled=False), MetadataCacheMode.DISABLED, OpLog())


def _crc(rows) -> int:
    return zlib.crc32(repr(rows).encode("utf-8"))


def _values_close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))
    return a == b


def _rows_close(rows: list[tuple], expected: list[tuple]) -> bool:
    return len(rows) == len(expected) and all(
        len(r) == len(e) and all(_values_close(x, y) for x, y in zip(r, e))
        for r, e in zip(rows, expected)
    )


def _sort_key(row: tuple):
    return tuple(
        (0, f"{v:.6e}") if isinstance(v, float) else (1, repr(v)) for v in row
    )


def _seeded(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed, *salt)))


def _file_counts(platform, tables: list[tuple[str, str]]) -> dict[str, int]:
    return {
        f"{ds}.{name}": len(platform.bigmeta.snapshot(platform.catalog.get_table(ds, name).table_id))
        for ds, name in tables
    }


def _tier_sizes(data_cache) -> dict[str, dict[str, int]]:
    return {
        tier: {"resident_bytes": s["resident_bytes"], "capacity_bytes": s["capacity_bytes"]}
        for tier, s in data_cache.snapshot().items()
    }


class Analytics:
    name = "analytics"
    why = (
        "SQL over both lite lakes, result cache off, plan cache on: the "
        "sql/engine/DPP hot path; the working set fits the chunk cache"
    )
    primary = "query"
    # The tail percentile with at least ten samples beyond it: a 20 s run
    # makes 8-10 passes of 17 statements, so 13-17 lie beyond p90 and
    # only 6-8 beyond p95.
    tail_q = 0.90

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.queries = mixed_queries()
        self.reference_rows: dict[str, list[tuple]] = {}
        self.drift: set[str] = set()

    def reference(self) -> None:
        platform, user = _no_cache_platform(self.seed)
        for name, sql in self.queries:
            rows = platform.home_engine.execute(sql, user, use_query_cache=False).rows()
            self.reference_rows[name] = rows

    def setup(self, log: OpLog):
        platform, user = _lake_platform(
            self.seed, CacheConfig(), MetadataCacheMode.AUTOMATIC, log
        )
        self._pass(platform, user, "warmup", log)
        return platform, user

    def prepare(self, state):
        return state

    def episode(self, ep, index: int, log: OpLog) -> Episode:
        platform, user = ep
        return self._pass(platform, user, index, log)

    def _pass(self, platform, user, index, log: OpLog) -> Episode:
        order = list(self.queries)
        _seeded(self.seed, "analytics", index).shuffle(order)
        engine = platform.home_engine
        start_ms = platform.ctx.clock.now_ms
        crcs = []
        for name, sql in order:
            ok, rows = log.timed(
                "query", lambda: engine.execute(sql, user, use_query_cache=False).rows()
            )
            if ok:
                self._check(name, rows)
                crcs.append(_crc(rows))
        return Episode(platform.ctx.clock.now_ms - start_ms, crcs)

    def _check(self, name: str, rows: list[tuple]) -> None:
        expected = self.reference_rows[name]
        if repr(rows) == repr(expected):
            return
        rows_sorted = sorted(rows, key=_sort_key)
        expected_sorted = sorted(expected, key=_sort_key)
        if repr(rows_sorted) == repr(expected_sorted):
            return  # same rows; the statement fixes no order
        if not _rows_close(rows, expected) and not _rows_close(rows_sorted, expected_sorted):
            raise AnswerError(f"{name}: rows differ from the no-cache reference")
        self.drift.add(name)

    def inputs(self, state) -> dict[str, Any]:
        platform, _ = state
        return {
            "scale": SCALE,
            "statements_per_pass": len(self.queries),
            "files": _file_counts(platform, [("tpch", "lineitem"), ("tpcds", "store_sales")]),
            "cache_tiers": _tier_sizes(platform.data_cache),
        }

    def extra(self, log: OpLog) -> dict[str, float]:
        return {"bench.answer_drift": len(self.drift)}


# Columns a Read API session may select, per fact table.
_LINEITEM_COLUMNS = (
    "l_orderkey", "l_partkey", "l_quantity", "l_extendedprice", "l_discount",
    "l_returnflag", "l_shipdate", "l_shipmode",
)
_STORE_SALES_COLUMNS = (
    "ss_sold_date_sk", "ss_item_sk", "ss_store_sk", "ss_customer_sk",
    "ss_quantity", "ss_sales_price", "ss_net_profit",
)
_TPCH_EPOCH = datetime.date(1995, 1, 1)


@dataclass(frozen=True)
class SessionSpec:
    dataset: str
    table: str
    columns: tuple[str, ...]
    row_restriction: str


class ReadApiScan:
    name = "readapi_scan"
    why = (
        "Read API sessions with column subsets and range restrictions over "
        "the many-file fact tables; the chunk cache is smaller than the scan"
    )
    primary = "session"
    tail_q = 0.95
    # Every session reads the same number of columns over a same-width
    # window at a seeded position, half of them on each fact table, so
    # seeds move where a pass reads but not how much it reads.
    sessions_per_pass = 32
    columns_per_session = 4
    lineitem_window_days = 180
    store_sales_window_days = 120
    # Well below the 1.5-2 MiB a pass scans, so the chunk tier evicts every pass.
    chunk_capacity_bytes = 256 * 1024

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _seeded(seed, "readapi_scan")
        self.specs = [self._spec(rng, i % 2 == 0) for i in range(self.sessions_per_pass)]
        self.reference_crcs: dict[SessionSpec, int] = {}
        self.working_set: dict[str, dict[str, int]] = {}

    def _spec(self, rng: random.Random, lineitem: bool) -> SessionSpec:
        if lineitem:
            first = _TPCH_EPOCH + datetime.timedelta(rng.randrange(30, 540))
            last = first + datetime.timedelta(self.lineitem_window_days)
            return SessionSpec(
                "tpch", "lineitem",
                tuple(rng.sample(_LINEITEM_COLUMNS, self.columns_per_session)),
                f"l_shipdate >= DATE '{first}' AND l_shipdate < DATE '{last}'",
            )
        first = rng.randrange(0, 600)
        return SessionSpec(
            "tpcds", "store_sales",
            tuple(rng.sample(_STORE_SALES_COLUMNS, self.columns_per_session)),
            f"ss_sold_date_sk BETWEEN {first} AND {first + self.store_sales_window_days - 1}",
        )

    def reference(self) -> None:
        platform, user = _no_cache_platform(self.seed)
        for spec in self.specs:
            self.reference_crcs[spec] = rows_crc(self._drain(platform, user, spec))
        # Sizing pass: the default-capacity cache holds the whole scan, so
        # what it keeps resident is the pass's working set per tier.
        platform, user = _lake_platform(
            self.seed, CacheConfig(), MetadataCacheMode.AUTOMATIC, OpLog()
        )
        for spec in self.specs:
            self._drain(platform, user, spec)
        self.working_set = _tier_sizes(platform.data_cache)

    def setup(self, log: OpLog):
        platform, user = _lake_platform(
            self.seed,
            CacheConfig(chunk_capacity_bytes=self.chunk_capacity_bytes),
            MetadataCacheMode.AUTOMATIC,
            log,
        )
        self._pass(platform, user, "warmup", log)
        return platform, user

    def prepare(self, state):
        return state

    def episode(self, ep, index: int, log: OpLog) -> Episode:
        platform, user = ep
        return self._pass(platform, user, index, log)

    @staticmethod
    def _drain(platform, user, spec: SessionSpec) -> list:
        read_api = platform.read_api
        session = read_api.create_read_session(
            user, platform.catalog.get_table(spec.dataset, spec.table),
            columns=list(spec.columns), row_restriction=spec.row_restriction,
        )
        return [
            batch
            for index in range(len(session.streams))
            for batch in read_api.read_rows(session, index)
        ]

    def _pass(self, platform, user, index, log: OpLog) -> Episode:
        order = list(self.specs)
        _seeded(self.seed, "readapi_scan", index).shuffle(order)
        start_ms = platform.ctx.clock.now_ms
        crcs = []
        for spec in order:
            ok, batches = log.timed("session", lambda: self._drain(platform, user, spec))
            if ok:
                crc = rows_crc(batches)
                if crc != self.reference_crcs[spec]:
                    raise AnswerError(
                        f"{spec}: rows_crc {crc} != no-cache reference "
                        f"{self.reference_crcs[spec]}"
                    )
                log.add("rows", sum(batch.num_rows for batch in batches))
                crcs.append(crc)
        return Episode(platform.ctx.clock.now_ms - start_ms, crcs)

    def inputs(self, state) -> dict[str, Any]:
        platform, _ = state
        return {
            "scale": SCALE,
            "sessions_per_pass": self.sessions_per_pass,
            "files": _file_counts(platform, [("tpch", "lineitem"), ("tpcds", "store_sales")]),
            "working_set": self.working_set,
            "cache_tiers": _tier_sizes(platform.data_cache),
        }

    def extra(self, log: OpLog) -> dict[str, float]:
        return {}


_READER_SQL = (
    "SELECT o.order_id, o.total, SUM(l.amount) AS items_total, COUNT(*) AS items "
    "FROM txn.orders AS o JOIN txn.lineitems AS l ON o.order_id = l.order_id "
    "GROUP BY o.order_id, o.total ORDER BY o.order_id"
)
# Fixed-width bytes of the rows the client writes: a lineitem row is three
# 8-byte values, the updated order row two.
_LINEITEM_ROW_BYTES = 24
_ORDER_ROW_BYTES = 16


@dataclass(frozen=True)
class TxnSpec:
    order_id: int
    amounts: tuple[float, ...]


class TxnRw:
    name = "txn_rw"
    why = (
        "BLMT transactions (insert lineitems, update the order total) with a "
        "reader join every 10 commits and compaction every 50"
    )
    primary = "commit"
    tail_q = 0.95
    orders = 16
    commits = 200
    reader_every = 10
    background_every = 50
    warmup_commits = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _seeded(seed, "txn_rw")
        self.specs = [
            TxnSpec(
                rng.randint(1, self.orders),
                tuple(rng.randint(100, 99_999) / 100 for _ in range(rng.randint(1, 3))),
            )
            for _ in range(self.commits)
        ]

    def reference(self) -> None:
        """The expected state is the benchmark's own running model."""

    def setup(self, log: OpLog):
        ep = log.step(lambda: self.prepare(None))
        self._run(ep, self.specs[: self.warmup_commits], log)
        return ep

    def prepare(self, state):
        platform, admin = build_txn_platform(orders=self.orders)
        platform.txn  # coordinator creation + its recovery sweep
        tables = [platform.catalog.get_table("txn", n) for n in ("orders", "lineitems")]
        return platform, admin, tables

    def episode(self, ep, index: int, log: OpLog) -> Episode:
        return self._run(ep, self.specs, log)

    def _run(self, ep, specs, log: OpLog) -> Episode:
        platform, admin, tables = ep
        totals = {oid: 3.0 * oid for oid in range(1, self.orders + 1)}
        items = {oid: 2 for oid in totals}
        start_ms = platform.ctx.clock.now_ms
        crcs = []
        for i, spec in enumerate(specs):
            ok, outcome = log.timed("commit", lambda: self._commit(platform, admin, i, spec))
            if ok:
                totals[spec.order_id] += sum(spec.amounts)
                items[spec.order_id] += len(spec.amounts)
                log.add("user_bytes", len(spec.amounts) * _LINEITEM_ROW_BYTES + _ORDER_ROW_BYTES)
            else:
                log.add(type(outcome).__name__, 1)
            done = i + 1
            if done % self.reader_every == 0:
                crcs.append(self._reader(platform, admin, totals, items, log))
            if done % self.background_every == 0:
                for table in tables:
                    log.timed("background", lambda: platform.tables.blmt.optimize_storage(table))
        final = sorted(
            platform.home_engine.execute("SELECT order_id, total FROM txn.orders", admin).rows()
        )
        if not _rows_close(final, sorted(totals.items())):
            raise AnswerError("final order totals differ from the committed amounts")
        crcs.append(_crc(final))
        return Episode(platform.ctx.clock.now_ms - start_ms, crcs)

    @staticmethod
    def _commit(platform, admin, i: int, spec: TxnSpec) -> None:
        """begin -> INSERT lineitems -> UPDATE order total -> commit."""
        txn = platform.begin(admin)
        values = ", ".join(
            f"({spec.order_id}, {1_000_000 + i * 10 + k}, {amount!r})"
            for k, amount in enumerate(spec.amounts)
        )
        try:
            txn.execute(f"INSERT INTO txn.lineitems (order_id, item_id, amount) VALUES {values}")
            txn.execute(
                f"UPDATE txn.orders SET total = total + {sum(spec.amounts)!r} "
                f"WHERE order_id = {spec.order_id}"
            )
            txn.commit()
        except ReproError:
            txn.abort()
            raise

    def _reader(self, platform, admin, totals, items, log: OpLog) -> int:
        ok, rows = log.timed("query", lambda: platform.home_engine.execute(_READER_SQL, admin).rows())
        if not ok:
            return 0
        for order_id, total, items_total, count in rows:
            if not _values_close(total, totals[order_id]) or count != items[order_id]:
                raise AnswerError(f"reader: order {order_id} disagrees with the committed amounts")
            if abs(total - items_total) > 1e-6:
                raise AnswerError(f"reader: order {order_id} total != lineitem sum")
        violations = check_invariant(platform, admin)
        if violations:
            raise AnswerError("; ".join(violations))
        return _crc(rows)

    def inputs(self, ep) -> dict[str, Any]:
        platform = ep[0]
        files = _file_counts(platform, [("txn", "orders"), ("txn", "lineitems")])
        table_bytes = sum(
            entry.size_bytes
            for table in ep[2]
            for entry in platform.bigmeta.snapshot(table.table_id)
        )
        return {
            "files_after_episode": files,
            "table_bytes_after_episode": table_bytes,
            "cache_tiers": _tier_sizes(platform.data_cache),
            "orders": self.orders,
            "commits_per_episode": self.commits,
            "reader_every": self.reader_every,
            "background_every": self.background_every,
            "lineitems_per_commit": "1-3 (seeded)",
        }

    def extra(self, log: OpLog) -> dict[str, float]:
        return {
            "txn.conflicts": log.counts.get("TransactionConflictError", 0),
            "txn.aborts": log.counts.get("TransactionAbortedError", 0),
        }


WORKLOADS = {w.name: w for w in (Analytics, ReadApiScan, TxnRw)}
