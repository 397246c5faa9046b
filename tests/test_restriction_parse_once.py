"""A read session parses and binds its row restriction once.

The restriction arrives as SQL text (the Read API's wire form) and is
parsed and bound at ``create_read_session``; every stream, file and
``read_rows`` call after that reuses the session's compile. The parse
counting fixture rebinds every ``repro`` module's copy of
``parse_expression`` (modules import it by name), so a parse at any call
site is seen; the bind counting fixture wraps ``Binder.bind`` itself.

Compiling once must not cache *access*: each ``read_rows`` still resolves
the table's row policies at call time and binds them then, and the
ranged and warm-footer scans still fetch every column a policy or the
restriction reads.
"""

from __future__ import annotations

import sys

import pytest

from repro import Role
from repro.cache import CacheConfig
from repro.core.platform import LakehousePlatform, PlatformConfig
from repro.data import batch_from_pydict
from repro.external.sparksim import DirectLakeReader
from repro.security import RowAccessPolicy
from repro.sql import parser
from repro.sql.expressions import Binder
from repro.sql.parser import parse_expression
from repro.workloads.objects_corpus import build_image_corpus

from tests.helpers import SALES_SCHEMA, setup_sales_lake

# Prunes no file of either lake, so every lake path drains several streams.
RESTRICTION = "amount > 25 AND region = 'eu'"


@pytest.fixture
def parse_calls(monkeypatch):
    """Texts passed to ``parse_expression`` from anywhere in ``repro``."""
    calls: list[str] = []
    original = parser.parse_expression

    def counting(text, *args, **kwargs):
        calls.append(text)
        return original(text, *args, **kwargs)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def bind_count(monkeypatch):
    """``bind_count(text)``: how many times an expression equal to the
    parse of ``text`` was bound, counting top-level binds only (a bound
    subtree never equals the whole)."""
    bound = []
    original = Binder.bind

    def counting(self, expr):
        bound.append(expr)
        return original(self, expr)

    monkeypatch.setattr(Binder, "bind", counting)

    def count(text: str) -> int:
        target = parse_expression(text)
        return sum(1 for expr in bound if expr == target)

    count.clear = bound.clear
    return count


def _platform(cache: bool):
    platform = LakehousePlatform(PlatformConfig(data_cache=CacheConfig(enabled=cache)))
    return platform, platform.admin_user()


def _sales(cache: bool):
    platform, admin = _platform(cache)
    table, _ = setup_sales_lake(platform, admin, files=4, rows_per_file=60)
    return platform, admin, table


def _blmt(cache: bool):
    platform, admin = _platform(cache)
    store = platform.stores.store_for(platform.config.home_region.location)
    store.create_bucket("cust")
    conn = platform.connections.create_connection("us.cust")
    platform.connections.grant_lake_access(conn, "cust", writable=True)
    platform.iam.grant("connections/us.cust", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("ds")
    table = platform.tables.create_blmt(admin, "ds", "t", SALES_SCHEMA, "cust", "t", "us.cust")
    for part in range(3):
        rows = list(range(part * 40, (part + 1) * 40))
        platform.tables.blmt.insert(table, [batch_from_pydict(SALES_SCHEMA, {
            "order_id": rows,
            "region": ["us", "eu", "apac", "eu"] * 10,
            "amount": [float(r) for r in rows],
            "year": [2022 + part % 2] * 40,
        })])
    return platform, admin, table


def _objects(cache: bool):
    platform, admin = _platform(cache)
    store = platform.stores.store_for(platform.config.home_region.location)
    build_image_corpus(store, "media", count=12)
    conn = platform.connections.create_connection("us.media")
    platform.connections.grant_lake_access(conn, "media")
    platform.iam.grant("connections/us.media", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("dataset1")
    table = platform.tables.create_object_table(
        admin, "dataset1", "files", "media", "images", "us.media"
    )
    return platform, admin, table


def _drain(read_api, principal, table, **kwargs):
    """Create, hand off through the serialized handle, drain every stream."""
    session = read_api.create_read_session(principal, table, max_streams=3, **kwargs)
    attached = read_api.attach(session.serialize())
    rows = []
    for i in range(len(attached.streams)):
        for batch in read_api.read_rows(attached, i):
            rows.extend(batch.iter_rows())
    return attached, sorted(rows)


# name -> (fixture, cache on, restriction, create kwargs)
READ_API_PATHS = {
    "biglake_vectorized": (_sales, False, RESTRICTION, {}),
    "blmt_vectorized": (_blmt, False, RESTRICTION, {}),
    "row_oriented": (_sales, False, RESTRICTION, {"use_row_oriented_reader": True}),
    "ranged_reads": (_sales, False, RESTRICTION, {"ranged_reads": True}),
    "cold_chunk_cache": (_blmt, True, RESTRICTION, {"columns": ["order_id"]}),
    "object_data": (_objects, False, "size > 0", {"columns": ["uri", "data"]}),
}


class TestOneParsePerSession:
    @pytest.mark.parametrize("path", sorted(READ_API_PATHS))
    def test_read_api_path_parses_once(self, path, parse_calls, bind_count):
        build, cache, restriction, kwargs = READ_API_PATHS[path]
        platform, admin, table = build(cache)
        parse_calls.clear()
        bind_count.clear()
        session, rows = _drain(
            platform.read_api, admin, table, row_restriction=restriction, **kwargs
        )
        assert rows and (len(session.streams) > 1 or path == "object_data")
        assert parse_calls == [restriction]
        assert bind_count(restriction) == 1

    @pytest.mark.parametrize("ranged", [False, True])
    def test_warm_footer_scan_parses_once(self, ranged, parse_calls, bind_count):
        platform, admin, table = _sales(cache=True)
        _drain(platform.read_api, admin, table)  # cold: admits footers + chunks
        parse_calls.clear()
        bind_count.clear()
        session, rows = _drain(
            platform.read_api, admin, table, row_restriction=RESTRICTION,
            columns=["order_id"], ranged_reads=ranged,
        )
        assert rows and session.stats.cache_hit_bytes > 0
        assert parse_calls == [RESTRICTION]
        assert bind_count(RESTRICTION) == 1

    @pytest.mark.parametrize("path", sorted(READ_API_PATHS))
    def test_no_restriction_parses_nothing(self, path, parse_calls):
        build, cache, _, kwargs = READ_API_PATHS[path]
        platform, admin, table = build(cache)
        parse_calls.clear()
        _, rows = _drain(platform.read_api, admin, table, **kwargs)
        assert rows and parse_calls == []

    @pytest.mark.parametrize("restriction", [RESTRICTION, None])
    def test_sparksim_direct_parses_once(self, restriction, parse_calls, bind_count):
        platform, _, table = _sales(cache=False)
        power = platform.create_user("power", [Role.DATA_VIEWER])
        platform.iam.grant("buckets/lake", Role.STORAGE_OBJECT_VIEWER, power)
        reader = DirectLakeReader(platform)
        parse_calls.clear()
        bind_count.clear()
        session = reader.create_read_session(
            power, table, row_restriction=restriction, max_streams=3
        )
        rows = [
            row for i in range(len(session.streams))
            for batch in reader.read_rows(session, i) for row in batch.iter_rows()
        ]
        assert rows and len(session.streams) > 1
        assert parse_calls == ([restriction] if restriction else [])
        assert bind_count(RESTRICTION) == (1 if restriction else 0)


class TestAccessIsNotCached:
    """Compiling once must leave access resolution per ``read_rows`` call."""

    SCAN_MODES = {
        "vectorized": (False, {}),
        "row_oriented": (False, {"use_row_oriented_reader": True}),
        "ranged": (False, {"ranged_reads": True}),
        "warm_footer": (True, {}),
    }

    def _policy_after_create(self, cache: bool, **kwargs):
        """Rows an analyst reads when a row policy lands between
        ``create_read_session`` and ``read_rows``. Neither the policy's
        column (region) nor the restriction's (amount) is projected."""
        platform, admin, table = _sales(cache)
        if cache:
            _drain(platform.read_api, admin, table)  # warm footers + chunks
        analyst = platform.create_user("analyst", [Role.DATA_VIEWER, Role.JOB_USER])
        session = platform.read_api.create_read_session(
            analyst, table, columns=["order_id"], row_restriction="amount > 25",
            max_streams=3, **kwargs,
        )
        table.policies.add_row_policy(
            RowAccessPolicy("eu_only", "region = 'eu'", frozenset({analyst}))
        )
        rows = sorted(
            row for i in range(len(session.streams))
            for batch in platform.read_api.read_rows(session, i)
            for row in batch.iter_rows()
        )
        return session, rows

    @pytest.mark.parametrize("mode", sorted(SCAN_MODES))
    def test_late_policy_enforced_and_filter_columns_fetched(self, mode, bind_count):
        cache, kwargs = self.SCAN_MODES[mode]
        _, expected = self._policy_after_create(cache=False)
        bind_count.clear()
        session, rows = self._policy_after_create(cache, **kwargs)
        # The restriction is bound once, the policy on every read_rows call.
        assert bind_count("amount > 25") == 1
        assert bind_count("region = 'eu'") == len(session.streams) > 1
        if cache:
            assert session.stats.cache_hit_bytes > 0
        # Rows 0..59 of each file: region cycles us/eu/apac, amount = j + 1.
        eu_over_25 = {
            (f * 60 + j,) for f in range(4) for j in range(60) if j % 3 == 1 and j + 1 > 25
        }
        assert rows == expected
        assert set(rows) == eu_over_25
