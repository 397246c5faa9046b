"""Dynamic partition pruning on FLOAT64 join keys.

DPP ships the build side's distinct keys to the probe scan as an IN list
inside the restriction text. ±inf has no SQL literal (``repr`` prints
``inf``, which parses back as a column name), and NaN never equi-joins,
so neither may reach the text: the query must still answer, with the
``inf = inf`` match the hash join makes.
"""

from __future__ import annotations

import math

from repro.data import DataType, Schema, batch_from_pydict
from repro.storageapi.fileutil import write_data_file

from tests.helpers import make_platform, setup_sales_lake

RATES = Schema.of(("amount", DataType.FLOAT64), ("label", DataType.STRING))

JOIN = (
    "SELECT s.order_id, r.label FROM ds.sales s "
    "JOIN ds.rates r ON s.amount = r.amount"
)


def _run(sales_amounts: list[float], rates: dict):
    """The join over a sales lake with one extra file of ``sales_amounts``
    (order ids from 900) against a rates table holding ``rates``."""
    platform, admin = make_platform()
    sales, _ = setup_sales_lake(platform, admin, files=2, rows_per_file=6)
    store = platform.stores.store_for(platform.config.home_region.location)
    n = len(sales_amounts)
    write_data_file(store, "lake", "sales/part-0009.pqs", sales.schema, [
        batch_from_pydict(sales.schema, {
            "order_id": list(range(900, 900 + n)),
            "region": ["us"] * n,
            "amount": sales_amounts,
            "year": [2023] * n,
        })
    ])
    write_data_file(store, "lake", "rates/part-0000.pqs", RATES, [batch_from_pydict(RATES, rates)])
    platform.tables.create_biglake_table(
        admin, "ds", "rates", RATES, "lake", "rates", "ds.lakeconn"
    )
    result = platform.home_engine.execute(JOIN, admin)
    return sorted(result.rows()), result.stats.dpp_applied


class TestDppFloatKeys:
    def test_infinite_keys_skip_pruning_and_still_join(self):
        rows, dpp = _run(
            [math.inf, math.nan, -math.inf],
            {"amount": [2.0, math.inf, -math.inf, math.nan],
             "label": ["two", "inf", "ninf", "nan"]},
        )
        assert rows == [(1, "two"), (7, "two"), (900, "inf"), (902, "ninf")]
        assert dpp == 0

    def test_nan_keys_are_dropped_and_pruning_applies(self):
        rows, dpp = _run([math.nan, 5.0], {"amount": [2.0, 5.0], "label": ["two", "five"]})
        assert rows == [(1, "two"), (4, "five"), (7, "two"), (10, "five"), (901, "five")]
        assert dpp == 1
