"""IN lists take fast paths at every stage; each is pinned to an oracle.

* Parse: an item that is a bare literal before ``,`` or ``)`` is read
  flat; it must give the node ``parse_expr`` gives.
* Bind: an all-literal list binds in one pass; it must give the values
  a per-item ``Binder.bind`` gives.
* Evaluate: ``BoundInList`` is one membership test (``np.isin`` / set
  membership); it must give what the per-value ``==`` loop it replaced
  gives, kept here as the oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import DataType, Schema, batch_from_pydict
from repro.data.column import Column
from repro.errors import AnalysisError, SqlSyntaxError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import Binder, BoundColumn, BoundInList, evaluate
from repro.sql.parser import _Parser, parse_expression

# --------------------------------------------------------------------------
# Parse
# --------------------------------------------------------------------------

FLAT_ITEMS = [
    "0", "7", "-5", "- 5", "-0", "123456789012345678901", "1.5", "-2.25",
    "1e5", "2.5E-3", "-1e-05", ".5", "'plain'", "''", "'it''s'", "'a,b)'",
    "TRUE", "FALSE", "NULL", "true",
]
OTHER_ITEMS = [
    "a + 1", "DATE '2024-01-02'", "TIMESTAMP '2024-01-02 03:04:05'", "-a",
    "(1)", "- -5", "-TRUE", "+5", "1 + 2", "CAST(1 AS FLOAT64)", "b",
    "UPPER('x')", "-1.5 * 2",
]


def _in_items(text: str) -> tuple[ast.Expr, ...]:
    expr = parse_expression(f"x IN ({text})")
    assert isinstance(expr, ast.InList)
    return expr.items


class TestFlatParse:
    # repr tells 1 from TRUE and 0.0 from -0.0, which == does not.
    @pytest.mark.parametrize("item", FLAT_ITEMS + OTHER_ITEMS)
    def test_item_parses_as_parse_expr_does(self, item):
        expected = repr(parse_expression(item))
        first, middle, last = _in_items(f"{item}, {item}, {item}")
        assert repr(first) == repr(middle) == repr(last) == expected
        (only,) = _in_items(item)
        assert repr(only) == expected

    def test_mixed_list(self):
        items = FLAT_ITEMS + OTHER_ITEMS
        parsed = _in_items(", ".join(items))
        assert [repr(p) for p in parsed] == [repr(parse_expression(i)) for i in items]

    def test_literal_items_skip_the_precedence_ladder(self, monkeypatch):
        calls = []
        original = _Parser.parse_expr

        def counting(self):
            calls.append(self.pos)
            return original(self)

        monkeypatch.setattr(_Parser, "parse_expr", counting)
        parse_expression("x IN (" + ", ".join(FLAT_ITEMS) + ")")
        assert len(calls) == 1  # the whole expression, no item
        calls.clear()
        parse_expression("x IN (1, a + 1, -2)")
        assert len(calls) == 2  # the whole expression and ``a + 1``

    @pytest.mark.parametrize("text", ["x IN (", "x IN (1,", "x IN (-", "x IN (1 2)", "x IN (,)"])
    def test_malformed_lists_still_fail(self, text):
        with pytest.raises(SqlSyntaxError):
            parse_expression(text)


# --------------------------------------------------------------------------
# Bind
# --------------------------------------------------------------------------

SCHEMA = Schema.of(("x", DataType.INT64), ("a", DataType.INT64))


class TestOnePassBind:
    def test_values_match_per_item_bind(self):
        items = _in_items(
            ", ".join(FLAT_ITEMS) + ", DATE '2024-01-02', TIMESTAMP '2024-01-02 03:04:05'"
        )
        binder = Binder(SCHEMA)
        bound = binder.bind(ast.InList(ast.ColumnRef(("x",)), items))
        per_item = tuple(binder.bind(item).value for item in items)
        assert [repr(v) for v in bound.values] == [repr(v) for v in per_item]

    @pytest.mark.parametrize("item, message", [
        ("a + 1", "IN list items must be literals"),
        ("a", "IN list items must be literals"),
        ("inf", "column 'inf' not found"),
    ])
    def test_non_literal_items_fail_as_before(self, item, message):
        with pytest.raises(AnalysisError, match=message):
            Binder(SCHEMA).bind(parse_expression(f"x IN (1, {item})"))


# --------------------------------------------------------------------------
# Evaluate
# --------------------------------------------------------------------------


def oracle(expr: BoundInList, batch) -> Column:
    """The per-value loop ``BoundInList`` evaluation replaced."""
    operand = evaluate(expr.operand, batch)
    hits = np.zeros(batch.num_rows, dtype=bool)
    for v in expr.values:
        hits |= operand.values == v
    hits &= operand.is_valid()
    if expr.negated:
        hits = ~hits & operand.is_valid()
    return Column(DataType.BOOL, hits, operand.validity)


BIG = [2**53, 2**53 + 1, 2**53 - 1, 2**62 + 1, 2**63 - 1, -(2**63)]
VALUES = {
    DataType.INT64: st.one_of(st.integers(-4, 4), st.sampled_from(BIG), st.integers(-(2**63), 2**63 - 1)),
    DataType.FLOAT64: st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, float(2**53), math.inf, -math.inf, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    DataType.STRING: st.one_of(st.sampled_from(["", "a", "b", "it's", "1"]), st.text(max_size=3)),
    DataType.DATE: st.one_of(st.integers(-3, 3), st.integers(18000, 18010)),
    DataType.BOOL: st.booleans(),
}
# Items of any kind, so lists mix ints, floats, strings, bools, NULL and NaN.
ITEMS = st.one_of(*VALUES.values(), st.none(), st.floats(-4, 4).map(round))


@st.composite
def in_list_cases(draw):
    dtype = draw(st.sampled_from(sorted(VALUES, key=lambda d: d.value)))
    column = draw(st.lists(st.one_of(st.none(), VALUES[dtype]), max_size=30))
    # Draw some items from the column itself so lists hit.
    present = [v for v in column if v is not None]
    own = st.sampled_from(present) if present else ITEMS
    items = draw(st.lists(st.one_of(ITEMS, own), max_size=12))
    return dtype, column, tuple(items), draw(st.booleans())


def _check(dtype, column, items, negated):
    batch = batch_from_pydict(Schema.of(("c", dtype)), {"c": column})
    expr = BoundInList(BoundColumn(0, "c", dtype), items, negated)
    got, want = evaluate(expr, batch), oracle(expr, batch)
    assert got.dtype is DataType.BOOL
    assert got.values.tolist() == want.values.tolist()
    assert got.is_valid().tolist() == want.is_valid().tolist()


class TestVectorizedMembership:
    @settings(max_examples=300, deadline=None)
    @given(in_list_cases())
    def test_matches_per_value_loop(self, case):
        _check(*case)

    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("dtype, column, items", [
        # int64 beyond 2**53: exact, not collapsed through float64.
        (DataType.INT64, [2**53, 2**53 + 1, None, 3], (2**53 + 1,)),
        (DataType.INT64, [2**53, 2**53 + 1, 2**63 - 1], (2**53, 2**63 - 1, 2**64)),
        # Mixed int/float list on an int column: 3.0 hits 3, 2.5 hits nothing.
        (DataType.INT64, [1, 2, 3, None], (1, 2.5, 3.0)),
        # Mixed list on a float column; NaN never hits, -0.0 hits 0.0.
        (DataType.FLOAT64, [0.0, 1.0, 2.5, math.nan, None], (-0.0, 1, 2.5, math.nan)),
        (DataType.FLOAT64, [math.inf, -math.inf, 1.0], (math.inf,)),
        (DataType.STRING, ["a", None, "it's", ""], ("it's", "", None, 1)),
        (DataType.BOOL, [True, False, None], (True,)),
        (DataType.BOOL, [True, False, None], (1, 2.0)),
        (DataType.DATE, [18000, 18001, None], (18001, "2019-04-13")),
        (DataType.INT64, [1, None], ()),
        (DataType.INT64, [], (1, 2)),
    ])
    def test_pinned_cases(self, dtype, column, items, negated):
        _check(dtype, column, items, negated)

    def test_null_rows_stay_null(self):
        batch = batch_from_pydict(Schema.of(("c", DataType.INT64)), {"c": [1, None, 2]})
        expr = BoundInList(BoundColumn(0, "c", DataType.INT64), (1,), negated=True)
        out = evaluate(expr, batch)
        assert out.to_pylist() == [False, None, True]
