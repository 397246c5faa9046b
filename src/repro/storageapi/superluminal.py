"""Superluminal: vectorized scan-side evaluation inside the trust boundary.

The real Superluminal is a C++ library for vectorized evaluation of
GoogleSQL expressions used by the Read API to apply projections, user
filters, security filters, and data masking, transcoding results to Arrow
(§2.2.1). This reproduction does the same over numpy-backed batches, reusing
the bound-expression evaluator from :mod:`repro.sql.expressions`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.batch import RecordBatch
from repro.data.column import Column
from repro.data.types import DataType, Field, Schema
from repro.errors import AccessDeniedError
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.security.policies import EffectiveAccess, MaskingKind
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    Binder,
    BoundExpr,
    FunctionRegistry,
    collect_column_refs,
    evaluate_predicate,
)
from repro.sql.parser import parse_expression


@dataclass(frozen=True)
class CompiledRestriction:
    """A caller's row restriction, compiled once per read session.

    The restriction crosses the trust boundary as text (the Read API's
    wire form); ``create_read_session`` parses it and binds it against the
    table schema, once. Every :class:`Superluminal` the session later
    builds reuses the bound ``predicate`` and the ``columns`` it reads.
    The AST is not kept: a pushed key list holds one node per key.
    """

    predicate: BoundExpr
    # Lower-cased, unqualified names of the columns the restriction reads.
    columns: frozenset[str]


def compile_restriction(
    table_schema: Schema, expr: ast.Expr, functions: FunctionRegistry | None = None
) -> CompiledRestriction:
    """Bind a parsed row restriction against ``table_schema``."""
    return CompiledRestriction(
        predicate=Binder(table_schema, functions).bind(expr),
        columns=frozenset(_unqualified(collect_column_refs(expr))),
    )


def _unqualified(refs: set[str]) -> set[str]:
    return {ref.rsplit(".", 1)[-1].lower() for ref in refs}


@dataclass
class ScanFilterStats:
    """Counters for one Superluminal pass."""

    rows_in: int = 0
    rows_out: int = 0
    values_masked: int = 0


class Superluminal:
    """Compiled enforcement pipeline for one (table schema, principal) pair.

    Compilation resolves the principal's effective access into bound
    expressions once; :meth:`process` then applies, per batch:

    1. the security row filter (union of applicable row policies),
    2. the caller's row restriction,
    3. data masking on masked columns,
    4. the column projection.

    Requesting a denied column fails at compile time — before any data
    moves — so a malicious engine cannot even construct the scan.

    ``row_restriction`` arrives compiled (the Read API parses and binds
    its text once per session) and is reused as is. Access is not: the
    ``access`` each instance gets is resolved by its caller per
    ``read_rows``, so its row policies are parsed and bound here.
    """

    def __init__(
        self,
        table_schema: Schema,
        access: EffectiveAccess,
        columns: list[str] | None = None,
        row_restriction: CompiledRestriction | None = None,
        functions: FunctionRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.table_schema = table_schema
        self.access = access
        self.stats = ScanFilterStats()
        self.tracer = tracer if tracer is not None else NOOP_TRACER

        if columns is None:
            projected = [
                f.name for f in table_schema if f.name not in access.denied_columns
            ]
        else:
            denied = [c for c in columns if c in access.denied_columns]
            if denied:
                raise AccessDeniedError(
                    f"column-level access denied on: {', '.join(sorted(denied))}"
                )
            projected = list(columns)
        self.columns = projected
        self.output_schema = table_schema.select(projected)

        self._security = self._security_expr()
        if self._security is not None:
            self._security_filter = Binder(table_schema, functions).bind(self._security)
        else:
            self._security_filter = _DENY_ALL if access.row_policies_exist else None
        self._restriction = row_restriction
        self._masks = {
            name.lower(): kind
            for name, kind in access.masked_columns.items()
            if any(f.name.lower() == name.lower() for f in table_schema)
        }

    @cached_property
    def needed_columns(self) -> set[str]:
        """Lower-cased, unqualified names a scan must materialize: the
        projection plus every column the user and security filters read."""
        needed = {c.lower() for c in self.columns}
        if self._security is not None:
            needed |= _unqualified(collect_column_refs(self._security))
        if self._restriction is not None:
            needed |= self._restriction.columns
        return needed

    def _security_expr(self) -> ast.Expr | None:
        """OR together the row policies that apply to the principal."""
        combined: ast.Expr | None = None
        for filter_sql in self.access.row_filters:
            clause = parse_expression(filter_sql)
            combined = clause if combined is None else ast.BinaryOp("OR", combined, clause)
        return combined

    def process(self, batch: RecordBatch) -> RecordBatch:
        """Apply the full enforcement pipeline to one batch."""
        with self.tracer.span(
            "superluminal.process", layer="storageapi", rows_in=batch.num_rows
        ) as span:
            self.stats.rows_in += batch.num_rows
            masked_before = self.stats.values_masked
            if self._security_filter is _DENY_ALL:
                span.set_tag("rows_out", 0)
                return RecordBatch.empty(self.output_schema)
            if self._security_filter is not None:
                mask = evaluate_predicate(self._security_filter, batch)
                batch = batch.filter(mask)
            if self._restriction is not None and batch.num_rows:
                mask = evaluate_predicate(self._restriction.predicate, batch)
                batch = batch.filter(mask)
            out = batch.select(self.columns)
            if self._masks and out.num_rows:
                out = self._apply_masks(out)
            self.stats.rows_out += out.num_rows
            span.set_tag("rows_out", out.num_rows)
            if self.stats.values_masked > masked_before:
                span.set_tag("masked", self.stats.values_masked - masked_before)
            return out

    def _apply_masks(self, batch: RecordBatch) -> RecordBatch:
        for name, kind in self._masks.items():
            if not batch.schema.has_field(name):
                continue
            field = batch.schema.field(name)
            column = batch.column(name)
            masked = mask_column(column, kind)
            self.stats.values_masked += batch.num_rows
            batch = batch.with_column(
                Field(field.name, masked.dtype, nullable=True), masked
            )
        return batch


class _DenyAll:
    """Sentinel: row policies exist but none admits this principal."""


_DENY_ALL = _DenyAll()


def mask_column(column: Column, kind: MaskingKind) -> Column:
    """Vectorized data masking with the semantics of
    :func:`repro.security.policies.apply_mask_value`."""
    n = len(column)
    valid = column.is_valid()
    if kind is MaskingKind.NULLIFY:
        return Column.nulls(column.dtype, n)
    if kind is MaskingKind.DEFAULT_VALUE:
        defaults = {
            DataType.STRING: "",
            DataType.BYTES: b"",
            DataType.BOOL: False,
            DataType.INT64: 0,
            DataType.FLOAT64: 0.0,
            DataType.TIMESTAMP: 0,
            DataType.DATE: 0,
        }
        return Column(
            column.dtype,
            Column.repeat(column.dtype, defaults[column.dtype], n).values,
            None if bool(valid.all()) else valid,
        )
    if kind is MaskingKind.HASH:
        out = np.empty(n, dtype=object)
        for i in range(n):
            if valid[i]:
                v = column.values[i]
                payload = v if isinstance(v, bytes) else str(v).encode("utf-8")
                out[i] = hashlib.sha256(payload).hexdigest()
        return Column(DataType.STRING, out, None if bool(valid.all()) else valid)
    if kind is MaskingKind.LAST_FOUR:
        out = np.empty(n, dtype=object)
        for i in range(n):
            if valid[i]:
                text = str(column.values[i])
                if len(text) <= 4:
                    out[i] = "X" * len(text)
                else:
                    out[i] = "X" * (len(text) - 4) + text[-4:]
        return Column(DataType.STRING, out, None if bool(valid.all()) else valid)
    raise ValueError(f"unknown masking kind {kind}")
