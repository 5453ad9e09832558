"""Correctness oracles for the executor.

:func:`evaluate` is a brute-force reference evaluator: it evaluates a bound
:class:`~repro.plans.logical.LogicalQuery` the slow, obviously-correct way —
materialise the full cross product of the FROM relations, filter by every
predicate, then group/aggregate/sort/limit.  Executor and integration tests
compare the engine's rows against it.

:func:`row_path` is the parity oracle: inside it every dispatched plan runs
on the row interpreter (:mod:`repro.executor.iterators`) instead of the
batch executor, and rows, ``CostBreakdown``, buffer statistics and
``ObservedStatistics`` must come out bit-identical.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterator

from repro.engine.database import Database
from repro.executor.dispatcher import Dispatcher
from repro.executor.iterators import execute_node
from repro.plans.logical import (
    AggFunc,
    AggregateExpr,
    ColumnExpr,
    LogicalQuery,
)
from repro.storage.schema import Schema


@contextmanager
def row_path() -> Iterator[None]:
    """Run every plan dispatched inside the block on the row interpreter.

    Swaps :meth:`Dispatcher._drain` — on every thread, so statements that a
    session or the query server runs are covered too — and restores it on
    exit.  Nothing else changes: planning, the plan cache, memory grants,
    collectors and plan switches are the engine's own.
    """
    drain = Dispatcher._drain
    Dispatcher._drain = lambda self, plan: list(execute_node(plan, self.ctx))
    try:
        yield
    finally:
        Dispatcher._drain = drain


def evaluate(db: Database, query: LogicalQuery) -> list[tuple]:
    """Evaluate ``query`` by brute force against the database's tables."""
    schema, rows = _cross_product(db, query)
    predicate_fns = [p.compile(schema) for p in query.predicates]
    survivors = [
        row for row in rows if all(fn(row) for fn in predicate_fns)
    ]
    if query.has_aggregates or query.group_by:
        result = _aggregate(schema, survivors, query)
        if query.having:
            out_schema = _output_schema(query)
            having_fns = [p.compile(out_schema) for p in query.having]
            result = [row for row in result if all(fn(row) for fn in having_fns)]
    else:
        exprs = [item.expr.compile(schema) for item in query.output]
        result = [tuple(fn(row) for fn in exprs) for row in survivors]
        if query.distinct:
            deduped = []
            seen = set()
            for row in result:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            result = deduped
    result = _order_and_limit(result, query)
    return result


def _output_schema(query: LogicalQuery):
    from repro.storage.schema import Column, DataType, Schema

    return Schema(Column(item.name, DataType.FLOAT) for item in query.output)


def _cross_product(db: Database, query: LogicalQuery):
    schemas = []
    table_rows = []
    for rel in query.relations:
        table = db.table(rel.table_name)
        schemas.append(table.schema.qualify(rel.alias))
        table_rows.append(table.rows)
    schema = schemas[0]
    for s in schemas[1:]:
        schema = schema.concat(s)
    rows = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*table_rows)
    ]
    return schema, rows


def _aggregate(schema: Schema, rows, query: LogicalQuery) -> list[tuple]:
    group_positions = [schema.index_of(c) for c in query.group_by]
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(tuple(row[p] for p in group_positions), []).append(row)
    if not query.group_by and not groups:
        groups[()] = []
    out = []
    for key, members in groups.items():
        record = []
        for item in query.output:
            if isinstance(item.expr, AggregateExpr):
                record.append(_agg_value(item.expr, schema, members))
            else:
                assert isinstance(item.expr, ColumnExpr)
                position = schema.index_of(item.expr.name)
                record.append(key[group_positions.index(position)])
        out.append(tuple(record))
    return out


def _agg_value(expr: AggregateExpr, schema: Schema, rows):
    if expr.func is AggFunc.COUNT:
        return len(rows)
    if not rows:
        return None
    fn = expr.arg.compile(schema)
    values = [fn(row) for row in rows]
    if expr.func is AggFunc.SUM:
        return sum(values)
    if expr.func is AggFunc.AVG:
        return sum(values) / len(values)
    if expr.func is AggFunc.MIN:
        return min(values)
    return max(values)


def _order_and_limit(rows: list[tuple], query: LogicalQuery) -> list[tuple]:
    if query.order_by:
        names = [item.name for item in query.output]
        for key in reversed(query.order_by):
            position = names.index(key.name)
            rows = sorted(rows, key=lambda r: r[position], reverse=not key.ascending)
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows
