"""Correctness oracles for the executor.

:func:`evaluate` is a brute-force reference evaluator: it evaluates a bound
:class:`~repro.plans.logical.LogicalQuery` the slow, obviously-correct way —
materialise the full cross product of the FROM relations, filter by every
predicate, then group/aggregate/sort/limit.  Executor and integration tests
compare the engine's rows against it.

:func:`row_path` is the parity oracle: inside it every dispatched plan runs
on the row interpreter (:mod:`tests.reference.iterators`) instead of the
batch executor, and rows, ``CostBreakdown``, buffer statistics and
``ObservedStatistics`` must come out bit-identical.

:func:`runtime_context` is the one way a test builds a runtime context to
dispatch a plan on by hand, and :func:`dispatched` records, per plan node,
what an engine run marked completed and what its collectors observed;
:func:`assert_row_parity` holds one statement to the row interpreter with it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterator

from repro.engine.database import Database
from repro.engine.results import QueryResult
from repro.executor.dispatcher import Dispatcher
from .reference.iterators import execute_node
from repro.executor.runtime import RuntimeContext
from repro.optimizer.cost_model import CostModel
from repro.plans.logical import (
    AggFunc,
    AggregateExpr,
    ColumnExpr,
    LogicalQuery,
)
from repro.storage import BufferPool, CostClock, TempTableManager
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


@contextmanager
def dispatched() -> Iterator[list]:
    """Yield a list that receives, for every statement dispatched inside the
    block, its :func:`execution_record`."""
    run = Dispatcher.run
    records: list = []

    def recorded(self, plan):
        outcome = run(self, plan)
        records.append(execution_record(self.ctx, outcome.plan_history))
        return outcome

    Dispatcher.run = recorded
    try:
        yield records
    finally:
        Dispatcher.run = run


#: Profile fields that must be equal on both paths; the clock's compare by
#: ``repr`` (last bit, and a NumPy scalar does not pass for a Python float).
EVENT_FIELDS = (
    "buffer", "plan_switches", "memory_reallocations", "collectors_inserted",
    "remainder_sqls",
)
CLOCK_FIELDS = ("breakdown", "total_cost")


def assert_row_parity(db: Database, sql: str, mode, params=None) -> QueryResult:
    """Run ``sql`` under ``mode`` on the row interpreter and on the engine,
    assert equal rows and clock (by ``repr``), :data:`EVENT_FIELDS` and
    every :func:`execution_record`, and return the engine's result."""
    with row_path(), dispatched() as row_runs:
        row = db.execute(sql, params=params, mode=mode)
    with dispatched() as runs:
        result = db.execute(sql, params=params, mode=mode)
    assert repr(result.rows) == repr(row.rows), sql
    for name in CLOCK_FIELDS + EVENT_FIELDS:
        got, want = getattr(result.profile, name), getattr(row.profile, name)
        if name in CLOCK_FIELDS:
            got, want = repr(got), repr(want)
        assert got == want, (sql, name)
    assert runs == row_runs, sql
    assert events_view(result.profile) == events_view(row.profile), sql
    return result


def events_view(profile) -> list:
    """The controller's decisions and the trigger inputs behind them."""
    return [
        (e.action, e.detail, repr(e.clock_time), repr(e.trigger), repr(e.t_new_total))
        for e in profile.events
    ]


def execution_record(ctx: RuntimeContext, plans) -> list:
    """Per plan run, per node in walk order (node ids differ between two
    runs of one cached plan): whether it was marked completed, its actual
    rows, and its collector's :func:`observed_view`."""
    return [
        [
            (
                node.node_id in ctx.completed,
                ctx.actual_rows.get(node.node_id),
                observed_view(ctx.observed.get(node.node_id)),
            )
            for node in plan.walk()
        ]
        for plan in plans
    ]


def observed_view(stats):
    """An ``ObservedStatistics`` as comparable values (None stays None):
    everything but the work it cost."""
    if stats is None:
        return None
    return (
        stats.row_count, repr(stats.row_bytes), dict(stats.minmax), dict(stats.distincts),
        {name: (h.kind, h.buckets) for name, h in stats.histograms.items()},
    )


def scan_records(report) -> dict:
    """Table name -> the executor record of its scan (``kind``,
    ``rows_scanned``, ``rows_materialised``) in the last plan an EXPLAIN
    ANALYZE report ran."""
    return {
        node.detail.split(" as ")[0]: node.vectorized
        for node in report.plans[-1].nodes
        if node.vectorized and node.vectorized["kind"] == "scan"
    }


def runtime_context(db: Database, **fields) -> RuntimeContext:
    """A fresh runtime context over ``db``'s catalog and config, with no
    controller: its own clock, buffer pool and temporary tables.
    ``fields`` (an allocation, a tracer) pass through."""
    config = db.config
    clock = CostClock(config.cost)
    pool = BufferPool(config.buffer_pool_pages, clock)
    return RuntimeContext(
        catalog=db.catalog,
        config=config,
        clock=clock,
        buffer_pool=pool,
        temp_manager=TempTableManager(db.catalog, pool),
        cost_model=CostModel(config),
        **fields,
    )


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
