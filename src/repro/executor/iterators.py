"""The row interpreter: every physical operator as a generator over rows.

It is not an engine mode — the dispatcher runs every plan on the batch
executor (:mod:`repro.executor.batch`).  It has two jobs.  It drives the
subtree of a LIMIT over a streaming input, so that every upstream charge
stops at exactly the limit row; and the test suite runs whole plans
through it as the reference the batch executor must match bit for bit.

Each plan node executes as a Python generator over row tuples; composition
follows the plan tree.  Operators charge the simulated cost clock using the
*same formulas* the optimizer used for its estimates — evaluated on actual
row counts — so the only source of estimated-vs-actual divergence is
cardinality error, exactly the signal Dynamic Re-Optimization consumes.

Blocking operators (hash join build, block-NL inner, sort, aggregate input)
are where statistics collectors complete and where pending plan switches are
honoured: after a hash join finishes its build and a switch targets it, the
probe phase runs to completion into the directive's temporary table and
:class:`~repro.executor.runtime.PlanSwitched` unwinds to the dispatcher
(paper Figure 6).

The hybrid hash join holds its build rows in a Python dict for result
correctness while charging spill I/O analytically from the granted memory —
the partitioning *cost* of a Grace/hybrid join with the grant the Memory
Manager issued, which is the behaviour the memory experiments measure.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator, Sequence

from ..errors import ExecutionError
from ..optimizer.cost_model import OperatorCost, pages_for
from ..plans.logical import AggregateExpr, ColumnExpr
from ..plans.physical import (
    BlockNLJoinNode,
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexNLJoinNode,
    IndexScanNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
    StatsCollectorNode,
)
from ..storage.table import Row
from .agg_kernels import _AggState, aggregate_items
from .collector import RuntimeCollector
from .runtime import RuntimeContext


def execute_node(node: PlanNode, ctx: RuntimeContext) -> Iterator[Row]:
    """Execute a plan subtree, yielding result rows."""
    executor = _EXECUTORS.get(type(node))
    if executor is None:
        raise ExecutionError(f"no executor for node type {type(node).__name__}")
    return _tracked(node, ctx, executor(node, ctx))


def _tracked(node: PlanNode, ctx: RuntimeContext, gen: Iterator[Row]) -> Iterator[Row]:
    """Wrap a node generator with start/complete/row-count bookkeeping."""
    ctx.mark_started(node)
    count = 0
    for row in gen:
        count += 1
        yield row
    ctx.mark_completed(node, count)


# ----------------------------------------------------------------------
# Compiled closures (cached on the plan node, shared with the batch path)
# ----------------------------------------------------------------------


def key_extractor(positions: Sequence[int]) -> Callable[[Row], object]:
    """A closure extracting a join/group key from a row.

    Single-column keys are extracted as scalars, multi-column keys as
    tuples; build and probe sides use extractors built the same way, so the
    representations always agree.
    """
    if len(positions) == 1:
        return itemgetter(positions[0])
    return itemgetter(*positions)


def filter_predicates(node: FilterNode) -> tuple[Callable[[Row], bool], ...]:
    """Compiled filter predicates, cached on the node."""
    return node.compiled(
        "predicates",
        lambda: tuple(p.compile(node.child.schema) for p in node.predicates),
    )


def hash_join_keys(
    node: HashJoinNode,
) -> tuple[Callable[[Row], object], Callable[[Row], object]]:
    """Build- and probe-side key extractors, cached on the node."""
    build_key = node.compiled(
        "build_key",
        lambda: key_extractor(
            [node.build.schema.index_of(col) for col, __ in node.key_pairs]
        ),
    )
    probe_key = node.compiled(
        "probe_key",
        lambda: key_extractor(
            [node.probe.schema.index_of(col) for __, col in node.key_pairs]
        ),
    )
    return build_key, probe_key


def residual_predicates(node) -> tuple[Callable[[Row], bool], ...]:
    """Compiled residual/join predicates, cached on the node."""
    predicates = getattr(node, "residual", None)
    if predicates is None:
        predicates = node.predicates
    return node.compiled(
        "residual", lambda: tuple(p.compile(node.schema) for p in predicates)
    )


def projector(node: ProjectNode) -> Callable[[Row], Row]:
    """A closure building one output row, cached on the node.

    All-column projections compile to a single :func:`operator.itemgetter`
    instead of per-column closure calls.
    """

    def build() -> Callable[[Row], Row]:
        child_schema = node.child.schema
        exprs = []
        positions: list[int] = []
        for item in node.output:
            if isinstance(item.expr, AggregateExpr):
                raise ExecutionError("aggregate reached a Project operator")
            exprs.append(item.expr.compile(child_schema))
            if isinstance(item.expr, ColumnExpr):
                positions.append(child_schema.index_of(item.expr.name))
        if len(positions) == len(node.output) and len(positions) > 1:
            return itemgetter(*positions)
        if len(positions) == len(node.output) and len(positions) == 1:
            position = positions[0]
            return lambda row: (row[position],)
        fns = tuple(exprs)
        return lambda row: tuple(fn(row) for fn in fns)

    return node.compiled("projector", build)


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


def _seq_scan(node: SeqScanNode, ctx: RuntimeContext) -> Iterator[Row]:
    table = ctx.catalog.table(node.table_name)
    params = ctx.cost_model.params
    for page_no, page_rows in enumerate(table.iter_pages()):
        ctx.buffer_pool.access_run(table.table_id, page_no, page_no + 1)
        ctx.clock.charge_cpu(len(page_rows) * params.cpu_per_tuple)
        yield from page_rows


def _index_scan(node: IndexScanNode, ctx: RuntimeContext) -> Iterator[Row]:
    table = ctx.catalog.table(node.table_name)
    index = ctx.catalog.index_on(node.table_name, node.index_column)
    if index is None:
        raise ExecutionError(
            f"index on {node.table_name}.{node.index_column} disappeared"
        )
    row_indices = index.lookup_range(
        node.low, node.high, node.low_inclusive, node.high_inclusive
    )
    matches = len(row_indices)
    fetch_seq, fetch_rand = index.fetch_page_reads(matches)
    ctx.charge(
        OperatorCost(
            seq_read_pages=index.leaf_pages_for(matches) + fetch_seq,
            rand_read_pages=index.height + fetch_rand,
            cpu_units=matches * ctx.cost_model.params.cpu_per_tuple,
        )
    )
    for i in row_indices:
        yield table.rows[i]


# ----------------------------------------------------------------------
# Streaming operators
# ----------------------------------------------------------------------


def _filter(node: FilterNode, ctx: RuntimeContext) -> Iterator[Row]:
    predicate_fns = filter_predicates(node)
    per_row = max(1, len(predicate_fns)) * ctx.cost_model.params.cpu_per_compare
    consumed = 0
    try:
        for row in execute_node(node.child, ctx):
            consumed += 1
            if all(fn(row) for fn in predicate_fns):
                yield row
    finally:
        ctx.clock.charge_cpu(consumed * per_row)


def _project(node: ProjectNode, ctx: RuntimeContext) -> Iterator[Row]:
    project_row = projector(node)
    consumed = 0
    try:
        for row in execute_node(node.child, ctx):
            consumed += 1
            yield project_row(row)
    finally:
        ctx.clock.charge_cpu(consumed * ctx.cost_model.params.cpu_per_tuple)


def _collector(node: StatsCollectorNode, ctx: RuntimeContext) -> Iterator[Row]:
    collector = RuntimeCollector(node, node.child.schema, ctx.config)
    params = ctx.cost_model.params
    per_row = (
        params.cpu_stats_per_tuple
        + node.spec.statistic_count * params.cpu_stats_per_statistic
    )
    for row in execute_node(node.child, ctx):
        collector.observe(row)
        yield row
    ctx.clock.charge_stats_cpu(collector.row_count * per_row)
    observed = collector.finalize()
    ctx.observed[node.node_id] = observed
    if ctx.tracer is not None:
        ctx.tracer.instant(
            "collector-complete", "stats",
            node_id=node.node_id, observed=observed.describe(),
        )
    if ctx.controller is not None:
        ctx.controller.on_collector_complete(node, observed)


def _limit(node: LimitNode, ctx: RuntimeContext) -> Iterator[Row]:
    if node.limit <= 0:
        return
    emitted = 0
    for row in execute_node(node.child, ctx):
        yield row
        emitted += 1
        if emitted >= node.limit:
            break
    ctx.clock.charge_cpu(emitted * ctx.cost_model.params.cpu_per_tuple)


# ----------------------------------------------------------------------
# Hash join
# ----------------------------------------------------------------------


def _hash_join(node: HashJoinNode, ctx: RuntimeContext) -> Iterator[Row]:
    build_key, probe_key = hash_join_keys(node)
    residual_fns = residual_predicates(node)
    page_size = ctx.catalog.page_size

    # --- build phase (blocking) ---
    hash_table: dict[tuple, list[Row]] = {}
    build_rows = 0
    grant: int | None = None
    responsive = ctx.config.responsive_hash_joins
    for row in execute_node(node.build, ctx):
        if grant is None and not responsive:
            # The grant is committed once data actually arrives, so
            # collectors completing deeper in the build pipeline can still
            # re-allocate this operator's memory (paper section 2.3).
            grant = ctx.commit_memory(node)
        hash_table.setdefault(build_key(row), []).append(row)
        build_rows += 1
    if grant is None:
        # Responsive operators (section 2.3 extension) commit at the spill
        # decision point instead, picking up any re-allocation triggered by
        # the collector on their own build input.
        grant = ctx.commit_memory(node)
    build_pages = pages_for(build_rows, node.build.schema.row_bytes, page_size)
    ctx.charge(ctx.cost_model.hash_join_build(build_rows, build_pages, grant))

    # --- plan-switch window: build done, probe not started ---
    directive = ctx.take_switch_for(node.node_id)

    def probe_rows() -> Iterator[Row]:
        probe_count = 0
        output_count = 0
        try:
            for prow in execute_node(node.probe, ctx):
                probe_count += 1
                matches = hash_table.get(probe_key(prow))
                if not matches:
                    continue
                for brow in matches:
                    out = brow + prow
                    if residual_fns and not all(fn(out) for fn in residual_fns):
                        continue
                    output_count += 1
                    yield out
        finally:
            probe_pages = pages_for(
                probe_count, node.probe.schema.row_bytes, page_size
            )
            ctx.charge(
                ctx.cost_model.hash_join_probe(
                    build_pages=build_pages,
                    probe_rows=probe_count,
                    probe_pages=probe_pages,
                    output_rows=output_count,
                    memory_pages=grant,
                )
            )

    if directive is not None:
        ctx.spool_and_switch(node, directive, [list(probe_rows())])
    yield from probe_rows()


# ----------------------------------------------------------------------
# Indexed nested loops join
# ----------------------------------------------------------------------


def _index_nl_join(node: IndexNLJoinNode, ctx: RuntimeContext) -> Iterator[Row]:
    inner_table = ctx.catalog.table(node.inner_table)
    index = ctx.catalog.index_on(node.inner_table, node.inner_column)
    if index is None:
        raise ExecutionError(
            f"index on {node.inner_table}.{node.inner_column} disappeared"
        )
    outer_position = node.outer.schema.index_of(node.outer_column)
    residual_fns = residual_predicates(node)
    outer_count = 0
    matches_total = 0
    output_count = 0
    try:
        for orow in execute_node(node.outer, ctx):
            outer_count += 1
            row_indices = index.lookup_eq(orow[outer_position])
            matches_total += len(row_indices)
            for i in row_indices:
                out = orow + inner_table.rows[i]
                if residual_fns and not all(fn(out) for fn in residual_fns):
                    continue
                output_count += 1
                yield out
    finally:
        ctx.charge(
            ctx.cost_model.index_nl_join(
                outer_rows=outer_count,
                height=index.height,
                entries_per_leaf=index.entries_per_leaf,
                matches_total=matches_total,
                clustered=index.clustered,
                inner_table_pages=inner_table.page_count,
                output_rows=output_count,
            )
        )


# ----------------------------------------------------------------------
# Block nested loops join
# ----------------------------------------------------------------------


def _block_nl_join(node: BlockNLJoinNode, ctx: RuntimeContext) -> Iterator[Row]:
    page_size = ctx.catalog.page_size
    predicate_fns = residual_predicates(node)
    inner_rows = list(execute_node(node.inner, ctx))
    inner_pages = pages_for(len(inner_rows), node.inner.schema.row_bytes, page_size)

    directive = ctx.take_switch_for(node.node_id)

    rows_per_page = node.outer.schema.rows_per_page(page_size)
    params = ctx.cost_model.params

    def joined() -> Iterator[Row]:
        grant = ctx.commit_memory(node)
        block_rows = max(1, (max(1, grant - 2)) * rows_per_page)
        block: list[Row] = []
        blocks_done = 0
        compares = 0

        def flush(block_: list[Row]) -> Iterator[Row]:
            nonlocal blocks_done, compares
            if blocks_done > 0:
                # Re-scan of the (materialised) inner per additional block.
                ctx.clock.charge_seq_read(inner_pages)
            blocks_done += 1
            for orow in block_:
                for irow in inner_rows:
                    compares += 1
                    out = orow + irow
                    if predicate_fns and not all(fn(out) for fn in predicate_fns):
                        continue
                    yield out

        try:
            for orow in execute_node(node.outer, ctx):
                block.append(orow)
                if len(block) >= block_rows:
                    yield from flush(block)
                    block = []
            if block:
                yield from flush(block)
        finally:
            ctx.clock.charge_cpu(compares * params.cpu_per_compare)

    if directive is not None:
        ctx.spool_and_switch(node, directive, [list(joined())])
    yield from joined()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def _hash_aggregate(node: HashAggregateNode, ctx: RuntimeContext) -> Iterator[Row]:
    child_schema = node.child.schema
    group_positions, agg_items, group_outputs, __ = aggregate_items(node)
    groups: dict[tuple, list[_AggState]] = {}
    input_rows = 0
    grant: int | None = None
    for row in execute_node(node.child, ctx):
        if grant is None:
            grant = ctx.commit_memory(node)
        input_rows += 1
        key = tuple(row[p] for p in group_positions)
        states = groups.get(key)
        if states is None:
            states = [_AggState(func) for __, func, __unused in agg_items]
            groups[key] = states
        for state, (__, __f, arg_fn) in zip(states, agg_items):
            state.update(arg_fn(row) if arg_fn is not None else 1)
    if grant is None:
        grant = ctx.commit_memory(node)
    if not node.group_by and not groups:
        groups[()] = [_AggState(func) for __, func, __unused in agg_items]

    page_size = ctx.catalog.page_size
    input_pages = pages_for(input_rows, child_schema.row_bytes, page_size)
    group_pages = pages_for(len(groups), node.schema.row_bytes, page_size)
    ctx.charge(
        ctx.cost_model.aggregate(
            input_rows=input_rows,
            input_pages=input_pages,
            group_pages=group_pages,
            memory_pages=grant,
        )
    )
    width = len(node.output)
    key_index_of = {position: i for i, position in enumerate(group_positions)}
    for key, states in groups.items():
        out = [None] * width
        for out_index, position in group_outputs:
            out[out_index] = key[key_index_of[position]]
        for state, (out_index, __f, __a) in zip(states, agg_items):
            out[out_index] = state.result()
        yield tuple(out)


# ----------------------------------------------------------------------
# Sort
# ----------------------------------------------------------------------


def _distinct(node: DistinctNode, ctx: RuntimeContext) -> Iterator[Row]:
    seen: set[Row] = set()
    input_rows = 0
    grant: int | None = None
    for row in execute_node(node.child, ctx):
        if grant is None:
            grant = ctx.commit_memory(node)
        input_rows += 1
        if row in seen:
            continue
        seen.add(row)
        yield row
    if grant is None:
        grant = ctx.commit_memory(node)
    page_size = ctx.catalog.page_size
    ctx.charge(
        ctx.cost_model.aggregate(
            input_rows=input_rows,
            input_pages=pages_for(input_rows, node.schema.row_bytes, page_size),
            group_pages=pages_for(len(seen), node.schema.row_bytes, page_size),
            memory_pages=grant,
        )
    )


def _sort(node: SortNode, ctx: RuntimeContext) -> Iterator[Row]:
    rows: list[Row] = []
    grant: int | None = None
    for row in execute_node(node.child, ctx):
        if grant is None:
            grant = ctx.commit_memory(node)
        rows.append(row)
    if grant is None:
        grant = ctx.commit_memory(node)
    schema = node.schema
    # Stable multi-key sort: apply keys in reverse significance order.
    for key in reversed(node.keys):
        position = schema.index_of(key.name)
        rows.sort(key=lambda r: r[position], reverse=not key.ascending)
    page_size = ctx.catalog.page_size
    pages = pages_for(len(rows), schema.row_bytes, page_size)
    ctx.charge(ctx.cost_model.sort(len(rows), pages, grant))
    yield from rows


_EXECUTORS = {
    SeqScanNode: _seq_scan,
    IndexScanNode: _index_scan,
    FilterNode: _filter,
    ProjectNode: _project,
    StatsCollectorNode: _collector,
    LimitNode: _limit,
    HashJoinNode: _hash_join,
    IndexNLJoinNode: _index_nl_join,
    BlockNLJoinNode: _block_nl_join,
    HashAggregateNode: _hash_aggregate,
    DistinctNode: _distinct,
    SortNode: _sort,
}
