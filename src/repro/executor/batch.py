"""Batch (vectorized) physical operator implementations.

The MonetDB/X100 recipe applied to this engine: every operator consumes and
yields *lists of rows* of roughly ``EngineConfig.batch_size`` tuples, so
Python's generator-dispatch overhead, the cost-clock charges and the
``_tracked`` bookkeeping are all amortised over a batch instead of paid per
tuple.  Hot inner loops run as list comprehensions over precompiled
closures (cached on the plan node, shared with the row path).

Leaf pipelines (a scan under filters/projections) that statically qualify
run in column space instead and materialise late — see
:mod:`repro.executor.columnar`, which also documents the qualification
rule.  The choice is the executor's, per pipeline; it is observable
(``ExecutionProfile.leaf_pipelines``) but not configurable, and either
kernel honours the parity contract below.

Parity contract: for any plan, the batch path produces **the same rows in
the same order, the same cost-clock charges and the same observed
statistics** as the row path in :mod:`repro.executor.iterators`.  The
charging formulas and charge *ordering* are replicated exactly — scans
charge per page as pages are read, streaming operators charge once at end
of stream from running totals, blocking operators charge at their blocking
point — and statistics collectors consume batches in row order, so
reservoir-sampling RNG streams are bit-identical.  The parity suite in
``tests/test_batch_executor.py`` enforces this.

Re-optimization semantics (paper Figure 6) are unchanged: plan switches are
honoured at the same blocking-operator boundaries (hash join build end,
block-NL inner materialisation), which are always batch boundaries too, and
the cut operator spools its output into the directive's temporary table
before :class:`~repro.executor.runtime.PlanSwitched` unwinds to the
dispatcher.

The one deliberate exception is LIMIT: its subtree executes row-at-a-time
(via :func:`~repro.executor.iterators.execute_node`) because early
termination must stop upstream work — and upstream cost charges — at
exactly the limit row, which a read-ahead batch would overshoot.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

from ..errors import ExecutionError
from ..optimizer.cost_model import OperatorCost, pages_for
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
from ..storage.columnar import page_groups
from ..storage.table import Row
from .collector import RuntimeCollector
from .columnar import (
    columnar_pipeline,
    columnar_probe_stream,
    columnar_vectorized_aggregate,
)
from .iterators import (
    _AggState,
    aggregate_items,
    execute_node,
    hash_join_keys,
    key_extractor,
)
from .runtime import PlanSwitched, RuntimeContext
from .vector import compile_batch_filter, compile_batch_projector

Batch = list

#: Iterator over row batches; no batch is ever empty.
BatchIterator = Iterator[Batch]


def execute_node_batches(node: PlanNode, ctx: RuntimeContext) -> BatchIterator:
    """Execute a plan subtree, yielding non-empty batches of result rows."""
    if ctx.execution_mode == "parallel":
        from .parallel import morsel_pipeline

        # Leaf pipelines (scan + filters/projections + collector) fan out
        # across the morsel worker pool; the merged stream is batch-path
        # identical, including bookkeeping, so no _tracked wrapper here.
        parallel_stream = morsel_pipeline(node, ctx)
        if parallel_stream is not None:
            return parallel_stream
    # Leaf pipelines with vectorizable filters run over the table's column
    # arrays with zone-map skipping; the stream is row-kernel identical,
    # including bookkeeping, so no _tracked wrapper here.
    columnar_stream = columnar_pipeline(node, ctx)
    if columnar_stream is not None:
        return columnar_stream
    executor = _BATCH_EXECUTORS.get(type(node))
    if executor is None:
        raise ExecutionError(f"no batch executor for node type {type(node).__name__}")
    return _tracked(node, ctx, executor(node, ctx))


def _tracked(node: PlanNode, ctx: RuntimeContext, gen: BatchIterator) -> BatchIterator:
    """Start/complete/row-count bookkeeping, folded into per-batch counts."""
    ctx.mark_started(node)
    count = 0
    for batch in gen:
        count += len(batch)
        yield batch
    ctx.mark_completed(node, count)


def _chunked(rows: list, size: int) -> BatchIterator:
    """Re-batch a materialised row list into batches of ``size``."""
    for start in range(0, len(rows), size):
        yield rows[start : start + size]


def _batch_residual(node: PlanNode):
    """Source-compiled residual filter over joined rows, or None."""
    predicates = getattr(node, "residual", None)
    if predicates is None:
        predicates = node.predicates
    if not predicates:
        return None
    return node.compiled(
        "batch_residual", lambda: compile_batch_filter(predicates, node.schema)
    )


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


def _seq_scan(node: SeqScanNode, ctx: RuntimeContext) -> BatchIterator:
    table = ctx.catalog.table(node.table_name)
    rows = table.rows
    per_page = table.rows_per_page
    # Whole pages accumulate until a batch holds batch_size rows: the page
    # groups.  Each group's pages are requested and charged as one run.
    for first_page, last_page in page_groups(table, ctx.batch_size):
        ctx.charge_scan_pages(table, first_page, last_page)
        yield rows[first_page * per_page : last_page * per_page]


def _index_scan(node: IndexScanNode, ctx: RuntimeContext) -> BatchIterator:
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
    rows = table.rows
    for chunk in _chunked(row_indices, ctx.batch_size):
        yield [rows[i] for i in chunk]


# ----------------------------------------------------------------------
# Streaming operators
# ----------------------------------------------------------------------


def _filter(node: FilterNode, ctx: RuntimeContext) -> BatchIterator:
    batch_filter = node.compiled(
        "batch_filter",
        lambda: compile_batch_filter(node.predicates, node.child.schema),
    )
    per_row = max(1, len(node.predicates)) * ctx.cost_model.params.cpu_per_compare
    consumed = 0
    try:
        for batch in execute_node_batches(node.child, ctx):
            consumed += len(batch)
            passed = batch_filter(batch)
            if passed:
                yield passed
    finally:
        ctx.clock.charge_cpu(consumed * per_row)


def _project(node: ProjectNode, ctx: RuntimeContext) -> BatchIterator:
    batch_project = node.compiled(
        "batch_project",
        lambda: compile_batch_projector(node.output, node.child.schema),
    )
    consumed = 0
    try:
        for batch in execute_node_batches(node.child, ctx):
            consumed += len(batch)
            yield batch_project(batch)
    finally:
        ctx.clock.charge_cpu(consumed * ctx.cost_model.params.cpu_per_tuple)


def _collector(node: StatsCollectorNode, ctx: RuntimeContext) -> BatchIterator:
    collector = RuntimeCollector(node, node.child.schema, ctx.config)
    observe_batch = collector.observe_batch
    for batch in execute_node_batches(node.child, ctx):
        observe_batch(batch)
        yield batch
    ctx.collector_completed(node, collector)


def _limit(node: LimitNode, ctx: RuntimeContext) -> BatchIterator:
    if node.limit <= 0:
        return
    if isinstance(node.child, (SortNode, HashAggregateNode)):
        # Fully-blocking child: every upstream charge lands at the child's
        # blocking point before its first output batch, so truncating its
        # (already-paid-for) output stream is charge-identical to the row
        # path — and the whole subtree still executes batched.
        emitted = 0
        tail: list[Row] = []
        for batch in execute_node_batches(node.child, ctx):
            take = node.limit - emitted
            if take <= len(batch):
                emitted += take
                tail = batch[:take]
                break
            emitted += len(batch)
            yield batch
        ctx.clock.charge_cpu(emitted * ctx.cost_model.params.cpu_per_tuple)
        if tail:
            yield tail
        return
    # Streaming subtree: run it on the row path — batch read-ahead would
    # consume (and charge for) rows past the limit that row execution
    # never touches.
    batch_size = ctx.batch_size
    batch: list[Row] = []
    emitted = 0
    for row in execute_node(node.child, ctx):
        batch.append(row)
        emitted += 1
        if emitted >= node.limit:
            break
        if len(batch) >= batch_size:
            yield batch
            batch = []
    ctx.clock.charge_cpu(emitted * ctx.cost_model.params.cpu_per_tuple)
    if batch:
        yield batch


# ----------------------------------------------------------------------
# Hash join
# ----------------------------------------------------------------------


def _hash_join(node: HashJoinNode, ctx: RuntimeContext) -> BatchIterator:
    build_key, probe_key = hash_join_keys(node)
    residual_filter = _batch_residual(node)
    page_size = ctx.catalog.page_size

    # --- build phase (blocking) ---
    # A leaf-extractable build side can fan out across the morsel worker
    # pool: workers fold partition hash tables merged in morsel order, so
    # the merged table is observationally identical to the serial loop's.
    built = None
    if ctx.execution_mode == "parallel":
        from .parallel import morsel_build_table

        built = morsel_build_table(node, ctx)
    if built is not None:
        hash_table, build_rows, grant = built
    else:
        hash_table = {}
        setdefault = hash_table.setdefault
        build_rows = 0
        grant = None
        responsive = ctx.config.responsive_hash_joins
        for batch in execute_node_batches(node.build, ctx):
            if grant is None and not responsive:
                grant = ctx.commit_memory(node)
            build_rows += len(batch)
            for row in batch:
                setdefault(build_key(row), []).append(row)
    if grant is None:
        grant = ctx.commit_memory(node)
    build_pages = pages_for(build_rows, node.build.schema.row_bytes, page_size)
    ctx.charge(ctx.cost_model.hash_join_build(build_rows, build_pages, grant))

    # --- plan-switch window: build done, probe not started ---
    directive = ctx.take_switch_for(node.node_id)

    # With the build side materialized (and the switch window resolved),
    # a leaf-extractable probe child can fan out across the morsel worker
    # pool: forked workers inherit the finished hash table copy-on-write
    # and run the probe lookup as the pipeline's top stage.  The merged
    # stream — batches, charges, statistics — is byte-identical to
    # probe_batches() below, so a pending switch spools the same temp
    # table either way.
    if ctx.execution_mode == "parallel":
        from .parallel import morsel_probe_pipeline

        parallel_probe = morsel_probe_pipeline(
            node, ctx, hash_table, build_pages, grant
        )
        if parallel_probe is not None:
            if directive is not None:
                _materialize_and_switch(node, ctx, directive, parallel_probe)
            yield from parallel_probe
            return

    # Single-key joins over an int64 or dictionary-encoded probe column
    # that runs in column space answer whole batches through the sorted
    # build-key index, and only probe rows that match are ever
    # materialised; emission order and charges are those of the plain loop
    # below.  Indexing costs a sort of the build side, repaid per probe
    # row: not worth it for a probe side expected to be the smaller one.
    vector_probe = None
    if len(node.key_pairs) == 1 and node.probe.est.rows >= build_rows:
        vector_probe = columnar_probe_stream(
            node.probe,
            ctx,
            node.probe.schema.index_of(node.key_pairs[0][1]),
            hash_table,
        )

    def probe_batches() -> BatchIterator:
        probe_count = 0
        output_count = 0
        get = hash_table.get
        try:
            if vector_probe is not None:
                stream, index = vector_probe
                probe_kernel = index.probe
                for count, key_array, rows_at in stream:
                    probe_count += count
                    out = probe_kernel(key_array, rows_at)
                    if residual_filter is not None:
                        out = residual_filter(out)
                    if out:
                        output_count += len(out)
                        yield out
            else:
                for batch in execute_node_batches(node.probe, ctx):
                    probe_count += len(batch)
                    out: list[Row] = []
                    append = out.append
                    extend = out.extend
                    # Key extraction and hash lookups run under map() at C
                    # speed; the Python loop body only fires to emit matches.
                    for prow, matches in zip(batch, map(get, map(probe_key, batch))):
                        if matches is None:
                            continue
                        if len(matches) == 1:
                            append(matches[0] + prow)
                        else:
                            extend([brow + prow for brow in matches])
                    if residual_filter is not None:
                        out = residual_filter(out)
                    if out:
                        output_count += len(out)
                        yield out
        finally:
            if vector_probe is not None:
                per_node = ctx.vector.by_node.setdefault(
                    node.node_id,
                    {"kind": "probe", "rows_probed": 0, "matches": 0},
                )
                per_node["rows_probed"] += probe_count
                per_node["matches"] += output_count
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
        _materialize_and_switch(node, ctx, directive, probe_batches())
    yield from probe_batches()


def _materialize_and_switch(
    node: PlanNode,
    ctx: RuntimeContext,
    directive,
    batches: BatchIterator,
) -> None:
    """Spool a cut operator's output into the directive's temp table."""
    materialized: list[Row] = []
    for batch in batches:
        materialized.extend(batch)
    directive.temp_table.append_rows(materialized)
    for page_no in range(directive.temp_table.page_count):
        ctx.buffer_pool.write(directive.temp_table.table_id, page_no)
    ctx.mark_completed(node, len(materialized))
    ctx.switches += 1
    if ctx.tracer is not None:
        ctx.tracer.instant(
            "switch-materialize", "reopt",
            cut_node_id=node.node_id,
            rows=len(materialized),
            temp_pages=directive.temp_table.page_count,
        )
    raise PlanSwitched(directive, len(materialized))


# ----------------------------------------------------------------------
# Indexed nested loops join
# ----------------------------------------------------------------------


def _index_nl_join(node: IndexNLJoinNode, ctx: RuntimeContext) -> BatchIterator:
    inner_table = ctx.catalog.table(node.inner_table)
    index = ctx.catalog.index_on(node.inner_table, node.inner_column)
    if index is None:
        raise ExecutionError(
            f"index on {node.inner_table}.{node.inner_column} disappeared"
        )
    outer_position = node.outer.schema.index_of(node.outer_column)
    residual_filter = _batch_residual(node)
    lookup_eq = index.lookup_eq
    inner_rows = inner_table.rows
    outer_count = 0
    matches_total = 0
    output_count = 0
    get_outer = itemgetter(outer_position)
    # Outer keys repeat heavily in FK joins; memoizing the (pure) index
    # lookups trades memory for skipping most bisect probes.
    lookup_cache: dict[object, list[int]] = {}
    cache_get = lookup_cache.get
    try:
        for batch in execute_node_batches(node.outer, ctx):
            outer_count += len(batch)
            out: list[Row] = []
            append = out.append
            extend = out.extend
            for orow, key in zip(batch, map(get_outer, batch)):
                row_indices = cache_get(key)
                if row_indices is None:
                    row_indices = lookup_cache[key] = lookup_eq(key)
                if not row_indices:
                    continue
                matches_total += len(row_indices)
                if len(row_indices) == 1:
                    append(orow + inner_rows[row_indices[0]])
                else:
                    extend([orow + inner_rows[i] for i in row_indices])
            if residual_filter is not None:
                out = residual_filter(out)
            if out:
                output_count += len(out)
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


def _block_nl_join(node: BlockNLJoinNode, ctx: RuntimeContext) -> BatchIterator:
    page_size = ctx.catalog.page_size
    predicate_filter = _batch_residual(node)
    inner_rows: list[Row] = []
    for batch in execute_node_batches(node.inner, ctx):
        inner_rows.extend(batch)
    inner_pages = pages_for(len(inner_rows), node.inner.schema.row_bytes, page_size)

    directive = ctx.take_switch_for(node.node_id)

    rows_per_page = node.outer.schema.rows_per_page(page_size)
    params = ctx.cost_model.params

    def joined_batches() -> BatchIterator:
        grant = ctx.commit_memory(node)
        block_rows = max(1, (max(1, grant - 2)) * rows_per_page)
        block: list[Row] = []
        blocks_done = 0
        compares = 0

        def flush(block_: list[Row]) -> list[Row]:
            nonlocal blocks_done, compares
            if blocks_done > 0:
                # Re-scan of the (materialised) inner per additional block.
                ctx.clock.charge_seq_read(inner_pages)
            blocks_done += 1
            compares += len(block_) * len(inner_rows)
            out: list[Row] = []
            extend = out.extend
            if predicate_filter is not None:
                for orow in block_:
                    extend(
                        predicate_filter([orow + irow for irow in inner_rows])
                    )
            else:
                for orow in block_:
                    extend([orow + irow for irow in inner_rows])
            return out

        try:
            for batch in execute_node_batches(node.outer, ctx):
                start = 0
                remaining = len(batch)
                while remaining > 0:
                    take = min(block_rows - len(block), remaining)
                    block.extend(batch[start : start + take])
                    start += take
                    remaining -= take
                    if len(block) >= block_rows:
                        out = flush(block)
                        block = []
                        if out:
                            yield out
            if block:
                out = flush(block)
                if out:
                    yield out
        finally:
            ctx.clock.charge_cpu(compares * params.cpu_per_compare)

    if directive is not None:
        _materialize_and_switch(node, ctx, directive, joined_batches())
    yield from joined_batches()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def _hash_aggregate(node: HashAggregateNode, ctx: RuntimeContext) -> BatchIterator:
    child_schema = node.child.schema
    group_positions, agg_items, group_outputs = aggregate_items(node)
    # Scalar keys for single-column grouping; () for a single global group.
    get_key = key_extractor(group_positions) if group_positions else None
    scalar_key = len(group_positions) == 1

    # ``groups`` keeps first-occurrence insertion order, like the row path.
    # Each batch is bucketed by key first (key extraction under map() at C
    # speed), then every aggregate folds a whole per-group value run with
    # _AggState.update_batch — bit-identical to per-row update() because
    # runs preserve row order and fold left-to-right.
    groups: dict[object, list[_AggState]] = {}
    input_rows = 0
    grant: int | None = None
    preaggregated = None
    if ctx.execution_mode == "parallel":
        from .parallel import morsel_preaggregate

        # Workers fold their morsels into per-group partials and ship
        # those instead of rows; partials merge in morsel order, so group
        # states, group order and every output byte match the serial fold.
        # Float SUM/AVG partials travel as ordered value runs folded once
        # at the merge point; returns None (and we fold below) only for
        # non-numeric SUM/AVG arguments.
        preaggregated = morsel_preaggregate(node, ctx)
    if preaggregated is None:
        # Best case the whole aggregate runs in column space: keys
        # factorize straight off the column arrays and every fold runs in
        # the vectorized kernels, bit-identical to the serial accumulator
        # (executor/agg_kernels.py documents the parity argument).
        preaggregated = columnar_vectorized_aggregate(node, ctx)
    if preaggregated is not None:
        groups, input_rows, grant = preaggregated
    else:
        for batch in execute_node_batches(node.child, ctx):
            if grant is None:
                grant = ctx.commit_memory(node)
            input_rows += len(batch)
            if get_key is None:
                buckets = {(): batch}
            else:
                buckets = {}
                setdefault = buckets.setdefault
                for key, row in zip(map(get_key, batch), batch):
                    setdefault(key, []).append(row)
            for key, rows_ in buckets.items():
                states = groups.get(key)
                if states is None:
                    states = [_AggState(func) for __, func, __unused in agg_items]
                    groups[key] = states
                for state, (__, __f, arg_fn) in zip(states, agg_items):
                    if arg_fn is None:
                        state.count += len(rows_)  # COUNT(*): update(1) per row
                    else:
                        state.update_batch(list(map(arg_fn, rows_)))
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
    output: list[Row] = []
    for key, states in groups.items():
        out = [None] * width
        for out_index, position in group_outputs:
            out[out_index] = key if scalar_key else key[key_index_of[position]]
        for state, (out_index, __f, __a) in zip(states, agg_items):
            out[out_index] = state.result()
        output.append(tuple(out))
    yield from _chunked(output, ctx.batch_size)


# ----------------------------------------------------------------------
# Distinct and sort
# ----------------------------------------------------------------------


def _distinct(node: DistinctNode, ctx: RuntimeContext) -> BatchIterator:
    seen: set[Row] = set()
    add = seen.add
    input_rows = 0
    grant: int | None = None
    for batch in execute_node_batches(node.child, ctx):
        if grant is None:
            grant = ctx.commit_memory(node)
        input_rows += len(batch)
        fresh: list[Row] = []
        for row in batch:
            if row not in seen:
                add(row)
                fresh.append(row)
        if fresh:
            yield fresh
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


def _sort(node: SortNode, ctx: RuntimeContext) -> BatchIterator:
    # A leaf-extractable input can fan out across the morsel worker pool:
    # workers ship sorted runs, merged by a loser tree whose morsel-order
    # tie-break reproduces the serial stable sort byte-for-byte.
    rows = None
    grant: int | None = None
    if ctx.execution_mode == "parallel":
        from .parallel import morsel_sort

        sorted_runs = morsel_sort(node, ctx)
        if sorted_runs is not None:
            rows, grant = sorted_runs
    schema = node.schema
    if rows is None:
        rows = []
        for batch in execute_node_batches(node.child, ctx):
            if grant is None:
                grant = ctx.commit_memory(node)
            rows.extend(batch)
        # Stable multi-key sort: apply keys in reverse significance order.
        for key in reversed(node.keys):
            position = schema.index_of(key.name)
            rows.sort(key=lambda r: r[position], reverse=not key.ascending)
    if grant is None:
        grant = ctx.commit_memory(node)
    page_size = ctx.catalog.page_size
    pages = pages_for(len(rows), schema.row_bytes, page_size)
    ctx.charge(ctx.cost_model.sort(len(rows), pages, grant))
    yield from _chunked(rows, ctx.batch_size)


_BATCH_EXECUTORS = {
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
