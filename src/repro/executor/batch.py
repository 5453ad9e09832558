"""Batch (vectorized) physical operator implementations.

The MonetDB/X100 recipe applied to this engine: every operator consumes and
yields *batches* of roughly ``EngineConfig.batch_size`` rows, so Python's
generator-dispatch overhead, the cost-clock charges and the ``_tracked``
bookkeeping are all amortised over a batch instead of paid per tuple.

What flows out of the three join operators is a row-id
:class:`~repro.executor.chunk.Chunk`: index vectors over the row lists the
join read, not joined tuples.  A hash join's build side *is* the stable-
sorted key index (:class:`~repro.executor.agg_kernels.ProbeIndex`) and a
probe batch is one gather from its table; an index-NL join
answers a whole outer key column against the index's arrays
(:meth:`~repro.storage.index.Index.lookup_many`); a block-NL join emits
``repeat`` / ``tile`` vectors per block.  Joins read their key columns,
residual predicates, statistics collectors and aggregates the columns they
name, and a tuple is built only where a row-oriented consumer — the final
result, sort / distinct / limit, a computed projection — reads the chunk as
the row sequence it also is.  Column-kernel leaf pipelines yield chunks of
row ids too; every other operator yields plain row lists, the degenerate
chunk; their hot loops run as list
comprehensions over precompiled closures (cached on the plan node, shared
with the row path).

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
reservoir-sampling RNG streams are bit-identical.  A chunk changes what is
*built*, never what is *counted*: every charge is computed from the same
integer row counts at the same points.  The parity suites in
``tests/test_batch_executor.py`` and ``tests/test_join_chunks.py`` enforce
this.

Re-optimization semantics (paper Figure 6) are unchanged: plan switches are
honoured at the same blocking-operator boundaries (hash join build end,
block-NL inner materialisation), which are always batch boundaries too, and
the cut operator spools its output chunks into the directive's temporary
table, which holds them as one chunk, before
:class:`~repro.executor.runtime.PlanSwitched` unwinds to the dispatcher.

The one deliberate exception is LIMIT: its subtree executes row-at-a-time
(via :func:`~repro.executor.iterators.execute_node`) because early
termination must stop upstream work — and upstream cost charges — at
exactly the limit row, which a read-ahead batch would overshoot.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

import numpy as np

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
from .agg_kernels import ProbeIndex, _AggState, aggregate_items
from .chunk import Chunk, as_chunk
from .collector import RuntimeCollector
from .columnar import (
    columnar_pipeline,
    columnar_probe_stream,
    columnar_vectorized_aggregate,
)
from .iterators import execute_node
from .runtime import RuntimeContext
from .vector import (
    compile_batch_filter,
    compile_batch_projector,
    compile_mask_conjuncts,
    has_arithmetic,
)

#: What flows between operators: a plain row list, or — out of the joins —
#: a :class:`~repro.executor.chunk.Chunk`, which reads as one.
Batch = list | Chunk

#: Iterator over batches; no batch is ever empty.
BatchIterator = Iterator[Batch]


def execute_node_batches(node: PlanNode, ctx: RuntimeContext) -> BatchIterator:
    """Execute a plan subtree, yielding non-empty batches of result rows."""
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


def _join_stats(node: PlanNode, ctx: RuntimeContext) -> dict:
    """The join's telemetry record; its output chunks count the tuples
    built from them into ``rows_materialised``."""
    return ctx.vector.by_node.setdefault(
        node.node_id,
        {"kind": "probe", "rows_probed": 0, "matches": 0, "rows_materialised": 0},
    )


def _chunk_residual(node: PlanNode):
    """A join's residual predicates as ``fn(chunk) -> batch``, or None.

    The mask kernels of the leaf pipelines, over the columns the predicates
    name: conjunct by conjunct, narrowing the chunk's index vectors in
    between, so a row one conjunct excludes never reaches the next (the
    serial short-circuit).  Predicates without an exact mask kernel — a
    UDF, or arithmetic, which wraps over int64 arrays where Python's ints
    do not — filter the chunk's built rows instead."""
    predicates = getattr(node, "residual", None)
    if predicates is None:
        predicates = node.predicates
    if not predicates:
        return None
    conjuncts = node.compiled(
        "mask_residual",
        lambda: None
        if any(map(has_arithmetic, predicates))
        else compile_mask_conjuncts(predicates, node.schema),
    )
    if conjuncts is None:
        return node.compiled(
            "batch_residual", lambda: compile_batch_filter(predicates, node.schema)
        )

    def residual(chunk: Chunk) -> Chunk:
        for passing in conjuncts:
            mask = passing(chunk.column)
            if not mask.all():
                chunk = chunk.take(np.nonzero(mask)[0])
                if not len(chunk):
                    break
        return chunk

    return residual


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


def _seq_scan(node: SeqScanNode, ctx: RuntimeContext) -> BatchIterator:
    table = ctx.catalog.table(node.table_name)
    # A temp table holding its cut's chunk yields slices of it, unbuilt.
    rows = table.rows if table.held is None else table.held
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
    width = len(node.child.schema)
    # A selective join emits a handful of rows per probe batch.  Their
    # chunks pass straight through and are observed together, a batch's
    # worth at a time and in stream order — the sampler draws once per row
    # either way — so a column read is amortised like everywhere else.
    pending: list[Chunk] = []
    held = 0
    for batch in execute_node_batches(node.child, ctx):
        if type(batch) is Chunk:
            pending.append(batch)
            held += len(batch)
        if pending and (type(batch) is list or held >= ctx.batch_size):
            observe_batch(Chunk.concat(pending, width))
            pending, held = [], 0
        if type(batch) is list:
            observe_batch(batch)
        yield batch
    if pending:
        observe_batch(Chunk.concat(pending, width))
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
    build_schema, probe_schema = node.build.schema, node.probe.schema
    build_keys = [build_schema.index_of(col) for col, __ in node.key_pairs]
    probe_keys = [probe_schema.index_of(col) for __, col in node.key_pairs]
    residual = _chunk_residual(node)
    stats = _join_stats(node, ctx)
    page_size = ctx.catalog.page_size

    # --- build phase (blocking) ---
    batches = []
    build_rows = 0
    grant = None
    responsive = ctx.config.responsive_hash_joins
    for batch in execute_node_batches(node.build, ctx):
        if grant is None and not responsive:
            grant = ctx.commit_memory(node)
        build_rows += len(batch)
        batches.append(batch)
    if grant is None:
        grant = ctx.commit_memory(node)
    build = Chunk.concat(batches, len(build_schema))
    del batches
    build_pages = pages_for(build_rows, build_schema.row_bytes, page_size)
    ctx.charge(ctx.cost_model.hash_join_build(build_rows, build_pages, grant))

    # --- plan-switch window: build done, probe not started ---
    directive = ctx.take_switch_for(node.node_id)

    # The build structure is the sorted key index, born from the build
    # side's key columns.  A single-key probe side that runs in column
    # space hands over its key arrays and builds only the probe rows that
    # match; any other arrives as batches whose key columns are gathered.
    stream = None
    if len(probe_keys) == 1:
        stream = columnar_probe_stream(node.probe, ctx, probe_keys[0])
    if stream is None:
        stream = _probe_stream(node.probe, ctx, probe_keys)
    index = ProbeIndex([build.column(position) for position in build_keys])
    build = build.take(index.order)
    probe_width = len(probe_schema)

    def probe_batches() -> BatchIterator:
        probe_count = 0
        output_count = 0
        try:
            for count, keys, fetch in stream:
                probe_count += count
                slots, matched, counts = index.probe(keys)
                if not len(matched):
                    continue
                # Only probe rows that found a match travel on, each paired
                # with its build rows in build order.
                probe = as_chunk(fetch(matched), probe_width)
                probe_ids = None
                if counts is not None:
                    probe_ids = np.repeat(np.arange(len(matched)), counts)
                out = Chunk.join(build, slots, probe, probe_ids, stats)
                if residual is not None:
                    out = residual(out)
                    if not out:
                        continue
                output_count += len(out)
                yield out
        finally:
            stats["rows_probed"] += probe_count
            stats["matches"] += output_count
            probe_pages = pages_for(probe_count, probe_schema.row_bytes, page_size)
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
        ctx.spool_and_switch(node, directive, probe_batches())
    yield from probe_batches()


def _probe_stream(node: PlanNode, ctx: RuntimeContext, positions: list[int]):
    """A probe side as ``(rows, key columns, fetch)`` per batch, where
    ``fetch(positions)`` is the batch narrowed to those rows — the contract
    :func:`~repro.executor.columnar.columnar_probe_stream` set."""
    width = len(node.schema)
    for batch in execute_node_batches(node, ctx):
        chunk = as_chunk(batch, width)
        yield len(chunk), [chunk.column(p) for p in positions], chunk.take



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
    outer_width = len(node.outer.schema)
    outer_position = node.outer.schema.index_of(node.outer_column)
    residual = _chunk_residual(node)
    stats = _join_stats(node, ctx)
    # The inner side is the table's heap itself, addressed by the row ids
    # the index returns (min/max reads its column store's whole columns).
    store = inner_table.column_store(ctx.batch_size, ctx.config.columnar_dictionary_max)
    inner = as_chunk(inner_table.rows, len(inner_table.schema), heap=store)
    outer_count = 0
    matches_total = 0
    output_count = 0
    try:
        for batch in execute_node_batches(node.outer, ctx):
            outer_count += len(batch)
            outer = as_chunk(batch, outer_width)
            # One sweep answers the whole key column: per outer row, in
            # order, its matches in index order.
            counts, row_ids = index.lookup_many(outer.column(outer_position))
            if not len(row_ids):
                continue
            matches_total += len(row_ids)
            outer_ids = np.repeat(np.arange(len(outer), dtype=np.int64), counts)
            out = Chunk.join(outer, outer_ids, inner, row_ids, stats)
            if residual is not None:
                out = residual(out)
                if not out:
                    continue
            output_count += len(out)
            yield out
    finally:
        stats["rows_probed"] += outer_count
        stats["matches"] += output_count
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
    residual = _chunk_residual(node)
    stats = _join_stats(node, ctx)
    outer_width = len(node.outer.schema)
    inner = Chunk.concat(
        list(execute_node_batches(node.inner, ctx)), len(node.inner.schema)
    )
    inner_count = len(inner)
    inner_pages = pages_for(inner_count, node.inner.schema.row_bytes, page_size)

    directive = ctx.take_switch_for(node.node_id)

    rows_per_page = node.outer.schema.rows_per_page(page_size)
    params = ctx.cost_model.params
    # Outer rows paired with the whole inner per emitted chunk: what keeps
    # a chunk's index vectors near a batch's size.
    slab = max(1, ctx.batch_size // max(1, inner_count))
    inner_ids = np.arange(inner_count, dtype=np.int64)

    def joined_batches() -> BatchIterator:
        grant = ctx.commit_memory(node)
        block_rows = max(1, (max(1, grant - 2)) * rows_per_page)
        block: list[Chunk] = []
        pending = 0
        blocks_done = 0
        compares = 0
        outer_count = output_count = 0

        def flush() -> BatchIterator:
            nonlocal blocks_done, compares, output_count
            if blocks_done > 0:
                # Re-scan of the (materialised) inner per additional block.
                ctx.clock.charge_seq_read(inner_pages)
            blocks_done += 1
            compares += pending * inner_count
            outer = Chunk.concat(block, outer_width)
            for start in range(0, pending, slab):
                stop = min(start + slab, pending)
                # Outer-major pairs: each outer row against the whole
                # inner, in inner order.
                out = Chunk.join(
                    outer,
                    np.repeat(np.arange(start, stop, dtype=np.int64), inner_count),
                    inner,
                    np.tile(inner_ids, stop - start),
                    stats,
                )
                if residual is not None:
                    out = residual(out)
                if out:
                    output_count += len(out)
                    yield out

        try:
            for batch in execute_node_batches(node.outer, ctx):
                outer_count += len(batch)
                batch = as_chunk(batch, outer_width)
                start = 0
                while start < len(batch):
                    take = min(block_rows - pending, len(batch) - start)
                    block.append(
                        batch
                        if take == len(batch)
                        else batch.take(np.arange(start, start + take, dtype=np.int64))
                    )
                    start += take
                    pending += take
                    if pending >= block_rows:
                        yield from flush()
                        block = []
                        pending = 0
            if block:
                yield from flush()
        finally:
            stats["rows_probed"] += outer_count
            stats["matches"] += output_count
            ctx.clock.charge_cpu(compares * params.cpu_per_compare)

    if directive is not None:
        ctx.spool_and_switch(node, directive, joined_batches())
    yield from joined_batches()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def _hash_aggregate(node: HashAggregateNode, ctx: RuntimeContext) -> BatchIterator:
    child_schema = node.child.schema
    # ``arguments``: per aggregate its argument's child column, or None —
    # COUNT(*), or a computed argument, which ``arg_fn`` evaluates over
    # built rows.
    group_positions, agg_items, group_outputs, arguments = aggregate_items(node)
    scalar_key = len(group_positions) == 1

    # ``groups`` keeps first-occurrence insertion order, like the row path.
    # Each batch is read by column — its keys and arguments only, so a
    # join's chunk builds no tuple — and bucketed by key as row offsets;
    # every aggregate then folds a whole per-group value run with
    # _AggState.update_batch, bit-identical to per-row update() because runs
    # preserve row order and fold left-to-right.
    groups: dict[object, list[_AggState]] = {}
    input_rows = 0
    grant: int | None = None
    # Best case the whole aggregate runs in column space: keys factorize
    # straight off the column arrays and every fold runs in the vectorized
    # kernels, bit-identical to the serial accumulator
    # (executor/agg_kernels.py documents the parity argument).
    preaggregated = columnar_vectorized_aggregate(node, ctx)
    if preaggregated is not None:
        groups, input_rows, grant = preaggregated
    else:
        for batch in execute_node_batches(node.child, ctx):
            if grant is None:
                grant = ctx.commit_memory(node)
            input_rows += len(batch)
            chunk = as_chunk(batch, len(child_schema))
            if not group_positions:
                buckets = {(): None}  # None: every row
            else:
                keys = map(chunk.values, group_positions)
                keys = next(keys) if scalar_key else zip(*keys)
                buckets = {}
                setdefault = buckets.setdefault
                for offset, key in enumerate(keys):
                    setdefault(key, []).append(offset)
            args = [
                chunk.values(position) if position is not None
                else None if arg_fn is None
                else list(map(arg_fn, chunk))
                for position, (__, __f, arg_fn) in zip(arguments, agg_items)
            ]
            for key, offsets in buckets.items():
                states = groups.get(key)
                if states is None:
                    states = [_AggState(func) for __, func, __unused in agg_items]
                    groups[key] = states
                for state, values in zip(states, args):
                    if values is None:
                        # COUNT(*): update(1) per row
                        state.count += len(chunk) if offsets is None else len(offsets)
                    elif offsets is None:
                        state.update_batch(values)
                    else:
                        state.update_batch(list(map(values.__getitem__, offsets)))
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
    rows = []
    grant: int | None = None
    schema = node.schema
    for batch in execute_node_batches(node.child, ctx):
        if grant is None:
            grant = ctx.commit_memory(node)
        rows.extend(batch)
    # Stable multi-key sort: apply keys in reverse significance order.
    for key in reversed(node.keys):
        position = schema.index_of(key.name)
        rows.sort(key=itemgetter(position), reverse=not key.ascending)
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
