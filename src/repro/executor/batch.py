"""Batch (vectorized) physical operator implementations.

The MonetDB/X100 recipe applied to this engine: every operator consumes and
yields *batches* of roughly ``EngineConfig.batch_size`` rows, so Python's
generator-dispatch overhead, the cost-clock charges and the ``_tracked``
bookkeeping are all amortised over a batch instead of paid per tuple.

What flows out of a sequential scan and the three join operators is a
row-id :class:`~repro.executor.chunk.Chunk`: index vectors over the row
lists they read, not tuples.  A scan charges its pages and hands on one
chunk of every row id over the table's heap, read through its column
store.  Filters and join residuals narrow a chunk by NumPy masks over the
columns they name (:func:`_mask_selector`); a plain-column projection
remaps a heap chunk's columns; a hash join's build side *is* the stable-
sorted key index (:class:`~repro.executor.agg_kernels.ProbeIndex`) and a
probe batch is one gather from its table; an index-NL join
answers a whole outer key column against the index's arrays
(:meth:`~repro.storage.index.Index.lookup_many`); a block-NL join emits
``repeat`` / ``tile`` vectors per block; the hash aggregate factorizes its
keys and folds each argument column in the NumPy kernels.  A tuple is
built only where a row-oriented consumer — the final result, sort /
distinct / limit, a computed projection, a predicate without an exact
mask — reads a chunk as the row sequence it also is.  Every other operator
yields plain row lists, the degenerate chunk; their hot loops run as list
comprehensions over precompiled closures (cached on the plan node).

Parity contract: for any plan, the batch path produces **the same rows in
the same order, the same cost-clock charges and the same observed
statistics** as a row-at-a-time interpreter (the test suite keeps one as
its reference, ``tests/reference/iterators.py``).  The
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

A LIMIT runs its child batched too, with one stop rule.  The operators
from its child down to the first blocking one — scans, filters,
projections, collectors, distinct, the hash join's probe side and the
nested-loops joins' outer side: the *spine* — read one page a batch, so no
scan requests a page past the stop row's.  When the limit row falls inside
a batch, each operator on the spine in turn maps "``k`` rows of my last
batch taken" back to its own input row and settles its end-of-stream
counters to what a row-at-a-time operator would have counted there (a
hash join's probe count stops at the stop row, an index-NL join counts the
stop row's whole fan-out, a block-NL join's compares stop at the stop
pair).  The limit then closes the spine, and every ``finally`` charges
those counters in the order the generators close.  On the spine filters,
projections and join residuals run row by row, each row once, as a
row-at-a-time operator runs them: the positions that passed tell the stop
rule where the operator stood, and an expression that raises part-way
through a batch hands on the rows before the raising one and raises when
pulled again, so a LIMIT met first never sees it.
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
from ..plans.logical import AggFunc, ColumnExpr
from ..storage.table import Row
from .agg_kernels import (
    ProbeIndex,
    aggregate_items,
    factorize_array,
    factorize_values,
    float_group_sums,
    group_layout,
    int_group_sums,
    kernels_available,
    minmax_group_fold,
    object_group_minmax,
    object_group_sums,
)
from .chunk import Chunk, as_chunk
from .collector import RuntimeCollector
from .runtime import RuntimeContext
from .segments import STREAMED_INPUT
from .vector import (
    compile_batch_filter,
    compile_batch_projector,
    compile_mask_conjuncts,
)

#: What flows between operators: a plain row list, or — out of the joins —
#: a :class:`~repro.executor.chunk.Chunk`, which reads as one.
Batch = list | Chunk

#: Iterator over batches; no batch is ever empty.
BatchIterator = Iterator[Batch]


def execute_node_batches(node: PlanNode, ctx: RuntimeContext) -> BatchIterator:
    """Execute a plan subtree, yielding non-empty batches of result rows."""
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


def _selector(node: PlanNode, ctx: RuntimeContext, predicates, schema):
    """A filter's or a join residual's ``predicates`` as ``fn(batch) ->
    (passed, positions, error)``.

    Off a LIMIT's spine it runs the batch kernel — :func:`_mask_selector`,
    or the row kernel where the predicates have no exact mask — with
    ``positions`` and ``error`` None: an input there is read to its end,
    so an error may raise at once.  On the spine the predicates run row by
    row, each row once, as a row-at-a-time operator runs them:
    ``positions`` says which rows of ``batch`` passed (what the stop rule
    reads), and a row that raises ends the batch, ``passed`` holding what
    the rows before it gave and ``error`` what it raised."""
    if not predicates:
        return lambda batch: (batch, range(len(batch)), None)
    if node.node_id not in ctx.spine:
        batch_kernel = node.compiled("select", lambda: _batch_kernel(predicates, schema))
        return lambda batch: (batch_kernel(batch), None, None)
    fns = [p.compile(schema) for p in predicates]

    def select(batch) -> tuple:
        positions, error = [], None
        try:
            for i, row in enumerate(batch):
                if all(fn(row) for fn in fns):
                    positions.append(i)
        except Exception as raised:
            error = raised
        if type(batch) is Chunk:
            return batch.take(np.array(positions, dtype=np.int64)), positions, error
        return [batch[i] for i in positions], positions, error

    return select


def _batch_kernel(predicates, schema):
    """``predicates`` as ``fn(batch) -> batch``: the mask kernels over the
    columns they name, or — where one has no exact mask (a UDF,
    arithmetic, a comparison NumPy would round) — the row kernel over the
    batch's built rows."""
    conjuncts = compile_mask_conjuncts(predicates, schema)
    if conjuncts is None:
        return compile_batch_filter(predicates, schema)
    return _mask_selector(conjuncts, len(schema))


class _Unobservable(Exception):
    """Raised by the resolver when a conjunct asks for a column whose
    comparison could raise while rows are already excluded."""


class _Resolver:
    """The mask kernels' column resolver over one chunk.

    A row failing conjunct *i* must never reach conjunct *i + 1* — the
    serial short-circuit, observable when the later conjunct would raise
    (a NULL comparison).  Numeric arrays and NULL-free dictionary codes
    cannot raise, so conjuncts over them evaluate on every row and their
    masks are ANDed; with ``guard`` set (rows already excluded, not yet
    narrowed) asking for anything else raises :class:`_Unobservable` and
    the selector narrows the chunk before re-evaluating."""

    __slots__ = ("chunk", "guard")

    def __init__(self, chunk: Chunk, guard: bool) -> None:
        self.chunk = chunk
        self.guard = guard

    def __call__(self, position: int):
        pair = self.chunk.stored(position)
        if pair is not None and pair[1] is None:
            return pair[0]
        if self.guard:
            raise _Unobservable
        return self.chunk.column(position)

    def codes(self, position: int):
        pair = self.chunk.stored(position)
        if pair is None or pair[1] is None or (pair[0] < 0).any():
            return None
        return pair


def _mask_selector(conjuncts: list, width: int):
    """``fn(batch) -> chunk``: the batch narrowed to the rows passing every
    mask conjunct, in order (see :class:`_Resolver`)."""

    def select(batch) -> Chunk:
        chunk = as_chunk(batch, width)
        mask = None
        for conjunct in conjuncts:
            try:
                passed = conjunct(_Resolver(chunk, mask is not None))
            except _Unobservable:
                chunk, mask = chunk.take(np.nonzero(mask)[0]), None
                if not len(chunk):
                    return chunk
                passed = conjunct(_Resolver(chunk, False))
            mask = passed if mask is None else mask & passed
        return chunk if mask.all() else chunk.take(np.nonzero(mask)[0])

    return select


def _join_stats(node: PlanNode, ctx: RuntimeContext) -> dict:
    """The join's telemetry record; its output chunks count the tuples
    built from them into ``rows_materialised``."""
    return ctx.vector.by_node.setdefault(
        node.node_id,
        {"kind": "probe", "rows_probed": 0, "matches": 0, "rows_materialised": 0},
    )


def _residual(node: PlanNode, ctx: RuntimeContext):
    """A join's residual predicates as a :func:`_selector` over its output
    chunks: the filters' mask kernels, over the columns the predicates
    name."""
    predicates = getattr(node, "residual", None)
    if predicates is None:
        predicates = node.predicates
    return _selector(node, ctx, predicates, node.schema)


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


def _seq_scan(node: SeqScanNode, ctx: RuntimeContext) -> BatchIterator:
    table = ctx.catalog.table(node.table_name)
    held = table.held
    stats = ctx.vector.by_node.setdefault(
        node.node_id, {"kind": "scan", "rows_scanned": 0, "rows_materialised": 0}
    )
    if node.node_id in ctx.spine:
        # Under a LIMIT a batch is one page: none past the stop row's is read.
        rows = table.rows if held is None else held
        per_page = table.rows_per_page
        for page in range(table.page_count):
            ctx.charge_scan_pages(table, page, page + 1)
            batch = rows[page * per_page : (page + 1) * per_page]
            stats["rows_scanned"] += len(batch)
            yield batch
        return
    # One request for every page, charged as page by page, then one chunk
    # of every row: a temp table's held chunk, or row ids over the heap,
    # whose columns its readers take from the column store.
    ctx.charge_scan_pages(table, 0, table.page_count)
    if held is None:
        store = table.column_store(dictionary_max=ctx.config.columnar_dictionary_max)
        held = as_chunk(table.rows, len(table.schema), heap=store)
    stats["rows_scanned"] += len(held)
    if len(held):
        yield Chunk(held.sources, held.ids, len(held), stats)


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
    select = _selector(node, ctx, node.predicates, node.child.schema)
    per_row = max(1, len(node.predicates)) * ctx.cost_model.params.cpu_per_compare
    consumed = 0
    batch = kept = ()

    def stop(taken: int) -> int:
        nonlocal consumed
        read = kept[taken - 1] + 1
        consumed += read - len(batch)
        return read

    if node.node_id in ctx.spine:
        ctx.spine[node.node_id] = stop
    try:
        for batch in execute_node_batches(node.child, ctx):
            consumed += len(batch)
            passed, kept, error = select(batch)
            if passed:
                yield passed
            if error is not None:
                raise error
    finally:
        ctx.clock.charge_cpu(consumed * per_row)


def _project(node: ProjectNode, ctx: RuntimeContext) -> BatchIterator:
    schema = node.child.schema
    consumed = 0
    batch = ()

    def stop(taken: int) -> int:
        nonlocal consumed
        consumed += taken - len(batch)
        return taken

    if node.node_id in ctx.spine:
        # Row by row, as a row-at-a-time operator: a row that raises ends
        # the batch, which hands on the rows before it.
        ctx.spine[node.node_id] = stop
        fns = [item.expr.compile(schema) for item in node.output]

        def project(batch) -> tuple:
            out: list = []
            try:
                for row in batch:
                    out.append(tuple(fn(row) for fn in fns))
            except Exception as error:
                return out, error
            return out, None
    else:
        batch_project = node.compiled(
            "batch_project", lambda: compile_batch_projector(node.output, schema)
        )
        columns = None
        if all(isinstance(item.expr, ColumnExpr) for item in node.output):
            columns = [schema.index_of(item.expr.name) for item in node.output]

        def project(batch) -> tuple:
            # Plain columns over one heap source: a view remap, no tuple.
            if (
                columns is not None
                and type(batch) is Chunk
                and len(batch.sources) == 1
                and batch.sources[0].heap is not None
            ):
                source = batch.sources[0].project(columns)
                return Chunk((source,), batch.ids, len(batch), batch.stats), None
            return batch_project(batch), None

    try:
        for batch in execute_node_batches(node.child, ctx):
            consumed += len(batch)
            projected, error = project(batch)
            if projected:
                yield projected
            if error is not None:
                raise error
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
    if node.node_id in ctx.spine:
        ctx.spine[node.node_id] = lambda taken: taken
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
    # The spine: down the streamed inputs to a scan or the first blocking
    # operator, which the spine leaves out.
    path = [node.child]
    while type(path[-1]) in STREAMED_INPUT:
        path.append(path[-1].children[STREAMED_INPUT[type(path[-1])]])
    if path[-1].children:
        path.pop()
    ctx.spine = dict.fromkeys(below.node_id for below in path)
    emitted = 0
    tail = None
    for batch in execute_node_batches(node.child, ctx):
        take = node.limit - emitted
        if take <= len(batch):
            emitted += take
            tail = batch[:take]
            # Top down, each operator on the spine maps the rows taken of
            # its last batch to the rows it read of its input's.
            taken = take
            for below in path:
                stop = ctx.spine[below.node_id]
                if stop is None or taken is None:
                    break
                taken = stop(taken)
            break
        emitted += len(batch)
        yield batch
    ctx.clock.charge_cpu(emitted * ctx.cost_model.params.cpu_per_tuple)
    if tail:
        yield tail


# ----------------------------------------------------------------------
# Hash join
# ----------------------------------------------------------------------


def _hash_join(node: HashJoinNode, ctx: RuntimeContext) -> BatchIterator:
    build_schema, probe_schema = node.build.schema, node.probe.schema
    build_keys = [build_schema.index_of(col) for col, __ in node.key_pairs]
    probe_keys = [probe_schema.index_of(col) for __, col in node.key_pairs]
    select = _residual(node, ctx)
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
    # side's key columns.
    index = ProbeIndex([build.column(position) for position in build_keys])
    build = build.take(index.order)
    probe_width = len(probe_schema)

    def probe_batches() -> BatchIterator:
        probe_count = output_count = count = 0
        matched = probe_ids = out = kept = None

        def stop(taken: int) -> int:
            nonlocal probe_count, output_count
            at = kept[taken - 1]
            read = int(matched[at if probe_ids is None else probe_ids[at]]) + 1
            probe_count += read - count
            output_count += taken - len(out)
            return read

        if node.node_id in ctx.spine:
            ctx.spine[node.node_id] = stop
        try:
            # The probe side is held by the loop alone: closing the join
            # closes it first, as a row-at-a-time join's loop does.
            for batch in execute_node_batches(node.probe, ctx):
                probe = as_chunk(batch, probe_width)
                count = len(probe)
                probe_count += count
                slots, matched, counts = index.probe(list(map(probe.key, probe_keys)))
                if not len(matched):
                    continue
                # Only probe rows that found a match travel on, each paired
                # with its build rows in build order.
                probe = probe.take(matched)
                probe_ids = None
                if counts is not None:
                    probe_ids = np.repeat(np.arange(len(matched)), counts)
                out, kept, error = select(
                    Chunk.join(build, slots, probe, probe_ids, stats)
                )
                if out:
                    output_count += len(out)
                    yield out
                if error is not None:
                    raise error
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
    select = _residual(node, ctx)
    stats = _join_stats(node, ctx)
    # The inner side is the table's heap itself, addressed by the row ids
    # the index returns (min/max reads its column store's whole columns).
    store = inner_table.column_store(dictionary_max=ctx.config.columnar_dictionary_max)
    inner = as_chunk(inner_table.rows, len(inner_table.schema), heap=store)
    outer_count = matches_total = output_count = 0
    outer = counts = row_ids = outer_ids = out = kept = None

    def stop(taken: int) -> int:
        nonlocal outer_count, matches_total, output_count
        read = int(outer_ids[kept[taken - 1]]) + 1
        outer_count += read - len(outer)
        # The stop row's whole fan-out was counted before its first match.
        matches_total += int(counts[:read].sum()) - len(row_ids)
        output_count += taken - len(out)
        return read

    if node.node_id in ctx.spine:
        ctx.spine[node.node_id] = stop
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
            out, kept, error = select(
                Chunk.join(outer, outer_ids, inner, row_ids, stats)
            )
            if out:
                output_count += len(out)
                yield out
            if error is not None:
                raise error
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
    select = _residual(node, ctx)
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
        # Rows of the outer's last batch the blocks took; None once drained.
        outer_read = None
        joined = out = kept = None

        def stop(taken: int) -> int | None:
            nonlocal compares, output_count
            compares += kept[taken - 1] + 1 - len(joined)
            output_count += taken - len(out)
            return outer_read

        if node.node_id in ctx.spine:
            ctx.spine[node.node_id] = stop

        def flush() -> BatchIterator:
            nonlocal blocks_done, compares, output_count, joined, out, kept
            if blocks_done > 0:
                # Re-scan of the (materialised) inner per additional block.
                ctx.clock.charge_seq_read(inner_pages)
            blocks_done += 1
            outer = Chunk.concat(block, outer_width)
            for first in range(0, pending, slab):
                last = min(first + slab, pending)
                # Outer-major pairs: each outer row against the whole
                # inner, in inner order.
                joined = Chunk.join(
                    outer,
                    np.repeat(np.arange(first, last, dtype=np.int64), inner_count),
                    inner,
                    np.tile(inner_ids, last - first),
                    stats,
                )
                compares += len(joined)
                out, kept, error = select(joined)
                if out:
                    output_count += len(out)
                    yield out
                if error is not None:
                    raise error

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
                        outer_read = start
                        yield from flush()
                        block = []
                        pending = 0
            outer_read = None
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
    """One body: the whole input as one chunk, its group keys factorized
    in first-occurrence order (the row path's dict insertion order), then
    every aggregate folded a column at a time — in the NumPy kernels over
    an exact int64 / float64 column, in the serial object folds over
    Python values (a computed argument, any other column, or every column
    when the kernels' import-time probe failed).  Each fold runs once over
    the whole stream, bit-identical to the serial accumulator
    (``executor/agg_kernels.py`` holds the argument)."""
    child_schema = node.child.schema
    # ``arguments``: per aggregate its argument's child column, or None —
    # COUNT(*), or a computed argument, which ``arg_fn`` evaluates over
    # built rows.
    group_positions, agg_items, group_outputs, arguments = aggregate_items(node)
    batches = []
    grant: int | None = None
    for batch in execute_node_batches(node.child, ctx):
        if grant is None:
            grant = ctx.commit_memory(node)
        batches.append(batch)
    if grant is None:
        grant = ctx.commit_memory(node)
    chunk = Chunk.concat(batches, len(child_schema)) if batches else as_chunk([], 0)
    del batches
    input_rows = len(chunk)
    if input_rows:
        codes, group_keys = _group_codes(chunk, group_positions)
    else:
        codes, group_keys = None, [] if node.group_by else [()]
    results = _fold_aggregates(chunk, codes, len(group_keys), agg_items, arguments)
    vec = ctx.vector
    vec.rows_folded += input_rows
    vec.by_node[node.node_id] = {
        "kind": "aggregate", "rows_folded": input_rows, "groups": len(group_keys),
    }

    page_size = ctx.catalog.page_size
    input_pages = pages_for(input_rows, child_schema.row_bytes, page_size)
    group_pages = pages_for(len(group_keys), node.schema.row_bytes, page_size)
    ctx.charge(
        ctx.cost_model.aggregate(
            input_rows=input_rows,
            input_pages=input_pages,
            group_pages=group_pages,
            memory_pages=grant,
        )
    )
    width = len(node.output)
    scalar_key = len(group_positions) == 1
    key_index_of = {position: i for i, position in enumerate(group_positions)}
    output: list[Row] = []
    for g, key in enumerate(group_keys):
        out = [None] * width
        for out_index, position in group_outputs:
            out[out_index] = key if scalar_key else key[key_index_of[position]]
        for folded, (out_index, __f, __a) in zip(results, agg_items):
            out[out_index] = folded[g]
        output.append(tuple(out))
    yield from _chunked(output, ctx.batch_size)


def _group_codes(chunk: Chunk, positions) -> tuple:
    """``(codes, keys)``: each row's group and each group's key — the value,
    or the tuple of values, of its first row — in first-occurrence order.

    An int64 or dictionary-coded column factorizes its array; anything else
    its Python values through a dict, which groups as the row path's dict
    does (0.0 and -0.0 share a group, distinct NaN objects do not)."""
    if not positions:
        return np.zeros(len(chunk), dtype=np.int64), [()]
    per_codes, per_keys, readers = [], [], []
    for position in positions:
        pair = chunk.stored(position)
        if pair is not None and pair[0].dtype.kind == "i":
            array, dictionary = pair
            codes, __, firsts = factorize_array(array)
            if dictionary is None:
                read = lambda ids, a=array: a[ids].tolist()  # noqa: E731
            else:
                read = lambda ids, a=array, d=dictionary: d.decode(a[ids]).tolist()  # noqa: E731
            keys = read(firsts)
        else:
            values = pair[0].tolist() if pair is not None else chunk.values(position)
            codes, keys = factorize_values(values)
            read = lambda ids, v=values: list(map(v.__getitem__, ids.tolist()))  # noqa: E731
        per_codes.append(codes)
        per_keys.append(keys)
        readers.append(read)
    if len(positions) == 1:
        return per_codes[0], per_keys[0]
    span = 1
    for keys in per_keys:
        span *= len(keys)
    if span >= 2**62:  # the combined code could overflow: group tuples
        rows = np.arange(len(chunk), dtype=np.int64)
        return factorize_values(list(zip(*(read(rows) for read in readers))))
    combined = per_codes[0]
    for codes, keys in zip(per_codes[1:], per_keys[1:]):
        combined = combined * len(keys) + codes
    codes, __, firsts = factorize_array(combined)
    # Key tuples hold each group's first row's values, as the row path's
    # first-inserted key does: equal keys can differ (0.0 and -0.0).
    return codes, list(zip(*(read(firsts) for read in readers)))


def _fold_aggregates(chunk: Chunk, codes, n_groups: int, agg_items, arguments) -> list:
    """Per aggregate, its result in every group (see :func:`_hash_aggregate`);
    with no input, the one empty group's: COUNT 0, anything else None."""
    if codes is None:
        return [[0 if func is AggFunc.COUNT else None] for __, func, __a in agg_items]
    counts = np.bincount(codes, minlength=n_groups).tolist()
    layout = code_list = None
    folds: dict = {}
    results = []
    for (__, func, arg_fn), position in zip(agg_items, arguments):
        values = None
        if position is None and arg_fn is not None:
            # A computed argument: evaluated per row, as the row path does,
            # COUNT's included (it may raise).
            values = list(map(arg_fn, chunk))
        if func is AggFunc.COUNT:
            results.append(counts)
            continue
        total, maximum = func in (AggFunc.SUM, AggFunc.AVG), func is AggFunc.MAX
        folded = folds.get((position, total, maximum)) if values is None else None
        if folded is None:
            pair = chunk.stored(position) if values is None else None
            if pair is not None and pair[1] is None and kernels_available():
                array = pair[0]
                if layout is None:
                    layout = group_layout(codes, n_groups)
                if not total:
                    folded = minmax_group_fold(array, codes, n_groups, maximum, layout)
                elif array.dtype.kind == "f":
                    folded = float_group_sums(array, codes, n_groups, layout)
                else:
                    folded = int_group_sums(array, codes, n_groups, layout)
            else:
                if values is None:
                    values = chunk.values(position)
                if code_list is None:
                    code_list = codes.tolist()
                if total:
                    folded = object_group_sums(values, code_list, n_groups)
                else:
                    folded = object_group_minmax(values, code_list, n_groups, maximum)
            if position is not None:
                folds[position, total, maximum] = folded
        if func is AggFunc.AVG:
            folded = [total / count for total, count in zip(folded, counts)]
        results.append(folded)
    return results


# ----------------------------------------------------------------------
# Distinct and sort
# ----------------------------------------------------------------------


def _distinct(node: DistinctNode, ctx: RuntimeContext) -> BatchIterator:
    seen: set[Row] = set()
    add = seen.add
    input_rows = 0
    grant: int | None = None
    batch = fresh = ()
    if node.node_id in ctx.spine:
        # A first occurrence: no equal row stands before it.
        ctx.spine[node.node_id] = lambda taken: list(batch).index(fresh[taken - 1]) + 1
    for batch in execute_node_batches(node.child, ctx):
        if grant is None:
            grant = ctx.commit_memory(node)
        input_rows += len(batch)
        fresh = []
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
