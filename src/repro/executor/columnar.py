"""Column-space execution of leaf pipelines, materialised late.

A *leaf pipeline* is a chain of filters/projections (optionally topped by a
statistics collector) over a base-table sequential scan.  The batch executor
runs every leaf pipeline that statically qualifies over the table's
:class:`~repro.storage.columnar.ColumnStore` — one typed NumPy array per
column, cut into zone-mapped *page groups* — instead of its row tuples.
Whether a pipeline qualifies is decided from what the code can observe,
never by an option:

* the table is a base table (a switch's temporary table holds the cut's
  row-id chunk, not a heap: its scan yields slices of that chunk, which
  the operators above read by column as they read any join's output), and
* every stage has an exact column-space kernel: filters compile to NumPy
  masks (:func:`repro.executor.vector.compile_mask_conjuncts`), projections
  select plain columns (*takes* — view remaps that touch no data).  The
  collector on top, if any, observes the rows that come out.  A stage
  without a kernel (a UDF filter, a computed projection) runs as the
  ordinary row operator, and the chain *below* it is a leaf pipeline of
  its own that may qualify — per-operator fallback, not per-query.

A consumer that needs row tuples additionally wants a mask in the chain —
without one the heap tuples already are the cheapest answer.  Every pipeline
that stays on the row kernels records why (``ctx.columnar.leaf``, surfaced
on the profile and in EXPLAIN ANALYZE).

A page group is a slice, a run is a pass: the pipeline works on *runs*,
maximal stretches of consecutive groups the zone maps do not skip — with no
skip, the whole scan (``leaf_pipelines[scan]["passes"]`` counts them):

* **Zone-map skipping** — before any array is touched, the *first* mask
  stage's column-vs-constant conjuncts are tested against every group's
  zone maps; a group whose min/max proves zero matches is skipped whole.
  Only the first mask can skip: every stage below it is count-preserving
  (a take), so all skipped-group stage counts are known exactly.
* **Masks** — per run, conjuncts evaluate as boolean masks over the run's
  arrays, in order, never showing a conjunct that could raise a row an
  earlier one excluded (the serial short-circuit; see :class:`_Resolver`).
  Comparisons of a dictionary-encoded column with a constant evaluate in
  code space and never decode a string.
* **Late materialisation** — what leaves the masks is ``(run, selection
  vector)``, and what a pipeline hands on is a :class:`~.chunk.Chunk` of
  the survivors' row ids over the table's heap: one :class:`~.chunk.Source`
  per pipeline, reading the store's columns through the output view.  A
  hash-join probe (:func:`columnar_probe_stream`) hands on the probe rows
  that found a match the same way; the vectorized aggregate
  (:func:`columnar_vectorized_aggregate`) reads the store directly.  A
  tuple is built only when a row-oriented operator reads a chunk as rows.

Parity contract: rows, ``CostBreakdown``, buffer statistics and observed
statistics are byte-identical to the row kernels.  Charges are *replayed*:
a run's pages as one sequential request when the run is reached (the same
additions, in page order, as page by page), streaming-stage totals from
exact integer row counts at end of stream.  Zone-map-skipped groups have
their scan charges replayed too, in page order between the runs, so every
simulated quantity stays byte-identical to the row path and the zone maps
are purely a wall-clock win.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence

import numpy as _np

from ..plans.logical import AggFunc, ColumnExpr, CompareOp, Comparison, InPredicate
from ..plans.physical import (
    FilterNode,
    PlanNode,
    ProjectNode,
    SeqScanNode,
    StatsCollectorNode,
)
from ..storage.columnar import ColumnGroup, ColumnStore
from ..storage.table import Table
from .agg_kernels import (
    _AggState,
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
from .chunk import Chunk, Source
from .collector import RuntimeCollector
from .runtime import RuntimeContext
from .vector import compile_mask_conjuncts


@dataclass(frozen=True)
class _Kernels:
    """A leaf pipeline compiled for column-space execution.

    Depends on the plan alone (schemas, predicates, projections), so it is
    compiled once per cached plan — stored on the chain's top node, whose
    compiled-closure cache every execution's clone shares — and holds no
    node, table or per-run state.
    """

    #: Why the chain has no column-space form (a stage without an exact
    #: kernel), else None.  Nothing below is meaningful when set.
    unsupported: str | None = None
    #: Per filter/projection stage, bottom-up: the filter's per-conjunct
    #: mask kernels, or None for a projection (a *take*: a view remap, no
    #: runtime work).
    masks: tuple = ()
    #: Per stage: compares charged per consumed row (filters), else 0.
    compares: tuple[int, ...] = ()
    #: Whether a statistics collector tops the chain; it observes row
    #: tuples, so its pipeline cannot feed a column-space consumer.
    collects: bool = False
    #: Output view of the stages: schema position -> base column.
    out_view: tuple[int, ...] = ()
    #: Whether the output view is the identity over the full base schema
    #: (the pipeline's chunks read the heap through no view).
    identity: bool = False
    #: Index of the first mask stage, or None.
    first_mask: int | None = None
    #: Zone-map skip conditions derived from the first mask stage:
    #: ``(base column, check(lows, highs) -> bool array)`` pairs.
    conditions: tuple = ()


@dataclass
class _Prepared:
    """One execution's view of a leaf pipeline: this clone's nodes, the
    table as the catalog has it now, and the shared kernels."""

    nodes_bottom_up: list[PlanNode]
    scan: SeqScanNode
    table: Table
    #: Why the pipeline cannot run in column space at all, else None.
    reason: str | None
    kernels: _Kernels | None


# ----------------------------------------------------------------------
# Pipeline compilation
# ----------------------------------------------------------------------


def extract_leaf_chain(
    node: PlanNode,
) -> tuple[list[PlanNode], SeqScanNode] | None:
    """``(top-down chain, scan)`` when ``node`` roots a leaf pipeline — an
    optional statistics collector over filters/projections over a
    sequential scan — else None."""
    chain: list[PlanNode] = []
    cur = node
    if isinstance(cur, StatsCollectorNode):
        chain.append(cur)
        cur = cur.child
    while isinstance(cur, (FilterNode, ProjectNode)):
        chain.append(cur)
        cur = cur.child
    if not isinstance(cur, SeqScanNode):
        return None
    return chain, cur


def _compile_kernels(nodes_bottom_up: list[PlanNode], scan: SeqScanNode) -> _Kernels:
    """Compile every stage to its column-space kernel, or say which cannot.

    Walks bottom-up maintaining the *view* (schema position -> base column
    index): a filter needs a mask kernel for every conjunct, a projection
    must select plain columns.
    """
    view = list(range(len(scan.schema)))
    masks: list = []
    first_mask: int | None = None
    conditions: tuple = ()
    for node in nodes_bottom_up:
        if isinstance(node, FilterNode):
            view_t = tuple(view)
            conjuncts = node.compiled(
                "mask_filter",
                lambda n=node, v=view_t: compile_mask_conjuncts(
                    n.predicates, n.child.schema, v.__getitem__
                ),
            )
            if conjuncts is None:
                return _Kernels(unsupported="predicate without a kernel")
            if first_mask is None:
                # Every stage below the first mask is a take
                # (count-preserving), so a proven-empty group's per-stage
                # counts are all known: group rows below the mask, zero at
                # and above it.  That is what makes a skip charge-safe.
                first_mask = len(masks)
                conditions = _zone_conditions(node, view_t)
            masks.append(conjuncts)
        elif isinstance(node, ProjectNode):
            if not all(isinstance(item.expr, ColumnExpr) for item in node.output):
                return _Kernels(unsupported="computed projection")
            child_schema = node.child.schema
            view = [
                view[child_schema.index_of(item.expr.name)] for item in node.output
            ]
            masks.append(None)
    return _Kernels(
        masks=tuple(masks),
        compares=tuple(
            max(1, len(node.predicates)) if isinstance(node, FilterNode) else 0
            for node in nodes_bottom_up[: len(masks)]
        ),
        collects=len(masks) < len(nodes_bottom_up),
        out_view=tuple(view),
        identity=view == list(range(len(scan.schema))),
        first_mask=first_mask,
        conditions=conditions,
    )


def _comparison_check(op: CompareOp, value: object):
    """``check(lows, highs) -> bool array``: True for the groups where no
    value in ``[low, high]`` can satisfy ``column <op> value``."""

    def check(lows, highs):
        if op is CompareOp.EQ:
            return (value < lows) | (value > highs)
        if op is CompareOp.LT:
            return lows >= value
        if op is CompareOp.LE:
            return lows > value
        if op is CompareOp.GT:
            return highs <= value
        if op is CompareOp.GE:
            return highs < value
        return (lows == value) & (highs == value)  # NE

    return check


def _in_check(values: tuple):
    def check(lows, highs):
        disproved = True
        for value in values:
            disproved = disproved & ((value < lows) | (value > highs))
        return disproved

    return check


def _skipped_groups(conditions: tuple, store: ColumnStore) -> list[bool]:
    """Per group: whether its zone maps disprove the first mask stage.

    Conservative: groups containing NULLs never skip (the serial path
    would raise on a NULL comparison, and skipping must not change
    behaviour), a NaN bound compares False either way, and a condition
    whose constant cannot be compared with the bounds skips nothing."""
    skipped = _np.zeros(len(store.groups), dtype=bool)
    for position, check in conditions:
        lows, highs, provable = store.zone_bounds(position)
        try:
            skipped |= check(lows, highs) & provable
        except (TypeError, OverflowError):
            continue
    return skipped.tolist()


def _zone_conditions(node: FilterNode, view: Sequence[int]) -> tuple:
    """Skip conditions provable from zone maps for one filter's conjuncts.

    Only column-vs-constant comparisons and column IN-lists yield
    conditions; any *one* disproved conjunct disproves the conjunction, so
    other conjunct shapes simply contribute nothing.
    """
    conditions = []
    schema = node.child.schema
    for pred in node.predicates:
        if isinstance(pred, Comparison):
            normalized = pred.normalized()
            pair = normalized.column_and_constant()
            if pair is not None:
                column, value = pair
                conditions.append(
                    (view[schema.index_of(column)],
                     _comparison_check(normalized.op, value))
                )
        elif isinstance(pred, InPredicate) and isinstance(pred.expr, ColumnExpr):
            conditions.append(
                (view[schema.index_of(pred.expr.name)],
                 _in_check(tuple(pred.values)))
            )
    return tuple(conditions)


def _prepare(node: PlanNode, ctx: RuntimeContext) -> _Prepared | None:
    """``node`` as a leaf pipeline, or None when it does not root one."""
    extracted = extract_leaf_chain(node)
    if extracted is None:
        return None
    chain, scan = extracted
    table = ctx.catalog.table(scan.table_name)
    nodes_bottom_up = chain[::-1]
    reason = kernels = None
    if table.is_temporary:
        reason = "temporary table"
    else:
        kernels = node.compiled(
            "leaf_kernels", lambda: _compile_kernels(nodes_bottom_up, scan)
        )
        reason = kernels.unsupported
    return _Prepared(nodes_bottom_up, scan, table, reason, kernels)


def _column_store(ctx: RuntimeContext, table: Table) -> ColumnStore:
    return table.column_store(ctx.batch_size, ctx.config.columnar_dictionary_max)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def columnar_pipeline(
    node: PlanNode, ctx: RuntimeContext
) -> Iterator[Chunk] | None:
    """A column-space batch iterator for ``node`` — chunks of the
    survivors' row ids — or None for row kernels.

    A subtree qualifies when it is a leaf pipeline with at least one mask
    stage — without one, the row scan's heap slices are the cheaper answer.
    A leaf pipeline that does not qualify records why.  Bookkeeping (mark
    started / completed, charges, collector finalisation) is internal.
    """
    prepared = _prepare(node, ctx)
    if prepared is None:
        return None
    reason = prepared.reason
    if reason is None and prepared.kernels.first_mask is None:
        reason = "no filter"
    if reason is not None:
        # The operators re-enter here for every node further down the
        # chain: the top-most record stands unless a sub-chain below the
        # offending stage qualifies, which then replaces it.
        record = {"table": prepared.scan.table_name, "kernel": "row",
                  "reason": reason, "top": node.node_id}
        if node is prepared.scan and prepared.table.held is not None:
            # A bare scan of a temp table holding its cut's chunk yields
            # slices of the chunk: it builds no tuple.
            record["rows_materialised"] = 0
        ctx.columnar.leaf.setdefault(prepared.scan.node_id, record)
        return None
    return _run_pipeline(ctx, prepared)


def columnar_probe_stream(node: PlanNode, ctx: RuntimeContext, key_position: int):
    """A late-materialising hash-join probe source, or None.

    Yields ``(count, [key], fetch)`` per run with survivors: the number
    of probe rows, their key column read straight off the probe pipeline's
    arrays (an int array, or ``(codes, dictionary)`` for a dictionary
    column, which stays in code space) and ``fetch(positions)``, the chunk
    of just those rows' row ids.  Declines
    (None) when the chain leaves column space or the key column is neither
    int64 nor dictionary-encoded.  The pipeline generator is never started
    before qualification, so a decline costs nothing.
    """
    prepared = _prepare(node, ctx)
    if prepared is None or prepared.reason or prepared.kernels.collects:
        return None
    store = _column_store(ctx, prepared.table)
    column = prepared.kernels.out_view[key_position]
    if store.encoding(column) not in ("int64", "dict"):
        return None
    ctx.columnar.keyed_pipelines += 1
    ctx.vector.probe_pipelines += 1
    return _probe_batches(ctx, prepared, store, column)


def _probe_batches(ctx, prepared: _Prepared, store: ColumnStore, column: int):
    dictionary = store.dictionaries[column]
    source = _heap_source(prepared, store)
    for run, sel, survivors in _run_pipeline(ctx, prepared, yield_runs=True):
        keys = store.array(run, column)
        if sel is not None:
            keys = keys[sel]
        chunk = _survivors(ctx, prepared, source, run, sel, survivors)
        yield survivors, [keys if dictionary is None else (keys, dictionary)], chunk.take


def _heap_source(prepared: _Prepared, store: ColumnStore) -> Source:
    """The one source a pipeline's chunks index: the table's rows, read
    through the store and the pipeline's output view."""
    kernels = prepared.kernels
    view = None if kernels.identity else kernels.out_view
    return Source(prepared.table.rows, len(kernels.out_view), store, view)


def _survivors(ctx, prepared: _Prepared, source: Source, run, sel, count) -> Chunk:
    """A run's surviving rows as a chunk of their row ids; a row consumer
    reading it counts the tuples into the leaf record."""
    if sel is None:
        ids = _np.arange(run.start_row, run.end_row, dtype=_np.int64)
    else:
        ids = sel + run.start_row
    return Chunk((source,), [ids], count, ctx.columnar.leaf[prepared.scan.node_id])


def columnar_vectorized_aggregate(node, ctx: RuntimeContext):
    """Fully vectorized hash aggregation over a prepared column view.

    Returns ``(groups, input_rows, grant)`` or None to stay on the
    per-batch fold.  The input pipeline runs in column space end to end;
    no row is ever materialised.  Its runs' selections become one index
    into the store's columns (a slice when one run keeps every row), keys
    factorize in first-occurrence order over the whole stream, then each
    aggregate argument is gathered and folded *one column at a time*: the
    transient memory is the index, the group codes and one gathered column,
    each as long as the selected stream.  Each fold runs once globally in
    the agg_kernels — partial folds would not merge bit-exactly for float
    SUM/AVG, one whole-stream fold reproduces the serial accumulator byte
    for byte (see ``executor/agg_kernels.py``).  Qualification is static
    (encodings and expression shapes only), so a qualified pipeline never
    bails out after charges started.
    """
    if not kernels_available():
        return None
    group_positions, agg_items, __, arguments = aggregate_items(node)
    if any(
        position is None and arg_fn is not None
        for position, (__, __f, arg_fn) in zip(arguments, agg_items)
    ):
        return None  # computed argument: the serial fold handles it
    prepared = _prepare(node.child, ctx)
    if prepared is None or prepared.reason or prepared.kernels.collects:
        return None
    out_view = prepared.kernels.out_view
    store = _column_store(ctx, prepared.table)
    key_cols = [out_view[p] for p in group_positions]
    specs = [
        (func, None if position is None else out_view[position])
        for position, (__, func, __a) in zip(arguments, agg_items)
    ]
    encodings = {
        column: store.encoding(column)
        for column in {*key_cols, *(c for __, c in specs if c is not None)}
    }

    parts: list = []  # per run, its selected rows as table rows
    input_rows = 0
    grant: int | None = None
    for run, sel, survivors in _run_pipeline(ctx, prepared, yield_runs=True):
        if grant is None:
            grant = ctx.commit_memory(node)
        input_rows += survivors
        parts.append(
            slice(run.start_row, run.end_row) if sel is None else sel + run.start_row
        )

    ctx.columnar.keyed_pipelines += 1
    vec = ctx.vector
    vec.agg_pipelines += 1
    vec.rows_folded += input_rows
    per_node = vec.by_node.setdefault(
        node.node_id, {"kind": "aggregate", "rows_folded": 0, "groups": 0}
    )
    per_node["rows_folded"] += input_rows
    if input_rows == 0:
        return {}, 0, grant

    rows = parts[0] if len(parts) == 1 else _np.r_[tuple(parts)]
    del parts

    def stream(column: int, raw: bool = False):
        """One column of the whole selected stream: as stored (dictionary
        codes, possibly-int32 integers) when ``raw``, else in value space."""
        array = store.column(column)[rows]
        if raw or array.dtype != _np.int32:
            return array
        if encodings[column] == "dict":
            return store.dictionaries[column].decode(array)
        return array.astype(_np.int64)

    # ---- factorize the group keys (first-occurrence order) ------------
    if not key_cols:
        codes = _np.zeros(input_rows, dtype=_np.int64)
        group_keys: list = [()]
    else:
        per_codes = []
        per_keys = []
        raws = []
        for column in key_cols:
            kind = encodings[column]
            raw = stream(column, raw=True)
            raws.append(raw)
            if kind == "dict":
                # Dictionary columns factorize directly on their codes.
                col_codes, uniq, __f = factorize_array(raw)
                decoded = store.dictionaries[column].values
                keys = [
                    None if code < 0 else decoded[code]
                    for code in uniq.tolist()
                ]
            elif kind == "int64":
                col_codes, uniq, __f = factorize_array(raw)
                keys = uniq.tolist()
            else:
                # Float/object keys: Python-dict factorization replicates
                # the serial grouping's hash/identity semantics exactly
                # (signed zeros share a group, NaN objects do not).
                col_codes, keys = factorize_values(raw.tolist())
            per_codes.append(col_codes)
            per_keys.append(keys)
        if len(key_cols) == 1:
            codes = per_codes[0]
            group_keys = per_keys[0]
        else:
            span = 1
            for keys in per_keys:
                span *= len(keys)
            firsts = None
            if span < 2**62:
                combined = per_codes[0]
                for col_codes, keys in zip(per_codes[1:], per_keys[1:]):
                    combined = combined * len(keys) + col_codes
                codes, __u, firsts = factorize_array(combined)
            # Key tuples hold each group's first row's values, as the row
            # path's first-inserted key does: equal keys can differ (0.0
            # and -0.0), so a column's first value of a class will not do.
            columns = []
            for column, values in zip(key_cols, raws):
                if firsts is not None:
                    values = values[firsts]
                if encodings[column] == "dict":
                    values = store.dictionaries[column].decode(values)
                columns.append(values.tolist())
            if firsts is None:  # cardinality product overflows: tuple space
                codes, group_keys = factorize_values(list(zip(*columns)))
            else:
                group_keys = list(zip(*columns))
        del per_codes, raws
    n_groups = len(group_keys)

    # ---- fold every aggregate, one argument column at a time ----------
    # The stable-gather layout (bincount + argsort) depends only on the
    # codes, so it is computed once and shared by every numeric fold; a
    # column feeding several aggregates (SUM and AVG of one argument) is
    # gathered and folded once per fold kind.
    layout = group_layout(codes, n_groups)
    counts = layout[0].tolist()
    code_list: list | None = None
    folds: dict[tuple[int, str], list] = {}
    for func, column in specs:
        if column is None or func is AggFunc.COUNT:
            continue  # COUNT folds entirely from the group sizes
        slot = _FOLD_SLOT[func]
        if (column, slot) in folds:
            continue
        array = stream(column)
        kind = encodings[column]
        if kind not in ("float64", "int64"):
            if code_list is None:
                code_list = codes.tolist()
            values = array.tolist()
            if slot == "total":
                folded = object_group_sums(values, code_list, n_groups)
            else:
                folded = object_group_minmax(
                    values, code_list, n_groups, slot == "maximum"
                )
        elif slot != "total":
            folded = minmax_group_fold(
                array, codes, n_groups, slot == "maximum", layout=layout
            )
        elif kind == "float64":
            folded = float_group_sums(array, codes, n_groups, layout=layout)
        else:
            folded = int_group_sums(array, codes, n_groups, layout=layout)
        folds[column, slot] = folded

    per_node["groups"] += n_groups
    groups: dict = {}
    for g in range(n_groups):
        states = []
        for func, column in specs:
            state = _AggState(func)
            state.count = counts[g]
            if column is not None and func is not AggFunc.COUNT:
                slot = _FOLD_SLOT[func]
                setattr(state, slot, folds[column, slot][g])
            states.append(state)
        groups[group_keys[g]] = states
    return groups, input_rows, grant


#: The ``_AggState`` slot each folding aggregate's result lands in.
_FOLD_SLOT = {
    AggFunc.SUM: "total",
    AggFunc.AVG: "total",
    AggFunc.MIN: "minimum",
    AggFunc.MAX: "maximum",
}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _charge_streaming_stages(ctx, kernels: _Kernels, scan_rows, stage_rows) -> None:
    """End-of-stream charges for every filter/projection, in serial firing
    order (bottom-up) from exact integer row counts — same formulas and
    ordering as the row operators' ``finally`` blocks."""
    params = ctx.cost_model.params
    consumed = scan_rows
    for position, compares in enumerate(kernels.compares):
        if compares:
            ctx.clock.charge_cpu(consumed * (compares * params.cpu_per_compare))
        else:
            ctx.clock.charge_cpu(consumed * params.cpu_per_tuple)
        consumed = stage_rows[position]


class _Unobservable(Exception):
    """Raised by the resolver when a conjunct asks for values whose
    comparison could raise while rows are already excluded."""


class _Resolver:
    """The mask kernels' column resolver: one run's column arrays,
    narrowed by the selection vector ``sel`` (None = all rows).

    A row failing conjunct *i* must never reach conjunct *i + 1* — the
    serial short-circuit, observable when the later conjunct would raise
    (a NULL comparison).  Numeric arrays and NULL-free dictionary codes
    cannot raise, so conjuncts over them evaluate on the whole run and
    their masks are ANDed; with ``guard`` set (rows already excluded, not
    yet narrowed) asking for anything else raises :class:`_Unobservable`
    and the pipeline narrows before re-evaluating."""

    __slots__ = ("store", "run", "sel", "guard")

    def __init__(self, store: ColumnStore, run: ColumnGroup) -> None:
        self.store = store
        self.run = run
        self.sel = None
        self.guard = False

    def __call__(self, column: int):
        store = self.store
        if self.guard and store.encoding(column) not in ("int64", "float64"):
            raise _Unobservable
        return store.values(self.run, column, self.sel)

    def codes(self, column: int):
        coded = self.store.dict_codes(self.run, column)
        if coded is None or self.sel is None:
            return coded
        return coded[0][self.sel], coded[1]


def _run_pipeline(
    ctx: RuntimeContext, prep: _Prepared, *, yield_runs: bool = False
) -> Iterator:
    """The column-space pipeline body: zone-check every group, then per run
    of read groups mask/take in column space and hand the survivors over.

    By default survivors are shown to the collector, if one tops the
    chain, and yielded as one chunk of row ids per run.  With
    ``yield_runs`` the narrowed run itself is the batch: ``(run, sel,
    survivors)`` triples for consumers that stay in column space and
    materialise late, only offered by callers that verified no collector
    tops the chain.
    """
    config = ctx.config
    table = prep.table
    store = _column_store(ctx, table)
    scan = prep.scan
    kernels = prep.kernels
    masks = kernels.masks
    first_mask = kernels.first_mask
    # Maximal stretches of groups with one zone-map verdict, in page order:
    # ``(skipped, first group, stop group)``.
    runs, first = [], 0
    for skip, members in groupby(_skipped_groups(kernels.conditions, store)):
        stop = first + len(list(members))
        runs.append((skip, first, stop))
        first = stop
    passes = sum(1 for skip, __, __ in runs if not skip)
    groups_skipped = sum(stop - first for skip, first, stop in runs if skip)

    telemetry = ctx.columnar
    telemetry.pipelines += 1
    pipeline_id = telemetry.pipelines
    per_scan = telemetry.by_scan.setdefault(
        scan.node_id,
        {"table": scan.table_name, "groups_read": 0,
         "groups_skipped": 0, "pages_skipped": 0, "rows_skipped": 0},
    )
    leaf = telemetry.leaf[scan.node_id] = {
        "table": scan.table_name, "kernel": "column", "reason": None,
        "rows_scanned": 0, "rows_selected": 0, "rows_materialised": 0,
        "passes": passes,
    }

    collector: RuntimeCollector | None = None
    collector_node = None
    if kernels.collects:
        collector_node = prep.nodes_bottom_up[-1]
        collector = RuntimeCollector(
            collector_node, collector_node.child.schema, config
        )

    tracer = ctx.tracer
    span = None
    if tracer is not None:
        span = tracer.begin(
            f"columnar-pipeline-{pipeline_id}",
            "pipeline",
            kind="columnar-keyed" if yield_runs else "columnar",
            groups=len(store.groups),
            runs=passes,
            root=prep.nodes_bottom_up[-1].label if prep.nodes_bottom_up else scan.label,
        )

    ctx.mark_started(scan)
    for pnode in prep.nodes_bottom_up:
        ctx.mark_started(pnode)

    charge_scan = ctx.charge_scan_pages
    scan_rows = 0
    stage_rows = [0] * len(prep.nodes_bottom_up)
    source = None if yield_runs else _heap_source(prep, store)
    try:
        for skip, first, stop in runs:
            run = store.run(first, stop)
            run_rows = run.row_count
            if skip:
                per_scan["groups_skipped"] += stop - first
                per_scan["pages_skipped"] += run.last_page - run.first_page
                per_scan["rows_skipped"] += run_rows
                # The skip saves the real work (tuple materialisation,
                # predicate evaluation) but replays the simulated page
                # charges, so every cost/buffer number matches a path that
                # read the groups.  A skipped group provably holds its row
                # count below the first mask and zero survivors at it.
                charge_scan(table, run.first_page, run.last_page)
                scan_rows += run_rows
                for position in range(first_mask):
                    stage_rows[position] += run_rows
                continue
            per_scan["groups_read"] += stop - first
            # The run's scan charges, ahead of its hand-off as the row scan
            # charges a batch's pages before yielding it.
            charge_scan(table, run.first_page, run.last_page)
            scan_rows += run_rows

            # -- masks select the surviving rows ------------------------
            mask = None  # over the whole run, while no conjunct narrowed
            sel = None  # row indices into the run, once one did
            survivors = run_rows
            resolver = None
            for position, conjuncts in enumerate(masks):
                if conjuncts is not None:
                    if resolver is None:
                        resolver = _Resolver(store, run)
                    for fn in conjuncts:
                        if sel is None:
                            resolver.guard = mask is not None
                            try:
                                passed = fn(resolver)
                            except _Unobservable:
                                resolver.guard = False
                                sel = resolver.sel = _np.nonzero(mask)[0]
                            else:
                                mask = passed if mask is None else mask & passed
                                continue
                        if len(sel) == 0:
                            break
                        sel = resolver.sel = sel[fn(resolver)]
                    if sel is not None:
                        survivors = len(sel)
                    else:
                        survivors = int(_np.count_nonzero(mask))
                stage_rows[position] += survivors
                if survivors == 0:
                    break
            if survivors == 0:
                continue
            if survivors == run_rows:
                sel = None
            elif sel is None:
                sel = _np.nonzero(mask)[0]

            if yield_runs:
                # Column-space consumer: the narrowed run is the batch,
                # reaching it at the clock position a chunk would have.
                yield run, sel, survivors
                continue

            batch = _survivors(ctx, prep, source, run, sel, survivors)
            if collector is not None:
                collector.observe_batch(batch)
                stage_rows[-1] += survivors
            yield batch
    finally:
        _charge_streaming_stages(ctx, kernels, scan_rows, stage_rows)
        selected = stage_rows[-1] if stage_rows else scan_rows
        leaf["rows_scanned"] = scan_rows
        leaf["rows_selected"] = selected

    # Full drain only, matching the row collector's after-loop (not
    # ``finally``) semantics and the row path's completion bookkeeping.
    if collector is not None:
        ctx.collector_completed(collector_node, collector)
    ctx.mark_completed(scan, scan_rows)
    for position, pnode in enumerate(prep.nodes_bottom_up):
        ctx.mark_completed(pnode, stage_rows[position])
    if tracer is not None:
        tracer.end(span, rows=selected, groups_skipped=groups_skipped)
