"""Morsel-driven parallel execution of leaf and probe-side join pipelines.

``execution_mode="parallel"`` keeps the whole engine on the batch path and
adds one thing: a *pipeline* — a chain of streaming operators over a
base-table sequential scan — is split into fixed-size page-range **morsels**
and fanned across fork-based worker processes (Leis et al.'s morsel-driven
parallelism, adapted to a Python engine where processes, not threads, are
the unit of CPU parallelism).  Three pipeline shapes qualify:

* **Leaf pipelines** — filters/projections (optionally a SCIA-placed
  statistics collector at the top) over a sequential scan.
* **Probe-side hash-join pipelines** — once a hash join's build side is
  materialised (a blocking point the re-optimizer already respects, and the
  window in which pending plan switches are claimed), workers are forked
  and inherit the completed read-only hash table copy-on-write; the probe
  child's page groups are replayed as morsels and each worker runs the
  probe lookup (plus any residual predicates) as the pipeline's top stage,
  shipping back joined rows.
* **Pre-aggregating pipelines** — when a hash aggregate's input pipeline is
  leaf-extractable and every aggregate merges exactly (COUNT/MIN/MAX, and
  SUM only over integer inputs, where addition is associative down to the
  bit), each worker folds its morsel into per-group
  :class:`~repro.executor.iterators._AggState` partials and ships those
  tiny partials instead of the surviving rows.

Workers are forked, so they inherit the loaded catalog, the precompiled
batch kernels and (for probe pipelines) the hash table copy-on-write; a
worker's assignment is **range-affine**: the morsel list is cut into one
contiguous page range per worker, so copy-on-write first-touch faults cover
disjoint heap slices, and each worker owns a stable partition id — the same
identity a hybrid-hash spill file would carry.  Results stream back over a
per-partition pipe; with ``parallel_prefetch`` on, a per-partition
read-ahead thread in the parent stages (unpickles) the next partition's
results while the merge loop is still replaying the current partition's
simulated I/O — overlapping real deserialisation work with the charge
replay exactly the way a spill reader would prefetch the next partition.
A per-partition semaphore window (sized from the workspace pages the
Memory Manager's allocation left free) bounds how far a worker may run
ahead of the merge point.

Determinism contract — the whole point of the design:

* **Rows**: morsel results are merged strictly in morsel order (partitions
  are consumed in partition order, which *is* morsel order, because the
  assignment is range-affine), and within a morsel in page-group order,
  where a *page group* is exactly the run of pages the serial batch scan
  would have accumulated into one batch.  The merged stream is therefore
  byte-identical to the serial batch stream, batch boundaries included —
  for probe pipelines the serial stream in question is the hash join's
  probe loop, whose per-input-batch output batches the probe stage
  reproduces exactly.
* **Simulated cost**: workers never touch the parent's cost clock or
  buffer pool.  The parent *replays* each page group's charges (buffer
  access + per-page CPU) at the moment it merges that group, and the
  streaming operators' end-of-stream totals — the hash join's probe charge
  included — are charged from exact integer row counts in the serial
  firing order, so every cost bucket's float accumulation order is
  identical to serial execution, making ``CostBreakdown`` bit-for-bit
  equal, not just close.
* **Statistics**: counts, min/max and distinct sketches merge losslessly
  (sums, order-free folds, bitmap OR).  Reservoir samples are the one
  RNG-dependent statistic: with ``parallel_stats="exact"`` (default) the
  parent replays the serial sampling RNG over the collector's input values
  in morsel order — from the merged output rows when the collector tops
  the pipeline, from shipped per-morsel value columns when a probe stage
  or pre-aggregation sits above it — bit-identical histograms, so
  re-optimization decisions cannot diverge from the batch path; with
  ``"merge"`` each morsel samples under an index-derived seed and samples
  merge weighted, which is schedule-independent (1, 2 or 7 workers agree)
  but not serial-identical.
* **Aggregates**: worker partials merge in morsel order with
  :meth:`~repro.executor.iterators._AggState.merge`, so first-occurrence
  group order — which fixes the aggregate's output order — matches the
  serial fold.  Float SUM/AVG partial *totals* never merge (float
  addition is non-associative, so regrouping additions across workers
  could change output bytes on TPC-D's float measures); those
  aggregates pre-aggregate by shipping per-group ordered value *runs*
  (:class:`_ValueRun`) — the single
  argument column, not raw rows — which concatenate losslessly in morsel
  order and fold once at the merge point with the exact left-fold kernel
  (:func:`~repro.executor.agg_kernels.left_fold_sum`), bit-identical to
  the serial accumulator.

Platforms without ``fork`` (or a single-worker configuration) execute the
same morsel loop in-process — identical results and charges, no speedup —
with a one-time warning when parallelism had been requested.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from operator import itemgetter
from typing import Callable, Iterator

from ..config import EngineConfig
from ..errors import ExecutionError
from ..optimizer.cost_model import pages_for
from ..plans.logical import AggFunc, infer_dtype
from ..plans.physical import (
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    PlanNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
    StatsCollectorNode,
)
from ..stats.distinct import _mix64
from ..storage.columnar import page_groups
from ..storage.schema import DataType
from ..storage.table import Row, Table
from .collector import CollectorPartial, RuntimeCollector
from .agg_kernels import left_fold_sum
from .columnar import extract_leaf_chain
from .iterators import _AggState, aggregate_items, hash_join_keys, key_extractor
from .loser_tree import merge_runs, row_comparator
from .memory import MemoryManager
from .runtime import RuntimeContext
from .vector import compile_batch_filter, compile_batch_projector

#: Salt mixed with the engine seed and morsel index for merge-mode
#: reservoir seeds, keeping them disjoint from every other RNG stream.
_MORSEL_SEED_SALT = 0x9E3779B97F4A7C15

#: Cap on staged (completed but unmerged) morsels per worker, whatever the
#: memory budget allows — keeps the merge point from hoarding results.
_MAX_STAGED_PER_WORKER = 4

#: Cap on *spilled* morsel results a partition's read-ahead thread may
#: stage back in parent memory beyond its semaphore window; markers past
#: the cap stay on disk until the merge loop reaches them.
_MAX_SPILL_READAHEAD = 8


@dataclass
class _Stage:
    """One streaming operator of a pipeline, ready for a worker.

    ``kind`` is ``"filter"``/``"project"`` (compiled batch kernels),
    ``"collect"`` (the statistics collector; ``fn`` unused) or ``"probe"``
    (the hash join's probe lookup over the inherited hash table; ``node``
    is the join itself, whose start/complete bookkeeping belongs to the
    enclosing batch executor, not to this pipeline).
    """

    kind: str  # "filter" | "project" | "collect" | "probe"
    node: PlanNode
    fn: Callable[[list], list] | None


@dataclass
class _PreAgg:
    """Worker-side pre-aggregation fold, compiled in the parent.

    ``run_flags`` is aligned with ``agg_items``: True marks aggregates
    folded as :class:`_ValueRun` value runs (float SUM/AVG), False those
    folded as :class:`~repro.executor.iterators._AggState` partials.
    """

    get_key: Callable[[Row], object] | None
    agg_items: tuple
    run_flags: tuple = ()


class _ValueRun:
    """Shipped partial for a float SUM/AVG: one group's non-NULL argument
    values in pipeline row order, plus the all-rows count.

    Float addition is non-associative, so float partial totals must not
    merge — but ordered value runs concatenate losslessly (morsel order =
    serial row order), and one exact left fold at the merge point
    reproduces the serial accumulator bit for bit.  This is not raw-row
    shipping: only the single argument column travels, and the pipeline's
    output rows count as pre-aggregated, never as shipped.
    """

    __slots__ = ("func", "count", "values")

    def __init__(self, func: AggFunc) -> None:
        self.func = func
        self.count = 0
        self.values: list = []

    def fold(self, values: list) -> None:
        """Worker-side fold: count every argument (NULLs included, like
        the serial ``update``), keep the non-NULLs in order."""
        self.count += len(values)
        self.values.extend(v for v in values if v is not None)

    def merge(self, other: "_ValueRun") -> None:
        self.count += other.count
        self.values.extend(other.values)

    def finalize(self) -> _AggState:
        """The serial-identical aggregate state, folded at merge time."""
        state = _AggState(self.func)
        state.count = self.count
        state.total = left_fold_sum(self.values)
        return state


@dataclass
class _ProbeTask:
    """Parent-side bookkeeping for a probe pipeline's end-of-stream charge."""

    node: HashJoinNode
    build_pages: int
    grant: int


@dataclass
class _BuildSpec:
    """Worker-side hash-join build fold, compiled in the parent."""

    get_key: Callable[[Row], object]


@dataclass
class _SortSpec:
    """Worker-side run sort: ``(row position, ascending)`` pairs in
    significance order; workers apply them with the exact serial
    multi-pass stable sort (reverse significance order, stable passes)."""

    keys: tuple[tuple[int, bool], ...]


@dataclass
class _WorkerState:
    """Everything a forked worker reads; inherited copy-on-write."""

    rows: list[Row]
    rows_per_page: int
    groups: list[tuple[int, int]]
    morsels: list[tuple[int, int]]
    stages: list[_Stage]
    config: EngineConfig
    exact_stats: bool
    #: ``(column, position)`` pairs whose collector-input values each morsel
    #: ships for the parent's exact-mode reservoir replay — non-empty only
    #: when the collector's input rows are not shipped as-is (a probe stage,
    #: pre-aggregation, build fold or run sort sits above the collector).
    replay_positions: tuple[tuple[str, int], ...] = ()
    preagg: _PreAgg | None = None
    build: _BuildSpec | None = None
    sort: _SortSpec | None = None


@dataclass
class _MorselResult:
    """One morsel's output, shipped from a worker to the merging parent."""

    index: int
    #: Per page group: the pipeline's output batch (``None`` for pre-
    #: aggregated, build-folded and run-sorted morsels, which ship
    #: ``groups_out``/``build_out``/``sort_run`` instead).
    batches: list[list[Row]] | None
    #: Per page group: per-stage output counts, for end-of-stream charges.
    counts: list[tuple[int, ...]]
    partial: CollectorPartial | None
    #: Collector-input values per replay column (exact-mode reservoir
    #: replay when rows are not shipped), concatenated in stream order.
    replay: dict[str, list] | None
    #: Pre-aggregation partials: group key -> per-aggregate states, in
    #: first-occurrence order within the morsel.
    groups_out: dict | None
    shipped_rows: int
    elapsed: float
    pid: int
    #: Build-fold partial: join key -> build rows, keys in first-occurrence
    #: order and rows in scan order within the morsel.
    build_out: dict | None = None
    #: The morsel's pipeline output sorted by the sort keys (the run a
    #: loser-tree merge consumes).
    sort_run: list[Row] | None = None
    #: Set by the parent when this result came back through a partition
    #: spill file rather than the staging window.
    spilled: bool = False


@dataclass
class _SpillMarker:
    """Shipped instead of a result when the worker spilled it to disk."""

    partition_id: int
    index: int
    offset: int
    length: int


@dataclass
class _WorkerFailure:
    """Shipped (or synthesised) in place of a result when a worker dies."""

    partition_id: int
    message: str
    details: str = ""


#: The pipeline being executed, published for forked workers.  Set by the
#: parent immediately before forking the partition workers (children
#: inherit it); pipelines never overlap — a probe pipeline only starts
#: after the pipelines feeding its build side drained — so one slot
#: suffices, with save/restore for in-process fallback nesting.
_WORKER_STATE: _WorkerState | None = None


def _morsel_seed(seed: int, morsel_index: int) -> int:
    """Deterministic per-morsel RNG seed, independent of worker scheduling."""
    return _mix64(seed ^ (_MORSEL_SEED_SALT * (morsel_index + 1)))


def _fork_available() -> bool:
    """Whether fork-based pools exist on this platform (Linux/macOS: yes)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_init() -> None:
    """Forked-worker initializer: keep GC off the inherited heap.

    A forked worker inherits the parent's multi-million-object heap.  Any
    generational collection inside the worker traces all of it and — worse
    — dirties its copy-on-write pages, which measures an order of magnitude
    slower than the morsel work itself.  Freezing moves the inherited
    objects into the permanent generation and disabling the collector
    leaves reclamation to reference counting; workers are short-lived and
    the batch kernels allocate no reference cycles.
    """
    gc.freeze()
    gc.disable()


def _fold_batch(groups: dict, batch: list[Row], preagg: _PreAgg) -> None:
    """Fold one pipeline-output batch into per-group aggregate states.

    Replicates the serial batch aggregate's inner loop exactly: the batch
    is bucketed by key first (insertion order = first occurrence within the
    batch), then each aggregate folds a whole per-group value run — so
    per-worker partials are the states a serial fold over the same rows
    would have produced.
    """
    get_key = preagg.get_key
    if get_key is None:
        buckets = {(): batch}
    else:
        buckets = {}
        setdefault = buckets.setdefault
        for key, row in zip(map(get_key, batch), batch):
            setdefault(key, []).append(row)
    agg_items = preagg.agg_items
    run_flags = preagg.run_flags
    for key, rows_ in buckets.items():
        states = groups.get(key)
        if states is None:
            states = [
                _ValueRun(func) if run else _AggState(func)
                for (__, func, __unused), run in zip(agg_items, run_flags)
            ]
            groups[key] = states
        for state, (__, __f, arg_fn), run in zip(states, agg_items, run_flags):
            if arg_fn is None:
                state.count += len(rows_)  # COUNT(*): update(1) per row
            elif run:
                state.fold(list(map(arg_fn, rows_)))
            else:
                state.update_batch(list(map(arg_fn, rows_)))


def _run_morsel(index: int) -> _MorselResult:
    """Execute the published pipeline over one morsel of page groups.

    Runs inside a forked worker (or inline on the serial fallback path).
    Returns per-group output batches (or pre-aggregated partials) and
    per-stage output counts, plus the collector partial for the morsel.
    """
    state = _WORKER_STATE
    started = time.perf_counter()
    rows = state.rows
    per_page = state.rows_per_page
    first_group, last_group = state.morsels[index]
    collector: RuntimeCollector | None = None
    for stage in state.stages:
        if stage.kind == "collect":
            collector = RuntimeCollector(
                stage.node,
                stage.node.child.schema,
                state.config,
                collect_reservoirs=not state.exact_stats,
                reservoir_seed=(
                    None
                    if state.exact_stats
                    else _morsel_seed(state.config.seed, index)
                ),
            )
    replay_positions = state.replay_positions
    replay: dict[str, list] | None = (
        {column: [] for column, __ in replay_positions} if replay_positions else None
    )
    preagg = state.preagg
    build = state.build
    sort = state.sort
    folded = preagg is not None or build is not None or sort is not None
    groups_out: dict | None = {} if preagg is not None else None
    build_out: dict | None = {} if build is not None else None
    sort_run: list[Row] | None = [] if sort is not None else None
    batches: list[list[Row]] | None = None if folded else []
    counts: list[tuple[int, ...]] = []
    shipped = 0
    for first_page, last_page in state.groups[first_group:last_group]:
        out: list[Row] = rows[first_page * per_page : last_page * per_page]
        group_counts = []
        for stage in state.stages:
            if stage.kind == "collect":
                collector.observe_batch(out)
                if replay is not None and out:
                    for column, position in replay_positions:
                        replay[column].extend(map(itemgetter(position), out))
            else:
                out = stage.fn(out)
            group_counts.append(len(out))
        counts.append(tuple(group_counts))
        if preagg is not None:
            if out:
                _fold_batch(groups_out, out, preagg)
        elif build is not None:
            if out:
                get_key = build.get_key
                setdefault = build_out.setdefault
                for key, row in zip(map(get_key, out), out):
                    setdefault(key, []).append(row)
                shipped += len(out)
        elif sort is not None:
            sort_run.extend(out)
        else:
            batches.append(out)
            shipped += len(out)
    if sort is not None:
        # The serial sort's exact mechanics: one stable pass per key in
        # reverse significance order (see loser_tree module docstring).
        for position, ascending in reversed(sort.keys):
            sort_run.sort(key=itemgetter(position), reverse=not ascending)
        shipped = len(sort_run)
    partial = collector.export_partial() if collector is not None else None
    return _MorselResult(
        index=index,
        batches=batches,
        counts=counts,
        partial=partial,
        replay=replay,
        groups_out=groups_out,
        shipped_rows=shipped,
        elapsed=time.perf_counter() - started,
        pid=os.getpid(),
        build_out=build_out,
        sort_run=sort_run,
    )


def _page_groups(table: Table, batch_size: int) -> list[tuple[int, int]]:
    """Page ranges matching the serial batch scan's yield boundaries.

    Delegates to the canonical :func:`repro.storage.columnar.page_groups`
    — the columnar store derives its group geometry from the same function,
    so the morsel scheduler and the column arrays can never drift apart.
    """
    return page_groups(table, batch_size)


def _group_morsels(
    groups: list[tuple[int, int]], morsel_pages: int
) -> list[tuple[int, int]]:
    """Partition page groups into morsels of roughly ``morsel_pages`` pages.

    Morsel boundaries always coincide with group boundaries so a worker
    produces whole serial batches; each morsel is the shortest run of
    groups spanning at least ``morsel_pages`` pages (the final one takes
    the remainder).  Returned as ``(first_group, last_group)`` ranges.
    """
    morsels: list[tuple[int, int]] = []
    start = 0
    for i in range(len(groups)):
        if groups[i][1] - groups[start][0] >= morsel_pages:
            morsels.append((start, i + 1))
            start = i + 1
    if start < len(groups):
        morsels.append((start, len(groups)))
    return morsels


def _partition_morsels(
    morsels: list[tuple[int, int]],
    groups: list[tuple[int, int]],
    partitions: int,
) -> list[tuple[int, int]]:
    """Range-affine assignment: one contiguous morsel range per worker.

    Ranges are balanced by page count (each boundary advances while adding
    the next morsel moves the running total closer to the partition's ideal
    share), every partition receives at least one morsel, and the ranges
    concatenate to the full morsel list — so consuming partitions in
    partition order *is* consuming morsels in morsel order.  Contiguity is
    what makes the assignment copy-on-write friendly (each worker's
    first-touch faults cover one disjoint slice of the inherited row heap)
    and gives each worker a stable partition id, the identity a per-worker
    spill file would carry.
    """
    weights = [groups[last - 1][1] - groups[first][0] for first, last in morsels]
    total = sum(weights)
    count = len(morsels)
    bounds: list[tuple[int, int]] = []
    start = 0
    acc = 0
    for partition_id in range(partitions):
        if partition_id == partitions - 1:
            bounds.append((start, count))
            break
        target = total * (partition_id + 1) / partitions
        end = start + 1
        acc += weights[start]
        max_end = count - (partitions - partition_id - 1)
        while end < max_end and abs(acc + weights[end] - target) <= abs(acc - target):
            acc += weights[end]
            end += 1
        bounds.append((start, end))
        start = end
    return bounds


def _staging_windows(
    ctx: RuntimeContext, workers: int, morsel_pages: int
) -> list[int]:
    """Per-worker caps on morsels in flight (executing or staged) at once.

    The Memory Manager's operator grants come first: the workspace pages
    the allocation left free are split across the workers and each share is
    converted into a window of unmerged morsel results (at least one morsel
    so a tight budget degrades throughput instead of deadlocking, at most
    ``_MAX_STAGED_PER_WORKER``).
    """
    budget = ctx.memory_budget_pages or ctx.config.query_memory_pages
    staging = max(0, budget - sum(ctx.allocation.values()))
    return MemoryManager.staging_windows(
        staging, workers, morsel_pages, _MAX_STAGED_PER_WORKER
    )


def _spill_read_windows(
    ctx: RuntimeContext, workers: int, morsel_pages: int
) -> list[int] | None:
    """Per-partition read-back budgets for spilled results, or None when
    ``parallel_spill`` is off.

    Mirrors :func:`_staging_windows` but arbitrates a second concern: how
    many *spilled* results the read-ahead threads may stage back in parent
    memory beyond the semaphore windows.  The split uses the same
    :meth:`MemoryManager.split_grant` shares, so the per-partition budgets
    carry the stable range-affine partition ids.
    """
    if not ctx.config.parallel_spill:
        return None
    budget = ctx.memory_budget_pages or ctx.config.query_memory_pages
    staging = max(0, budget - sum(ctx.allocation.values()))
    return MemoryManager.spill_windows(
        staging, workers, morsel_pages, _MAX_SPILL_READAHEAD
    )


def _scan_morsels(
    ctx: RuntimeContext, scan: SeqScanNode
) -> tuple[Table, list[tuple[int, int]], list[tuple[int, int]]] | None:
    """The scan's table, page groups and morsels — None when too small."""
    table = ctx.catalog.table(scan.table_name)
    groups = _page_groups(table, ctx.batch_size)
    morsels = _group_morsels(groups, ctx.config.morsel_pages)
    if len(morsels) < ctx.config.parallel_min_morsels:
        return None
    return table, groups, morsels


def _compile_stages(
    nodes_bottom_up: list[PlanNode],
) -> tuple[list[_Stage], StatsCollectorNode | None]:
    """Compile every stage kernel under the same cache keys the serial
    batch operators use, *before* forking, so workers inherit the closures
    and later serial executions of the same plan reuse them."""
    stages: list[_Stage] = []
    collector_node: StatsCollectorNode | None = None
    for pnode in nodes_bottom_up:
        if isinstance(pnode, FilterNode):
            fn = pnode.compiled(
                "batch_filter",
                lambda p=pnode: compile_batch_filter(p.predicates, p.child.schema),
            )
            stages.append(_Stage("filter", pnode, fn))
        elif isinstance(pnode, ProjectNode):
            fn = pnode.compiled(
                "batch_project",
                lambda p=pnode: compile_batch_projector(p.output, p.child.schema),
            )
            stages.append(_Stage("project", pnode, fn))
        else:
            collector_node = pnode
            stages.append(_Stage("collect", pnode, None))
    return stages, collector_node


def _probe_stage_fn(
    node: HashJoinNode, hash_table: dict
) -> Callable[[list], list]:
    """The probe lookup as a batch stage, mirroring the serial probe loop.

    The key extractor and residual kernel compile in the parent under the
    serial cache keys; the hash table is captured by reference and reaches
    forked workers copy-on-write.
    """
    probe_key = hash_join_keys(node)[1]
    residual_filter = None
    if node.residual:
        residual_filter = node.compiled(
            "batch_residual",
            lambda: compile_batch_filter(node.residual, node.schema),
        )
    get = hash_table.get

    def probe(batch: list[Row]) -> list[Row]:
        out: list[Row] = []
        append = out.append
        extend = out.extend
        for prow, matches in zip(batch, map(get, map(probe_key, batch))):
            if matches is None:
                continue
            if len(matches) == 1:
                append(matches[0] + prow)
            else:
                extend([brow + prow for brow in matches])
        if residual_filter is not None:
            out = residual_filter(out)
        return out

    return probe


def _resolve_workers(ctx: RuntimeContext, morsel_count: int) -> tuple[int, bool]:
    """Effective worker count and whether to fork, with the one-time
    fallback warning when parallelism was requested but fork is missing."""
    requested = ctx.config.parallel_workers or (os.cpu_count() or 1)
    workers = max(1, min(requested, morsel_count))
    use_pool = workers > 1 and _fork_available()
    if requested > 1 and not _fork_available() and not ctx.parallel.fallback_warned:
        ctx.parallel.fallback_warned = True
        warnings.warn(
            "execution_mode='parallel' requires fork-based multiprocessing; "
            "running morsels serially in-process",
            RuntimeWarning,
            stacklevel=2,
        )
    if not use_pool:
        workers = 1
    return workers, use_pool


def morsel_pipeline(node: PlanNode, ctx: RuntimeContext) -> Iterator[list[Row]] | None:
    """A morsel-parallel batch iterator for ``node``, or None to stay serial.

    A subtree qualifies when it is a leaf pipeline — an optional statistics
    collector over a chain of filters/projections over a base-table
    sequential scan, with at least one compute stage to fan out — and the
    table is large enough to split into ``parallel_min_morsels`` morsels.
    Everything else (blocking operators, index scans, LIMIT subtrees, small
    tables) executes on the serial batch path unchanged; hash joins fan out
    their probe side through :func:`morsel_probe_pipeline` instead.
    """
    extracted = extract_leaf_chain(node)
    if extracted is None:
        return None
    chain, scan = extracted
    if not any(isinstance(s, (FilterNode, ProjectNode)) for s in chain):
        return None
    located = _scan_morsels(ctx, scan)
    if located is None:
        return None
    table, groups, morsels = located
    return _execute_morsels(ctx, list(reversed(chain)), scan, table, groups, morsels)


def morsel_probe_pipeline(
    node: HashJoinNode,
    ctx: RuntimeContext,
    hash_table,
    build_pages: int,
    grant: int,
) -> Iterator[list[Row]] | None:
    """A morsel-parallel probe stream for a hash join, or None to stay serial.

    ``hash_table`` is :func:`morsel_build_table`'s merged buckets, or a
    serially built side as its chunk, whose rows are bucketed by key (in
    build order) once the probe side qualifies.  Called by the batch hash
    join *after* its build side materialised (so
    forked workers inherit the finished hash table copy-on-write) and after
    the plan-switch window — the merged stream is byte-identical to the
    serial probe loop's, so a pending switch materialises the same temp
    table either way.  The probe side qualifies when it is leaf-extractable;
    unlike leaf pipelines a bare sequential scan qualifies too, because the
    probe lookup itself is the compute stage worth fanning out.
    """
    if not ctx.config.parallel_joins:
        return None
    extracted = extract_leaf_chain(node.probe)
    if extracted is None:
        return None
    chain, scan = extracted
    located = _scan_morsels(ctx, scan)
    if located is None:
        return None
    table, groups, morsels = located
    if not isinstance(hash_table, dict):
        build_key = hash_join_keys(node)[0]
        buckets: dict = {}
        for row in hash_table.rows():
            buckets.setdefault(build_key(row), []).append(row)
        hash_table = buckets
    probe = _ProbeTask(node=node, build_pages=build_pages, grant=grant)
    return _execute_morsels(
        ctx,
        list(reversed(chain)),
        scan,
        table,
        groups,
        morsels,
        probe=probe,
        hash_table=hash_table,
    )


def morsel_preaggregate(
    node: HashAggregateNode, ctx: RuntimeContext
) -> tuple[dict, int, int | None] | None:
    """Run a hash aggregate's input pipeline with worker pre-aggregation.

    Returns ``(groups, input_rows, grant)`` — the merged per-group
    aggregate states in serial first-occurrence order, the pipeline's
    output row count, and the committed memory grant (None when the
    pipeline produced no rows, matching the serial commit-after-loop
    timing) — or None when the aggregate must stay on the serial fold:
    pre-aggregation disabled, a non-leaf input pipeline, a table too small
    to split, or any aggregate whose partials cannot travel exactly.
    Float SUM/AVG pre-aggregate as ordered value runs (:class:`_ValueRun`)
    — partial float totals never merge.
    """
    if not ctx.config.parallel_preagg:
        return None
    extracted = extract_leaf_chain(node.child)
    if extracted is None:
        return None
    preagg = _preagg_spec(node)
    if preagg is None:
        return None
    chain, scan = extracted
    located = _scan_morsels(ctx, scan)
    if located is None:
        return None
    table, groups, morsels = located
    return _run_preagg(
        ctx, node, list(reversed(chain)), scan, table, groups, morsels, preagg
    )


def _preagg_spec(node: HashAggregateNode) -> _PreAgg | None:
    """The pre-aggregation fold when every aggregate can travel exactly.

    COUNT partials are integer sums; MIN/MAX merge by (strict) comparison,
    which keeps the earlier occurrence exactly like the serial fold; SUM
    merges by addition, which is only associative — bit-for-bit — for
    integers, so state merging is gated on the argument's inferred dtype:
    float SUM/AVG ship ordered value runs instead of totals and integer
    AVG merges its exact integer total and count.  Non-numeric SUM/AVG
    arguments always stay on the serial fold.
    """
    child_schema = node.child.schema
    group_positions, agg_items, __ = aggregate_items(node)
    run_flags = []
    for out_index, func, __arg in agg_items:
        if func is AggFunc.COUNT or func in (AggFunc.MIN, AggFunc.MAX):
            run_flags.append(False)
            continue
        expr = node.output[out_index].expr
        dtype = (
            infer_dtype(expr.arg, child_schema)
            if expr.arg is not None
            else None
        )
        if func is AggFunc.SUM and dtype is DataType.INTEGER:
            run_flags.append(False)
            continue
        if dtype in (DataType.INTEGER, DataType.FLOAT):
            # Integer AVG partials (total, count) merge exactly; float
            # SUM/AVG ship value runs folded once at the merge point.
            run_flags.append(dtype is DataType.FLOAT)
            continue
        return None
    get_key = key_extractor(group_positions) if group_positions else None
    return _PreAgg(
        get_key=get_key, agg_items=agg_items, run_flags=tuple(run_flags)
    )


# ----------------------------------------------------------------------
# The range-affine scheduler: partition workers, prefetch, ordered merge
# ----------------------------------------------------------------------


def _partition_worker(partition_id, first, last, conn, sem, spill_path=None) -> None:
    """One forked worker: execute a contiguous morsel range, in order.

    The semaphore is the staging window — the parent releases one permit
    per merged morsel, so the worker never runs more than the window ahead
    of the merge point.  With ``spill_path`` set (``parallel_spill``), a
    worker that finds its window exhausted does not block: it appends the
    pickled result to its per-partition spill file — the file carries the
    stable range-affine partition id — and ships a tiny
    :class:`_SpillMarker` instead, so the partition keeps computing while
    the merge point is busy replaying earlier partitions.  A ``None``
    sentinel marks successful completion; failures ship as
    :class:`_WorkerFailure` so the parent can raise.
    """
    _worker_init()
    spill_file = None
    spill_offset = 0
    try:
        for index in range(first, last):
            if sem.acquire(block=spill_path is None):
                conn.send(_run_morsel(index))
                continue
            result = _run_morsel(index)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            if spill_file is None:
                spill_file = open(spill_path, "wb", buffering=0)
            spill_file.write(payload)
            conn.send(
                _SpillMarker(partition_id, index, spill_offset, len(payload))
            )
            spill_offset += len(payload)
        conn.send(None)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        try:
            conn.send(
                _WorkerFailure(partition_id, repr(exc), traceback.format_exc())
            )
        except (BrokenPipeError, OSError):  # parent already gone
            pass
    finally:
        if spill_file is not None:
            spill_file.close()
        conn.close()


class _Partition:
    """Parent-side handle for one range-affine partition worker."""

    def __init__(
        self,
        partition_id,
        first,
        last,
        process,
        conn,
        sem,
        spill_path=None,
        stage_cap=0,
    ) -> None:
        self.partition_id = partition_id
        self.first = first
        self.last = last
        self.process = process
        self.conn = conn
        self.sem = sem
        self.spill_path = spill_path
        #: Staged-item cap for the read-ahead thread: the semaphore window
        #: plus this partition's :meth:`MemoryManager.spill_windows` share.
        #: Markers past the cap stay unresolved (their payload stays on
        #: disk) until the merge loop reaches them.
        self.stage_cap = stage_cap
        self._spill_file = None
        self._spill_lock = threading.Lock()
        self._staged: deque = deque()
        self._cond = threading.Condition()
        self._reader: threading.Thread | None = None

    def _resolve_spill(self, marker: _SpillMarker) -> _MorselResult:
        """Read one spilled result back from this partition's file.

        Serialised: the read-ahead thread (resolving under the stage cap)
        and the merge loop (resolving a marker it popped past the cap)
        share one seekable handle.
        """
        with self._spill_lock:
            if self._spill_file is None:
                self._spill_file = open(self.spill_path, "rb")
            self._spill_file.seek(marker.offset)
            payload = self._spill_file.read(marker.length)
        result = pickle.loads(payload)
        result.spilled = True
        return result

    def start_reader(self) -> None:
        """Start the async read-ahead thread (``parallel_prefetch``).

        The thread stages — i.e. actually unpickles — this partition's
        results as soon as the worker sends them, so by the time the merge
        loop reaches this partition its next result is usually already in
        parent memory: deserialisation overlaps the simulated-I/O replay
        of earlier partitions the way a spill reader prefetches the next
        partition file.  The semaphore window bounds the staged backlog.
        """
        self._reader = threading.Thread(
            target=self._read_ahead,
            name=f"morsel-prefetch-{self.partition_id}",
            daemon=True,
        )
        self._reader.start()

    def _read_ahead(self) -> None:
        try:
            while True:
                item = self._recv(resolve=False)
                if (
                    isinstance(item, _SpillMarker)
                    and len(self._staged) < self.stage_cap
                ):
                    # Under the spill-stage budget: pay the file read and
                    # unpickle now, overlapping the merge loop's charge
                    # replay the way the pipe prefetch does.
                    item = self._resolve_spill(item)
                with self._cond:
                    self._staged.append(item)
                    self._cond.notify()
                if item is None or isinstance(item, _WorkerFailure):
                    return
        except Exception:  # noqa: BLE001 - surfaced to the merge loop
            with self._cond:
                self._staged.append(
                    _WorkerFailure(
                        self.partition_id,
                        "prefetch reader failed",
                        traceback.format_exc(),
                    )
                )
                self._cond.notify()

    def _recv(self, resolve=True):
        """Next item from the worker, or a failure if it died silently."""
        while True:
            ready = mp_connection.wait([self.conn, self.process.sentinel])
            if self.conn in ready:
                try:
                    item = self.conn.recv()
                except (EOFError, OSError):
                    return _WorkerFailure(
                        self.partition_id, "worker closed its pipe unexpectedly"
                    )
                if resolve and isinstance(item, _SpillMarker):
                    item = self._resolve_spill(item)
                return item
            if self.conn.poll(0):  # raced: data arrived as the worker exited
                continue
            return _WorkerFailure(
                self.partition_id,
                f"worker exited with code {self.process.exitcode}",
            )

    def next_result(self):
        """This partition's next item, and whether it was already staged."""
        if self._reader is None:
            return self._recv(), False
        with self._cond:
            prefetched = bool(self._staged)
            while not self._staged:
                self._cond.wait()
            item = self._staged.popleft()
        if isinstance(item, _SpillMarker):  # past the read-ahead stage cap
            item = self._resolve_spill(item)
            prefetched = False
        return item, prefetched

    def close(self) -> None:
        """Tear the partition down, whether drained or abandoned."""
        if self.process.is_alive():
            self.process.terminate()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._spill_file is not None:
            self._spill_file.close()
        self.process.join(timeout=5.0)
        if self._reader is not None:
            self._reader.join(timeout=5.0)


def _merged_results(
    state: _WorkerState,
    workers: int,
    use_pool: bool,
    windows: list[int],
    prefetch: bool,
    telemetry,
    spill_windows: list[int] | None = None,
) -> Iterator[_MorselResult]:
    """Yield morsel results strictly in morsel order.

    Owns the worker processes: ``_WORKER_STATE`` is published before the
    partition workers fork (children inherit it), each worker computes its
    contiguous morsel range bounded by its semaphore window, and the parent
    consumes partitions in partition order — which is morsel order, because
    the assignment is range-affine.  With ``spill_windows`` set
    (``parallel_spill``), workers whose window is exhausted spill results
    to per-partition files instead of blocking; spilled results are read
    back — still strictly in morsel order — when the merge point reaches
    them, so spilling is invisible to everything but wall-clock and the
    spill telemetry.  The ``finally`` tears everything down even when the
    consumer abandons the stream mid-way.
    """
    global _WORKER_STATE
    previous = _WORKER_STATE
    _WORKER_STATE = state
    try:
        if not use_pool:
            for index in range(len(state.morsels)):
                yield _run_morsel(index)
            return
        bounds = _partition_morsels(state.morsels, state.groups, workers)
        context = multiprocessing.get_context("fork")
        partitions: list[_Partition] = []
        spill_dir = None
        if spill_windows is not None:
            spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
        try:
            for partition_id, (first, last) in enumerate(bounds):
                sem = context.Semaphore(windows[partition_id])
                recv_conn, send_conn = context.Pipe(duplex=False)
                spill_path = None
                stage_cap = 0
                if spill_dir is not None:
                    spill_path = os.path.join(
                        spill_dir, f"part-{partition_id}.spill"
                    )
                    stage_cap = (
                        windows[partition_id] + spill_windows[partition_id]
                    )
                process = context.Process(
                    target=_partition_worker,
                    args=(partition_id, first, last, send_conn, sem, spill_path),
                    daemon=True,
                )
                process.start()
                send_conn.close()
                partitions.append(
                    _Partition(
                        partition_id, first, last, process, recv_conn, sem,
                        spill_path=spill_path, stage_cap=stage_cap,
                    )
                )
            if prefetch:
                for partition in partitions:
                    partition.start_reader()
            spilled_partitions: set[int] = set()
            for partition in partitions:
                for __ in range(partition.first, partition.last):
                    item, prefetched = partition.next_result()
                    if item is None or isinstance(item, _WorkerFailure):
                        failure = item or _WorkerFailure(
                            partition.partition_id, "worker ended early"
                        )
                        raise ExecutionError(
                            f"parallel worker for partition {failure.partition_id} "
                            f"failed: {failure.message}\n{failure.details}"
                        )
                    if prefetched:
                        telemetry.prefetched_morsels += 1
                    if item.spilled:
                        # The worker never acquired a permit for a spilled
                        # result, so no release; count it instead.
                        telemetry.rows_spilled += item.shipped_rows
                        telemetry.morsels_spilled += 1
                        if partition.partition_id not in spilled_partitions:
                            spilled_partitions.add(partition.partition_id)
                            telemetry.partitions_spilled += 1
                    else:
                        partition.sem.release()
                    yield item
        finally:
            for partition in partitions:
                partition.close()
            if spill_dir is not None:
                shutil.rmtree(spill_dir, ignore_errors=True)
    finally:
        _WORKER_STATE = previous


# ----------------------------------------------------------------------
# The merging parents
# ----------------------------------------------------------------------


def _replay_scan_charges(ctx, table, groups, first_group, last_group):
    """Replay one morsel's scan charges exactly as the serial scan
    interleaves them with its yields; returns rows scanned per group."""
    per_page = table.rows_per_page
    total_rows = table.row_count
    group_rows = []
    for first_page, last_page in groups[first_group:last_group]:
        ctx.charge_scan_pages(table, first_page, last_page)
        group_rows.append(
            min(last_page * per_page, total_rows) - first_page * per_page
        )
    return group_rows


def _charge_streaming_stages(ctx, stages, scan_rows, stage_rows) -> None:
    """End-of-stream charges for filters/projections, in serial firing
    order (bottom-up) and from exact integer row counts."""
    params = ctx.cost_model.params
    consumed = scan_rows
    for position, stage in enumerate(stages):
        if stage.kind == "filter":
            per_row = max(1, len(stage.node.predicates)) * params.cpu_per_compare
            ctx.clock.charge_cpu(consumed * per_row)
        elif stage.kind == "project":
            ctx.clock.charge_cpu(consumed * params.cpu_per_tuple)
        consumed = stage_rows[position]


def _charge_probe(ctx, probe: _ProbeTask, probe_rows: int, output_rows: int) -> None:
    """The hash join's probe-phase charge, identical to the serial
    ``finally`` formula (exact integer row counts in, one charge out)."""
    probe_pages = pages_for(
        probe_rows, probe.node.probe.schema.row_bytes, ctx.catalog.page_size
    )
    ctx.charge(
        ctx.cost_model.hash_join_probe(
            build_pages=probe.build_pages,
            probe_rows=probe_rows,
            probe_pages=probe_pages,
            output_rows=output_rows,
            memory_pages=probe.grant,
        )
    )


def _pipeline_setup(
    ctx,
    nodes_bottom_up,
    morsels,
    probe=None,
    hash_table=None,
    preagg=False,
    build=False,
    sort=False,
):
    """Shared pipeline preparation: stages, workers, collector, telemetry."""
    config = ctx.config
    exact_stats = config.parallel_stats == "exact"
    stages, collector_node = _compile_stages(nodes_bottom_up)
    probe_position = None
    if probe is not None:
        stages.append(
            _Stage("probe", probe.node, _probe_stage_fn(probe.node, hash_table))
        )
        probe_position = len(stages) - 1
    workers, use_pool = _resolve_workers(ctx, len(morsels))
    merged: RuntimeCollector | None = None
    if collector_node is not None:
        merged = RuntimeCollector(collector_node, collector_node.child.schema, config)
    # Exact-mode reservoirs replay from the shipped rows when the collector
    # tops the pipeline; when a probe stage, pre-aggregation, build fold or
    # run sort sits above it, the shipped rows (or partials) are not the
    # collector's input *in input order*, so workers ship the reservoir
    # columns' values separately.
    rows_are_collector_input = (
        collector_node is not None
        and probe is None
        and not preagg
        and not build
        and not sort
        and isinstance(nodes_bottom_up[-1], StatsCollectorNode)
    )
    replay_positions: tuple[tuple[str, int], ...] = ()
    if exact_stats and collector_node is not None and not rows_are_collector_input:
        schema = collector_node.child.schema
        replay_positions = tuple(
            (column, schema.index_of(column))
            for column in collector_node.spec.histogram_columns
        )
    telemetry = ctx.parallel
    telemetry.pipelines += 1
    pipeline_id = telemetry.pipelines
    telemetry.workers = max(telemetry.workers, workers)
    if probe is not None:
        telemetry.join_pipelines += 1
    return (
        stages,
        collector_node,
        merged,
        probe_position,
        workers,
        use_pool,
        exact_stats,
        rows_are_collector_input,
        replay_positions,
        pipeline_id,
    )


def _record_morsel(telemetry, pipeline_id: int, result: _MorselResult) -> None:
    """Wall-clock/shipping telemetry for one merged morsel (observational
    only: never feeds back into simulated costs or statistics)."""
    telemetry.morsels += 1
    per_worker = telemetry.pipeline_worker_seconds.setdefault(pipeline_id, {})
    per_worker[result.pid] = per_worker.get(result.pid, 0.0) + result.elapsed
    telemetry.rows_shipped += result.shipped_rows


def _execute_morsels(
    ctx: RuntimeContext,
    nodes_bottom_up: list[PlanNode],
    scan: SeqScanNode,
    table: Table,
    groups: list[tuple[int, int]],
    morsels: list[tuple[int, int]],
    probe: _ProbeTask | None = None,
    hash_table: dict | None = None,
) -> Iterator[list[Row]]:
    """The merging parent: run morsels, emit the serial-identical stream."""
    config = ctx.config
    (
        stages,
        collector_node,
        merged,
        probe_position,
        workers,
        use_pool,
        exact_stats,
        rows_are_collector_input,
        replay_positions,
        pipeline_id,
    ) = _pipeline_setup(ctx, nodes_bottom_up, morsels, probe, hash_table)

    # Bookkeeping mirrors the serial generators: started on first pull,
    # per-stage consumed/produced totals for the end-of-stream charges.
    # The probe stage's node (the join) is tracked by the enclosing batch
    # executor, not here.
    tracer = ctx.tracer
    span = None
    if tracer is not None:
        span = tracer.begin(
            f"pipeline-{pipeline_id}",
            "pipeline",
            kind="probe" if probe is not None else "leaf",
            workers=workers,
            morsels=len(morsels),
            root=nodes_bottom_up[-1].label if nodes_bottom_up else scan.label,
        )

    ctx.mark_started(scan)
    for pnode in nodes_bottom_up:
        ctx.mark_started(pnode)
    telemetry = ctx.parallel

    state = _WorkerState(
        rows=table.rows,
        rows_per_page=table.rows_per_page,
        groups=groups,
        morsels=morsels,
        stages=stages,
        config=config,
        exact_stats=exact_stats,
        replay_positions=replay_positions,
    )
    windows = _staging_windows(ctx, workers, config.morsel_pages)
    spill_windows = _spill_read_windows(ctx, workers, config.morsel_pages)

    scan_rows = 0
    stage_rows = [0] * len(stages)
    drained = False
    try:
        results = _merged_results(
            state, workers, use_pool, windows, config.parallel_prefetch, telemetry,
            spill_windows=spill_windows,
        )
        for result in results:
            first_group, last_group = morsels[result.index]
            _record_morsel(telemetry, pipeline_id, result)
            if tracer is not None:
                tracer.morsel_merged(
                    pipeline_id, result.index, result.pid,
                    result.elapsed, result.shipped_rows,
                )
            group_rows = _replay_scan_charges(
                ctx, table, groups, first_group, last_group
            )
            for offset in range(last_group - first_group):
                scan_rows += group_rows[offset]
                for position, produced in enumerate(result.counts[offset]):
                    stage_rows[position] += produced
                batch = result.batches[offset]
                if merged is not None and exact_stats and rows_are_collector_input:
                    merged.replay_reservoirs(batch)
                if batch:
                    yield batch
            if merged is not None and result.replay is not None:
                merged.replay_reservoir_values(result.replay)
            if merged is not None and result.partial is not None:
                merged.absorb_partial(result.partial)
        drained = True
    finally:
        # The serial streaming operators charge their totals in `finally`
        # blocks; replicate both the formulas and the firing order.  On a
        # full drain the probe charge fires *after* the collector's
        # after-loop block (below), exactly like the serial nesting.
        if not drained and probe is not None:
            _charge_probe(
                ctx,
                probe,
                stage_rows[probe_position - 1] if probe_position > 0 else scan_rows,
                stage_rows[probe_position],
            )
        _charge_streaming_stages(ctx, stages, scan_rows, stage_rows)

    # Everything past this point only happens on a full drain, matching the
    # serial collector's after-loop (not `finally`) semantics.
    if merged is not None:
        ctx.collector_completed(collector_node, merged)
    if probe is not None:
        _charge_probe(
            ctx,
            probe,
            stage_rows[probe_position - 1] if probe_position > 0 else scan_rows,
            stage_rows[probe_position],
        )
    ctx.mark_completed(scan, scan_rows)
    for position, pnode in enumerate(nodes_bottom_up):
        ctx.mark_completed(pnode, stage_rows[position])
    if tracer is not None:
        tracer.end(span, rows=stage_rows[-1] if stage_rows else scan_rows)


def _run_preagg(
    ctx: RuntimeContext,
    node: HashAggregateNode,
    nodes_bottom_up: list[PlanNode],
    scan: SeqScanNode,
    table: Table,
    groups: list[tuple[int, int]],
    morsels: list[tuple[int, int]],
    preagg: _PreAgg,
) -> tuple[dict, int, int | None]:
    """The merging parent for a pre-aggregating pipeline (always a full
    drain: the aggregate is blocking, so nothing can abandon it early
    short of an error unwinding the whole query)."""
    config = ctx.config
    (
        stages,
        collector_node,
        merged,
        __probe_position,
        workers,
        use_pool,
        exact_stats,
        __rows_are_input,
        replay_positions,
        pipeline_id,
    ) = _pipeline_setup(ctx, nodes_bottom_up, morsels, preagg=True)
    telemetry = ctx.parallel
    telemetry.preagg_pipelines += 1

    tracer = ctx.tracer
    span = None
    if tracer is not None:
        span = tracer.begin(
            f"pipeline-{pipeline_id}",
            "pipeline",
            kind="preagg",
            workers=workers,
            morsels=len(morsels),
            root=node.label,
        )

    ctx.mark_started(scan)
    for pnode in nodes_bottom_up:
        ctx.mark_started(pnode)

    state = _WorkerState(
        rows=table.rows,
        rows_per_page=table.rows_per_page,
        groups=groups,
        morsels=morsels,
        stages=stages,
        config=config,
        exact_stats=exact_stats,
        replay_positions=replay_positions,
        preagg=preagg,
    )
    windows = _staging_windows(ctx, workers, config.morsel_pages)
    spill_windows = _spill_read_windows(ctx, workers, config.morsel_pages)

    merged_groups: dict = {}
    grant: int | None = None
    scan_rows = 0
    stage_rows = [0] * len(stages)
    try:
        results = _merged_results(
            state, workers, use_pool, windows, config.parallel_prefetch, telemetry,
            spill_windows=spill_windows,
        )
        for result in results:
            first_group, last_group = morsels[result.index]
            _record_morsel(telemetry, pipeline_id, result)
            if tracer is not None:
                tracer.morsel_merged(
                    pipeline_id, result.index, result.pid,
                    result.elapsed, result.shipped_rows,
                )
            group_rows = _replay_scan_charges(
                ctx, table, groups, first_group, last_group
            )
            for offset in range(last_group - first_group):
                scan_rows += group_rows[offset]
                for position, produced in enumerate(result.counts[offset]):
                    stage_rows[position] += produced
            # The serial aggregate commits its grant on the first input
            # batch; pin it while merging the first morsel that produced
            # pipeline output — still ahead of the collector-complete hook.
            pipeline_out = stage_rows[-1] if stages else scan_rows
            if grant is None and pipeline_out > 0:
                grant = ctx.commit_memory(node)
            for key, states in result.groups_out.items():
                mine = merged_groups.get(key)
                if mine is None:
                    merged_groups[key] = states
                else:
                    for state_, other in zip(mine, states):
                        state_.merge(other)
            telemetry.groups_shipped += len(result.groups_out)
            if merged is not None and result.replay is not None:
                merged.replay_reservoir_values(result.replay)
            if merged is not None and result.partial is not None:
                merged.absorb_partial(result.partial)
    finally:
        _charge_streaming_stages(ctx, stages, scan_rows, stage_rows)

    if merged is not None:
        ctx.collector_completed(collector_node, merged)
    ctx.mark_completed(scan, scan_rows)
    for position, pnode in enumerate(nodes_bottom_up):
        ctx.mark_completed(pnode, stage_rows[position])
    input_rows = stage_rows[-1] if stages else scan_rows
    telemetry.rows_preaggregated += input_rows
    if any(preagg.run_flags):
        # Value runs are complete (morsel order = serial row order): one
        # exact left fold per run turns them into serial-identical states.
        # Pure compute after all charges — the clock never sees it.
        for states in merged_groups.values():
            for i, state_ in enumerate(states):
                if type(state_) is _ValueRun:
                    states[i] = state_.finalize()
        vec = ctx.vector
        vec.agg_pipelines += 1
        vec.rows_folded += input_rows
        per_node = vec.by_node.setdefault(
            node.node_id, {"kind": "preagg-run", "rows_folded": 0, "groups": 0}
        )
        per_node["rows_folded"] += input_rows
        per_node["groups"] += len(merged_groups)
    if tracer is not None:
        tracer.end(span, rows=input_rows, groups=len(merged_groups))
    return merged_groups, input_rows, grant


def morsel_build_table(
    node: HashJoinNode, ctx: RuntimeContext
) -> tuple[dict, int, int | None] | None:
    """Build a hash join's table with per-worker partition folds, or None.

    Each worker folds its range-affine morsel range into a partial hash
    table (keys in first-occurrence order, rows in scan order); the parent
    merges partials strictly in morsel order, so the merged table's key
    insertion order and within-key row order are exactly what the serial
    build loop's ``setdefault(...).append(...)`` would have produced.  The
    probe phase only ever calls ``hash_table.get``, so the merged table is
    observationally identical to the serial one — probe output, charges
    and buffer stats follow.

    Returns ``(hash_table, build_rows, grant)``; ``grant`` is None when
    the build produced no rows or ``responsive_hash_joins`` defers the
    commit, matching the serial loop's commit timing either way.  Returns
    None to stay serial: knob off, a non-leaf build pipeline (like probe
    pipelines a bare scan qualifies — the build fold is the compute
    stage), or a table too small to split.
    """
    if not ctx.config.parallel_build:
        return None
    extracted = extract_leaf_chain(node.build)
    if extracted is None:
        return None
    chain, scan = extracted
    located = _scan_morsels(ctx, scan)
    if located is None:
        return None
    table, groups, morsels = located
    build = _BuildSpec(get_key=hash_join_keys(node)[0])
    return _run_build(
        ctx, node, list(reversed(chain)), scan, table, groups, morsels, build
    )


def _run_build(
    ctx: RuntimeContext,
    node: HashJoinNode,
    nodes_bottom_up: list[PlanNode],
    scan: SeqScanNode,
    table: Table,
    groups: list[tuple[int, int]],
    morsels: list[tuple[int, int]],
    build: _BuildSpec,
) -> tuple[dict, int, int | None]:
    """The merging parent for a hash-join build pipeline (always a full
    drain: the build side is blocking)."""
    config = ctx.config
    (
        stages,
        collector_node,
        merged,
        __probe_position,
        workers,
        use_pool,
        exact_stats,
        __rows_are_input,
        replay_positions,
        pipeline_id,
    ) = _pipeline_setup(ctx, nodes_bottom_up, morsels, build=True)
    telemetry = ctx.parallel
    telemetry.build_pipelines += 1

    tracer = ctx.tracer
    span = None
    if tracer is not None:
        span = tracer.begin(
            f"pipeline-{pipeline_id}",
            "pipeline",
            kind="build",
            workers=workers,
            morsels=len(morsels),
            root=node.label,
        )

    ctx.mark_started(scan)
    for pnode in nodes_bottom_up:
        ctx.mark_started(pnode)

    state = _WorkerState(
        rows=table.rows,
        rows_per_page=table.rows_per_page,
        groups=groups,
        morsels=morsels,
        stages=stages,
        config=config,
        exact_stats=exact_stats,
        replay_positions=replay_positions,
        build=build,
    )
    windows = _staging_windows(ctx, workers, config.morsel_pages)
    spill_windows = _spill_read_windows(ctx, workers, config.morsel_pages)

    hash_table: dict = {}
    get_bucket = hash_table.get
    grant: int | None = None
    responsive = config.responsive_hash_joins
    scan_rows = 0
    stage_rows = [0] * len(stages)
    try:
        results = _merged_results(
            state, workers, use_pool, windows, config.parallel_prefetch, telemetry,
            spill_windows=spill_windows,
        )
        for result in results:
            first_group, last_group = morsels[result.index]
            _record_morsel(telemetry, pipeline_id, result)
            if tracer is not None:
                tracer.morsel_merged(
                    pipeline_id, result.index, result.pid,
                    result.elapsed, result.shipped_rows,
                )
            group_rows = _replay_scan_charges(
                ctx, table, groups, first_group, last_group
            )
            for offset in range(last_group - first_group):
                scan_rows += group_rows[offset]
                for position, produced in enumerate(result.counts[offset]):
                    stage_rows[position] += produced
            # The serial build commits its grant on the first build batch —
            # unless responsive hash joins defer the commit to after the
            # loop, which the caller's commit-if-None handles.
            pipeline_out = stage_rows[-1] if stages else scan_rows
            if grant is None and not responsive and pipeline_out > 0:
                grant = ctx.commit_memory(node)
            # Morsel-order merge: first-occurrence key order and
            # within-key row order reproduce the serial insertion loop.
            for key, bucket in result.build_out.items():
                mine = get_bucket(key)
                if mine is None:
                    hash_table[key] = bucket
                else:
                    mine.extend(bucket)
            if merged is not None and result.replay is not None:
                merged.replay_reservoir_values(result.replay)
            if merged is not None and result.partial is not None:
                merged.absorb_partial(result.partial)
    finally:
        _charge_streaming_stages(ctx, stages, scan_rows, stage_rows)

    if merged is not None:
        ctx.collector_completed(collector_node, merged)
    ctx.mark_completed(scan, scan_rows)
    for position, pnode in enumerate(nodes_bottom_up):
        ctx.mark_completed(pnode, stage_rows[position])
    build_rows = stage_rows[-1] if stages else scan_rows
    if tracer is not None:
        tracer.end(span, rows=build_rows, keys=len(hash_table))
    return hash_table, build_rows, grant


def morsel_sort(
    node: SortNode, ctx: RuntimeContext
) -> tuple[list[Row], int | None] | None:
    """Sort a leaf-extractable input with per-worker runs, or None.

    Each worker sorts its morsel's pipeline output with the exact serial
    multi-pass stable sort and ships the run; the parent merges the runs
    with a loser tree that breaks full key ties by run (= morsel) index,
    reproducing the serial stable sort's original-position tie-break (see
    :mod:`repro.executor.loser_tree` for the argument).

    Returns ``(sorted rows, grant)``; ``grant`` is None when the input was
    empty, matching the serial commit-after-loop timing.  Returns None to
    stay serial: knob off, a non-leaf input pipeline (the run sort is the
    compute stage, so a bare scan qualifies), or a table too small.
    """
    if not ctx.config.parallel_sort:
        return None
    extracted = extract_leaf_chain(node.child)
    if extracted is None:
        return None
    chain, scan = extracted
    located = _scan_morsels(ctx, scan)
    if located is None:
        return None
    table, groups, morsels = located
    schema = node.schema
    sort = _SortSpec(
        keys=tuple((schema.index_of(key.name), key.ascending) for key in node.keys)
    )
    return _run_sort(
        ctx, node, list(reversed(chain)), scan, table, groups, morsels, sort
    )


def _run_sort(
    ctx: RuntimeContext,
    node: SortNode,
    nodes_bottom_up: list[PlanNode],
    scan: SeqScanNode,
    table: Table,
    groups: list[tuple[int, int]],
    morsels: list[tuple[int, int]],
    sort: _SortSpec,
) -> tuple[list[Row], int | None]:
    """The merging parent for a parallel-sort pipeline (always a full
    drain: the sort is blocking)."""
    config = ctx.config
    (
        stages,
        collector_node,
        merged,
        __probe_position,
        workers,
        use_pool,
        exact_stats,
        __rows_are_input,
        replay_positions,
        pipeline_id,
    ) = _pipeline_setup(ctx, nodes_bottom_up, morsels, sort=True)
    telemetry = ctx.parallel
    telemetry.sort_pipelines += 1

    tracer = ctx.tracer
    span = None
    if tracer is not None:
        span = tracer.begin(
            f"pipeline-{pipeline_id}",
            "pipeline",
            kind="sort",
            workers=workers,
            morsels=len(morsels),
            root=node.label,
        )

    ctx.mark_started(scan)
    for pnode in nodes_bottom_up:
        ctx.mark_started(pnode)

    state = _WorkerState(
        rows=table.rows,
        rows_per_page=table.rows_per_page,
        groups=groups,
        morsels=morsels,
        stages=stages,
        config=config,
        exact_stats=exact_stats,
        replay_positions=replay_positions,
        sort=sort,
    )
    windows = _staging_windows(ctx, workers, config.morsel_pages)
    spill_windows = _spill_read_windows(ctx, workers, config.morsel_pages)

    runs: list[list[Row]] = []
    grant: int | None = None
    scan_rows = 0
    stage_rows = [0] * len(stages)
    try:
        results = _merged_results(
            state, workers, use_pool, windows, config.parallel_prefetch, telemetry,
            spill_windows=spill_windows,
        )
        for result in results:
            first_group, last_group = morsels[result.index]
            _record_morsel(telemetry, pipeline_id, result)
            if tracer is not None:
                tracer.morsel_merged(
                    pipeline_id, result.index, result.pid,
                    result.elapsed, result.shipped_rows,
                )
            group_rows = _replay_scan_charges(
                ctx, table, groups, first_group, last_group
            )
            for offset in range(last_group - first_group):
                scan_rows += group_rows[offset]
                for position, produced in enumerate(result.counts[offset]):
                    stage_rows[position] += produced
            # The serial sort commits its grant on the first input batch;
            # pin it while merging the first morsel with pipeline output.
            pipeline_out = stage_rows[-1] if stages else scan_rows
            if grant is None and pipeline_out > 0:
                grant = ctx.commit_memory(node)
            if result.sort_run:
                runs.append(result.sort_run)
            if merged is not None and result.replay is not None:
                merged.replay_reservoir_values(result.replay)
            if merged is not None and result.partial is not None:
                merged.absorb_partial(result.partial)
    finally:
        _charge_streaming_stages(ctx, stages, scan_rows, stage_rows)

    if merged is not None:
        ctx.collector_completed(collector_node, merged)
    ctx.mark_completed(scan, scan_rows)
    for position, pnode in enumerate(nodes_bottom_up):
        ctx.mark_completed(pnode, stage_rows[position])
    rows = merge_runs(runs, row_comparator(sort.keys))
    telemetry.sort_runs_merged += len(runs)
    if tracer is not None:
        tracer.end(span, rows=len(rows), runs=len(runs))
    return rows, grant
