"""Execution runtime state.

A :class:`RuntimeContext` carries everything operators need while running:
the catalog and buffer pool, the cost clock, the (mutable!) memory
allocation map, per-node progress bookkeeping, and the hook through which
the Dynamic Re-Optimization controller intervenes.

Plan modification is coordinated through :class:`PlanSwitchDirective` /
:class:`PlanSwitched`: when the controller decides to re-optimize, it
registers a directive for the *cut node* (the blocking operator whose build
input just finished).  That operator then runs to completion, redirects its
output into the directive's temporary table, and raises
:class:`PlanSwitched`, unwinding to the dispatcher which resumes with the
new plan — the paper's Figure 6 mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from ..config import EngineConfig
from ..errors import ExecutionError
from ..optimizer.cost_model import CostModel, OperatorCost
from ..plans.physical import PlanNode, StatsCollectorNode
from ..storage.buffer import BufferPool
from ..storage.catalog import Catalog
from ..storage.disk import CostClock
from ..storage.table import Table
from ..storage.temp import TempTableManager
from .chunk import Chunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..observe.trace import QueryTracer
    from .collector import ObservedStatistics


@dataclass
class PlanSwitchDirective:
    """Instructions for switching plans at a cut node.

    Prepared by the re-optimization controller *before* materialisation: the
    temp table is registered (empty, with estimated statistics) and the new
    plan for the remainder is already optimized.
    """

    cut_node_id: int
    temp_table: Table
    new_plan: PlanNode
    new_allocation: dict[int, int]
    remainder_sql: str
    reason: str = ""


class PlanSwitched(Exception):  # noqa: N818 - control-flow signal, not an error
    """Raised by a cut operator after materialising its output."""

    def __init__(self, directive: PlanSwitchDirective, materialized_rows: int) -> None:
        super().__init__(f"plan switched at node {directive.cut_node_id}")
        self.directive = directive
        self.materialized_rows = materialized_rows


class ExecutionController(Protocol):
    """Hook invoked when a statistics collector finishes (paper section 3.1)."""

    def on_collector_complete(
        self, node: StatsCollectorNode, observed: "ObservedStatistics"
    ) -> None:
        """React to fresh run-time statistics (re-allocate and/or re-plan)."""


@dataclass
class VectorExecStats:
    """Per-operator telemetry accumulated over one query run: what each
    scan, join and aggregate read and how many tuples were built from its
    chunks.  Purely observational: it explains wall-clock behaviour and
    never a simulated cost.
    """

    #: Input rows the hash aggregates folded.
    rows_folded: int = 0
    #: Per-node records keyed by plan-node id: every sequential scan
    #: ``{"kind": "scan", "rows_scanned", "rows_materialised"}``, every
    #: join ``{"kind": "probe", "rows_probed", "matches",
    #: "rows_materialised"}`` — outer/probe rows in, rows out — and every
    #: hash aggregate ``{"kind": "aggregate", "rows_folded", "groups"}``.
    #: ``rows_materialised`` counts the tuples built from the node's output
    #: chunks.
    by_node: dict[int, dict] = field(default_factory=dict)

    def join_total(self, counter: str) -> int:
        """``counter`` summed over the statement's join nodes."""
        return sum(
            record[counter]
            for record in self.by_node.values()
            if record["kind"] == "probe"
        )


@dataclass
class RuntimeContext:
    """Mutable state shared by all operators of one query execution."""

    catalog: Catalog
    config: EngineConfig
    clock: CostClock
    buffer_pool: BufferPool
    temp_manager: TempTableManager
    cost_model: CostModel
    allocation: dict[int, int] = field(default_factory=dict)
    controller: ExecutionController | None = None
    started: set[int] = field(default_factory=set)
    #: Memory-consuming operators that received their first input row: their
    #: grant is committed and dynamic re-allocation must not change it
    #: (paper section 2.3: "once an operator starts executing, its memory
    #: allocation cannot be changed").
    memory_committed: set[int] = field(default_factory=set)
    completed: set[int] = field(default_factory=set)
    actual_rows: dict[int, int] = field(default_factory=dict)
    observed: dict[int, "ObservedStatistics"] = field(default_factory=dict)
    pending_switch: PlanSwitchDirective | None = None
    #: Count of plan switches performed so far (for profiles/tests).
    switches: int = 0
    #: Count of memory re-allocations performed so far.
    reallocations: int = 0
    #: Per-operator telemetry (populated by the batch operators).
    vector: VectorExecStats = field(default_factory=VectorExecStats)
    #: The streaming spine below a LIMIT (:func:`repro.executor.batch._limit`
    #: sets it): node id -> the operator's stop rule, None until it runs.
    spine: dict = field(default_factory=dict)
    #: Optional span tracer (:mod:`repro.observe.trace`).  Strictly
    #: observational — it reads ``clock.now`` but never charges, so every
    #: simulated quantity is identical whether or not it is attached.  All
    #: hooks guard on ``None`` so disabled tracing costs one attribute
    #: check per operator, never per row.
    tracer: "QueryTracer | None" = None

    @property
    def batch_size(self) -> int:
        """Target rows per executor batch."""
        return self.config.batch_size

    def memory_for(self, node: PlanNode) -> int:
        """Granted memory pages for a node (max demand when ungoverned)."""
        granted = self.allocation.get(node.node_id)
        if granted is not None:
            return granted
        return max(node.est.max_memory_pages, 1)

    def charge(self, cost: OperatorCost) -> None:
        """Charge an operator cost to the clock, category by category."""
        if cost.seq_read_pages:
            self.clock.charge_seq_read(cost.seq_read_pages)
        if cost.rand_read_pages:
            self.clock.charge_rand_read(cost.rand_read_pages)
        if cost.write_pages:
            self.clock.charge_write(cost.write_pages)
        if cost.cpu_units:
            self.clock.charge_cpu(cost.cpu_units)
        if cost.stats_cpu_units:
            self.clock.charge_stats_cpu(cost.stats_cpu_units)

    def charge_scan_pages(self, table: Table, first_page: int, last_page: int) -> None:
        """One scan batch's charges: a sequential buffer request and the
        per-page tuple CPU for pages ``first_page .. last_page - 1``.

        The same float additions, in the same order, as requesting and
        charging the pages one at a time — I/O and CPU accumulate in
        separate categories, so running each category's additions back to
        back changes no total.
        """
        self.buffer_pool.access_run(table.table_id, first_page, last_page)
        per_page = table.rows_per_page
        total_rows = table.row_count
        cpu_per_tuple = self.cost_model.params.cpu_per_tuple
        breakdown = self.clock.breakdown
        cpu = breakdown.cpu
        full_pages = min(last_page, total_rows // per_page)
        full_page_cpu = per_page * cpu_per_tuple
        for __ in range(first_page, full_pages):
            cpu += full_page_cpu
        for page_no in range(max(first_page, full_pages), last_page):
            cpu += (total_rows - page_no * per_page) * cpu_per_tuple
        breakdown.cpu = cpu

    def mark_started(self, node: PlanNode) -> None:
        """Record that a node's iterator was first pulled."""
        self.started.add(node.node_id)
        if self.tracer is not None:
            self.tracer.node_started(node)

    def commit_memory(self, node: PlanNode) -> int:
        """Pin a memory-consuming operator's grant at first-input time.

        Returns the granted pages.  Until this point, dynamic re-allocation
        may still change the operator's grant (the operator holds no data
        yet); afterwards the grant is fixed.
        """
        self.memory_committed.add(node.node_id)
        return self.memory_for(node)

    def mark_completed(self, node: PlanNode, rows: int) -> None:
        """Record that a node drained, with its actual output cardinality."""
        self.completed.add(node.node_id)
        self.actual_rows[node.node_id] = rows
        if self.tracer is not None:
            self.tracer.node_completed(node, rows)

    def spool_and_switch(self, node: PlanNode, directive: PlanSwitchDirective, batches) -> None:
        """Spool a cut operator's output batches into the directive's temp
        table — one page-write run — and unwind to the dispatcher (paper
        Figure 6).  The table holds the batches as one chunk: its readers
        build tuples, if they need any, and the cut builds none."""
        cut = Chunk.concat(list(batches), len(node.schema))
        # Tuples built from the spool are its readers', not the cut join's.
        cut = Chunk(cut.sources, cut.ids, cut.length)
        temp = directive.temp_table
        self.temp_manager.fill(temp, cut)
        self.mark_completed(node, len(cut))
        self.switches += 1
        if self.tracer is not None:
            self.tracer.instant(
                "switch-materialize", "reopt",
                cut_node_id=node.node_id,
                rows=len(cut),
                temp_pages=temp.page_count,
            )
        raise PlanSwitched(directive, len(cut))

    def collector_completed(self, node: StatsCollectorNode, collector) -> None:
        """A statistics collector's after-loop semantics: the stats CPU
        charge, finalize, publish, and the controller hook that may arm a
        plan switch.  ``collector`` is the node's drained
        :class:`~repro.executor.collector.RuntimeCollector`."""
        params = self.cost_model.params
        per_row = (
            params.cpu_stats_per_tuple
            + node.spec.statistic_count * params.cpu_stats_per_statistic
        )
        self.clock.charge_stats_cpu(collector.row_count * per_row)
        observed = collector.finalize()
        self.observed[node.node_id] = observed
        if self.tracer is not None:
            self.tracer.instant(
                "collector-complete", "stats",
                node_id=node.node_id, observed=observed.describe(),
            )
        if self.controller is not None:
            self.controller.on_collector_complete(node, observed)

    def take_switch_for(self, node_id: int) -> PlanSwitchDirective | None:
        """Claim a pending plan switch if it targets this node."""
        directive = self.pending_switch
        if directive is not None and directive.cut_node_id == node_id:
            self.pending_switch = None
            return directive
        return None

    def request_switch(self, directive: PlanSwitchDirective) -> None:
        """Register a plan switch to be executed by the cut node."""
        if self.pending_switch is not None:
            raise ExecutionError("a plan switch is already pending")
        self.pending_switch = directive
