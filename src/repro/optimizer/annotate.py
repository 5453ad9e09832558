"""Bottom-up plan annotation: the *annotated query execution plan*.

This pass fills in the :class:`~repro.plans.physical.Estimates` on every
node — cardinalities, sizes, statistical profiles, memory demands, and per
operator / cumulative costs.  The paper requires exactly this: "the plan
produced by the optimizer should include information about the optimizer's
estimates of the sizes of all the intermediate results in the query, and the
execution cost/time for each operator" (section 2, item 1).

The same pass is reused by the improved-estimate machinery: when run-time
statistics replace a node's profile, re-annotating the remainder recomputes
every downstream estimate from the better numbers.

``allocation`` maps node ids to granted memory pages; when a node has no
grant yet, costing assumes its maximum demand (the optimizer's optimistic
assumption — memory is allocated later by the Memory Manager, as in
Paradise).
"""

from __future__ import annotations

from typing import Mapping

from ..errors import OptimizerError
from ..plans.logical import ColumnExpr
from ..plans.physical import (
    BlockNLJoinNode,
    DistinctNode,
    Estimates,
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
from ..stats.estimator import Estimator, RelProfile, profile_from_table_stats
from ..storage.catalog import Catalog
from ..storage.index import Index
from .cost_model import CostModel, OperatorCost, pages_for


class PlanAnnotator:
    """Computes estimate annotations for a physical plan."""

    def __init__(
        self,
        catalog: Catalog,
        estimator: Estimator,
        cost_model: CostModel,
        allocation: Mapping[int, int] | None = None,
        profile_overrides: Mapping[int, RelProfile] | None = None,
    ) -> None:
        self.catalog = catalog
        self.estimator = estimator
        self.cost_model = cost_model
        self.allocation = dict(allocation or {})
        #: node_id -> observed profile replacing the estimated one.
        self.profile_overrides = dict(profile_overrides or {})
        self.page_size = catalog.page_size
        #: Base-table profiles per ``(table, alias)``.  Catalog statistics
        #: do not change during one annotator's lifetime (re-optimization
        #: registers its temp table before building a new annotator), and
        #: profiles are never mutated, so every node over the same scan —
        #: the DP's index-NL candidates above all — shares one.
        self._base_profiles: dict[tuple[str, str], RelProfile] = {}

    def annotate(self, plan: PlanNode) -> PlanNode:
        """Annotate the whole tree bottom-up and return it."""
        for child in plan.children:
            self.annotate(child)
        return self.annotate_node(plan)

    def annotate_node(self, plan: PlanNode) -> PlanNode:
        """Annotate one node, assuming its children are already annotated.

        The DP join enumerator uses this to cost a candidate join without
        re-annotating the (shared, already-annotated) input subtrees.
        """
        self._annotate_node(plan)
        override = self.profile_overrides.get(plan.node_id)
        if override is not None:
            plan.est.profile = override
            plan.est.rows = override.rows
            plan.est.row_bytes = override.row_bytes
            plan.est.pages = pages_for(override.rows, override.row_bytes, self.page_size)
        return plan

    # ------------------------------------------------------------------

    def _memory_for(self, node: PlanNode) -> int:
        granted = self.allocation.get(node.node_id)
        if granted is not None:
            return granted
        return node.est.max_memory_pages

    def _finish(self, node: PlanNode, cost: OperatorCost) -> None:
        est = node.est
        est.op_cost = cost.total_units(self.cost_model.params)
        est.total_cost = est.op_cost + sum(c.est.total_cost for c in node.children)
        if est.profile is not None:
            est.rows = est.profile.rows
            est.row_bytes = est.profile.row_bytes
        est.pages = pages_for(est.rows, est.row_bytes, self.page_size)

    def _annotate_node(self, node: PlanNode) -> None:
        if isinstance(node, SeqScanNode):
            self._annotate_seq_scan(node)
        elif isinstance(node, IndexScanNode):
            self._annotate_index_scan(node)
        elif isinstance(node, FilterNode):
            self._annotate_filter(node)
        elif isinstance(node, StatsCollectorNode):
            self._annotate_collector(node)
        elif isinstance(node, HashJoinNode):
            self._annotate_hash_join(node)
        elif isinstance(node, IndexNLJoinNode):
            self._annotate_index_nl_join(node)
        elif isinstance(node, BlockNLJoinNode):
            self._annotate_block_nl_join(node)
        elif isinstance(node, ProjectNode):
            self._annotate_project(node)
        elif isinstance(node, HashAggregateNode):
            self._annotate_aggregate(node)
        elif isinstance(node, DistinctNode):
            self._annotate_distinct(node)
        elif isinstance(node, SortNode):
            self._annotate_sort(node)
        elif isinstance(node, LimitNode):
            self._annotate_limit(node)
        else:
            raise OptimizerError(f"cannot annotate node type {type(node).__name__}")

    # -- leaves ----------------------------------------------------------

    def _base_profile(self, table_name: str, alias: str) -> RelProfile:
        key = (table_name, alias)
        profile = self._base_profiles.get(key)
        if profile is None:
            profile = self._base_profiles[key] = profile_from_table_stats(
                self.catalog.stats_for(table_name), alias
            )
        return profile

    def _annotate_seq_scan(self, node: SeqScanNode) -> None:
        stats = self.catalog.stats_for(node.table_name)
        profile = self._base_profile(node.table_name, node.alias)
        node.est.profile = profile
        node.est.rows = profile.rows
        node.est.row_bytes = profile.row_bytes
        cost = self.cost_model.seq_scan(stats.page_count, profile.rows)
        self._finish(node, cost)

    def _annotate_index_scan(self, node: IndexScanNode) -> None:
        stats = self.catalog.stats_for(node.table_name)
        base = self._base_profile(node.table_name, node.alias)
        profile, __ = self.estimator.apply_predicates(base, node.bound_predicates)
        node.est.profile = profile
        index = self.catalog.index_on(node.table_name, node.index_column)
        if index is None:
            raise OptimizerError(
                f"no index on {node.table_name}.{node.index_column} for index scan"
            )
        table = self.catalog.table(node.table_name)
        cost = self.cost_model.index_scan(
            height=index.height,
            entries_per_leaf=index.entries_per_leaf,
            matches=profile.rows,
            clustered=index.clustered,
            rows_per_page=table.rows_per_page,
            table_pages=stats.page_count,
        )
        self._finish(node, cost)

    # -- streaming operators -------------------------------------------------

    def _annotate_filter(self, node: FilterNode) -> None:
        child_profile = _require_profile(node.child)
        profile, __ = self.estimator.apply_predicates(child_profile, node.predicates)
        node.est.profile = profile
        cost = self.cost_model.filter(child_profile.rows, len(node.predicates))
        self._finish(node, cost)

    def _annotate_collector(self, node: StatsCollectorNode) -> None:
        profile = _require_profile(node.child)
        node.est.profile = profile
        cost = self.cost_model.collector(profile.rows, node.spec.statistic_count)
        self._finish(node, cost)

    def _annotate_limit(self, node: LimitNode) -> None:
        child = node.child.est
        node.est.profile = child.profile
        node.est.rows = min(float(node.limit), child.rows)
        node.est.row_bytes = child.row_bytes
        cost = self.cost_model.limit(node.est.rows)
        est = node.est
        est.op_cost = cost.total_units(self.cost_model.params)
        est.total_cost = est.op_cost + node.child.est.total_cost
        est.pages = pages_for(est.rows, est.row_bytes, self.page_size)

    def _annotate_project(self, node: ProjectNode) -> None:
        child_profile = _require_profile(node.child)
        columns = {}
        for item in node.output:
            if isinstance(item.expr, ColumnExpr):
                stats = child_profile.column(item.expr.name)
                if stats is not None:
                    columns[item.name] = stats.renamed(item.name)
        profile = RelProfile(
            rows=child_profile.rows,
            row_bytes=float(node.schema.row_bytes),
            columns=columns,
            aliases=child_profile.aliases,
        )
        node.est.profile = profile
        cost = self.cost_model.project(child_profile.rows)
        self._finish(node, cost)

    # -- joins -------------------------------------------------------------
    #
    # A join's memory demand and cost follow from its annotated inputs
    # (``est.rows`` / ``est.pages`` are the profile's, set by ``_finish``)
    # and an output cardinality in exactly one method each.  The
    # ``_annotate_*_join`` methods call it at the estimated output, the DP
    # enumerator at the smallest output the estimator can return — so its
    # lower bound is this arithmetic and cannot drift from it.

    def hash_join_cost(
        self, build: Estimates, probe: Estimates, output_rows: float, memory: int | None = None
    ) -> tuple[int, int, OperatorCost]:
        """``(min pages, max pages, cost)``; no grant means the maximum."""
        minimum, maximum = self.cost_model.hash_join_memory(build.pages)
        cost = self.cost_model.hash_join(
            build_rows=build.rows,
            build_pages=build.pages,
            probe_rows=probe.rows,
            probe_pages=probe.pages,
            output_rows=output_rows,
            memory_pages=maximum if memory is None else memory,
        )
        return minimum, maximum, cost

    def block_nl_join_cost(
        self, outer: Estimates, inner: Estimates, memory: int | None = None
    ) -> tuple[int, int, OperatorCost]:
        """``(min pages, max pages, cost)``; no grant means the maximum."""
        minimum, maximum = self.cost_model.block_nl_join_memory(outer.pages)
        cost = self.cost_model.block_nl_join(
            outer_rows=outer.rows,
            outer_pages=outer.pages,
            inner_rows=inner.rows,
            inner_pages=inner.pages,
            memory_pages=maximum if memory is None else memory,
        )
        return minimum, maximum, cost

    def index_nl_join_cost(
        self, outer: Estimates, index: Index, matches_total: float, output_rows: float
    ) -> OperatorCost:
        """Cost of probing ``index`` (on the inner table) once per outer row."""
        return self.cost_model.index_nl_join(
            outer_rows=outer.rows,
            height=index.height,
            entries_per_leaf=index.entries_per_leaf,
            matches_total=matches_total,
            clustered=index.clustered,
            inner_table_pages=self.catalog.stats_for(index.table.name).page_count,
            output_rows=output_rows,
        )

    def _annotate_hash_join(self, node: HashJoinNode) -> None:
        profile, __ = self.estimator.join(
            _require_profile(node.build),
            _require_profile(node.probe),
            node.key_pairs,
            node.residual,
        )
        est = node.est
        est.profile = profile
        est.min_memory_pages, est.max_memory_pages, cost = self.hash_join_cost(
            node.build.est, node.probe.est, profile.rows, self.allocation.get(node.node_id)
        )
        self._finish(node, cost)

    def _annotate_index_nl_join(self, node: IndexNLJoinNode) -> None:
        outer_profile = _require_profile(node.outer)
        inner_base = self._base_profile(node.inner_table, node.inner_alias)
        matched, matches_total = self.estimator.join(
            outer_profile,
            inner_base,
            [(node.outer_column, f"{node.inner_alias}.{node.inner_column}")],
        )
        if node.residual:
            profile, __ = self.estimator.apply_predicates(matched, node.residual)
        else:
            profile = matched
        node.est.profile = profile
        index = self.catalog.index_on(node.inner_table, node.inner_column)
        if index is None:
            raise OptimizerError(
                f"no index on {node.inner_table}.{node.inner_column} for index NL join"
            )
        cost = self.index_nl_join_cost(node.outer.est, index, matches_total, profile.rows)
        self._finish(node, cost)

    def _annotate_block_nl_join(self, node: BlockNLJoinNode) -> None:
        profile, __ = self.estimator.join(
            _require_profile(node.outer), _require_profile(node.inner), [], node.predicates
        )
        est = node.est
        est.profile = profile
        est.min_memory_pages, est.max_memory_pages, cost = self.block_nl_join_cost(
            node.outer.est, node.inner.est, self.allocation.get(node.node_id)
        )
        self._finish(node, cost)

    # -- aggregation & sort ----------------------------------------------------

    def _annotate_aggregate(self, node: HashAggregateNode) -> None:
        child_profile = _require_profile(node.child)
        groups = self.estimator.group_count(child_profile, node.group_by)
        row_bytes = float(node.schema.row_bytes)
        columns = {}
        for item in node.output:
            if isinstance(item.expr, ColumnExpr):
                stats = child_profile.column(item.expr.name)
                if stats is not None:
                    columns[item.name] = stats.renamed(item.name)
        profile = RelProfile(
            rows=groups,
            row_bytes=row_bytes,
            columns=columns,
            aliases=child_profile.aliases,
        )
        node.est.profile = profile
        group_pages = pages_for(groups, row_bytes, self.page_size)
        minimum, maximum = self.cost_model.aggregate_memory(group_pages)
        node.est.min_memory_pages = minimum
        node.est.max_memory_pages = maximum
        memory = self._memory_for(node)
        child_pages = pages_for(child_profile.rows, child_profile.row_bytes, self.page_size)
        cost = self.cost_model.aggregate(
            input_rows=child_profile.rows,
            input_pages=child_pages,
            group_pages=group_pages,
            memory_pages=memory,
        )
        self._finish(node, cost)

    def _annotate_distinct(self, node: DistinctNode) -> None:
        child_profile = _require_profile(node.child)
        known = [name for name in node.schema.names if child_profile.column(name)]
        if known:
            rows = self.estimator.group_count(child_profile, known)
        else:
            rows = child_profile.rows
        profile = RelProfile(
            rows=rows,
            row_bytes=child_profile.row_bytes,
            columns=child_profile.columns,
            aliases=child_profile.aliases,
        )
        node.est.profile = profile
        out_pages = pages_for(rows, child_profile.row_bytes, self.page_size)
        minimum, maximum = self.cost_model.aggregate_memory(out_pages)
        node.est.min_memory_pages = minimum
        node.est.max_memory_pages = maximum
        memory = self._memory_for(node)
        child_pages = pages_for(
            child_profile.rows, child_profile.row_bytes, self.page_size
        )
        cost = self.cost_model.aggregate(
            input_rows=child_profile.rows,
            input_pages=child_pages,
            group_pages=out_pages,
            memory_pages=memory,
        )
        self._finish(node, cost)

    def _annotate_sort(self, node: SortNode) -> None:
        child = node.child.est
        node.est.profile = child.profile
        node.est.rows = child.rows
        node.est.row_bytes = child.row_bytes
        pages = pages_for(child.rows, child.row_bytes, self.page_size)
        minimum, maximum = self.cost_model.sort_memory(pages)
        node.est.min_memory_pages = minimum
        node.est.max_memory_pages = maximum
        memory = self._memory_for(node)
        cost = self.cost_model.sort(child.rows, pages, memory)
        est = node.est
        est.op_cost = cost.total_units(self.cost_model.params)
        est.total_cost = est.op_cost + node.child.est.total_cost
        est.pages = pages


def _require_profile(node: PlanNode) -> RelProfile:
    profile = node.est.profile
    if profile is None:
        raise OptimizerError(
            f"child node {node.label} (id={node.node_id}) has no profile; "
            "annotate children first"
        )
    return profile


def estimate_snapshot(plan: PlanNode) -> dict[int, dict[str, float]]:
    """Freeze a plan's per-node estimates as plain numbers.

    The improved-estimate machinery overwrites ``node.est`` *in place* when
    run-time statistics arrive, so anything that wants to compare the
    optimizer's original numbers against reality (EXPLAIN ANALYZE, the
    tracer's switch-decision events) must snapshot them when the plan is
    adopted — node ids are globally unique, so snapshots from successive
    plans of one query never collide.
    """
    snapshot: dict[int, dict[str, float]] = {}
    for node in plan.walk():
        est = node.est
        snapshot[node.node_id] = {
            "rows": est.rows,
            "row_bytes": est.row_bytes,
            "bytes": est.rows * est.row_bytes,
            "pages": est.pages,
            "op_cost": est.op_cost,
            "total_cost": est.total_cost,
        }
    return snapshot
