"""The statistics-collectors insertion algorithm (SCIA, paper section 2.5).

Runs as a post-processing phase after the query optimizer (paper Figure 9):

1. Enumerate the *candidate points* — edges into blocking operator inputs
   (hash-join build sides, block-NL inners, sort and aggregate inputs).
   These are where pipelines naturally break, so statistics gathered there
   are ready before the downstream operators start.  Points whose input is a
   bare base-table scan are skipped (the catalog already describes them).
2. At every candidate point list the *potentially useful statistics*: a
   histogram on any attribute that participates in a join or selection
   predicate evaluated later in the plan; a distinct count on any attribute
   set that feeds a GROUP BY later in the plan.
3. Rank candidates by effectiveness: first by inaccuracy potential (see
   :mod:`repro.core.inaccuracy`), then by the fraction of the plan they
   affect (operators at or above the first use).
4. Delete the least effective candidates until the estimated collection
   cost fits within ``mu * T_cur_plan,optimizer``.
5. Splice collector operators into the plan.  Cardinality, tuple size and
   min/max tracking is free-ish and always on, so every candidate point
   keeps at least a bare collector.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import EngineConfig
from ..plans.physical import (
    BlockNLJoinNode,
    CollectorSpec,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexNLJoinNode,
    IndexScanNode,
    PlanNode,
    SeqScanNode,
    SortNode,
    StatsCollectorNode,
)
from ..storage.catalog import Catalog
from ..executor.segments import blocking_input_edges
from .inaccuracy import InaccuracyAnalysis, InaccuracyPotential


@dataclass(frozen=True)
class CandidateStatistic:
    """One potentially useful run-time statistic."""

    parent_id: int
    child_index: int
    kind: str  # "histogram" or "distinct"
    columns: tuple[str, ...]
    potential: InaccuracyPotential
    affected_fraction: float
    estimated_cost: float
    first_use_id: int

    @property
    def effectiveness_key(self) -> tuple[int, float]:
        """Sort key: higher means more effective."""
        return (self.potential.value, self.affected_fraction)


@dataclass
class SciaResult:
    """Outcome of one SCIA run."""

    plan: PlanNode
    kept: list[CandidateStatistic]
    dropped: list[CandidateStatistic]
    collector_points: int
    budget: float

    @property
    def kept_cost(self) -> float:
        """Total estimated collection cost of the surviving statistics."""
        return sum(c.estimated_cost for c in self.kept)


def _parent_map(plan: PlanNode) -> dict[int, PlanNode]:
    parents: dict[int, PlanNode] = {}
    for node in plan.walk():
        for child in node.children:
            parents[child.node_id] = node
    return parents


def _ancestors(plan: PlanNode, node: PlanNode) -> list[PlanNode]:
    """Chain from ``node`` (exclusive) up to the root (inclusive)."""
    parents = _parent_map(plan)
    chain: list[PlanNode] = []
    current = parents.get(node.node_id)
    while current is not None:
        chain.append(current)
        current = parents.get(current.node_id)
    return chain


def _columns_used_by(node: PlanNode) -> frozenset[str]:
    """Join/selection attributes an operator consults."""
    columns: set[str] = set()
    if isinstance(node, FilterNode):
        for pred in node.predicates:
            columns |= pred.columns()
    elif isinstance(node, HashJoinNode):
        for left_col, right_col in node.key_pairs:
            columns.add(left_col)
            columns.add(right_col)
        for pred in node.residual:
            columns |= pred.columns()
    elif isinstance(node, IndexNLJoinNode):
        columns.add(node.outer_column)
        columns.add(f"{node.inner_alias}.{node.inner_column}")
        for pred in node.residual:
            columns |= pred.columns()
    elif isinstance(node, IndexScanNode):
        for pred in node.bound_predicates:
            columns |= pred.columns()
    return frozenset(columns)


def _live_columns(node: PlanNode) -> frozenset[str]:
    """Every column an operator reads to decide its output: what
    :func:`_columns_used_by` finds plus block-NL predicates, GROUP BY columns
    and sort keys.  Decides which columns a collector tracks min/max on;
    histogram candidates keep the narrower rule (widening it would change
    SCIA's choices, and with them simulated costs)."""
    columns = set(_columns_used_by(node))
    if isinstance(node, BlockNLJoinNode):
        for pred in node.predicates:
            columns |= pred.columns()
    elif isinstance(node, HashAggregateNode):
        columns.update(node.group_by)
    elif isinstance(node, SortNode):
        columns.update(key.name for key in node.keys)
    return frozenset(columns)


def enumerate_candidates(
    plan: PlanNode, catalog: Catalog, config: EngineConfig
) -> tuple[list[CandidateStatistic], list[tuple[PlanNode, int]]]:
    """All potentially useful statistics and all candidate collector points."""
    analysis = InaccuracyAnalysis(plan, catalog)
    total_nodes = sum(1 for __ in plan.walk())
    candidates: list[CandidateStatistic] = []
    points: list[tuple[PlanNode, int]] = []
    per_stat_cost = config.cost.cpu_stats_per_statistic

    for parent, child_index in blocking_input_edges(plan):
        child = parent.children[child_index]
        if isinstance(child, (SeqScanNode, IndexScanNode)):
            continue  # base-table statistics are already in the catalog
        if isinstance(child, StatsCollectorNode):
            continue  # already instrumented
        ancestors = [parent] + _ancestors(plan, parent)
        if not any(
            isinstance(a, (HashJoinNode, IndexNLJoinNode, BlockNLJoinNode))
            for a in ancestors
        ):
            # Nothing above this point can be re-optimized or re-allocated:
            # skip collection entirely (the paper's section 2.5 requirement
            # that simple queries pay no overhead).
            continue
        points.append((parent, child_index))
        available = set(child.schema.names)
        numeric = {
            col.name for col in child.schema.columns if col.dtype.is_numeric
        }
        seen_hist: set[str] = set()
        for depth, ancestor in enumerate(ancestors):
            used = _columns_used_by(ancestor)
            affected = (len(ancestors) - depth) / total_nodes
            for column in sorted(used & available & numeric):
                if column in seen_hist:
                    continue
                seen_hist.add(column)
                candidates.append(
                    CandidateStatistic(
                        parent_id=parent.node_id,
                        child_index=child_index,
                        kind="histogram",
                        columns=(column,),
                        potential=analysis.histogram_level(child, column),
                        affected_fraction=affected,
                        estimated_cost=child.est.rows * per_stat_cost,
                        first_use_id=ancestor.node_id,
                    )
                )
            if isinstance(ancestor, HashAggregateNode) and ancestor.group_by:
                group_cols = tuple(sorted(ancestor.group_by))
                if set(group_cols) <= available:
                    candidates.append(
                        CandidateStatistic(
                            parent_id=parent.node_id,
                            child_index=child_index,
                            kind="distinct",
                            columns=group_cols,
                            potential=analysis.distinct_level(child, group_cols),
                            affected_fraction=affected,
                            estimated_cost=child.est.rows * per_stat_cost,
                            first_use_id=ancestor.node_id,
                        )
                    )
    return candidates, points


def insert_collectors(
    plan: PlanNode,
    catalog: Catalog,
    config: EngineConfig,
) -> SciaResult:
    """Run the SCIA: choose statistics within budget and splice collectors.

    The budget is ``mu`` times the optimizer's estimated execution time of
    the (annotated) plan, per the paper.  The plan is modified in place;
    callers should re-annotate it afterwards so collector nodes carry
    estimates too.
    """
    candidates, points = enumerate_candidates(plan, catalog, config)
    budget = config.reopt.mu * plan.est.total_cost
    ordered = sorted(candidates, key=lambda c: c.effectiveness_key)
    total_cost = sum(c.estimated_cost for c in ordered)
    dropped: list[CandidateStatistic] = []
    while ordered and total_cost > budget:
        least_effective = ordered.pop(0)
        dropped.append(least_effective)
        total_cost -= least_effective.estimated_cost
    kept = ordered

    specs: dict[tuple[int, int], dict[str, list]] = {}
    for candidate in kept:
        point = (candidate.parent_id, candidate.child_index)
        spec = specs.setdefault(point, {"histograms": [], "distincts": []})
        if candidate.kind == "histogram":
            spec["histograms"].append(candidate.columns[0])
        else:
            spec["distincts"].append(candidate.columns)

    # Inaccuracy ranking for attribution (EXPLAIN ANALYZE reports whether
    # the potential assigned here predicted where the estimates went bad).
    # Built before splicing: the analysis walks the un-instrumented plan.
    analysis = InaccuracyAnalysis(plan, catalog)
    point_potentials = {
        (parent.node_id, child_index): analysis.output_level(
            parent.children[child_index]
        )
        for parent, child_index in points
    }

    def _describe(candidate: CandidateStatistic) -> str:
        return (
            f"{candidate.kind}({', '.join(candidate.columns)})"
            f"@{candidate.potential.name.lower()}"
        )

    for parent, child_index in points:
        point = (parent.node_id, child_index)
        chosen = specs.get(point, {"histograms": [], "distincts": []})
        child = parent.children[child_index]
        live = frozenset().union(
            *map(_live_columns, [parent] + _ancestors(plan, parent))
        )
        spec = CollectorSpec(
            histogram_columns=tuple(dict.fromkeys(chosen["histograms"])),
            distinct_column_sets=tuple(dict.fromkeys(chosen["distincts"])),
            minmax_columns=tuple(
                name for name in child.schema.names if name in live
            ),
        )
        collector = StatsCollectorNode(child, spec)
        collector.scia_potential = point_potentials[point]
        collector.scia_kept = tuple(
            _describe(c) for c in kept
            if (c.parent_id, c.child_index) == point
        )
        collector.scia_dropped = tuple(
            _describe(c) for c in dropped
            if (c.parent_id, c.child_index) == point
        )
        children = list(parent.children)
        children[child_index] = collector
        parent.children = tuple(children)

    return SciaResult(
        plan=plan,
        kept=kept,
        dropped=dropped,
        collector_points=len(points),
        budget=budget,
    )
