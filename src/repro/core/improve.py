"""Improved estimates (paper section 2.2).

When a statistics collector completes, its observed statistics replace the
optimizer's estimates at that plan point and everything downstream is
re-derived.  Concretely:

* :func:`apply_improved_estimates` re-annotates the current plan with the
  completed collector's observed profile (using the current memory grants),
  producing *improved* per-node estimates in place — only on the path its
  inputs or a changed grant dirtied;
* :func:`remaining_cost` computes how much simulated time the current plan
  still needs under those improved estimates — completed operators cost
  nothing more, the in-flight blocking consumer only owes its probe phase;
* ``T_cur_plan,improved = elapsed + remaining`` feeds the re-optimization
  triggers.
"""

from __future__ import annotations

from typing import Mapping

from ..executor.collector import ObservedStatistics
from ..executor.runtime import RuntimeContext
from ..optimizer.cost_model import CostModel, pages_for
from ..optimizer.optimizer import Optimizer
from ..plans.physical import (
    HashJoinNode,
    PlanNode,
    StatsCollectorNode,
)
from ..stats.estimator import RelProfile


def observed_profiles(
    plan: PlanNode, observed: Mapping[int, ObservedStatistics]
) -> dict[int, RelProfile]:
    """Profile overrides for every collector with observed statistics."""
    overrides: dict[int, RelProfile] = {}
    for node in plan.walk():
        if isinstance(node, StatsCollectorNode) and node.node_id in observed:
            overrides[node.node_id] = observed[node.node_id].merge_into_profile(
                node.est.profile
            )
    return overrides


def apply_improved_estimates(
    plan: PlanNode,
    optimizer: Optimizer,
    ctx: RuntimeContext,
    collector_id: int,
    annotated_grants: Mapping[int, int],
) -> None:
    """Re-annotate the dirty path of ``plan`` in place with observed
    statistics and live grants: what re-annotating the whole plan gives,
    node for node, annotating only the nodes whose inputs moved.

    Every node of ``plan`` was last annotated under ``annotated_grants``.
    A node's estimates follow from its children's, its grant and its
    observed profile, so a node is annotated again, bottom-up, when a node
    in its subtree (itself included) moved: the collector ``collector_id``;
    a node whose grant in ``ctx.allocation`` is no longer the one it was
    annotated under; an earlier collector whose observed profile, merged
    again into the profile it carries, comes out different (merging is not
    always a fixed point: a min/max column with no estimate has distinct 0,
    and 1 once merged again).
    """
    allocation, overrides = ctx.allocation, observed_profiles(plan, ctx.observed)
    annotator = optimizer.annotator(allocation=allocation, profile_overrides=overrides)

    def annotate(node: PlanNode) -> bool:
        node_id = node.node_id
        below = [annotate(child) for child in node.children]
        if (
            any(below)
            or node_id == collector_id
            or allocation.get(node_id) != annotated_grants.get(node_id)
            or (node_id in overrides and overrides[node_id] != node.est.profile)
        ):
            annotator.annotate_node(node)
            return True
        return False

    annotate(plan)


def parent_of(plan: PlanNode, node_id: int) -> PlanNode | None:
    """Direct parent of a node within a plan."""
    for node in plan.walk():
        for child in node.children:
            if child.node_id == node_id:
                return node
    return None


def blocking_consumer(plan: PlanNode, collector_id: int) -> PlanNode | None:
    """The blocking operator that just finished consuming this collector.

    SCIA places collectors directly below blocking input edges, so this is
    simply the collector's parent (validated to be blocking).
    """
    parent = parent_of(plan, collector_id)
    return parent if parent is not None and parent.is_blocking else None


def hash_join_probe_remaining(
    node: HashJoinNode, cost_model: CostModel, page_size: int, grant: int
) -> float:
    """Remaining (probe-phase) cost of a hash join whose build is complete."""
    build = node.build.est
    probe = node.probe.est
    cost = cost_model.hash_join_probe(
        build_pages=pages_for(build.rows, build.row_bytes, page_size),
        probe_rows=probe.rows,
        probe_pages=pages_for(probe.rows, probe.row_bytes, page_size),
        output_rows=node.est.rows,
        memory_pages=grant,
    )
    return cost.total_units(cost_model.params)


def in_flight_remaining(
    node: PlanNode, ctx: RuntimeContext, cost_model: CostModel
) -> float:
    """What a blocking consumer whose build input just completed still owes:
    a hash join its probe phase, any other operator its whole cost."""
    if isinstance(node, HashJoinNode):
        return hash_join_probe_remaining(
            node, cost_model, ctx.catalog.page_size, ctx.memory_for(node)
        )
    return node.est.op_cost


def remaining_cost(
    plan: PlanNode,
    ctx: RuntimeContext,
    cost_model: CostModel,
    in_flight: PlanNode | None = None,
) -> float:
    """Improved estimate of the cost still needed to finish the current plan.

    ``in_flight`` is the blocking consumer whose build input just completed
    (see :func:`in_flight_remaining`).  Completed nodes owe nothing.
    Everything else owes its (improved) per-operator cost.
    """
    remaining = 0.0
    for node in plan.walk():
        if node.node_id not in ctx.completed:
            remaining += (
                in_flight_remaining(node, ctx, cost_model)
                if node is in_flight
                else node.est.op_cost
            )
    return remaining
