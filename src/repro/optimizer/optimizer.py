"""The optimizer facade: bound query -> annotated physical plan.

Pipeline: access-path selection and DP join enumeration (``dp.py``), then
aggregation/projection, sort and limit operators on top, then a final
annotation pass so every node carries the optimizer's estimates — the
*annotated query execution plan* the paper requires.
"""

from __future__ import annotations

from typing import Mapping

from ..config import EngineConfig
from ..errors import OptimizerError
from ..plans.logical import LogicalQuery, output_schema
from ..plans.physical import (
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SortNode,
)
from ..stats.estimator import Estimator, RelProfile
from ..storage.catalog import Catalog
from .annotate import PlanAnnotator
from .cost_model import CostModel
from .dp import JoinEnumerator


class Optimizer:
    """Produces annotated physical plans for bound queries."""

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig,
        estimator: Estimator | None = None,
    ) -> None:
        self.catalog = catalog
        self.config = config
        self.estimator = estimator or Estimator()
        self.cost_model = CostModel(config)
        #: Number of optimizer invocations (initial + re-optimizations).
        self.invocations = 0
        #: Work done on this statement's behalf (exact, hardware-independent):
        #: DP relation subsets visited, join candidates annotated and join
        #: candidates pruned on their cost bound, over the initial plan and
        #: every re-optimization.
        self.subsets_enumerated = 0
        self.candidates_costed = 0
        self.candidates_pruned = 0
        self._derived_before = self.estimator.column_stats_derived

    def optimize(
        self,
        query: LogicalQuery,
        profile_overrides: Mapping[int, RelProfile] | None = None,
    ) -> PlanNode:
        """Optimize a bound query into an annotated physical plan."""
        self.invocations += 1
        annotator = PlanAnnotator(
            self.catalog, self.estimator, self.cost_model,
            profile_overrides=profile_overrides,
        )
        enumerator = JoinEnumerator(query, self.catalog, annotator)
        plan: PlanNode = enumerator.best_join_plan()
        self.subsets_enumerated += enumerator.subsets_enumerated
        self.candidates_costed += enumerator.candidates_costed
        self.candidates_pruned += enumerator.candidates_pruned
        plan = self._add_output_operators(plan, query)
        annotator.annotate(plan)
        return plan

    @property
    def column_stats_derived(self) -> int:
        """Column statistics derived (``_scale_column`` evaluations) since
        this optimizer was created — planning, annotation passes and
        mid-query re-optimization alike.  A delta of the estimator's running
        total: exact when statements do not overlap on one estimator;
        concurrent server sessions see each other's derivations.
        """
        return self.estimator.column_stats_derived - self._derived_before

    def _add_output_operators(self, plan: PlanNode, query: LogicalQuery) -> PlanNode:
        if not query.output:
            raise OptimizerError("query produces no output columns")
        result_schema = output_schema(query.output, plan.schema)
        if query.has_aggregates or query.group_by:
            plan = HashAggregateNode(
                plan, query.group_by, query.output, result_schema
            )
            if query.having:
                # HAVING predicates reference output-column names, which are
                # exactly the aggregate's output schema.
                plan = FilterNode(plan, query.having)
        else:
            plan = ProjectNode(plan, query.output, result_schema)
            if query.distinct:
                plan = DistinctNode(plan)
        if query.order_by:
            plan = SortNode(plan, query.order_by)
        if query.limit is not None:
            plan = LimitNode(plan, query.limit)
        return plan

    def annotator(
        self,
        allocation: Mapping[int, int] | None = None,
        profile_overrides: Mapping[int, RelProfile] | None = None,
    ) -> PlanAnnotator:
        """A fresh annotation pass bound to this optimizer's components."""
        return PlanAnnotator(
            self.catalog, self.estimator, self.cost_model,
            allocation=allocation, profile_overrides=profile_overrides,
        )
