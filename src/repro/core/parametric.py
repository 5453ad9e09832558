"""Parametric plans and the hybrid with Dynamic Re-Optimization.

The paper's section 4 sketches its own future work: "the query optimizer
can try to anticipate the most common cases that might arise at run-time
and produce a parameterized plan that covers these possibilities.  At query
execution time, statistics can be observed/collected to determine which
plan to choose for query execution.  If a situation arises at run-time that
is not covered by the common cases anticipated by the query optimizer,
dynamic re-optimization can be used."

This module implements that hybrid:

* :class:`ParametricOptimizer` produces one plan per *scenario* — an
  assumed selectivity for the query's host-variable predicates (in the
  spirit of Graefe & Ward / Graefe & Cole dynamic plans and Ioannidis
  et al. parametric optimization, the paper's [8], [7] and [10]).
  Structurally identical plans are deduplicated, so the common case of a
  selectivity-insensitive plan costs nothing extra at run time.
* :func:`choose_plan` picks the scenario at execution start, once the
  parameter values are known, by estimating the parameterised predicates
  *with* their values.
* The engine then executes the chosen plan with Dynamic Re-Optimization
  still armed — covering the situations (correlations, skew, stale
  catalogs) that no anticipated scenario captures.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping

from ..config import EngineConfig
from ..errors import OptimizerError
from ..plans.logical import (
    LogicalQuery,
    parameter_names,
    substitute_output,
    substitute_predicate,
    substitute_query,
)
from ..plans.physical import (
    BlockNLJoinNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexNLJoinNode,
    IndexScanNode,
    PlanNode,
    ProjectNode,
    fresh_node_id,
)
from ..stats.estimator import Estimator, profile_from_table_stats
from ..storage.catalog import Catalog
from ..optimizer.optimizer import Optimizer

#: Default selectivity scenarios: highly selective, the System-R magic
#: default, and non-selective — the "most common cases" of section 4.
DEFAULT_SCENARIOS: tuple[float, ...] = (0.02, 1.0 / 3.0, 0.9)


@dataclass
class Scenario:
    """One anticipated run-time case."""

    assumed_selectivity: float
    plan: PlanNode
    estimated_cost: float

    def describe(self) -> str:
        """Short label for profiles and reports."""
        return f"sel~{self.assumed_selectivity:.2f} (cost {self.estimated_cost:.1f})"


@dataclass
class ParametricPlan:
    """A set of scenario plans for one parameterised query."""

    query: LogicalQuery
    scenarios: list[Scenario] = field(default_factory=list)

    @property
    def plan_count(self) -> int:
        """Number of structurally distinct plans kept."""
        return len(self.scenarios)


def plan_signature(plan: PlanNode) -> tuple:
    """A structural fingerprint used to deduplicate scenario plans."""
    parts = []
    for node in plan.walk():
        parts.append((node.label, node.detail(), len(node.children)))
    return tuple(parts)


def has_parameter_predicates(query: LogicalQuery) -> bool:
    """Whether any predicate compares against a host variable."""
    return any(p.is_parameter_based for p in query.predicates)


class ParametricOptimizer:
    """Optimizes one query under several assumed parameter selectivities."""

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig,
        scenarios: tuple[float, ...] = DEFAULT_SCENARIOS,
    ) -> None:
        self.catalog = catalog
        self.config = config
        self.scenario_selectivities = scenarios

    def optimize(self, query: LogicalQuery) -> ParametricPlan:
        """Produce the deduplicated scenario plans for ``query``."""
        if not has_parameter_predicates(query):
            raise OptimizerError(
                "parametric optimization requires host-variable predicates"
            )
        result = ParametricPlan(query=query)
        seen: dict[tuple, Scenario] = {}
        for selectivity in self.scenario_selectivities:
            estimator = Estimator(parameter_selectivity=selectivity)
            optimizer = Optimizer(self.catalog, self.config, estimator=estimator)
            plan = optimizer.optimize(query)
            signature = plan_signature(plan)
            if signature in seen:
                continue
            scenario = Scenario(
                assumed_selectivity=selectivity,
                plan=plan,
                estimated_cost=plan.est.total_cost,
            )
            seen[signature] = scenario
            result.scenarios.append(scenario)
        return result


class _MaskedParameter:
    """Sentinel rendering as ``:name`` so masked queries deparse to
    placeholder SQL — the value-independent text the plan cache keys
    parametric entries by."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f":{self.name}"


def mask_parameters(query: LogicalQuery) -> LogicalQuery:
    """Replace every parameter-born constant with a ``:name`` placeholder.

    The result deparses to SQL text that is identical for every parameter
    binding of the same statement; it is *not* executable.
    """
    names = parameter_names(query)
    if not names:
        return query
    return substitute_query(query, {n: _MaskedParameter(n) for n in names})


def plug_parameters(plan: PlanNode, values: Mapping[str, object]) -> PlanNode:
    """Clone ``plan`` with fresh host-variable values plugged in.

    A cached scenario plan embeds the parameter values it was first bound
    with: filter/residual predicates carry them as constants and index scans
    derive their key ranges from them.  Executing the plan for a new binding
    therefore clones the tree and rebuilds exactly those value-dependent
    pieces; nodes whose predicates change also drop their compiled-closure
    cache (the closures captured the old constants), while untouched nodes
    keep sharing the template's compiled closures.
    """
    new = copy.copy(plan)
    new.node_id = fresh_node_id()
    new.children = tuple(plug_parameters(c, values) for c in plan.children)
    new.est = plan.est.copy()
    changed = False

    def _sub_preds(preds):
        nonlocal changed
        fresh = tuple(substitute_predicate(p, values) for p in preds)
        if any(a is not b for a, b in zip(fresh, preds)):
            changed = True
        return fresh

    if isinstance(new, FilterNode):
        new.predicates = _sub_preds(new.predicates)
    elif isinstance(new, IndexScanNode):
        new.bound_predicates = _sub_preds(new.bound_predicates)
        if changed:
            from ..optimizer.access_paths import sargable_bound

            qualified = f"{new.alias}.{new.index_column}"
            bound = sargable_bound(new.bound_predicates, qualified)
            new.low, new.high = bound.low, bound.high
            new.low_inclusive = bound.low_inclusive
            new.high_inclusive = bound.high_inclusive
    elif isinstance(new, HashJoinNode):
        new.residual = _sub_preds(new.residual)
    elif isinstance(new, BlockNLJoinNode):
        new.predicates = _sub_preds(new.predicates)
    elif isinstance(new, IndexNLJoinNode):
        new.residual = _sub_preds(new.residual)
    elif isinstance(new, (ProjectNode, HashAggregateNode)):
        output = tuple(substitute_output(i, values) for i in new.output)
        if any(a is not b for a, b in zip(output, new.output)):
            changed = True
        new.output = output

    if changed:
        new._compiled = {}
    return new


def actual_parameter_selectivity(
    query: LogicalQuery, catalog: Catalog
) -> float:
    """Estimated joint selectivity of the parameterised predicates, using
    their (now known) values against base-table statistics."""
    estimator = Estimator(use_parameter_values=True)
    selectivities: list[float] = []
    for relation in query.relations:
        predicates = [
            p
            for p in query.selection_predicates(relation.alias)
            if p.is_parameter_based
        ]
        if not predicates:
            continue
        profile = profile_from_table_stats(
            catalog.stats_for(relation.table_name), relation.alias
        )
        for pred in predicates:
            selectivities.append(estimator.selectivity(pred, profile))
    if not selectivities:
        return 1.0
    joint = 1.0
    for sel in selectivities:
        joint *= sel
    # Geometric mean keeps the value comparable to per-predicate scenarios.
    return joint ** (1.0 / len(selectivities))


def choose_plan(
    parametric: ParametricPlan, catalog: Catalog, query: LogicalQuery | None = None
) -> tuple[Scenario, float]:
    """Pick the scenario closest to the observed parameter selectivity.

    This is the run-time decision step: the parameter values are known at
    execution start, so the anticipated case nearest to the estimated
    selectivity wins (log-distance, since selectivities span decades).

    ``query`` overrides the scenario set's stored query: a prepared
    statement re-executed with fresh parameter values passes its freshly
    bound query so the choice reflects the *current* values rather than the
    ones the scenario set was first built from.
    """
    import math

    if not parametric.scenarios:
        raise OptimizerError("parametric plan has no scenarios")
    actual = actual_parameter_selectivity(query or parametric.query, catalog)
    floor = 1e-6

    def distance(scenario: Scenario) -> float:
        return abs(
            math.log(max(scenario.assumed_selectivity, floor))
            - math.log(max(actual, floor))
        )

    best = min(parametric.scenarios, key=distance)
    return best, actual
