"""Access-path selection for base relations.

For each FROM-clause relation the optimizer considers a sequential scan and,
for every index whose column appears in a sargable predicate, an index scan
bounded by that predicate (residual predicates stay in a filter above).  The
cheapest annotated alternative wins — classic System-R access-path selection.

Host-variable comparisons *are* sargable (the executor knows the value) even
though the estimator treats their selectivity as unknown; this mirrors real
systems executing parameterised plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..plans.logical import BaseRelation, CompareOp, Comparison, ConstExpr, Predicate
from ..plans.physical import FilterNode, IndexScanNode, PlanNode, SeqScanNode
from ..storage.catalog import Catalog
from .annotate import PlanAnnotator


@dataclass
class _Bound:
    """Accumulated sargable bounds for one index column."""

    low: object | None = None
    high: object | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    predicates: list[Predicate] = None

    def __post_init__(self) -> None:
        if self.predicates is None:
            self.predicates = []

    def tighten_low(self, value: object, inclusive: bool) -> None:
        """Raise the lower bound if ``value`` is tighter."""
        if self.low is None or value > self.low or (value == self.low and not inclusive):
            self.low = value
            self.low_inclusive = inclusive

    def tighten_high(self, value: object, inclusive: bool) -> None:
        """Lower the upper bound if ``value`` is tighter."""
        if self.high is None or value < self.high or (value == self.high and not inclusive):
            self.high = value
            self.high_inclusive = inclusive

    @property
    def usable(self) -> bool:
        """Whether any bound was established."""
        return self.low is not None or self.high is not None


def sargable_bound(
    predicates: Sequence[Predicate], column: str
) -> _Bound:
    """Extract index bounds on ``column`` from a conjunctive predicate list."""
    bound = _Bound()
    for pred in predicates:
        if not isinstance(pred, Comparison) or pred.contains_function():
            continue
        normalized = pred.normalized()
        col_const = normalized.column_and_constant()
        if col_const is None or col_const[0] != column:
            continue
        if not isinstance(normalized.right, ConstExpr):
            continue
        value = col_const[1]
        op = normalized.op
        if op is CompareOp.EQ:
            bound.tighten_low(value, True)
            bound.tighten_high(value, True)
        elif op is CompareOp.GE:
            bound.tighten_low(value, True)
        elif op is CompareOp.GT:
            bound.tighten_low(value, False)
        elif op is CompareOp.LE:
            bound.tighten_high(value, True)
        elif op is CompareOp.LT:
            bound.tighten_high(value, False)
        else:
            continue
        # Once, whichever ends it tightened: the index scan's estimate
        # applies each bound predicate's selectivity.
        bound.predicates.append(pred)
    return bound


def access_path_candidates(
    relation: BaseRelation,
    predicates: Sequence[Predicate],
    catalog: Catalog,
) -> list[PlanNode]:
    """All access paths for one relation, with residual filters attached."""
    table = catalog.table(relation.table_name)
    schema = table.schema.qualify(relation.alias)
    candidates: list[PlanNode] = []

    scan: PlanNode = SeqScanNode(relation.table_name, relation.alias, schema)
    if predicates:
        scan = FilterNode(scan, predicates)
    candidates.append(scan)

    for index in catalog.indexes_for(relation.table_name):
        qualified = f"{relation.alias}.{index.column}"
        bound = sargable_bound(predicates, qualified)
        if not bound.usable:
            continue
        used = set(id(p) for p in bound.predicates)
        residual = [p for p in predicates if id(p) not in used]
        node: PlanNode = IndexScanNode(
            table_name=relation.table_name,
            alias=relation.alias,
            schema=schema,
            index_column=index.column,
            low=bound.low,
            high=bound.high,
            low_inclusive=bound.low_inclusive,
            high_inclusive=bound.high_inclusive,
            bound_predicates=bound.predicates,
        )
        if residual:
            node = FilterNode(node, residual)
        candidates.append(node)
    return candidates


def best_access_path(
    relation: BaseRelation,
    predicates: Sequence[Predicate],
    catalog: Catalog,
    annotator: PlanAnnotator,
) -> PlanNode:
    """The cheapest access path for one relation under current statistics."""
    candidates = access_path_candidates(relation, predicates, catalog)
    best: PlanNode | None = None
    for candidate in candidates:
        annotator.annotate(candidate)
        if best is None or candidate.est.total_cost < best.est.total_cost:
            best = candidate
    assert best is not None  # at least the sequential scan always exists
    return best
