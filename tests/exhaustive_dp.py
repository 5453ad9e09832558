"""The exhaustive join enumerator, kept as the reference for the pruned one.

:class:`~repro.optimizer.dp.JoinEnumerator` used to build a plan node for
*every* candidate of every relation subset, annotate it and keep the
cheapest; it now bounds candidates first and annotates only those that can
still win.  This is the original class, verbatim apart from its name and
absolute imports: ``tests/test_dp_pruning.py`` requires the pruned
enumerator to return the plan this one returns, node for node and float
for float, and ``candidates_costed`` here is the number of candidates the
pruned one must account for as costed + pruned.
"""

from __future__ import annotations

from itertools import combinations

from repro.errors import OptimizerError
from repro.optimizer.access_paths import best_access_path
from repro.optimizer.annotate import PlanAnnotator
from repro.plans.logical import (
    ColumnExpr,
    CompareOp,
    Comparison,
    LogicalQuery,
    Predicate,
    qualifier_of,
)
from repro.plans.physical import (
    BlockNLJoinNode,
    HashJoinNode,
    IndexNLJoinNode,
    PlanNode,
)
from repro.storage.catalog import Catalog


class ExhaustiveJoinEnumerator:
    """Enumerates join orders for one bound query.

    Relation sets are bitmasks over the FROM-clause positions: bit ``i`` is
    ``query.relations[i]``.
    """

    def __init__(
        self,
        query: LogicalQuery,
        catalog: Catalog,
        annotator: PlanAnnotator,
    ) -> None:
        self.query = query
        self.catalog = catalog
        self.annotator = annotator
        self.aliases = [rel.alias for rel in query.relations]
        self._bit = {alias: 1 << i for i, alias in enumerate(self.aliases)}
        #: ``(predicate, relation mask)`` for every predicate a join can
        #: apply.  ``qualifiers()`` walks the expression tree, and
        #: ``_classify_predicates`` runs at every DP extension step, so the
        #: masks are computed once here.
        self._predicate_masks: list[tuple[Predicate, int]] = []
        for pred in query.predicates:
            bits = [self._bit.get(q) for q in pred.qualifiers()]
            if bits and None not in bits:
                self._predicate_masks.append((pred, sum(bits)))
        #: Memoized best access path per alias.  ``_join_candidates`` needs
        #: the leaf for the newly added relation at every one of the
        #: O(n * 2^n) DP extension steps; the leaf only depends on the
        #: relation and its selection predicates, so it is computed once.
        self._leaf_cache: dict[str, PlanNode] = {}
        #: Memoized per-alias selection predicates (scanned from the full
        #: predicate list otherwise — quadratic in practice).
        self._selection_cache: dict[str, list[Predicate]] = {}
        #: Work counters for this enumeration (exact, hardware-independent).
        self.subsets_enumerated = 0
        self.candidates_costed = 0

    # ------------------------------------------------------------------

    def _selection_predicates(self, alias: str) -> list[Predicate]:
        """Cached ``query.selection_predicates(alias)``."""
        preds = self._selection_cache.get(alias)
        if preds is None:
            preds = self._selection_cache[alias] = list(
                self.query.selection_predicates(alias)
            )
        return preds

    def _leaf(self, alias: str) -> PlanNode:
        """Cached best access path for one relation.

        Sharing the node object across candidate joins mirrors how DP
        already shares best sub-plans: enumeration never mutates children,
        and each alias appears at most once in the final left-deep tree, so
        the winning plan contains each shared leaf exactly once.
        """
        leaf = self._leaf_cache.get(alias)
        if leaf is None:
            relation = self.query.relation_for_alias(alias)
            leaf = self._leaf_cache[alias] = best_access_path(
                relation,
                self._selection_predicates(alias),
                self.catalog,
                self.annotator,
            )
        return leaf

    def best_join_plan(self) -> PlanNode:
        """The cheapest left-deep join plan covering every relation."""
        if not self.aliases:
            raise OptimizerError("query has no relations")
        count = len(self.aliases)
        best: dict[int, PlanNode] = {
            1 << i: self._leaf(alias) for i, alias in enumerate(self.aliases)
        }
        for size in range(2, count + 1):
            for members in combinations(range(count), size):
                subset = sum(1 << i for i in members)
                self.subsets_enumerated += 1
                # Dominated candidates are pruned as they are produced.
                # Strict < keeps the first-minimal candidate, and
                # ``members`` is in FROM-clause order, so cost ties break
                # the same way in every interpreter (iterating a set of
                # alias strings made the plan depend on PYTHONHASHSEED).
                best_connected: PlanNode | None = None
                best_any: PlanNode | None = None
                for i in members:
                    rest = subset ^ (1 << i)
                    left = best.get(rest)
                    if left is None:
                        continue
                    for plan, is_connected in self._join_candidates(left, rest, i):
                        # Children (the best sub-plan and the leaf access
                        # path) are already annotated; only the new join
                        # node needs costing.
                        self.annotator.annotate_node(plan)
                        self.candidates_costed += 1
                        cost = plan.est.total_cost
                        if is_connected and (
                            best_connected is None
                            or cost < best_connected.est.total_cost
                        ):
                            best_connected = plan
                        if best_any is None or cost < best_any.est.total_cost:
                            best_any = plan
                winner = best_connected if best_connected is not None else best_any
                if winner is not None:
                    best[subset] = winner
        plan = best.get((1 << count) - 1)
        if plan is None:
            raise OptimizerError("join enumeration failed to cover all relations")
        return plan

    # ------------------------------------------------------------------

    def _join_candidates(
        self, left: PlanNode, left_mask: int, new_index: int
    ) -> list[tuple[PlanNode, bool]]:
        """Physical join alternatives adding relation ``new_index`` to ``left``."""
        relation = self.query.relations[new_index]
        new_alias = relation.alias
        key_pairs, residual = self._classify_predicates(left_mask, new_alias)
        candidates: list[tuple[PlanNode, bool]] = []

        right = self._leaf(new_alias)

        if key_pairs:
            # Hash join, existing tree as build side.
            candidates.append(
                (HashJoinNode(left, right, key_pairs, residual), True)
            )
            # Hash join, new relation as build side.
            swapped = [(r, l) for l, r in key_pairs]
            candidates.append(
                (HashJoinNode(right, left, swapped, residual), True)
            )
            # Indexed nested loops, probing the new relation's index.
            for outer_col, inner_col in key_pairs:
                inner_base = inner_col.rsplit(".", 1)[-1]
                index = self.catalog.index_on(relation.table_name, inner_base)
                if index is None:
                    continue
                inl_residual = list(residual)
                inl_residual.extend(self._selection_predicates(new_alias))
                other_pairs = [
                    pair for pair in key_pairs if pair != (outer_col, inner_col)
                ]
                for lcol, rcol in other_pairs:
                    inl_residual.append(_equality(lcol, rcol))
                candidates.append(
                    (
                        IndexNLJoinNode(
                            outer=left,
                            inner_table=relation.table_name,
                            inner_alias=new_alias,
                            # The leaf's schema is the table's, qualified
                            # by this alias; schemas are immutable.
                            inner_schema=right.schema,
                            outer_column=outer_col,
                            inner_column=inner_base,
                            residual=inl_residual,
                        ),
                        True,
                    )
                )
        else:
            # Every applicable predicate spans both inputs, so any residual
            # connects them; none at all makes this a cartesian product.
            candidates.append(
                (BlockNLJoinNode(left, right, residual), bool(residual))
            )
        return candidates

    def _classify_predicates(
        self, left_mask: int, new_alias: str
    ) -> tuple[list[tuple[str, str]], list[Predicate]]:
        """Split predicates into equi-join key pairs and residual conjuncts.

        A predicate becomes applicable at this join when its relations fit
        inside ``left_mask`` plus the new relation but not inside
        ``left_mask`` alone (those were applied below) and not inside the
        new relation alone (applied at the leaf).
        """
        new_bit = self._bit[new_alias]
        outside = ~(left_mask | new_bit)
        key_pairs: list[tuple[str, str]] = []
        residual: list[Predicate] = []
        for pred, mask in self._predicate_masks:
            if mask & outside or not mask & new_bit or not mask & left_mask:
                continue
            if isinstance(pred, Comparison) and pred.is_equi_join:
                # Two relations, one on each side of this join (the mask
                # test above): orient the pair as (left input, new relation).
                left_col, right_col = pred.left.name, pred.right.name  # type: ignore[union-attr]
                if qualifier_of(left_col) == new_alias:
                    left_col, right_col = right_col, left_col
                key_pairs.append((left_col, right_col))
            else:
                residual.append(pred)
        return key_pairs, residual


def _equality(left_col: str, right_col: str) -> Predicate:
    """Build an ``a = b`` residual predicate between two columns."""
    return Comparison(CompareOp.EQ, ColumnExpr(left_col), ColumnExpr(right_col))
