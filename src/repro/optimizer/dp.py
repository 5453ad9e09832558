"""System-R style dynamic-programming join enumeration.

Left-deep join trees over the query's relations, with hash join (either
input as the build side), indexed nested-loops join (when the inner relation
has an index on its join column), and block nested-loops (for non-equi or
cartesian steps) as the physical alternatives.  Cartesian products are
deferred until no connected extension exists — the classic System-R rule.

Paradise's optimizer was "built using the OPT++ architecture and uses a
conventional dynamic programming algorithm based on the System-R optimizer";
this module is our equivalent.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations
from typing import Callable

from ..errors import OptimizerError
from ..plans.logical import (
    ColumnExpr,
    CompareOp,
    Comparison,
    LogicalQuery,
    Predicate,
    qualifier_of,
)
from ..plans.physical import (
    BlockNLJoinNode,
    HashJoinNode,
    IndexNLJoinNode,
    PlanNode,
)
from ..stats.estimator import MIN_ROWS
from ..storage.catalog import Catalog
from .access_paths import best_access_path
from .annotate import PlanAnnotator

#: ``(lower bound on est.total_cost, plan-node factory, is connected)``.
_Candidate = tuple[float, Callable[[], PlanNode], bool]


class JoinEnumerator:
    """Enumerates join orders for one bound query.

    Relation sets are bitmasks over the FROM-clause positions: bit ``i`` is
    ``query.relations[i]``.

    Enumeration is *bound, order, then build*: a candidate's lower bound is
    its inputs' cost plus the annotator's own ``*_join_cost`` formula at the
    smallest output the estimator can return.  The formulas are sums of
    products of non-negative terms and IEEE rounding is monotone, so
    ``bound <= cost`` holds to the last bit, and building only candidates
    whose bound can still win returns the plan that costing all of them
    returns (``tests/exhaustive_dp.py``).
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
        #: ``(predicate, relation mask, equi columns)`` for every predicate
        #: a join can apply; ``equi columns`` is ``(left, right, bit of
        #: left's relation)`` for ``a.x = b.y`` and None otherwise.
        #: ``_classify_predicates`` runs at every DP extension step, so
        #: ``qualifiers()`` and ``is_equi_join`` are evaluated once here.
        self._predicate_masks: list[tuple[Predicate, int, tuple | None]] = []
        for pred in query.predicates:
            bits = [self._bit.get(q) for q in pred.qualifiers()]
            if bits and None not in bits:
                equi = None
                if isinstance(pred, Comparison) and pred.is_equi_join:
                    left_col: str = pred.left.name  # type: ignore[union-attr]
                    right_col: str = pred.right.name  # type: ignore[union-attr]
                    equi = (left_col, right_col, self._bit[qualifier_of(left_col)])
                self._predicate_masks.append((pred, sum(bits), equi))
        #: Memoized best access path per alias.  ``_join_candidates`` needs
        #: the leaf for the newly added relation at every one of the
        #: O(n * 2^n) DP extension steps; the leaf only depends on the
        #: relation and its selection predicates, so it is computed once.
        self._leaf_cache: dict[str, PlanNode] = {}
        #: Memoized per-alias selection predicates (scanned from the full
        #: predicate list otherwise — quadratic in practice).
        self._selection_cache: dict[str, list[Predicate]] = {}
        #: ``catalog.index_on``, asked per equi-join pair at every step.
        self._index_on = cache(catalog.index_on)
        #: Work counters for this enumeration (exact, hardware-independent):
        #: candidates annotated, and candidates their bound ruled out.
        self.subsets_enumerated = 0
        self.candidates_costed = 0
        self.candidates_pruned = 0

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
                # ``members`` is in FROM-clause order, so candidates are
                # generated, and cost ties broken, the same way in every
                # interpreter (iterating a set of alias strings made the
                # plan depend on PYTHONHASHSEED).
                candidates: list[_Candidate] = []
                for i in members:
                    rest = subset ^ (1 << i)
                    left = best.get(rest)
                    if left is not None:
                        candidates += self._join_candidates(left, rest, i)
                winner = self._cheapest(candidates)
                if winner is not None:
                    best[subset] = winner
        plan = best.get((1 << count) - 1)
        if plan is None:
            raise OptimizerError("join enumeration failed to cover all relations")
        return plan

    def _cheapest(self, candidates: list[_Candidate]) -> PlanNode | None:
        """The first candidate, in generation order, of minimal cost.

        System-R's rule that a connected extension beats a cartesian one
        whatever it costs is settled before costing: a subset with a
        connected candidate never looks at the others.  The rest are
        visited in ascending ``(bound, generation number)``; once that is
        above the incumbent's ``(cost, number)`` neither this candidate nor
        any later one can be the first minimum.
        """
        connected = any(is_connected for __, __, is_connected in candidates)
        pool = sorted(
            (bound, number, build)
            for number, (bound, build, is_connected) in enumerate(candidates)
            if is_connected or not connected
        )
        winner, best_key, costed = None, None, 0
        for bound, number, build in pool:
            if winner is not None and (bound, number) > best_key:
                break
            # Children (the best sub-plan and the leaf access path) are
            # already annotated; only the new join node needs costing.
            plan = self.annotator.annotate_node(build())
            costed += 1
            key = (plan.est.total_cost, number)
            if winner is None or key < best_key:
                winner, best_key = plan, key
        self.candidates_costed += costed
        self.candidates_pruned += len(candidates) - costed
        return winner

    # ------------------------------------------------------------------

    def _join_candidates(
        self, left: PlanNode, left_mask: int, new_index: int
    ) -> list[_Candidate]:
        """Physical join alternatives adding relation ``new_index`` to ``left``."""
        relation = self.query.relations[new_index]
        key_pairs, residual = self._classify_predicates(left_mask, 1 << new_index)
        right = self._leaf(relation.alias)
        annotator = self.annotator
        params = annotator.cost_model.params
        inputs_cost = left.est.total_cost + right.est.total_cost
        if not key_pairs:
            # Every applicable predicate spans both inputs, so any residual
            # connects them; none at all makes this a cartesian product.
            # Block NL never reads its output size: the bound is exact.
            cost = annotator.block_nl_join_cost(left.est, right.est)[2]
            build = partial(BlockNLJoinNode, left, right, residual)
            return [(cost.total_units(params) + inputs_cost, build, bool(residual))]
        candidates: list[_Candidate] = []
        # Hash join: the existing tree as build side, then the new relation.
        for build_side, probe_side, pairs in (
            (left, right, key_pairs),
            (right, left, [(r, l) for l, r in key_pairs]),
        ):
            cost = annotator.hash_join_cost(build_side.est, probe_side.est, MIN_ROWS)[2]
            build = partial(HashJoinNode, build_side, probe_side, pairs, residual)
            candidates.append((cost.total_units(params) + inputs_cost, build, True))
        # Indexed nested loops, probing the new relation's index.
        for pair in key_pairs:
            inner_base = pair[1].rsplit(".", 1)[-1]
            index = self._index_on(relation.table_name, inner_base)
            if index is None:
                continue
            inl_residual = residual + self._selection_predicates(relation.alias)
            inl_residual += [_equality(*other) for other in key_pairs if other != pair]
            cost = annotator.index_nl_join_cost(left.est, index, 0.0, 0.0)
            build = partial(
                IndexNLJoinNode, left, relation.table_name, relation.alias,
                # The leaf's schema is the table's, qualified by this alias;
                # schemas are immutable.
                right.schema, pair[0], inner_base, inl_residual,
            )
            candidates.append((cost.total_units(params) + left.est.total_cost, build, True))
        return candidates

    def _classify_predicates(
        self, left_mask: int, new_bit: int
    ) -> tuple[list[tuple[str, str]], list[Predicate]]:
        """Split predicates into equi-join key pairs and residual conjuncts.

        A predicate becomes applicable at this join when its relations fit
        inside ``left_mask`` plus the new relation but not inside
        ``left_mask`` alone (those were applied below) and not inside the
        new relation alone (applied at the leaf).
        """
        outside = ~(left_mask | new_bit)
        key_pairs: list[tuple[str, str]] = []
        residual: list[Predicate] = []
        for pred, mask, equi in self._predicate_masks:
            if mask & outside or not mask & new_bit or not mask & left_mask:
                continue
            if equi is None:
                residual.append(pred)
            else:
                # Two relations, one on each side of this join (the mask
                # test above): orient the pair as (left input, new relation).
                left_col, right_col, left_bit = equi
                if left_bit == new_bit:
                    left_col, right_col = right_col, left_col
                key_pairs.append((left_col, right_col))
        return key_pairs, residual


def _equality(left_col: str, right_col: str) -> Predicate:
    """Build an ``a = b`` residual predicate between two columns."""
    return Comparison(CompareOp.EQ, ColumnExpr(left_col), ColumnExpr(right_col))
