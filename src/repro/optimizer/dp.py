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

from functools import partial
from heapq import heapify, heappop, heappush
from itertools import combinations

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

#: A visit entry: ``((cost, i, j), item)``.  A group, ``j == -1``, is the
#: extension ``(best[rest], leaf i)`` before its candidates exist: its cost
#: is ``best[rest].est.total_cost`` and its item ``(left, keys, residual,
#: candidate count)``.  A candidate, ``j >= 0``, is the ``j``-th physical
#: alternative of group ``i``: its cost is a lower bound on its
#: ``est.total_cost`` and its item the plan-node factory.
_Entry = tuple[tuple[float, int, int], object]


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
    returns (``tests/exhaustive_dp.py``).  Every candidate extending
    ``best[rest]`` costs at least ``best[rest].est.total_cost``, so a whole
    extension group is ordered on that number, ahead of its own candidates,
    and its candidates are generated only when the visit reaches it.
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
        bit = {alias: 1 << i for i, alias in enumerate(self.aliases)}
        #: Per relation ``i``: ``(relation mask, predicate, key pair, index)``
        #: for every predicate a join adding ``i`` can apply, in query
        #: order.  ``key pair`` is ``(other side, i's column)`` for an
        #: equi-join and None otherwise; ``index`` is the catalog's index on
        #: ``i``'s column of the pair, or None.
        self._joins: list[list[tuple]] = [[] for __ in self.aliases]
        for pred in query.predicates:
            bits = [bit.get(q) for q in pred.qualifiers()]
            if not bits or None in bits or len(bits) < 2:
                continue
            mask = sum(bits)
            for i, relation in enumerate(query.relations):
                if not mask >> i & 1:
                    continue
                pair = index = None
                if isinstance(pred, Comparison) and pred.is_equi_join:
                    pair = (pred.left.name, pred.right.name)  # type: ignore[union-attr]
                    if bit[qualifier_of(pair[0])] == 1 << i:
                        pair = pair[::-1]
                    index = catalog.index_on(relation.table_name, pair[1].rsplit(".", 1)[-1])
                self._joins[i].append((mask, pred, pair, index))
        #: Memoized best access path per alias.  ``_join_candidates`` needs
        #: the leaf for the newly added relation at every one of the
        #: O(n * 2^n) DP extension steps; the leaf only depends on the
        #: relation and its selection predicates, so it is computed once.
        self._leaf_cache: dict[str, PlanNode] = {}
        #: Memoized per-alias selection predicates (scanned from the full
        #: predicate list otherwise — quadratic in practice).
        self._selection_cache: dict[str, list[Predicate]] = {}
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
        """The cheapest left-deep join plan covering every relation.

        A subset's groups and candidates are visited in ascending ``(cost,
        i, j)`` from one heap: a group's key precedes every key of its own
        candidates, so they enter the heap before any of them could be
        next, and candidates come out in ``(bound, generation order)``
        exactly as if all had been bounded up front.  Once a key is above
        the incumbent's ``(cost, i, j)``, neither it nor anything after it
        can be the first candidate of minimal cost.
        """
        if not self.aliases:
            raise OptimizerError("query has no relations")
        count = len(self.aliases)
        best: dict[int, PlanNode] = {
            1 << i: self._leaf(alias) for i, alias in enumerate(self.aliases)
        }
        annotate = self.annotator.annotate_node
        for size in range(2, count + 1):
            for members in combinations(range(count), size):
                subset = sum(1 << i for i in members)
                self.subsets_enumerated += 1
                connected, cartesian = self._groups(members, subset, best)
                # System-R: a connected extension beats any cartesian one,
                # whatever it costs.  A cartesian group is one candidate.
                generated = sum(item[3] for __, item in connected) + len(cartesian)
                heap = connected or cartesian
                heapify(heap)
                winner, best_key, costed = None, None, 0
                while heap:
                    key, item = heappop(heap)
                    if best_key is not None and key > best_key:
                        break
                    if key[2] < 0:
                        for candidate in self._join_candidates((key, item)):
                            heappush(heap, candidate)
                        continue
                    # Children (the best sub-plan and the leaf access path)
                    # are already annotated; only the new join node needs
                    # costing.
                    plan = annotate(item())
                    costed += 1
                    plan_key = (plan.est.total_cost, key[1], key[2])
                    if best_key is None or plan_key < best_key:
                        winner, best_key = plan, plan_key
                best[subset] = winner
                self.candidates_costed += costed
                self.candidates_pruned += generated - costed
        return best[(1 << count) - 1]

    # ------------------------------------------------------------------

    def _groups(
        self, members: tuple[int, ...], subset: int, best: dict[int, PlanNode]
    ) -> tuple[list[_Entry], list[_Entry]]:
        """The extensions ``(best[subset - i], leaf i)`` of one subset, as
        ``(connected, cartesian)`` group entries in FROM-clause order (so
        cost ties break the same way in every interpreter).

        A predicate applies at the join adding ``i`` when its relations fit
        inside ``subset``: it touches ``i`` and another relation, so it was
        neither applied below nor at the leaf.
        """
        connected: list[_Entry] = []
        cartesian: list[_Entry] = []
        for i in members:
            left = best[subset ^ 1 << i]
            keys, residual, size = [], [], 2
            for mask, pred, pair, index in self._joins[i]:
                if mask & ~subset:
                    continue
                if pair is None:
                    residual.append(pred)
                else:
                    keys.append((pair, index))
                    size += index is not None
            entry = ((left.est.total_cost, i, -1), (left, keys, residual, size if keys else 1))
            (connected if keys or residual else cartesian).append(entry)
        return connected, cartesian

    def _join_candidates(self, group: _Entry) -> list[_Entry]:
        """The physical join alternatives of one group, keyed by their bound."""
        (__, i, __), (left, keys, residual, __) = group
        relation = self.query.relations[i]
        right = self._leaf(relation.alias)
        annotator = self.annotator
        params = annotator.cost_model.params
        inputs_cost = left.est.total_cost + right.est.total_cost
        if not keys:
            # Every applicable predicate spans both inputs, so any residual
            # connects them; none at all makes this a cartesian product.
            # Block NL never reads its output size: the bound is exact.
            cost = annotator.block_nl_join_cost(left.est, right.est)[2]
            build = partial(BlockNLJoinNode, left, right, residual)
            return [((cost.total_units(params) + inputs_cost, i, 0), build)]
        key_pairs = [pair for pair, __ in keys]
        candidates: list[_Entry] = []
        # Hash join: the existing tree as build side, then the new relation.
        for build_side, probe_side, pairs in (
            (left, right, key_pairs),
            (right, left, [(r, l) for l, r in key_pairs]),
        ):
            cost = annotator.hash_join_cost(build_side.est, probe_side.est, MIN_ROWS)[2]
            build = partial(HashJoinNode, build_side, probe_side, pairs, residual)
            candidates.append(((cost.total_units(params) + inputs_cost, i, len(candidates)), build))
        # Indexed nested loops, probing the new relation's index.
        for pair, index in keys:
            if index is None:
                continue
            inl_residual = residual + self._selection_predicates(relation.alias)
            inl_residual += [_equality(*other) for other in key_pairs if other != pair]
            cost = annotator.index_nl_join_cost(left.est, index, 0.0, 0.0)
            build = partial(
                IndexNLJoinNode, left, relation.table_name, relation.alias,
                # The leaf's schema is the table's, qualified by this alias;
                # schemas are immutable.
                right.schema, pair[0], pair[1].rsplit(".", 1)[-1], inl_residual,
            )
            bound = cost.total_units(params) + left.est.total_cost
            candidates.append(((bound, i, len(candidates)), build))
        return candidates


def _equality(left_col: str, right_col: str) -> Predicate:
    """Build an ``a = b`` residual predicate between two columns."""
    return Comparison(CompareOp.EQ, ColumnExpr(left_col), ColumnExpr(right_col))
