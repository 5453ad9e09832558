"""Cost-bounded join enumeration against the exhaustive reference.

``tests/exhaustive_dp.py`` is the previous enumerator, verbatim: it builds
and annotates every candidate of every relation subset.  The enumerator in
``src/`` orders each extension group on its input's cost, generates a
group's candidates with their lower bounds only when its visit reaches the
group, and annotates only the candidates that can still win.  Everything
here holds the two to the same plan — node for node, float for float — and
holds the bound itself to ``bound <= annotated cost`` on every candidate,
including the ones the enumerator never looks at.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.config import CostParameters
from repro.optimizer import optimizer as optimizer_module
from repro.optimizer.annotate import PlanAnnotator
from repro.optimizer.cost_model import CostModel, OperatorCost
from repro.optimizer.dp import JoinEnumerator
from repro.optimizer.optimizer import Optimizer
from repro.plans.physical import (
    BlockNLJoinNode,
    HashAggregateNode,
    HashJoinNode,
    IndexNLJoinNode,
    PlanNode,
    ProjectNode,
)
from repro.stats.estimator import MIN_ROWS
from repro.workloads.tpcd import ALL_QUERIES, query_by_name

from .exhaustive_dp import ExhaustiveJoinEnumerator
from .test_random_queries import build_random_db, random_join_graph_query, random_query

pytestmark = pytest.mark.hashseed


def _sql(predicates) -> tuple[str, ...]:
    return tuple(p.sql() for p in predicates)


def _describe(node: PlanNode) -> tuple:
    if isinstance(node, HashJoinNode):
        return (node.key_pairs, _sql(node.residual))
    if isinstance(node, IndexNLJoinNode):
        return (
            node.inner_table, node.inner_alias, node.outer_column,
            node.inner_column, _sql(node.residual),
        )
    if isinstance(node, BlockNLJoinNode):
        return _sql(node.predicates)
    return (node.detail(),)


def plan_shape(plan: PlanNode) -> list[tuple]:
    """Everything two equal plans share: pre-order operators with their
    arity, keys, residuals, exact estimates, memory demands, and where each
    node's id ranks among the tree's ids."""
    nodes = list(plan.walk())
    rank = {nid: k for k, nid in enumerate(sorted(n.node_id for n in nodes))}
    return [
        (
            type(n).__name__, len(n.children), _describe(n),
            repr(n.est.total_cost), repr(n.est.rows),
            n.est.min_memory_pages, n.est.max_memory_pages, rank[n.node_id],
        )
        for n in nodes
    ]


def join_root(plan: PlanNode) -> PlanNode:
    """The enumerator's plan under ``Optimizer._add_output_operators``."""
    while not isinstance(plan, (HashAggregateNode, ProjectNode)):
        plan = plan.children[0]
    return plan.children[0]


@contextmanager
def oracle_checked(cost_model=None):
    """Check every ``Optimizer.optimize`` call made inside the block.

    Each call — initial plans and the mid-query remainder re-plans alike —
    is repeated through the exhaustive enumerator on the same query,
    catalog, estimator and overrides and must return the same join plan
    while accounting for every candidate the reference costed; and every
    candidate of every extension group the pruned enumerator generates,
    expanded or not, is annotated to check its bound, and its ``(bound, i,
    j)`` must come after its group's key.  Yields the log of checked calls
    as ``(aliases, costed, pruned)``.
    """
    log: list[tuple[tuple[str, ...], int, int]] = []
    real_optimize = Optimizer.optimize
    real_groups = JoinEnumerator._groups

    def optimize(self, query, profile_overrides=None):
        costed, pruned, subsets = (
            self.candidates_costed, self.candidates_pruned, self.subsets_enumerated,
        )
        plan = real_optimize(self, query, profile_overrides)
        costed = self.candidates_costed - costed
        pruned = self.candidates_pruned - pruned
        annotator = PlanAnnotator(
            self.catalog, self.estimator, self.cost_model,
            profile_overrides=profile_overrides,
        )
        reference = ExhaustiveJoinEnumerator(query, self.catalog, annotator)
        assert plan_shape(join_root(plan)) == plan_shape(reference.best_join_plan())
        assert costed + pruned == reference.candidates_costed
        assert self.subsets_enumerated - subsets == reference.subsets_enumerated
        log.append((tuple(reference.aliases), costed, pruned))
        return plan

    def groups(self, members, subset, best):
        connected, cartesian = real_groups(self, members, subset, best)
        for group in connected + cartesian:
            candidates = self._join_candidates(group)
            assert len(candidates) == group[1][3]
            for key, build in candidates:
                assert group[0] < key, (group[0], key)
                cost = self.annotator.annotate_node(build()).est.total_cost
                assert key[0] <= cost, (key[0], cost)
        return connected, cartesian

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Optimizer, "optimize", optimize)
        patch.setattr(JoinEnumerator, "_groups", groups)
        if cost_model is not None:
            patch.setattr(optimizer_module, "CostModel", cost_model)
        yield log


# ----------------------------------------------------------------------
# The seven paper queries: initial plans and remainder re-plans
# ----------------------------------------------------------------------

FIGURE_10 = (0.01, 192)
CONFIGURATIONS = [FIGURE_10, (0.02, 256)]
SWITCHING = ("Q5", "Q7", "Q8")


@pytest.fixture(scope="module", params=CONFIGURATIONS, ids=lambda p: f"sf{p[0]}-{p[1]}p")
def tpcd(request):
    scale, pages = request.param
    config = ExperimentConfig(scale_factor=scale, memory_pages=pages, seed=31)
    return build_database(config), request.param


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
def test_paper_queries_plan_like_the_exhaustive_enumerator(tpcd, query):
    db, configuration = tpcd
    with oracle_checked() as log:
        db.plan(query.sql, mode=DynamicMode.OFF)
        # FULL drives the remainder re-plan over the temp table's observed
        # statistics.
        profile = db.execute(query.sql, mode=DynamicMode.FULL).profile
    remainders = [aliases for aliases, __, __ in log if len(aliases) < len(log[0][0])]
    assert len(remainders) >= profile.plan_switches
    if configuration == FIGURE_10:
        assert profile.plan_switches == (1 if query.name in SWITCHING else 0)
        assert len(remainders) == profile.plan_switches
    if query.join_count >= 5:
        # The point of the bound: most candidates are never built.
        __, costed, pruned = log[0]
        assert costed * 4 <= costed + pruned


#: ``(groups visited, groups expanded)`` of a cold ``OFF`` plan, seed 31: a
#: group enters a subset's visit after the connected-beats-cartesian split
#: and is expanded into candidates only if the visit reaches its key.
GROUP_PINS = {
    FIGURE_10: {"Q5": (167, 113), "Q7": (168, 101), "Q8": (821, 462)},
    (0.02, 256): {"Q5": (167, 115), "Q7": (168, 98), "Q8": (821, 435)},
}


@pytest.mark.parametrize("name", SWITCHING)
def test_groups_are_expanded_only_when_the_visit_reaches_them(tpcd, name):
    db, configuration = tpcd
    counts = [0, 0]
    real_groups = JoinEnumerator._groups
    real_candidates = JoinEnumerator._join_candidates

    def groups(self, members, subset, best):
        connected, cartesian = real_groups(self, members, subset, best)
        counts[0] += len(connected or cartesian)
        return connected, cartesian

    def join_candidates(self, group):
        counts[1] += 1
        return real_candidates(self, group)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JoinEnumerator, "_groups", groups)
        patch.setattr(JoinEnumerator, "_join_candidates", join_candidates)
        db.plan(query_by_name(name).sql, mode=DynamicMode.OFF)
    assert tuple(counts) == GROUP_PINS[configuration][name]


# ----------------------------------------------------------------------
# Generated join graphs, and cost models that tie
# ----------------------------------------------------------------------


class QuantisedCostModel(CostModel):
    """Every operator cost rounded down to a multiple of ``quantum``.

    Still monotone in every cardinality, so still a model the bound is
    sound for — and full of candidates whose costs, and whose bounds and
    costs, are exactly equal, which real parameters almost never produce:
    the first-in-FROM-order tie-break decides most subsets here.
    """

    def __init__(self, config: EngineConfig, quantum: float) -> None:
        super().__init__(config)
        self.quantum = quantum

    def _quantised(self, cost: OperatorCost) -> OperatorCost:
        units = cost.total_units(self.params)
        return OperatorCost(cpu_units=math.floor(units / self.quantum) * self.quantum)

    def seq_scan(self, *args, **kwargs):
        return self._quantised(super().seq_scan(*args, **kwargs))

    def index_scan(self, *args, **kwargs):
        return self._quantised(super().index_scan(*args, **kwargs))

    def filter(self, *args, **kwargs):
        return self._quantised(super().filter(*args, **kwargs))

    def hash_join(self, *args, **kwargs):
        return self._quantised(super().hash_join(*args, **kwargs))

    def index_nl_join(self, *args, **kwargs):
        return self._quantised(super().index_nl_join(*args, **kwargs))

    def block_nl_join(self, *args, **kwargs):
        return self._quantised(super().block_nl_join(*args, **kwargs))


def generated_statements(seed: int) -> tuple[Database, list[str]]:
    """A random database (every third one indexed) and six statements over
    it: connected chains and the irregular graphs."""
    tables = 3 + seed % 3
    db = build_random_db(seed, tables)
    if seed % 3 == 0:
        for i in range(1, tables):
            db.create_index(f"ix_t{i}", f"t{i}", f"t{i - 1}_k")
        db.create_index("ix_t0", "t0", "k")
    rng = random.Random(seed * 17 + 3)
    statements = [random_query(rng, tables) for __ in range(2)]
    statements += [random_join_graph_query(rng, tables) for __ in range(4)]
    return db, statements


def check_generated(seed: int, quantum: float | None) -> None:
    db, statements = generated_statements(seed)
    cost_model = None if quantum is None else partial(QuantisedCostModel, quantum=quantum)
    with oracle_checked(cost_model) as log:
        for sql in statements:
            db.plan(sql, mode=DynamicMode.OFF)
    assert len(log) == len(statements)


@pytest.mark.parametrize("seed", range(24))
def test_generated_join_graphs(seed):
    check_generated(seed, None)


@pytest.mark.parametrize("quantum", [0.01, 0.1, 1.0, 16.0])
@pytest.mark.parametrize("seed", range(20))
def test_generated_join_graphs_under_tying_costs(seed, quantum):
    check_generated(seed, quantum)


@given(
    seed=st.integers(min_value=100, max_value=100_000),
    quantum=st.sampled_from([None, 0.01, 0.1, 1.0, 16.0]),
)
@settings(max_examples=25, deadline=None)
def test_property_generated_join_graphs(seed, quantum):
    check_generated(seed, quantum)


def test_same_table_twice_keeps_the_from_order_tie_break():
    """Two aliases of one table, no predicate: every subset's candidates
    cost exactly the same and the first generated (the extension that adds
    the earliest FROM position) must win."""
    db = build_random_db(5)
    with oracle_checked():
        plan, __, optimizer = db.plan(
            "SELECT a.v x, c.v y FROM t1 a, t1 b, t1 c", mode=DynamicMode.OFF
        )
    join = join_root(plan)
    assert isinstance(join, BlockNLJoinNode) and isinstance(join.outer, BlockNLJoinNode)
    assert [n.alias for n in join.walk() if not n.children] == ["c", "b", "a"]
    # Equal bounds, exact for block NL: one candidate costed per subset.
    assert optimizer.candidates_costed == optimizer.subsets_enumerated == 4


def two_relation_groups(enumerator: JoinEnumerator) -> tuple[list, list]:
    """``(connected, cartesian)`` extension groups of a two-relation query's
    one subset: ``(first, second)``, then ``(second, first)``."""
    best = {1 << i: enumerator._leaf(alias) for i, alias in enumerate(enumerator.aliases)}
    return enumerator._groups((0, 1), 3, best)


def test_bound_is_attained_at_the_estimators_floor():
    """Key-to-key joins of one-row inputs: the estimated output is exactly
    ``MIN_ROWS``, so a hash join's bound equals its cost — a bound taken
    any higher than the estimator's floor would exceed it."""
    db = Database()
    for name in ("a", "b"):
        db.create_table(name, [("k", DataType.INTEGER), ("v", DataType.INTEGER)], key=["k"])
        db.load_rows(name, [(i, i) for i in range(40)])
    db.analyze()
    query = db.bind_sql("SELECT a.v x FROM a, b WHERE a.k = b.k AND a.v = 3 AND b.v = 4")
    optimizer = Optimizer(db.catalog, db.config, db.estimator)
    enumerator = JoinEnumerator(query, db.catalog, optimizer.annotator())
    connected, cartesian = two_relation_groups(enumerator)
    assert len(connected) == 2 and not cartesian
    attained = 0
    for (bound, __, __), build in enumerator._join_candidates(connected[1]):
        plan = enumerator.annotator.annotate_node(build())
        assert bound <= plan.est.total_cost
        if isinstance(plan, HashJoinNode):
            assert plan.est.rows == MIN_ROWS
            attained += bound == plan.est.total_cost
    assert attained == 2
    with oracle_checked():
        db.plan("SELECT a.v x FROM a, b WHERE a.k = b.k AND a.v = 3 AND b.v = 4")


# ----------------------------------------------------------------------
# Bound soundness over the input space
# ----------------------------------------------------------------------

unit_costs = st.floats(min_value=1e-6, max_value=50.0, allow_nan=False)


@given(
    actual_rows=st.tuples(st.integers(1, 400), st.integers(1, 400)),
    row_factors=st.tuples(
        st.floats(min_value=1e-3, max_value=1e13), st.floats(min_value=1e-3, max_value=1e13)
    ),
    row_bytes=st.tuples(st.floats(min_value=1, max_value=20_000), st.floats(1, 20_000)),
    index=st.sampled_from([None, "clustered", "unclustered"]),
    predicate=st.sampled_from(["a.k = b.k", "a.k = b.k AND a.v < b.v", "a.v < b.v", ""]),
    grant_fraction=st.floats(min_value=0.0, max_value=3.0),
    fudge=st.floats(min_value=1.0, max_value=2.0),
    costs=st.tuples(*[unit_costs] * 6),
)
@settings(max_examples=120, deadline=None)
def test_property_bound_never_exceeds_the_annotated_cost(
    actual_rows, row_factors, row_bytes, index, predicate, grant_fraction, fudge, costs
):
    seq, rand, write, per_tuple, compare, hash_cpu = costs
    config = EngineConfig(
        hash_fudge_factor=fudge,
        cost=CostParameters(
            seq_page_read=seq, rand_page_read=rand, page_write=write,
            cpu_per_tuple=per_tuple, cpu_per_compare=compare,
            cpu_hash_build=hash_cpu, cpu_hash_probe=hash_cpu / 2,
        ),
    )
    db = Database(config)
    for name, count in zip("ab", actual_rows):
        db.create_table(name, [("k", DataType.INTEGER), ("v", DataType.INTEGER)], key=["k"])
        db.load_rows(name, [(i, i % 7) for i in range(count)])
    if index is not None:
        db.create_index("ix_b", "b", "k", clustered=index == "clustered")
    db.analyze()
    for name, factor, width in zip("ab", row_factors, row_bytes):
        stats = db.catalog.stats_for(name).scaled_rows(factor)
        db.catalog.set_stats(name, replace(stats, avg_row_bytes=width))
    where = f" WHERE {predicate}" if predicate else ""
    query = db.bind_sql(f"SELECT a.v x FROM a, b{where}")
    optimizer = Optimizer(db.catalog, db.config, db.estimator)
    enumerator = JoinEnumerator(query, db.catalog, optimizer.annotator())
    kinds = set()
    connected, cartesian = two_relation_groups(enumerator)
    for group in connected + cartesian:
        for (bound, __, __), build in enumerator._join_candidates(group):
            plan = build()
            kinds.add(type(plan))
            at_maximum = optimizer.annotator().annotate_node(plan).est
            assert bound <= at_maximum.total_cost
            # Any grant, below or above fudge x build pages, only costs more.
            grant = max(1, int(at_maximum.max_memory_pages * grant_fraction))
            granted = optimizer.annotator(allocation={plan.node_id: grant})
            assert bound <= granted.annotate_node(plan).est.total_cost
    if predicate.startswith("a.k"):
        assert HashJoinNode in kinds and (index is None or IndexNLJoinNode in kinds)
    else:
        assert kinds == {BlockNLJoinNode}


def test_infinite_estimates_never_reach_the_bound():
    """``pages_for`` refuses an infinite cardinality, so annotating the
    access path fails before the enumerator bounds anything over it."""
    db = build_random_db(3)
    db.catalog.set_stats("t0", db.catalog.stats_for("t0").scaled_rows(math.inf))
    with pytest.raises(OverflowError):
        db.plan("SELECT t0.v a FROM t0, t1 WHERE t1.t0_k = t0.k", mode=DynamicMode.OFF)
