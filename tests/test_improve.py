"""Unit tests for improved-estimate propagation and remaining-cost math."""

import pytest

from repro import Database, DynamicMode
from repro.bench import ExperimentConfig, build_database
from repro.core import reoptimizer
from repro.core.improve import (
    apply_improved_estimates,
    blocking_consumer,
    hash_join_probe_remaining,
    observed_profiles,
    parent_of,
    remaining_cost,
)
from repro.executor.collector import ObservedStatistics
from repro.plans.physical import HashJoinNode, StatsCollectorNode
from repro.plans.printer import collector_nodes
from repro.workloads.tpcd import ALL_QUERIES, query_by_name

from .conftest import make_two_table_db
from .oracle import runtime_context

SQL = (
    "SELECT r1.a, sum(r2.c) s FROM r1, r2 "
    "WHERE r1.id = r2.r1_id AND r1.a < 50 GROUP BY r1.a"
)


@pytest.fixture
def setup():
    db = make_two_table_db(r1_rows=5000, r2_rows=20_000)
    plan, scia, optimizer = db.plan(SQL, mode=DynamicMode.FULL)
    ctx = runtime_context(db)
    return db, plan, optimizer, ctx


class TestTreeHelpers:
    def test_parent_of(self, setup):
        __, plan, __o, __c = setup
        for node in plan.walk():
            for child in node.children:
                assert parent_of(plan, child.node_id) is node
        assert parent_of(plan, plan.node_id) is None

    def test_blocking_consumer_is_collector_parent(self, setup):
        __, plan, __o, __c = setup
        collectors = collector_nodes(plan)
        assert collectors
        for collector in collectors:
            consumer = blocking_consumer(plan, collector.node_id)
            assert consumer is not None and consumer.is_blocking


class TestImprovedEstimates:
    def test_observed_profiles_only_for_seen_collectors(self, setup):
        __, plan, __o, ctx = setup
        assert observed_profiles(plan, ctx.observed) == {}
        collector = collector_nodes(plan)[0]
        ctx.observed[collector.node_id] = ObservedStatistics(
            node_id=collector.node_id, row_count=123, row_bytes=20.0
        )
        overrides = observed_profiles(plan, ctx.observed)
        assert set(overrides) == {collector.node_id}
        assert overrides[collector.node_id].rows == 123

    def test_apply_improved_estimates_changes_downstream(self, setup):
        __, plan, optimizer, ctx = setup
        optimizer.annotator().annotate(plan)
        before_total = plan.est.total_cost
        collector = collector_nodes(plan)[0]
        # Pretend the collector saw 10x the estimated rows.
        ctx.observed[collector.node_id] = ObservedStatistics(
            node_id=collector.node_id,
            row_count=int(collector.est.rows * 10) + 1,
            row_bytes=collector.est.row_bytes,
        )
        apply_improved_estimates(plan, optimizer, ctx, collector.node_id, {})
        assert plan.est.total_cost > before_total

    def test_remaining_cost_excludes_completed(self, setup):
        __, plan, optimizer, ctx = setup
        optimizer.annotator().annotate(plan)
        full = remaining_cost(plan, ctx, optimizer.cost_model)
        assert full == pytest.approx(
            sum(n.est.op_cost for n in plan.walk())
        )
        # Mark the deepest subtree completed: remaining shrinks accordingly.
        some_leaf = [n for n in plan.walk() if not n.children][0]
        ctx.completed.add(some_leaf.node_id)
        reduced = remaining_cost(plan, ctx, optimizer.cost_model)
        assert reduced == pytest.approx(full - some_leaf.est.op_cost)

    def test_remaining_cost_in_flight_join_owes_probe_only(self, setup):
        __, plan, optimizer, ctx = setup
        optimizer.annotator().annotate(plan)
        join = next(n for n in plan.walk() if isinstance(n, HashJoinNode))
        full = remaining_cost(plan, ctx, optimizer.cost_model)
        with_in_flight = remaining_cost(
            plan, ctx, optimizer.cost_model, in_flight=join
        )
        assert with_in_flight <= full

    def test_probe_remaining_positive(self, setup):
        db, plan, optimizer, ctx = setup
        optimizer.annotator().annotate(plan)
        join = next(n for n in plan.walk() if isinstance(n, HashJoinNode))
        probe_cost = hash_join_probe_remaining(
            join, optimizer.cost_model, db.catalog.page_size,
            grant=join.est.max_memory_pages,
        )
        assert 0 < probe_cost <= join.est.op_cost + 1e-9


def full_reannotation(plan, optimizer, ctx, collector_id, annotated_grants):
    """The oracle: the whole plan re-annotated at every collector, with
    every completed collector's observed profile."""
    overrides = observed_profiles(plan, ctx.observed)
    optimizer.annotator(allocation=ctx.allocation, profile_overrides=overrides).annotate(
        plan
    )


def estimates(plan) -> list[tuple]:
    return [
        (
            node.label, repr(node.est.rows), repr(node.est.row_bytes),
            repr(node.est.pages), repr(node.est.op_cost),
            repr(node.est.total_cost), node.est.max_memory_pages,
            repr(node.est.profile),
        )
        for node in plan.walk()
    ]


class TestDirtyPath:
    """Re-annotating only the dirty path gives the whole plan's
    re-annotation, node for node, at every collector of every paper query
    — through memory re-allocations (Q3, Q8, Q10) and plan switches (Q5,
    Q7, Q8 under ``FULL``)."""

    @pytest.fixture(scope="class")
    def db(self):
        return build_database(
            ExperimentConfig(scale_factor=0.01, memory_pages=192, seed=31)
        )

    @staticmethod
    def run(db, sql, mode, improve, monkeypatch):
        seen = []

        def recorded(plan, *args):
            improve(plan, *args)
            seen.append(estimates(plan))

        with monkeypatch.context() as patch:
            patch.setattr(reoptimizer, "apply_improved_estimates", recorded)
            profile = db.execute(sql, mode=mode).profile
        return seen, (
            repr(profile.total_cost), profile.plan_switches,
            profile.memory_reallocations,
        )

    def test_regrant_off_the_collector_path(self, db):
        """The paper queries re-grant only joins above the next collector;
        here a join beside the collector's path is cut to its minimum grant,
        and the dirty path costs it (and its ancestors) again."""
        collector_ids = set()
        seen = []
        for improve in (apply_improved_estimates, full_reannotation):
            plan, __, optimizer = db.plan(query_by_name("Q3").sql, mode=DynamicMode.FULL)
            optimizer.annotator().annotate(plan)
            collector = collector_nodes(plan)[0]
            above = {n.node_id for n in plan.walk() if n.find(collector.node_id)}
            beside = next(
                n for n in plan.walk()
                if n.node_id not in above
                and n.est.min_memory_pages < n.est.max_memory_pages
            )
            cost_at_most = beside.est.op_cost
            ctx = runtime_context(db)
            ctx.allocation[beside.node_id] = beside.est.min_memory_pages
            ctx.observed[collector.node_id] = ObservedStatistics(
                node_id=collector.node_id,
                row_count=int(collector.est.rows * 10) + 1,
                row_bytes=collector.est.row_bytes,
            )
            improve(plan, optimizer, ctx, collector.node_id, {})
            assert beside.est.op_cost > cost_at_most
            collector_ids.add(collector.node_id)
            seen.append(estimates(plan))
        assert len(collector_ids) == 2  # two plans, not one annotated twice
        assert seen[0] == seen[1]

    def test_earlier_collector_merged_again(self, db):
        """A min/max column the estimate lacks has distinct 0 after one
        merge and 1 after two: the whole-plan re-annotation merges every
        completed collector again at each collector, and so does the dirty
        path where that changes a profile."""
        seen = []
        for improve in (apply_improved_estimates, full_reannotation):
            plan, __, optimizer = db.plan(query_by_name("Q8").sql, mode=DynamicMode.FULL)
            optimizer.annotator().annotate(plan)
            upper, lower = collector_nodes(plan)[:2]
            assert upper.find(lower.node_id)
            ctx = runtime_context(db)
            for collector, minmax in ((lower, {"x.unestimated": (1.0, 2.0)}), (upper, {})):
                ctx.observed[collector.node_id] = ObservedStatistics(
                    node_id=collector.node_id,
                    row_count=int(collector.est.rows * 3) + 1,
                    row_bytes=collector.est.row_bytes,
                    minmax=minmax,
                )
                improve(plan, optimizer, ctx, collector.node_id, {})
            seen.append(estimates(plan))
            distinct = lower.est.profile.columns["x.unestimated"].distinct
            assert distinct == 1.0
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("mode", [DynamicMode.FULL, DynamicMode.MEMORY_ONLY])
    def test_equals_full_reannotation(self, db, mode, monkeypatch):
        switched = reallocated = 0
        for query in ALL_QUERIES:
            dirty = self.run(db, query.sql, mode, apply_improved_estimates, monkeypatch)
            full = self.run(db, query.sql, mode, full_reannotation, monkeypatch)
            assert dirty == full, query.name
            __, (__c, switches, reallocations) = dirty
            switched += switches
            reallocated += reallocations
        assert reallocated >= 1
        assert switched >= (mode is DynamicMode.FULL)
