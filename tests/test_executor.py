"""Tests for the execution engine: operators, memory manager, segments."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, EngineConfig
from repro.core.modes import DynamicMode
from repro.errors import MemoryGrantError
from repro.executor import (
    MemoryManager,
    blocking_input_edges,
    execution_order,
    memory_demands,
    segments,
)
from repro.plans.physical import (
    HashAggregateNode,
    HashJoinNode,
    SeqScanNode,
    SortNode,
)

from .conftest import make_two_table_db
from .oracle import assert_row_parity, evaluate


def run_both(db: Database, sql: str) -> tuple[list, list]:
    """Execute via the engine (OFF mode) and via the brute-force oracle."""
    result = db.execute(sql, mode=DynamicMode.OFF)
    expected = evaluate(db, db.bind_sql(sql))
    return result.rows, expected


def assert_same_rowset(actual, expected):
    assert sorted(map(repr, actual)) == sorted(map(repr, expected))


class TestOperatorCorrectness:
    """Engine output must match the brute-force oracle on every operator."""

    @pytest.fixture(scope="class")
    def db(self):
        return make_two_table_db(r1_rows=300, r2_rows=800)

    def test_scan_projection(self, db):
        actual, expected = run_both(db, "SELECT a, b FROM r1")
        assert_same_rowset(actual, expected)

    def test_filter(self, db):
        actual, expected = run_both(db, "SELECT a FROM r1 WHERE a < 30 AND b >= 10")
        assert_same_rowset(actual, expected)

    def test_or_filter(self, db):
        actual, expected = run_both(db, "SELECT a FROM r1 WHERE a = 1 OR b = 2")
        assert_same_rowset(actual, expected)

    def test_in_filter(self, db):
        actual, expected = run_both(db, "SELECT a FROM r1 WHERE a IN (1, 5, 9)")
        assert_same_rowset(actual, expected)

    def test_hash_join(self, db):
        actual, expected = run_both(
            db, "SELECT r1.a, r2.c FROM r1, r2 WHERE r1.id = r2.r1_id"
        )
        assert_same_rowset(actual, expected)

    def test_join_with_selections(self, db):
        actual, expected = run_both(
            db,
            "SELECT r1.a, r2.c FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r1.a < 40 AND r2.c > 2",
        )
        assert_same_rowset(actual, expected)

    def test_cross_join(self):
        db = make_two_table_db(r1_rows=12, r2_rows=9)
        actual, expected = run_both(db, "SELECT r1.a, r2.c FROM r1, r2")
        assert_same_rowset(actual, expected)

    def test_non_equi_join(self):
        db = make_two_table_db(r1_rows=30, r2_rows=25)
        actual, expected = run_both(
            db, "SELECT r1.a, r2.c FROM r1, r2 WHERE r1.a < r2.c"
        )
        assert_same_rowset(actual, expected)

    def test_group_by_aggregates(self, db):
        actual, expected = run_both(
            db,
            "SELECT a, count(*) n, sum(b) s, avg(b) m, min(b) lo, max(b) hi "
            "FROM r1 GROUP BY a",
        )
        assert_same_rowset(actual, expected)

    def test_scalar_aggregate(self, db):
        actual, expected = run_both(db, "SELECT sum(b) s, count(*) n FROM r1")
        assert_same_rowset(actual, expected)

    def test_scalar_aggregate_empty_input(self, db):
        actual, expected = run_both(
            db, "SELECT sum(b) s, count(*) n FROM r1 WHERE a > 10000"
        )
        assert_same_rowset(actual, expected)
        assert actual[0] == (None, 0)

    def test_aggregate_over_expression(self, db):
        actual, expected = run_both(db, "SELECT sum(b * 2 + 1) s FROM r1")
        assert actual[0][0] == pytest.approx(expected[0][0])

    def test_order_by_limit(self, db):
        sql = "SELECT a, sum(b) s FROM r1 GROUP BY a ORDER BY s DESC, a LIMIT 5"
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            result = assert_row_parity(db, sql, mode)
            assert result.rows == evaluate(db, db.bind_sql(sql))  # ordered comparison

    def test_limit_zero(self, db):
        for limit in (0, 1, 7):
            sql = f"SELECT a FROM r1 LIMIT {limit}"
            for mode in (DynamicMode.OFF, DynamicMode.FULL):
                result = assert_row_parity(db, sql, mode)
                assert result.rows == evaluate(db, db.bind_sql(sql))

    def test_index_scan_matches_seq_scan(self):
        db = make_two_table_db(r1_rows=20_000)
        sql = "SELECT id one FROM r1 WHERE a = 17"
        before = db.execute(sql, mode=DynamicMode.OFF)
        db.create_index("ix_r1_a", "r1", "a", clustered=True)
        after = db.execute(sql, mode=DynamicMode.OFF)
        assert_same_rowset(before.rows, after.rows)

    def test_index_nl_join_matches_hash_join(self):
        db = make_two_table_db(r1_rows=40_000, r2_rows=40_000)
        sql = (
            "SELECT r2.c FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r1.a = 7 AND r1.b = 3"
        )
        without_index = db.execute(sql, mode=DynamicMode.OFF)
        db.create_index("ix_r2_r1id", "r2", "r1_id", clustered=True)
        with_index = db.execute(sql, mode=DynamicMode.OFF)
        assert_same_rowset(without_index.rows, with_index.rows)

    def test_udf_in_predicate(self, db):
        db.register_udf("halved", lambda x: x / 2)
        actual = db.execute(
            "SELECT a FROM r1 WHERE halved(a) < 5", mode=DynamicMode.OFF
        )
        expected = [(row[1],) for row in db.table("r1").rows if row[1] / 2 < 5]
        assert_same_rowset(actual.rows, expected)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        threshold=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_join_filter_agree_with_oracle(self, seed, threshold):
        db = make_two_table_db(r1_rows=60, r2_rows=90, seed=seed)
        sql = (
            f"SELECT r1.a, r2.c FROM r1, r2 "
            f"WHERE r1.id = r2.r1_id AND r1.a < {threshold}"
        )
        actual, expected = run_both(db, sql)
        assert_same_rowset(actual, expected)


class TestSpillAccounting:
    def test_tight_memory_costs_more(self):
        sql = "SELECT r1.a one, r2.c two FROM r1, r2 WHERE r1.id = r2.r1_id"
        generous, tight = (
            make_two_table_db(
                r1_rows=20_000, r2_rows=40_000,
                config=EngineConfig(query_memory_pages=pages),
            ).execute(sql, mode=DynamicMode.OFF)
            for pages in (4096, 32)
        )
        assert tight.profile.total_cost > generous.profile.total_cost
        assert tight.profile.breakdown.write > 0
        assert generous.profile.breakdown.write == 0
        assert_same_rowset(generous.rows, tight.rows)


class TestMemoryManager:
    def _demand_plan(self):
        db = make_two_table_db(r1_rows=20_000, r2_rows=40_000)
        plan, __, __opt = db.plan(
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 WHERE r1.id = r2.r1_id GROUP BY r1.a",
            mode=DynamicMode.OFF,
        )
        return plan

    def test_execution_order_children_first(self):
        plan = self._demand_plan()
        order = execution_order(plan)
        positions = {node.node_id: i for i, node in enumerate(order)}
        for node in plan.walk():
            for child in node.children:
                assert positions[child.node_id] < positions[node.node_id]

    def test_demands_in_execution_order(self):
        plan = self._demand_plan()
        demands = memory_demands(plan)
        assert demands, "expected memory-consuming operators"
        assert all(d.min_pages <= d.max_pages for d in demands)

    def test_grants_within_bounds_and_budget(self):
        plan = self._demand_plan()
        manager = MemoryManager(128)
        grants = memory_demands(plan), manager.allocate(plan)
        demands, allocation = grants
        assert sum(allocation.values()) <= 128
        for demand in demands:
            grant = allocation[demand.node_id]
            assert grant in (demand.min_pages, demand.max_pages)

    def test_max_granted_when_budget_ample(self):
        plan = self._demand_plan()
        allocation = MemoryManager(100_000).allocate(plan)
        for demand in memory_demands(plan):
            assert allocation[demand.node_id] == demand.max_pages

    def test_min_when_budget_tight(self):
        plan = self._demand_plan()
        demands = memory_demands(plan)
        tight = sum(d.min_pages for d in demands)
        allocation = MemoryManager(tight).allocate(plan)
        for demand in demands:
            assert allocation[demand.node_id] == demand.min_pages

    def test_insufficient_budget_raises(self):
        plan = self._demand_plan()
        demands = memory_demands(plan)
        too_small = sum(d.min_pages for d in demands) - 1
        with pytest.raises(MemoryGrantError):
            MemoryManager(too_small).allocate(plan)

    def test_fixed_grants_respected(self):
        plan = self._demand_plan()
        demands = memory_demands(plan)
        first = demands[0]
        allocation = MemoryManager(10_000).allocate(plan, fixed={first.node_id: 5})
        assert allocation[first.node_id] == 5

    def test_floors_prevent_downgrade(self):
        plan = self._demand_plan()
        demands = memory_demands(plan)
        target = demands[-1]
        floor = target.max_pages + 37
        allocation = MemoryManager(100_000).allocate(
            plan, floors={target.node_id: floor}
        )
        assert allocation[target.node_id] >= floor

    def test_second_pass_upgrade(self):
        plan = self._demand_plan()
        demands = memory_demands(plan)
        # Budget: all mins plus exactly one operator's upgrade headroom.
        upgrade = demands[-1].max_pages - demands[-1].min_pages
        budget = sum(d.min_pages for d in demands) + upgrade
        allocation = MemoryManager(budget).allocate(plan)
        assert sum(allocation.values()) <= budget

    def test_invalid_budget(self):
        with pytest.raises(MemoryGrantError):
            MemoryManager(0)


class TestSegments:
    def _plan(self):
        db = make_two_table_db()
        plan, __, __opt = db.plan(
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 WHERE r1.id = r2.r1_id "
            "GROUP BY r1.a ORDER BY s",
            mode=DynamicMode.OFF,
        )
        return plan

    def test_blocking_edges_found(self):
        plan = self._plan()
        edges = blocking_input_edges(plan)
        kinds = {type(parent) for parent, __ in edges}
        assert HashJoinNode in kinds
        assert HashAggregateNode in kinds
        assert SortNode in kinds

    def test_segments_partition_all_nodes(self):
        plan = self._plan()
        segs = segments(plan)
        all_ids = [n.node_id for n in plan.walk()]
        seg_ids = [nid for seg in segs for nid in seg.node_ids]
        assert sorted(all_ids) == sorted(seg_ids)

    def test_segments_in_dependency_order(self):
        plan = self._plan()
        segs = segments(plan)
        seen: set[int] = set()
        position = {}
        for i, seg in enumerate(segs):
            for nid in seg.node_ids:
                position[nid] = i
        # A blocking input's segment must come before its consumer's segment.
        for parent, child_index in blocking_input_edges(plan):
            child = parent.children[child_index]
            assert position[child.node_id] < position[parent.node_id]
        del seen

    def test_scan_only_plan_is_single_segment(self):
        db = make_two_table_db()
        plan, __, __opt = db.plan("SELECT a FROM r1", mode=DynamicMode.OFF)
        assert len(segments(plan)) == 1
