"""Tests for the dispatcher's plan-switch handling and runtime context."""

import pytest

from repro import Database, DynamicMode
from repro.errors import ExecutionError
from repro.executor.dispatcher import Dispatcher
from repro.executor.runtime import PlanSwitchDirective

from .conftest import make_two_table_db
from .reference.iterators import execute_node
from .oracle import runtime_context


class TestRuntimeContext:
    def test_memory_for_defaults_to_max(self, two_table_db):
        plan, __, __o = two_table_db.plan(
            "SELECT r1.a one FROM r1, r2 WHERE r1.id = r2.r1_id",
            mode=DynamicMode.OFF,
        )
        ctx = runtime_context(two_table_db)
        join = next(n for n in plan.walk() if n.est.max_memory_pages > 0)
        assert ctx.memory_for(join) == join.est.max_memory_pages
        ctx.allocation[join.node_id] = 5
        assert ctx.memory_for(join) == 5

    def test_commit_memory_pins(self, two_table_db):
        plan, __, __o = two_table_db.plan(
            "SELECT r1.a one FROM r1, r2 WHERE r1.id = r2.r1_id",
            mode=DynamicMode.OFF,
        )
        ctx = runtime_context(two_table_db)
        join = next(n for n in plan.walk() if n.est.max_memory_pages > 0)
        ctx.allocation[join.node_id] = 7
        assert ctx.commit_memory(join) == 7
        assert join.node_id in ctx.memory_committed

    def test_switch_registration(self, two_table_db):
        ctx = runtime_context(two_table_db)
        plan, __, __o = two_table_db.plan("SELECT a FROM r1", mode=DynamicMode.OFF)
        temp = ctx.temp_manager.create_empty(plan.schema)
        directive = PlanSwitchDirective(
            cut_node_id=1, temp_table=temp, new_plan=plan,
            new_allocation={}, remainder_sql="SELECT 1 one FROM x",
        )
        ctx.request_switch(directive)
        # A second pending switch is rejected.
        with pytest.raises(ExecutionError):
            ctx.request_switch(directive)
        # Wrong node id does not claim it.
        assert ctx.take_switch_for(999) is None
        # The right one does, exactly once.
        assert ctx.take_switch_for(1) is directive
        assert ctx.take_switch_for(1) is None

    def test_tracking_counts_rows(self, two_table_db):
        plan, __, __o = two_table_db.plan(
            "SELECT a FROM r1 WHERE a < 10", mode=DynamicMode.OFF
        )
        ctx = runtime_context(two_table_db)
        rows = list(execute_node(plan, ctx))
        assert ctx.actual_rows[plan.node_id] == len(rows)
        assert plan.node_id in ctx.completed
        for node in plan.walk():
            assert node.node_id in ctx.started


class TestDispatcher:
    def test_plain_run(self, two_table_db):
        plan, __, __o = two_table_db.plan(
            "SELECT a, count(*) n FROM r1 GROUP BY a", mode=DynamicMode.OFF
        )
        ctx = runtime_context(two_table_db)
        outcome = Dispatcher(ctx).run(plan)
        assert outcome.final_plan is plan
        assert outcome.plan_history == [plan]
        assert outcome.switch_events == []
        assert len(outcome.rows) > 0

    def test_controller_notified_of_plan(self, two_table_db):
        plan, __, __o = two_table_db.plan("SELECT a FROM r1", mode=DynamicMode.OFF)
        ctx = runtime_context(two_table_db)

        class Recorder:
            seen = None

            def set_current_plan(self, p):
                self.seen = p

            def on_collector_complete(self, node, observed):
                pass

        recorder = Recorder()
        ctx.controller = recorder
        Dispatcher(ctx).run(plan)
        assert recorder.seen is plan
