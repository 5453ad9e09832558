"""Trace-parity suite: tracing must never perturb the simulated engine.

The observe subsystem's contract (DESIGN.md section 10): the tracer only
*reads* the cost clock, so result rows, the simulated ``CostBreakdown``,
buffer-pool statistics and observed collector statistics are byte-identical
with tracing on or off — on the batch executor and the row oracle
(:func:`tests.oracle.row_path`), for every TPC-D
query, and across a mid-query plan switch.  The CI leg that
runs the whole repository suite under ``REPRO_TRACE=1`` enforces the same
thing from the environment side.
"""

from __future__ import annotations

import pytest

from repro import Database, DynamicMode, EngineConfig, QueryTracer
from repro.bench import ExperimentConfig, build_database
from repro.executor.dispatcher import Dispatcher
from repro.executor.runtime import RuntimeContext
from repro.observe.validate import validate_trace
from repro.optimizer.cost_model import CostModel
from repro.storage import BufferPool, CostClock, TempTableManager
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)
from repro.workloads.tpcd import ALL_QUERIES

from .test_join_chunks import PATHS

SWITCH_PARAMS = {"value1": 80, "value2": 80}


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01))


def dispatch(db: Database, plan, traced: bool = False):
    """One dispatcher run on a fresh runtime context; returns (result, ctx)."""
    config = db.config
    clock = CostClock(config.cost)
    pool = BufferPool(config.buffer_pool_pages, clock)
    ctx = RuntimeContext(
        catalog=db.catalog,
        config=config,
        clock=clock,
        buffer_pool=pool,
        temp_manager=TempTableManager(db.catalog, pool),
        cost_model=CostModel(config),
        tracer=QueryTracer(clock) if traced else None,
    )
    try:
        result = Dispatcher(ctx).run(plan)
    finally:
        ctx.temp_manager.drop_all()
    return result, ctx


def assert_ctx_parity(baseline_ctx, traced_ctx) -> None:
    """Bit-for-bit equality of every simulated quantity."""
    assert traced_ctx.clock.breakdown == baseline_ctx.clock.breakdown
    assert traced_ctx.clock.now == baseline_ctx.clock.now
    assert traced_ctx.buffer_pool.stats == baseline_ctx.buffer_pool.stats
    assert set(traced_ctx.observed) == set(baseline_ctx.observed)
    for node_id, base in baseline_ctx.observed.items():
        other = traced_ctx.observed[node_id]
        assert other.row_count == base.row_count
        assert other.row_bytes == base.row_bytes
        assert dict(other.minmax) == dict(base.minmax)
        assert dict(other.distincts) == dict(base.distincts)
        assert set(other.histograms) == set(base.histograms)
        for column, hist in base.histograms.items():
            traced_hist = other.histograms[column]
            assert traced_hist.kind == hist.kind
            assert traced_hist.buckets == hist.buckets


class TestTpcdTraceParity:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_all_shapes_identical_with_tracing(self, tpcd_db, query):
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        for name, path in PATHS.items():
            with path():
                baseline, baseline_ctx = dispatch(tpcd_db, plan, traced=False)
                traced, traced_ctx = dispatch(tpcd_db, plan, traced=True)
            assert traced.rows == baseline.rows, name
            assert_ctx_parity(baseline_ctx, traced_ctx)
            assert baseline_ctx.tracer is None
            # And the trace produced alongside is a loadable document.
            assert validate_trace(traced_ctx.tracer.to_chrome()) == []


class TestEndToEndTraceParity:
    """Whole-engine parity: ``EngineConfig(tracing=True)`` vs. ``False``
    on separately built but identically seeded databases."""

    @pytest.fixture(scope="class")
    def switch_dbs(self):
        def build(tracing: bool) -> Database:
            # Both engines must make the same cold misestimates; the
            # feedback loop would teach the second run a different plan.
            db = Database(
                EngineConfig(tracing=tracing, feedback_enabled=False)
            )
            build_running_example(
                db,
                SyntheticConfig(
                    rel1_rows=20_000, rel3_rows=60_000, correlation=1.0
                ),
            )
            return db

        return build(False), build(True)

    # The ``-0`` id suffix (no worker processes) keeps the ids stable.
    @pytest.mark.parametrize(
        "path", [pytest.param(path, id=f"{name}-0") for name, path in PATHS.items()]
    )
    def test_mid_query_switch_parity(self, switch_dbs, path):
        plain_db, traced_db = switch_dbs
        kwargs = dict(params=SWITCH_PARAMS, mode=DynamicMode.FULL)
        with path():
            plain = plain_db.execute(RUNNING_EXAMPLE_SQL, **kwargs)
            traced = traced_db.execute(RUNNING_EXAMPLE_SQL, **kwargs)

        assert plain.profile.plan_switches >= 1
        assert plain.rows == traced.rows
        assert traced.profile.breakdown == plain.profile.breakdown
        assert traced.profile.total_cost == plain.profile.total_cost
        assert traced.profile.buffer == plain.profile.buffer
        assert traced.profile.plan_switches == plain.profile.plan_switches
        assert (
            traced.profile.memory_reallocations
            == plain.profile.memory_reallocations
        )
        assert traced.profile.remainder_sqls == plain.profile.remainder_sqls

        assert plain.profile.trace is None
        trace = traced.profile.trace
        assert trace is not None
        assert validate_trace(trace.to_chrome()) == []
        names = {e.name for e in trace.events}
        assert "plan-switch" in names and "reopt-decision" in names

    def test_dynamic_modes_parity(self, switch_dbs):
        plain_db, traced_db = switch_dbs
        for mode in (DynamicMode.OFF, DynamicMode.MEMORY_ONLY, DynamicMode.FULL):
            plain = plain_db.execute(
                RUNNING_EXAMPLE_SQL, params=SWITCH_PARAMS, mode=mode
            )
            traced = traced_db.execute(
                RUNNING_EXAMPLE_SQL, params=SWITCH_PARAMS, mode=mode
            )
            assert plain.rows == traced.rows
            assert traced.profile.breakdown == plain.profile.breakdown
            assert traced.profile.buffer == plain.profile.buffer

    def test_explain_analyze_does_not_perturb_either(self, switch_dbs):
        plain_db, __ = switch_dbs
        baseline = plain_db.execute(
            RUNNING_EXAMPLE_SQL, params=SWITCH_PARAMS, mode=DynamicMode.FULL
        )
        report = plain_db.explain_analyze(
            RUNNING_EXAMPLE_SQL, params=SWITCH_PARAMS, mode=DynamicMode.FULL
        )
        assert report.result.rows == baseline.rows
        assert report.result.profile.breakdown == baseline.profile.breakdown
        assert report.result.profile.buffer == baseline.profile.buffer


# ----------------------------------------------------------------------
# Server mode (PR 10, satellite): traces from concurrent sessions
# ----------------------------------------------------------------------


class TestServerModeTracing:
    """Chrome trace export stays valid when statements run through the
    query server: concurrent sessions each get a complete, balanced trace,
    and the exported file round-trips through ``observe.validate``'s
    CLI."""

    @pytest.fixture(scope="class")
    def server_db(self) -> Database:
        db = Database(
            EngineConfig(server_mode=True, max_sessions=4, tracing=True)
        )
        build_running_example(
            db,
            SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0),
        )
        return db

    def test_concurrent_sessions_each_get_valid_traces(self, server_db):
        import threading

        results: dict[str, object] = {}
        errors: list[BaseException] = []

        def run(name: str) -> None:
            session = server_db.create_session(name)
            try:
                results[name] = session.execute(
                    RUNNING_EXAMPLE_SQL,
                    params=SWITCH_PARAMS,
                    mode=DynamicMode.FULL,
                )
            except BaseException as exc:  # surfaced below
                errors.append(exc)
            finally:
                session.close()

        threads = [
            threading.Thread(target=run, args=(name,))
            for name in ("alice", "bob", "carol")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert len(results) == 3
        for name, result in results.items():
            trace = result.profile.trace
            assert trace is not None, name
            document = trace.to_chrome()
            assert validate_trace(document) == [], name
            assert document["traceEvents"], name

    def test_export_round_trips_through_validator_cli(self, server_db, tmp_path):
        from repro.observe.validate import main as validate_main

        session = server_db.create_session("export")
        try:
            result = session.execute(
                RUNNING_EXAMPLE_SQL, params=SWITCH_PARAMS, mode=DynamicMode.FULL
            )
        finally:
            session.close()
        path = str(tmp_path / "server-trace.json")
        result.profile.trace.export_chrome(path)
        assert validate_main([path]) == 0
