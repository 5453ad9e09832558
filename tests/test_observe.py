"""The observe subsystem: tracer, metrics registry, EXPLAIN ANALYZE.

Unit coverage for ``repro.observe`` (span recording, Chrome export and its
schema validator, the metrics registry, the Prometheus exporter, the
slow-query log) plus integration coverage for
``Database.explain_analyze`` and the traced mid-query plan switch — the
exported trace must be valid Chrome trace-event JSON containing the switch
decision with its triggering estimate delta.  Trace *parity* (tracing
cannot change any simulated quantity) lives in ``test_trace_parity.py``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from repro import (
    Database,
    DataType,
    DynamicMode,
    EngineConfig,
    MetricsRegistry,
    QueryTracer,
    default_registry,
)
from repro.bench import ExperimentConfig, build_database
from repro.engine.profile import ExecutionProfile
from repro.observe.analyze import Q_ERROR_BAD, q_error
from repro.observe.export import main as export_main
from repro.observe.export import prometheus_name, render_prometheus
from repro.observe.metrics import Counter, Gauge, Histogram
from repro.observe.slowlog import build_slow_query_record, emit_slow_query
from repro.observe.validate import main as validate_main
from repro.observe.validate import validate_trace
from repro.plans.printer import collector_nodes, explain_with_attribution
from repro.storage.buffer import BufferStats
from repro.storage.disk import CostBreakdown, CostClock
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)
from repro.workloads.tpcd import ALL_QUERIES

SWITCH_PARAMS = {"value1": 80, "value2": 80}


def build_switch_db(tracing: bool = True) -> Database:
    """The running example sized so FULL mode performs a mid-query switch."""
    db = Database(EngineConfig(tracing=tracing))
    build_running_example(
        db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
    )
    return db


# ----------------------------------------------------------------------
# QueryTracer
# ----------------------------------------------------------------------


class TestQueryTracer:
    def test_begin_end_records_wall_and_sim(self):
        clock = CostClock()
        tracer = QueryTracer(clock, label="t")
        span = tracer.begin("work", "phase")
        clock.charge_cpu(5.0)
        tracer.end(span, rows=3)
        assert span.closed
        assert span.sim_cost == pytest.approx(5.0)
        assert span.wall_end_us >= span.wall_start_us
        assert span.args["rows"] == 3

    def test_tracer_never_charges_the_clock(self):
        clock = CostClock()
        tracer = QueryTracer(clock)
        span = tracer.begin("a", "plan")
        tracer.instant("e", "event", k=1)
        tracer.end(span)
        tracer.to_chrome()
        tracer.timeline()
        assert clock.now == 0.0

    def test_end_is_noop_on_none_and_closed(self):
        tracer = QueryTracer()
        tracer.end(None)
        span = tracer.begin("a")
        tracer.end(span)
        seq = span.end_seq
        tracer.end(span, extra=1)  # already closed: ignored
        assert span.end_seq == seq and "extra" not in span.args

    def test_record_compile_phases_backdates_epoch(self):
        tracer = QueryTracer()
        tracer.record_compile_phases(
            {"parse": 0.001, "bind": 0.002, "optimize": 0.003, "scia": 0.004}
        )
        phases = [s for s in tracer.spans if s.category == "phase"]
        assert [s.name for s in phases] == ["parse", "bind", "optimize", "scia"]
        assert phases[0].wall_start_us == 0.0
        # Contiguous, ordered, and everything recorded later lands after.
        for before, after in zip(phases, phases[1:]):
            assert after.wall_start_us == pytest.approx(before.wall_end_us)
        later = tracer.begin("exec", "phase")
        assert later.wall_start_us >= phases[-1].wall_end_us
        assert validate_trace(tracer.to_chrome()) == []

    def test_record_compile_phases_only_applies_once(self):
        tracer = QueryTracer()
        tracer.record_compile_phases({"parse": 0.001})
        count = len(tracer.spans)
        tracer.record_compile_phases({"parse": 0.5})
        assert len(tracer.spans) == count

    def test_close_open_spans_is_lifo_and_selective(self):
        tracer = QueryTracer()
        plan = tracer.begin("plan-1", "plan")
        outer = tracer.begin("outer", "operator")
        inner = tracer.begin("inner", "pipeline")
        tracer.close_open_spans({"operator", "pipeline"}, abandoned=True)
        assert inner.closed and outer.closed and not plan.closed
        assert inner.end_seq < outer.end_seq
        assert inner.args["abandoned"] is True

    def test_open_spans_auto_close_in_export(self):
        tracer = QueryTracer()
        tracer.begin("plan-1", "plan")
        tracer.begin("op", "operator")
        doc = tracer.to_chrome()
        assert validate_trace(doc) == []
        auto = [e for e in doc["traceEvents"] if e.get("args", {}).get("auto_closed")]
        assert auto

    def test_node_handle_stack_survives_reexecution(self):
        class FakeNode:
            node_id = 7
            label = "Inner"

            def detail(self):
                return ""

        tracer = QueryTracer(CostClock())
        node = FakeNode()
        for __ in range(3):  # e.g. a re-scanned block-NL inner
            tracer.node_started(node)
            tracer.node_completed(node, rows=10)
        spans = [s for s in tracer.spans if s.category == "operator"]
        assert len(spans) == 3 and all(s.closed for s in spans)
        # One window: first start to last completion.
        assert tracer.node_windows[7][2] == 10

    def test_chrome_export_shapes(self):
        clock = CostClock()
        tracer = QueryTracer(clock, label="shapes")
        plan = tracer.begin("plan-1", "plan")
        op = tracer.begin("Scan", "operator")
        tracer.instant("note", "event", k="v")
        tracer.end(op, rows=1)
        tracer.end(plan)
        doc = tracer.to_chrome()
        assert validate_trace(doc) == []
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "E"}
        assert by_name["plan-1"]["ph"] == "B"  # paired category
        assert by_name["Scan"]["ph"] == "X" and by_name["Scan"]["dur"] >= 0
        assert by_name["note"]["ph"] == "i"
        assert doc["otherData"]["label"] == "shapes"

    def test_timeline_renders_nesting(self):
        tracer = QueryTracer()
        plan = tracer.begin("plan-1", "plan")
        op = tracer.begin("Scan", "operator")
        tracer.end(op, rows=5)
        tracer.end(plan)
        text = tracer.timeline()
        assert "plan:plan-1" in text and "operator:Scan" in text
        assert "rows=5" in text


# ----------------------------------------------------------------------
# validate_trace
# ----------------------------------------------------------------------


class TestValidateTrace:
    def test_rejects_non_object_and_missing_list(self):
        assert validate_trace([]) != []
        assert validate_trace({}) == ["missing 'traceEvents' list"]

    def test_missing_keys_and_unknown_phase(self):
        doc = {"traceEvents": [{"name": "a", "ph": "B"}]}
        assert any("missing keys" in e for e in validate_trace(doc))
        doc = {"traceEvents": [
            {"name": "a", "ph": "Z", "ts": 0, "pid": 1, "tid": 1}
        ]}
        assert any("unknown phase" in e for e in validate_trace(doc))

    def test_backwards_timestamps(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "i", "s": "t", "ts": 10, "pid": 1, "tid": 1},
            {"name": "b", "ph": "i", "s": "t", "ts": 5, "pid": 1, "tid": 1},
        ]}
        assert any("goes backwards" in e for e in validate_trace(doc))

    def test_unbalanced_and_interleaved_spans(self):
        base = {"ts": 0, "pid": 1, "tid": 1}
        unbalanced = {"traceEvents": [dict(base, name="a", ph="B")]}
        assert any("still open" in e for e in validate_trace(unbalanced))
        stray = {"traceEvents": [dict(base, name="a", ph="E")]}
        assert any("no open 'B'" in e for e in validate_trace(stray))
        interleaved = {"traceEvents": [
            dict(base, name="a", ph="B"),
            dict(base, name="b", ph="B"),
            dict(base, name="a", ph="E"),
            dict(base, name="b", ph="E"),
        ]}
        assert any("interleaved" in e for e in validate_trace(interleaved))

    def test_x_needs_duration(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
        ]}
        assert any("non-negative dur" in e for e in validate_trace(doc))

    def test_cli_roundtrip(self, tmp_path, capsys):
        tracer = QueryTracer()
        span = tracer.begin("a", "plan")
        tracer.end(span)
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        assert validate_main([str(path)]) == 0
        path.write_text(json.dumps({"traceEvents": "nope"}))
        assert validate_main([str(path)]) == 1
        assert validate_main([]) == 2


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_is_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.snapshot() == {"type": "gauge", "value": 1.5}

    def test_histogram_buckets_and_overflow(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 500.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(505.5)
        assert snap["min"] == 0.5 and snap["max"] == 500.0
        assert snap["buckets"] == {"le_1": 1, "le_10": 1, "le_inf": 1}

    def test_registry_accessors_and_type_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        registry.gauge("b").set(1)
        with pytest.raises(TypeError):
            registry.counter("b")
        assert len(registry) == 2
        snap = registry.snapshot()
        assert list(snap) == ["a", "b"]  # sorted
        registry.reset()
        assert len(registry) == 0

    def test_default_registry_is_process_wide(self):
        assert default_registry() is default_registry()

    def test_database_records_metrics(self):
        registry = MetricsRegistry()
        db = Database(metrics=registry)
        db.create_table("t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)])
        db.load_rows("t", [(i, i % 5) for i in range(100)])
        db.analyze()
        db.execute("SELECT v, count(*) n FROM t GROUP BY v")
        db.execute("SELECT v, count(*) n FROM t GROUP BY v")
        snap = db.metrics_snapshot()
        assert snap["engine.queries"]["value"] == 2
        assert snap["engine.rows_returned"]["value"] == 10
        assert snap["plan_cache.hits"]["value"] == 1
        assert snap["plan_cache.misses"]["value"] == 1
        assert snap["query.simulated_cost"]["count"] == 2
        assert 0.0 <= snap["buffer_pool.hit_rate"]["value"] <= 1.0
        # The injected registry was used, not the process-wide default.
        assert db.metrics is registry
        assert registry.snapshot() == snap


# ----------------------------------------------------------------------
# q_error
# ----------------------------------------------------------------------


class TestQError:
    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_floored_at_one_row(self):
        assert q_error(0, 0) == 1.0
        assert q_error(0.2, 1) == 1.0

    def test_exact_estimate(self):
        assert q_error(42, 42) == 1.0
        assert Q_ERROR_BAD > 1.0


def make_profile(**overrides) -> ExecutionProfile:
    base = dict(
        sql="SELECT 1",
        mode="full",
        total_cost=1.0,
        breakdown=CostBreakdown(),
        buffer=BufferStats(),
        row_count=0,
        optimizer_invocations=1,
        plan_switches=0,
        memory_reallocations=0,
        initial_estimated_cost=1.0,
        collectors_inserted=0,
        statistics_kept=0,
        statistics_dropped=0,
        statistics_budget=0.0,
    )
    base.update(overrides)
    return ExecutionProfile(**base)


class TestParallelSummaryLine:
    """Every statement runs in one process, so the summary has no
    ``parallel:`` line."""

    def test_serial_summary_has_no_parallel_line(self):
        assert "parallel:" not in make_profile().summary()


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01))


class TestExplainAnalyze:
    def test_tpcd_report_has_est_vs_actual_per_node(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        report = tpcd_db.explain_analyze(query.sql, mode=DynamicMode.FULL)
        assert len(report.plans) >= 1
        rendered = report.render()
        assert rendered.startswith("EXPLAIN ANALYZE")
        executed = [n for n in report.plans[-1].nodes if n.executed]
        assert executed  # Q3 has a LIMIT, so nodes above it never complete
        for analysis in executed:
            assert analysis.rows_q_error >= 1.0
            assert analysis.actual_bytes is not None
        assert "est:  rows=" in rendered and "act:  rows=" in rendered
        assert "q_error=" in rendered
        assert report.worst_q_error >= 1.0

    def test_collector_attribution(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        report = tpcd_db.explain_analyze(query.sql, mode=DynamicMode.FULL)
        insights = [
            n.collector
            for plan in report.plans
            for n in plan.nodes
            if n.collector is not None
        ]
        assert insights, "FULL mode should have placed collectors"
        fired = [i for i in insights if i.fired]
        assert fired
        for insight in fired:
            assert insight.observed_rows is not None
            assert insight.potential in ("low", "medium", "high")
            assert insight.verdict in ("predicted", "missed", "false-alarm", "ok")

    def test_result_rows_match_plain_execution(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q6")
        plain = tpcd_db.execute(query.sql, mode=DynamicMode.FULL)
        report = tpcd_db.explain_analyze(query.sql, mode=DynamicMode.FULL)
        assert report.result.rows == plain.rows

    def test_switched_query_reports_both_plans(self):
        db = build_switch_db(tracing=False)  # explain_analyze forces a tracer
        report = db.explain_analyze(
            RUNNING_EXAMPLE_SQL, params=SWITCH_PARAMS, mode=DynamicMode.FULL
        )
        assert len(report.plans) == 2
        abandoned, final = report.plans
        assert abandoned.outcome == "switched"
        assert abandoned.materialized_rows > 0
        assert final.outcome == "completed"
        # The abandoned plan distinguishes executed from never-run nodes.
        assert any(not n.executed for n in abandoned.nodes)
        assert any(n.executed for n in abandoned.nodes)
        assert all(n.executed for n in final.nodes)
        rendered = report.render()
        assert "abandoned by mid-query switch" in rendered
        assert "not executed" in rendered
        # Estimates come from the adoption-time snapshot, so the collector
        # that triggered the switch shows the real estimation error.
        worst = report.worst_q_error
        assert worst >= Q_ERROR_BAD

    def test_explain_with_attribution_shows_scia_choices(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        plan, scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        collectors = collector_nodes(plan)
        assert collectors
        assert all(c.scia_potential is not None for c in collectors)
        assert scia.kept or scia.dropped
        text = explain_with_attribution(plan)
        assert "scia:" in text and "potential=" in text


# ----------------------------------------------------------------------
# Traced mid-query plan switch (the acceptance-criteria scenario)
# ----------------------------------------------------------------------


class TestTracedPlanSwitch:
    @pytest.fixture(scope="class")
    def traced_switch(self):
        db = build_switch_db(tracing=True)
        result = db.execute(
            RUNNING_EXAMPLE_SQL, params=SWITCH_PARAMS, mode=DynamicMode.FULL
        )
        assert result.profile.plan_switches >= 1
        return result

    def test_exported_trace_is_valid_chrome_json(self, traced_switch, tmp_path):
        path = tmp_path / "switch.json"
        traced_switch.profile.trace.export_chrome(str(path))
        document = json.loads(path.read_text())
        assert validate_trace(document) == []
        assert validate_main([str(path)]) == 0

    def test_switch_decision_event_carries_estimate_delta(self, traced_switch):
        doc = traced_switch.profile.trace.to_chrome()
        decisions = [
            e for e in doc["traceEvents"] if e["name"] == "reopt-decision"
        ]
        switch = next(d for d in decisions if d["args"]["action"] == "switch")
        args = switch["args"]
        assert args["observed_rows"] > 0
        assert args["estimate_delta_rows"] == pytest.approx(
            args["observed_rows"] - args["estimated_rows"], abs=0.11
        )
        assert abs(args["estimate_delta_rows"]) > 0
        assert args["trigger_consider"] is True
        assert "t_new_total" in args and "t_cur_improved" in args

    def test_plan_switch_and_materialize_events_present(self, traced_switch):
        doc = traced_switch.profile.trace.to_chrome()
        names = [e["name"] for e in doc["traceEvents"]]
        assert "plan-switch" in names
        assert "switch-materialize" in names
        assert "collector-complete" in names
        assert "memory-allocate" in names
        plan_spans = [
            e for e in doc["traceEvents"] if e["ph"] == "B" and e["cat"] == "plan"
        ]
        assert len(plan_spans) == 2  # abandoned + adopted

    def test_abandoned_operator_spans_are_closed(self, traced_switch):
        trace = traced_switch.profile.trace
        abandoned = [
            s
            for s in trace.spans
            if s.category in ("operator", "pipeline") and s.args.get("abandoned")
        ]
        assert abandoned and all(s.closed for s in abandoned)

    def test_tracing_off_leaves_no_trace(self):
        db = build_switch_db(tracing=False)
        result = db.execute(
            RUNNING_EXAMPLE_SQL, params=SWITCH_PARAMS, mode=DynamicMode.FULL
        )
        assert result.profile.trace is None


# ----------------------------------------------------------------------
# Prometheus exporter
# ----------------------------------------------------------------------


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

JOIN_SQL = (
    "SELECT r.v, count(*) n FROM r, s "
    "WHERE s.r_k = r.k AND r.v < 8 GROUP BY r.v ORDER BY r.v"
)


def join_db(**overrides) -> Database:
    """Two joined tables on a fresh metrics registry."""
    db = Database(EngineConfig().with_updates(**overrides), metrics=MetricsRegistry())
    db.create_table(
        "r", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], key=["k"]
    )
    db.create_table(
        "s",
        [("k", DataType.INTEGER), ("r_k", DataType.INTEGER), ("v", DataType.INTEGER)],
        key=["k"],
    )
    db.load_rows("r", [(k, k % 10) for k in range(100)])
    db.load_rows("s", [(k, k % 100, k % 7) for k in range(200)])
    db.analyze()
    return db


SNAPSHOT = {
    "query.count": {"type": "counter", "value": 3},
    "broker.pages_in_use": {"type": "gauge", "value": 2.5},
    "query.wall_s": {
        "type": "histogram",
        "count": 4,
        "sum": 10.0,
        "min": 1.0,
        "max": 4.0,
        "buckets": {"le_1": 2, "le_10": 1, "le_inf": 1},
    },
}


class TestPrometheusExporter:
    def test_name_sanitization(self):
        assert prometheus_name("broker.grant_pages") == "repro_broker_grant_pages"
        assert prometheus_name("9weird metric!") == "repro_9weird_metric_"

    def test_counter_and_gauge_rendering(self):
        text = render_prometheus(SNAPSHOT)
        assert "# TYPE repro_query_count counter" in text
        assert "repro_query_count 3" in text
        assert "# TYPE repro_broker_pages_in_use gauge" in text
        assert "repro_broker_pages_in_use 2.5" in text

    def test_histogram_buckets_cumulate(self):
        lines = render_prometheus(SNAPSHOT).splitlines()
        buckets = [l for l in lines if l.startswith("repro_query_wall_s_bucket")]
        assert buckets == [
            'repro_query_wall_s_bucket{le="1"} 2',
            'repro_query_wall_s_bucket{le="10"} 3',
            'repro_query_wall_s_bucket{le="+Inf"} 4',
        ]
        assert "repro_query_wall_s_sum 10" in lines
        assert "repro_query_wall_s_count 4" in lines

    def test_live_snapshot_renders(self):
        db = join_db()
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        text = render_prometheus(db.metrics_snapshot())
        assert "repro_engine_queries 1" in text
        assert 'repro_query_simulated_cost_bucket{le="+Inf"} 1' in text

    def test_cli_round_trip(self, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(SNAPSHOT), encoding="utf-8")
        assert export_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_query_count 3" in out
        assert export_main([str(tmp_path / "missing.json")]) == 2

    def test_cli_runs_without_the_engine(self, tmp_path):
        # The exporter is a scrape-side tool: it must work as a plain
        # script in an environment where the engine is not importable.
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(SNAPSHOT), encoding="utf-8")
        script = os.path.join(SRC_DIR, "repro", "observe", "export.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(tmp_path)  # repro is NOT on the path
        proc = subprocess.run(
            [sys.executable, script, str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "repro_query_count 3" in proc.stdout


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_gates_emission(self, tmp_path):
        log = str(tmp_path / "slow.jsonl")
        db = join_db(slow_query_s=1e-9, slow_query_path=log)
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        db.execute("SELECT count(*) n FROM r", mode=DynamicMode.OFF)
        lines = open(log, encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["event"] == "slow_query"
        assert record["sql"] == JOIN_SQL
        assert record["total_wall_s"] >= 0.0
        assert record["threshold_s"] == 1e-9
        snapshot = db.metrics.snapshot()
        assert snapshot["slow_query.count"]["value"] == 2

    def test_fast_queries_not_logged(self, tmp_path):
        log = str(tmp_path / "slow.jsonl")
        db = join_db(slow_query_s=3600.0, slow_query_path=log)
        db.execute("SELECT count(*) n FROM r", mode=DynamicMode.OFF)
        assert not os.path.exists(log)

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY", raising=False)
        assert EngineConfig().slow_query_s == 0.0

    def test_emit_to_stream(self):
        db = join_db()
        profile = db.execute(JOIN_SQL, mode=DynamicMode.OFF).profile
        stream = io.StringIO()
        record = emit_slow_query(profile, threshold_s=0.5, stream=stream)
        parsed = json.loads(stream.getvalue())
        assert parsed == json.loads(json.dumps(record))
        assert parsed["threshold_s"] == 0.5

    def test_record_shape(self):
        db = join_db()
        profile = db.execute(JOIN_SQL, mode=DynamicMode.OFF).profile
        record = build_slow_query_record(profile, threshold_s=0.25)
        for key in (
            "event", "ts", "sql", "total_wall_s", "compile_wall_s",
            "execute_wall_s", "simulated_cost", "rows", "plan_switches",
        ):
            assert key in record, key
