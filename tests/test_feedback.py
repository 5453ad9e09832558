"""Persistent Q-error feedback repository (``observe.feedback``) tests.

Covers the full loop: fragment-signature normalization, the repository's
correction/decay/poisoning math, absorption at query end, the estimator
and plan-cache consumers, persistence across processes, and the two
observability satellites that ride along (the Prometheus exporter and the
slow-query log).  The zero-perturbation contract — feedback disabled, or
enabled with an empty store, changes nothing about a first execution — is
asserted bit-exactly.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.observe.export import main as export_main
from repro.observe.export import prometheus_name, render_prometheus
from repro.observe.feedback import (
    EdgeRecord,
    FeedbackRecord,
    FeedbackRepository,
    fragment_signature,
    plan_signatures,
)
from repro.observe.metrics import MetricsRegistry
from repro.observe.slowlog import build_slow_query_record, emit_slow_query
from repro.plans.physical import HashJoinNode, SeqScanNode
from repro.storage import Column, Schema

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

JOIN_SQL = (
    "SELECT r.v, count(*) n FROM r, s "
    "WHERE s.r_k = r.k AND r.v < 8 GROUP BY r.v ORDER BY r.v"
)


def populate(db: Database, stale: bool = True) -> None:
    """Two joined tables whose statistics understate the truth 10x when
    ``stale`` — the shape that makes feedback records worth having."""
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
    if stale:
        db.load_rows("r", [(k, k % 10) for k in range(100, 1000)])
        db.load_rows("s", [(k, k % 1000, k % 7) for k in range(200, 2000)])


def feedback_db(path: str = "", **overrides) -> Database:
    config = EngineConfig().with_updates(
        feedback_enabled=True, feedback_path=path, **overrides
    )
    db = Database(config, metrics=MetricsRegistry())
    populate(db)
    return db


# ----------------------------------------------------------------------
# Fragment signatures
# ----------------------------------------------------------------------


class TestFragmentSignatures:
    def _root_signature(self, db: Database, sql: str) -> str:
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.OFF)
        return fragment_signature(plan)

    def test_alias_collapses_to_base_table(self):
        db = feedback_db()
        with_alias = self._root_signature(
            db, "SELECT x.v FROM r x WHERE x.v < 3"
        )
        without = self._root_signature(db, "SELECT r.v FROM r WHERE r.v < 3")
        assert with_alias == without

    def test_predicate_order_is_canonical(self):
        db = feedback_db()
        one = self._root_signature(
            db, "SELECT r.v FROM r WHERE r.v < 3 AND r.k > 10"
        )
        two = self._root_signature(
            db, "SELECT r.v FROM r WHERE r.k > 10 AND r.v < 3"
        )
        assert one == two

    def test_access_path_invariance(self):
        # The same sargable predicate via a seq-scan filter and via an
        # index scan must share one fragment record.
        db = feedback_db()
        before = self._root_signature(db, "SELECT r.v FROM r WHERE r.k < 50")
        db.create_index("ix_r_k", "r", "k")
        after = self._root_signature(db, "SELECT r.v FROM r WHERE r.k < 50")
        assert before == after

    def test_join_orientation_commutes(self):
        schema_a = Schema([Column("k", DataType.INTEGER)]).qualify("a")
        schema_b = Schema([Column("a_k", DataType.INTEGER)]).qualify("b")
        scan_a = SeqScanNode("a", "a", schema_a)
        scan_b = SeqScanNode("b", "b", schema_b)
        one = HashJoinNode(scan_a, scan_b, [("a.k", "b.a_k")])
        scan_a2 = SeqScanNode("a", "a", schema_a)
        scan_b2 = SeqScanNode("b", "b", schema_b)
        two = HashJoinNode(scan_b2, scan_a2, [("b.a_k", "a.k")])
        assert fragment_signature(one) == fragment_signature(two)

    def test_transparent_operators_share_child_identity(self):
        db = feedback_db()
        plan, __scia, __opt = db.plan(
            "SELECT r.v FROM r WHERE r.v < 3 ORDER BY r.v", mode=DynamicMode.OFF
        )
        signatures = plan_signatures(plan)
        # Sort/project lids on top of the filter collapse: fewer distinct
        # signatures than nodes.
        assert len(set(signatures.values())) < len(signatures)


# ----------------------------------------------------------------------
# Repository math
# ----------------------------------------------------------------------


def seeded_repo(**record_overrides) -> tuple[FeedbackRepository, FeedbackRecord]:
    repo = FeedbackRepository(
        q_error_threshold=2.0, decay=0.9, max_correction=100.0
    )
    fields = dict(
        signature="sig",
        fragment="scan(t)",
        est_rows=10.0,
        observed_rows=1000.0,
        q_error=100.0,
        source="collector",
        epoch=1,
        stats_epoch=5,
    )
    fields.update(record_overrides)
    record = FeedbackRecord(**fields)
    repo._records[record.signature] = record
    return repo, record


class TestRepositoryMath:
    def test_full_confidence_correction_reaches_observation(self):
        repo, __ = seeded_repo()
        corrected, record = repo.corrected_rows("sig", 10.0, stats_epoch=5)
        assert corrected == pytest.approx(1000.0)
        assert record.corrections == 1

    def test_decay_tempers_stale_records(self):
        repo, __ = seeded_repo()
        corrected, __ = repo.corrected_rows("sig", 10.0, stats_epoch=7)
        # Two stats epochs of churn: est * 100 ** (0.9 ** 2)
        assert corrected == pytest.approx(10.0 * 100.0 ** (0.9**2))
        assert corrected < 1000.0

    def test_exact_record_correction_bounded_by_observation(self):
        # An exact record's own observation is the bound: full confidence
        # moves the estimate all the way to ground truth however large the
        # error — max_correction only clamps the edge-fallback extrapolation
        # (see test_edge_factor_clamped_at_bound).
        repo, __ = seeded_repo(observed_rows=10_000_000.0)
        corrected, __ = repo.corrected_rows("sig", 10.0, stats_epoch=5)
        assert corrected == pytest.approx(10_000_000.0)

    def test_edge_fallback_corrects_unseen_fragments(self):
        repo, __ = seeded_repo()
        repo._edges["t.a = u.b"] = EdgeRecord(
            key="t.a = u.b", factor=8.0, epoch=1, stats_epoch=5
        )
        corrected, record = repo.corrected_rows(
            "unseen", 50.0, stats_epoch=5, edge_key="t.a = u.b"
        )
        assert corrected == pytest.approx(400.0)
        assert record.source == "edge"
        # Synthetic record: never enters the store.
        assert "unseen" not in repo._records

    def test_edge_factor_clamped_at_bound(self):
        repo, __ = seeded_repo()
        repo._edges["t.a = u.b"] = EdgeRecord(
            key="t.a = u.b", factor=1e6, epoch=1, stats_epoch=5
        )
        corrected, __ = repo.corrected_rows(
            "unseen", 10.0, stats_epoch=5, edge_key="t.a = u.b"
        )
        assert corrected == pytest.approx(10.0 * repo.max_correction)

    def test_exact_record_wins_over_edge_fallback(self):
        repo, __ = seeded_repo()
        repo._edges["t.a = u.b"] = EdgeRecord(
            key="t.a = u.b", factor=7.0, epoch=1, stats_epoch=5
        )
        corrected, record = repo.corrected_rows(
            "sig", 10.0, stats_epoch=5, edge_key="t.a = u.b"
        )
        assert corrected == pytest.approx(1000.0)
        assert record.source == "collector"

    def test_close_estimates_left_untouched(self):
        repo, record = seeded_repo(observed_rows=1000.0)
        assert repo.corrected_rows("sig", 900.0, stats_epoch=5) is None
        assert record.corrections == 0
        assert record.hits == 1

    def test_unknown_signature_is_none(self):
        repo, __ = seeded_repo()
        assert repo.corrected_rows("other", 10.0, stats_epoch=5) is None

    def test_risk_score_scales_with_severity_and_recency(self):
        repo, __ = seeded_repo()
        assert repo.risk_score("missing", stats_epoch=5) == 0.0
        fresh = repo.risk_score("sig", stats_epoch=5)
        stale = repo.risk_score("sig", stats_epoch=8)
        assert 0.0 < stale < fresh <= 1.0

    def test_good_records_carry_no_risk(self):
        repo, __ = seeded_repo(q_error=1.2)
        assert repo.risk_score("sig", stats_epoch=5) == 0.0
        assert not repo.risky("sig")

    def test_poisoned_since_respects_epoch_fence(self):
        repo, __ = seeded_repo(epoch=3)
        assert "sig" in repo.poisoned_since(2)
        assert repo.poisoned_since(3) == frozenset()

    def test_good_records_never_poison(self):
        repo, __ = seeded_repo(epoch=3, q_error=1.1)
        assert repo.poisoned_since(0) == frozenset()


# ----------------------------------------------------------------------
# Zero perturbation
# ----------------------------------------------------------------------


class TestZeroPerturbation:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FEEDBACK", raising=False)
        db = Database()
        assert db.feedback is None
        assert db.feedback_report() == {"enabled": False}

    def test_first_execution_bit_identical_to_disabled(self):
        enabled = feedback_db()
        disabled = Database(
            EngineConfig(feedback_enabled=False), metrics=MetricsRegistry()
        )
        populate(disabled)
        on = enabled.execute(JOIN_SQL, mode=DynamicMode.FULL)
        off = disabled.execute(JOIN_SQL, mode=DynamicMode.FULL)
        assert on.rows == off.rows
        assert on.profile.total_cost == off.profile.total_cost
        assert on.profile.breakdown == off.profile.breakdown
        assert on.profile.plan_switches == off.profile.plan_switches
        # ... but the enabled engine kept what it learned.
        assert on.profile.feedback_records > 0
        assert off.profile.feedback_records == 0


# ----------------------------------------------------------------------
# The learning loop end to end
# ----------------------------------------------------------------------


class TestLearningLoop:
    def test_absorption_records_misestimates(self):
        db = feedback_db()
        result = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert result.profile.feedback_records > 0
        report = db.feedback_report()
        assert report["enabled"]
        assert report["queries_absorbed"] == 1
        assert report["record_count"] == result.profile.feedback_records
        # Stats understate reality 10x, so the worst fragment is far off.
        assert report["records"][0]["q_error"] > 2.0
        assert result.profile.feedback_worst_q_error > 2.0
        assert result.profile.feedback_worst_fragment

    def test_second_execution_applies_corrections(self):
        db = feedback_db()
        first = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert first.profile.feedback_corrections == 0
        second = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert second.profile.feedback_corrections > 0
        assert second.rows == first.rows
        snapshot = db.metrics.snapshot()
        assert snapshot["feedback.corrections"]["value"] > 0

    def test_aggregate_q_error_falls(self):
        db = feedback_db()
        first = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        second = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert (
            second.profile.feedback_worst_q_error
            < first.profile.feedback_worst_q_error
        )
        assert second.rows == first.rows

    def test_poisoned_plan_cache_entry_invalidated(self):
        db = feedback_db()
        first = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert not first.profile.plan_cache_hit
        # The entry was stored before absorption recorded its fragments as
        # badly estimated, so the next lookup evicts and re-prepares with
        # corrections instead of reusing the misestimated plan.
        second = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert not second.profile.plan_cache_hit
        assert db.plan_cache.stats.feedback_invalidations >= 1
        # Once the corrected plan's own estimates match reality, the entry
        # stops being poisoned and caching resumes.
        third = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert third.rows == first.rows

    def test_confidence_ages_with_the_catalog_not_with_switches(self):
        """Decay counts epochs the *catalog* churned: another statement's
        mid-query plan switch is not one, ``ANALYZE`` is."""
        from repro.workloads.synthetic import (
            RUNNING_EXAMPLE_SQL,
            SyntheticConfig,
            build_running_example,
        )

        db = Database(
            EngineConfig().with_updates(feedback_enabled=True, feedback_path=""),
            metrics=MetricsRegistry(),
        )
        build_running_example(
            db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
        )
        populate(db)
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        record = db.feedback.lookup(db.feedback_report()["records"][0]["signature"])
        assert db.feedback.confidence(record, db.catalog.stats_epoch) == 1.0
        switching = db.execute(
            RUNNING_EXAMPLE_SQL,
            params={"value1": 80, "value2": 80},
            mode=DynamicMode.FULL,
        )
        assert switching.profile.plan_switches >= 1
        assert db.feedback.confidence(record, db.catalog.stats_epoch) == 1.0
        db.analyze("rel2")
        assert db.feedback.confidence(
            record, db.catalog.stats_epoch
        ) == db.feedback.decay

    def test_explain_analyze_annotates_corrections(self):
        db = feedback_db()
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        report = db.explain_analyze(JOIN_SQL, mode=DynamicMode.OFF)
        assert "feedback: corrected rows" in report.render()

    def test_fresh_statistics_stop_corrections(self):
        db = feedback_db()
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        db.analyze()  # histogram now agrees with reality
        result = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        # Records exist but the estimates are good, so the Q-error gate
        # keeps feedback from touching them.
        assert result.profile.feedback_corrections == 0


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


class TestPersistence:
    def test_store_written_and_reloaded(self, tmp_path):
        store = str(tmp_path / "feedback.json")
        db = feedback_db(path=store)
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert os.path.exists(store)
        document = json.loads(open(store, encoding="utf-8").read())
        assert document["version"] == 1
        assert document["records"]

        reopened = feedback_db(path=store)
        assert len(reopened.feedback) == len(db.feedback)
        # A fresh engine's *first* execution already benefits.
        result = reopened.execute(JOIN_SQL, mode=DynamicMode.OFF)
        assert result.profile.feedback_corrections > 0

    def test_save_merges_with_concurrent_writers(self, tmp_path):
        store = str(tmp_path / "feedback.json")
        ours = FeedbackRepository(path=store)
        ours._records["a"] = FeedbackRecord(
            signature="a", fragment="scan(a)", est_rows=1.0,
            observed_rows=10.0, q_error=10.0, source="collector",
        )
        ours.save()
        theirs = FeedbackRepository(path=store)
        theirs._records["b"] = FeedbackRecord(
            signature="b", fragment="scan(b)", est_rows=2.0,
            observed_rows=2.0, q_error=1.0, source="execution",
        )
        theirs.save()
        merged = FeedbackRepository(path=store)
        assert {"a", "b"} <= set(merged._records)

    def test_corrupt_store_ignored(self, tmp_path):
        store = str(tmp_path / "feedback.json")
        open(store, "w", encoding="utf-8").write("{not json")
        repo = FeedbackRepository(path=store)
        assert len(repo) == 0

    def test_corrections_apply_across_processes(self, tmp_path):
        store = str(tmp_path / "feedback.json")
        db = feedback_db(path=store)
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        script = textwrap.dedent(
            f"""
            from repro import Database, DataType, DynamicMode, EngineConfig
            from tests.test_feedback import JOIN_SQL, populate

            db = Database(EngineConfig(
                feedback_enabled=True, feedback_path={store!r}))
            populate(db)
            result = db.execute(JOIN_SQL, mode=DynamicMode.OFF)
            assert result.profile.feedback_corrections > 0, "no corrections"
            print("corrected", result.profile.feedback_corrections)
            """
        )
        env = dict(os.environ)
        root = os.path.dirname(SRC_DIR)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR, root, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        env.pop("REPRO_FEEDBACK", None)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "corrected" in proc.stdout


# ----------------------------------------------------------------------
# Prometheus exporter
# ----------------------------------------------------------------------


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
        db = feedback_db()
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        text = render_prometheus(db.metrics_snapshot())
        assert "repro_feedback_records" in text
        assert 'le="+Inf"' in text

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
        db = feedback_db(slow_query_s=1e-9, slow_query_path=log)
        db.execute(JOIN_SQL, mode=DynamicMode.OFF)
        db.execute("SELECT count(*) n FROM r", mode=DynamicMode.OFF)
        lines = open(log, encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["event"] == "slow_query"
        assert record["sql"] == JOIN_SQL
        assert record["total_wall_s"] >= 0.0
        assert record["threshold_s"] == 1e-9
        assert record["feedback"]["records"] > 0
        snapshot = db.metrics.snapshot()
        assert snapshot["slow_query.count"]["value"] == 2

    def test_fast_queries_not_logged(self, tmp_path):
        log = str(tmp_path / "slow.jsonl")
        db = feedback_db(slow_query_s=3600.0, slow_query_path=log)
        db.execute("SELECT count(*) n FROM r", mode=DynamicMode.OFF)
        assert not os.path.exists(log)

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY", raising=False)
        assert EngineConfig().slow_query_s == 0.0

    def test_emit_to_stream(self):
        db = feedback_db()
        profile = db.execute(JOIN_SQL, mode=DynamicMode.OFF).profile
        stream = io.StringIO()
        record = emit_slow_query(profile, threshold_s=0.5, stream=stream)
        parsed = json.loads(stream.getvalue())
        assert parsed == json.loads(json.dumps(record))
        assert parsed["threshold_s"] == 0.5

    def test_record_shape(self):
        db = feedback_db()
        profile = db.execute(JOIN_SQL, mode=DynamicMode.OFF).profile
        record = build_slow_query_record(profile, threshold_s=0.25)
        for key in (
            "event", "ts", "sql", "total_wall_s", "compile_wall_s",
            "execute_wall_s", "simulated_cost", "rows", "plan_switches",
        ):
            assert key in record, key
