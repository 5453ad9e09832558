"""Tests for the Database facade, results and profiles."""

import pytest

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.errors import BindError, CatalogError, ConfigError
from repro.storage import Column, Schema
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)

from .conftest import make_two_table_db


class TestDatabaseDdl:
    def test_create_table_from_tuples(self):
        db = Database()
        table = db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.STRING)])
        assert table.schema.names == ("a", "b")

    def test_create_table_from_schema(self):
        db = Database()
        schema = Schema([Column("x", DataType.FLOAT)])
        table = db.create_table("t", schema)
        assert table.schema is schema

    def test_load_rows_rebuilds_indexes(self):
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER)])
        db.load_rows("t", [(i,) for i in range(10)])
        db.create_index("ix", "t", "a")
        db.load_rows("t", [(99,)])
        index = db.catalog.index_on("t", "a")
        assert len(index.lookup_eq(99)) == 1

    def test_drop_and_contains(self):
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER)])
        assert "t" in db
        db.drop_table("t")
        assert "t" not in db

    def test_require_tables(self):
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER)])
        db.require_tables(["t"])
        with pytest.raises(CatalogError):
            db.require_tables(["t", "missing"])

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            Database(EngineConfig().with_updates(query_memory_pages=-1))

    def test_analyze_skips_temp_tables(self):
        db = Database()
        db.create_table("__temp_zzz", [("a", DataType.INTEGER)])
        db.analyze()  # must not raise


class TestExecute:
    def test_result_interface(self, two_table_db):
        result = two_table_db.execute(
            "SELECT a, count(*) n FROM r1 GROUP BY a", mode=DynamicMode.OFF
        )
        assert len(result) == len(result.rows)
        assert result.column_names == ("a", "n")
        assert sum(result.column("n")) == 2000
        dicts = result.to_dicts()
        assert set(dicts[0]) == {"a", "n"}
        rendered = result.format_table(limit=5)
        assert "a" in rendered and "-" in rendered

    def test_explain_smoke(self, two_table_db):
        text = two_table_db.explain(
            "SELECT r1.a one FROM r1, r2 WHERE r1.id = r2.r1_id"
        )
        assert "HashJoin" in text or "IndexNLJoin" in text

    def test_profile_fields(self, two_table_db):
        result = two_table_db.execute("SELECT a FROM r1 WHERE a < 5", mode=DynamicMode.OFF)
        profile = result.profile
        assert profile.total_cost > 0
        assert profile.row_count == len(result)
        assert profile.mode == "off"
        assert profile.optimizer_invocations == 1
        assert profile.initial_estimated_cost > 0
        assert "mode=off" in profile.summary()

    def test_memory_budget_override(self):
        db = make_two_table_db(config=EngineConfig(query_memory_pages=10_000))
        generous = db.execute(
            "SELECT r1.a one, r2.c two FROM r1, r2 WHERE r1.id = r2.r1_id",
            mode=DynamicMode.OFF,
        )
        assert generous.profile.breakdown.write == 0

    def test_bind_error_propagates(self, two_table_db):
        with pytest.raises(BindError):
            two_table_db.execute("SELECT missing FROM r1")

    def test_udf_round_trip(self, two_table_db):
        two_table_db.register_udf("plus_one", lambda x: x + 1)
        result = two_table_db.execute(
            "SELECT count(*) n FROM r1 WHERE plus_one(a) = 5", mode=DynamicMode.OFF
        )
        expected = sum(1 for row in two_table_db.table("r1").rows if row[1] + 1 == 5)
        assert result.rows[0][0] == expected

    def test_udf_in_a_switched_remainder(self):
        # The remainder is re-bound from its SQL text after a switch, so the
        # session's UDFs must reach that bind too.
        db = Database()
        build_running_example(
            db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
        )
        db.register_udf("ident", lambda x: x)
        sql = RUNNING_EXAMPLE_SQL.replace(
            "avg(rel1.selectattr2)", "avg(ident(rel3.joinattr3))"
        )
        params = {"value1": 80, "value2": 80}
        full = db.execute(sql, params=params, mode=DynamicMode.FULL)
        assert full.profile.plan_switches == 1
        assert "ident(" in full.profile.remainder_sqls[0]
        off = db.execute(sql, params=params, mode=DynamicMode.OFF)
        assert sorted(full.rows) == sorted(off.rows)

    def test_executions_are_deterministic(self, two_table_db):
        sql = "SELECT r1.a, sum(r2.c) s FROM r1, r2 WHERE r1.id = r2.r1_id GROUP BY r1.a"
        first = two_table_db.execute(sql, mode=DynamicMode.FULL)
        second = two_table_db.execute(sql, mode=DynamicMode.FULL)
        assert first.profile.total_cost == pytest.approx(second.profile.total_cost)
        assert sorted(map(str, first.rows)) == sorted(map(str, second.rows))

    def test_stats_overhead_fraction(self, two_table_db):
        result = two_table_db.execute(
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 WHERE r1.id = r2.r1_id "
            "AND r1.a < 50 GROUP BY r1.a",
            mode=DynamicMode.FULL,
        )
        assert 0.0 <= result.profile.stats_overhead_fraction < 0.2
