"""Tests for parametric plans and the section 4 hybrid."""

import pytest

from repro import Database, DynamicMode
from repro.bench.harness import rows_equivalent
from repro.core.parametric import (
    DEFAULT_SCENARIOS,
    ParametricOptimizer,
    actual_parameter_selectivity,
    choose_plan,
    has_parameter_predicates,
    plan_signature,
)
from repro.errors import OptimizerError
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)

from .conftest import make_two_table_db


@pytest.fixture(scope="module")
def db():
    database = Database()
    build_running_example(
        database,
        SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=0.0),
    )
    return database


class TestParametricOptimizer:
    def test_requires_parameters(self, db):
        query = db.bind_sql("SELECT groupattr one FROM rel1")
        with pytest.raises(OptimizerError):
            ParametricOptimizer(db.catalog, db.config).optimize(query)

    def test_has_parameter_predicates(self, db):
        with_params = db.bind_sql(
            "SELECT groupattr one FROM rel1 WHERE selectattr1 < :v", params={"v": 5}
        )
        without = db.bind_sql("SELECT groupattr one FROM rel1 WHERE selectattr1 < 5")
        assert has_parameter_predicates(with_params)
        assert not has_parameter_predicates(without)

    def test_scenarios_deduplicated(self, db):
        query = db.bind_sql(
            RUNNING_EXAMPLE_SQL, params={"value1": 50, "value2": 50}
        )
        parametric = ParametricOptimizer(db.catalog, db.config).optimize(query)
        assert 1 <= parametric.plan_count <= len(DEFAULT_SCENARIOS)
        signatures = {plan_signature(s.plan) for s in parametric.scenarios}
        assert len(signatures) == parametric.plan_count

    def test_scenarios_annotated(self, db):
        query = db.bind_sql(
            RUNNING_EXAMPLE_SQL, params={"value1": 50, "value2": 50}
        )
        parametric = ParametricOptimizer(db.catalog, db.config).optimize(query)
        for scenario in parametric.scenarios:
            assert scenario.estimated_cost > 0
            assert scenario.plan.est.total_cost > 0


class TestChoice:
    def test_actual_selectivity_tracks_values(self, db):
        selective = db.bind_sql(
            RUNNING_EXAMPLE_SQL, params={"value1": 3, "value2": 3}
        )
        broad = db.bind_sql(
            RUNNING_EXAMPLE_SQL, params={"value1": 95, "value2": 95}
        )
        sel_low = actual_parameter_selectivity(selective, db.catalog)
        sel_high = actual_parameter_selectivity(broad, db.catalog)
        assert sel_low < 0.1 < sel_high

    def test_choose_matches_regime(self, db):
        optimizer = ParametricOptimizer(db.catalog, db.config)
        selective_query = db.bind_sql(
            RUNNING_EXAMPLE_SQL, params={"value1": 3, "value2": 3}
        )
        parametric = optimizer.optimize(selective_query)
        scenario, actual = choose_plan(parametric, db.catalog)
        assert actual == pytest.approx(
            actual_parameter_selectivity(selective_query, db.catalog)
        )
        # The chosen scenario must be the nearest anticipated case.
        import math

        best_distance = abs(
            math.log(max(scenario.assumed_selectivity, 1e-6)) - math.log(max(actual, 1e-6))
        )
        for other in parametric.scenarios:
            distance = abs(
                math.log(max(other.assumed_selectivity, 1e-6))
                - math.log(max(actual, 1e-6))
            )
            assert best_distance <= distance + 1e-12

    def test_no_parameters_means_selectivity_one(self, db):
        query = db.bind_sql("SELECT groupattr one FROM rel1")
        assert actual_parameter_selectivity(query, db.catalog) == 1.0


class TestHybridExecution:
    def test_parametric_execution_matches_results(self, db):
        params = {"value1": 85, "value2": 85}
        plain = db.execute(RUNNING_EXAMPLE_SQL, params=params, mode=DynamicMode.OFF)
        hybrid = db.execute(
            RUNNING_EXAMPLE_SQL, params=params, mode=DynamicMode.FULL,
            parametric=True,
        )
        assert rows_equivalent(plain.rows, hybrid.rows)
        assert hybrid.profile.parametric_plan_count >= 1
        assert "chose" in hybrid.profile.parametric_choice

    def test_parametric_beats_static_on_misparameterised_query(self, db):
        # Broad parameters: the static plan assumed the 1/3 default, the
        # parametric choice knows the true ~0.85 selectivity up front.
        params = {"value1": 85, "value2": 85}
        static = db.execute(RUNNING_EXAMPLE_SQL, params=params, mode=DynamicMode.OFF)
        parametric_only = db.execute(
            RUNNING_EXAMPLE_SQL, params=params, mode=DynamicMode.OFF,
            parametric=True,
        )
        assert parametric_only.profile.total_cost <= static.profile.total_cost * 1.02

    def test_parametric_flag_is_noop_without_parameters(self, db):
        sql = "SELECT groupattr, count(*) n FROM rel1 GROUP BY groupattr"
        result = db.execute(sql, mode=DynamicMode.OFF, parametric=True)
        assert result.profile.parametric_plan_count == 0
        assert result.profile.parametric_choice == ""

    def test_hybrid_keeps_reoptimization_armed(self):
        # Correlated data: the parametric choice fixes the parameter error
        # but not the correlation error, so the hybrid may still switch.
        database = Database()
        build_running_example(
            database,
            SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0),
        )
        params = {"value1": 80, "value2": 80}
        hybrid = database.execute(
            RUNNING_EXAMPLE_SQL, params=params, mode=DynamicMode.FULL,
            parametric=True,
        )
        static_full = database.execute(
            RUNNING_EXAMPLE_SQL, params=params, mode=DynamicMode.FULL,
        )
        off = database.execute(RUNNING_EXAMPLE_SQL, params=params, mode=DynamicMode.OFF)
        assert rows_equivalent(off.rows, hybrid.rows)
        assert hybrid.profile.total_cost <= off.profile.total_cost
        # The hybrid is at least as good as pure re-optimization here.
        assert hybrid.profile.total_cost <= static_full.profile.total_cost * 1.05
