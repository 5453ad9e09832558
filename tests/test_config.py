"""Tests for configuration validation and the error hierarchy."""

import pytest

from repro import EngineConfig, ReproError
from repro.config import CostParameters, ReoptimizationParameters
from repro.errors import (
    BindError,
    CatalogError,
    ConfigError,
    ExecutionError,
    LexerError,
    MemoryGrantError,
    OptimizerError,
    ParseError,
    SqlError,
    StatisticsError,
    StorageError,
)


class TestCostParameters:
    def test_defaults_valid(self):
        CostParameters().validate()

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError):
            CostParameters(seq_page_read=0).validate()
        with pytest.raises(ConfigError):
            CostParameters(cpu_per_tuple=-1).validate()

    def test_random_costs_more_than_sequential(self):
        params = CostParameters()
        assert params.rand_page_read > params.seq_page_read

    def test_stats_cpu_below_tuple_cpu(self):
        # The paper treats cardinality counting as negligible.
        params = CostParameters()
        assert params.cpu_stats_per_tuple < params.cpu_per_tuple


class TestReoptimizationParameters:
    def test_paper_defaults(self):
        params = ReoptimizationParameters()
        assert params.mu == 0.05
        assert params.theta1 == 0.05
        assert params.theta2 == 0.2

    def test_mu_range(self):
        with pytest.raises(ConfigError):
            ReoptimizationParameters(mu=-0.1).validate()
        with pytest.raises(ConfigError):
            ReoptimizationParameters(mu=1.5).validate()
        ReoptimizationParameters(mu=0.0).validate()
        ReoptimizationParameters(mu=1.0).validate()

    def test_thetas_non_negative(self):
        with pytest.raises(ConfigError):
            ReoptimizationParameters(theta1=-1).validate()
        with pytest.raises(ConfigError):
            ReoptimizationParameters(theta2=-1).validate()


class TestEngineConfig:
    def test_defaults_valid(self):
        EngineConfig().validate()

    def test_with_updates_returns_validated_copy(self):
        base = EngineConfig()
        updated = base.with_updates(query_memory_pages=64)
        assert updated.query_memory_pages == 64
        assert base.query_memory_pages != 64 or base is not updated

    def test_with_updates_rejects_invalid(self):
        with pytest.raises(ConfigError):
            EngineConfig().with_updates(page_size=0)
        with pytest.raises(ConfigError):
            EngineConfig().with_updates(buffer_pool_pages=-5)
        with pytest.raises(ConfigError):
            EngineConfig().with_updates(hash_fudge_factor=0.5)
        with pytest.raises(ConfigError):
            EngineConfig().with_updates(reservoir_sample_size=0)
        with pytest.raises(ConfigError):
            EngineConfig().with_updates(runtime_histogram_buckets=0)

    def test_paper_memory_example(self):
        # 8 MB at 4 KB pages = 2048 pages (the section 2.3 walk-through).
        config = EngineConfig()
        assert config.query_memory_pages * config.page_size == 8 * 1024 * 1024


FLAG_FIELDS = {
    "REPRO_TRACE": "tracing",
    "REPRO_SERVER": "server_mode",
    "REPRO_FEEDBACK": "feedback_enabled",
}


class TestEnvironment:
    """The deployment variables parse strictly: a value that is not a
    recognised flag or number is an error naming the variable, never a
    silent default."""

    @pytest.mark.parametrize("variable", sorted(FLAG_FIELDS))
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("1", True), ("true", True), ("TRUE", True), ("yes", True),
            ("On", True), ("0", False), ("false", False), ("FALSE", False),
            ("no", False), ("off", False), ("Off", False), ("", False),
        ],
    )
    def test_flag_spellings(self, monkeypatch, variable, raw, expected):
        monkeypatch.setenv(variable, raw)
        assert getattr(EngineConfig(), FLAG_FIELDS[variable]) is expected

    @pytest.mark.parametrize("variable", sorted(FLAG_FIELDS))
    @pytest.mark.parametrize("raw", ["2", "enabled", "y", "t rue"])
    def test_malformed_flag_names_the_variable(self, monkeypatch, variable, raw):
        monkeypatch.setenv(variable, raw)
        with pytest.raises(ConfigError, match=variable):
            EngineConfig()

    @pytest.mark.parametrize(
        "variable, field_name, raw, expected",
        [
            ("REPRO_MAX_SESSIONS", "max_sessions", "2", 2),
            ("REPRO_MAX_SESSIONS", "max_sessions", "", 4),
            ("REPRO_SLOW_QUERY", "slow_query_s", "0.25", 0.25),
            ("REPRO_SLOW_QUERY", "slow_query_s", "3", 3.0),
            ("REPRO_SLOW_QUERY", "slow_query_s", "", 0.0),
        ],
    )
    def test_numbers(self, monkeypatch, variable, field_name, raw, expected):
        monkeypatch.setenv(variable, raw)
        assert getattr(EngineConfig(), field_name) == expected

    @pytest.mark.parametrize(
        "variable, raw",
        [
            ("REPRO_MAX_SESSIONS", "two"),
            ("REPRO_MAX_SESSIONS", "2.5"),
            ("REPRO_SLOW_QUERY", "1s"),
            ("REPRO_SLOW_QUERY", "fast"),
        ],
    )
    def test_malformed_number_names_the_variable(self, monkeypatch, variable, raw):
        monkeypatch.setenv(variable, raw)
        with pytest.raises(ConfigError, match=variable):
            EngineConfig()

    @pytest.mark.parametrize(
        "variable, raw",
        [
            ("REPRO_EXECUTION_MODE", "row"),
            ("REPRO_ZONE_MAP_COST", "free"),
            ("REPRO_ADMISSION_QUEUE", "bogus"),
            ("REPRO_SESSION_MEMORY", "static"),
            ("REPRO_SERVER_WORKER_MODE", "fork"),
        ],
    )
    def test_removed_variables_are_not_read(self, monkeypatch, variable, raw):
        before = EngineConfig()
        monkeypatch.setenv(variable, raw)
        assert EngineConfig() == before


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc_type in (
            BindError, CatalogError, ConfigError, ExecutionError, LexerError,
            MemoryGrantError, OptimizerError, ParseError, SqlError,
            StatisticsError, StorageError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_sql_errors_grouped(self):
        assert issubclass(LexerError, SqlError)
        assert issubclass(ParseError, SqlError)
        assert issubclass(BindError, SqlError)

    def test_memory_grant_is_execution_error(self):
        assert issubclass(MemoryGrantError, ExecutionError)

    def test_lexer_error_carries_position(self):
        err = LexerError("bad", 17)
        assert err.position == 17
        assert "17" in str(err)
