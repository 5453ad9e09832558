"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import Database, DataType, EngineConfig
from repro.config import CostParameters
from repro.optimizer import CostModel
from repro.stats.histogram import HistogramKind
from repro.storage import BufferPool, Catalog, Column, CostClock, Schema, TempTableManager


@pytest.fixture
def config() -> EngineConfig:
    """Default engine configuration."""
    return EngineConfig()


@pytest.fixture
def clock(config) -> CostClock:
    """A fresh cost clock."""
    return CostClock(config.cost)


@pytest.fixture
def catalog(config) -> Catalog:
    """An empty catalog."""
    return Catalog(config.page_size)


@pytest.fixture
def buffer_pool(config, clock) -> BufferPool:
    """A buffer pool bound to the clock."""
    return BufferPool(config.buffer_pool_pages, clock)


def make_two_table_db(
    r1_rows: int = 2000, r2_rows: int = 8000, seed: int = 3,
    histogram_kind: HistogramKind | None = HistogramKind.MAXDIFF,
    config: EngineConfig | None = None,
) -> Database:
    """A small two-table database: r1(id, a, b) and r2(id, r1_id, c)."""
    db = Database(config)
    rng = random.Random(seed)
    db.create_table(
        "r1",
        [("id", DataType.INTEGER), ("a", DataType.INTEGER), ("b", DataType.INTEGER)],
        key=["id"],
    )
    db.load_rows(
        "r1", [(i, rng.randrange(100), rng.randrange(50)) for i in range(r1_rows)]
    )
    db.create_table(
        "r2",
        [("id", DataType.INTEGER), ("r1_id", DataType.INTEGER), ("c", DataType.INTEGER)],
        key=["id"],
    )
    db.load_rows(
        "r2",
        [(i, rng.randrange(r1_rows), rng.randrange(10)) for i in range(r2_rows)],
    )
    db.analyze(histogram_kind=histogram_kind)
    return db


@pytest.fixture
def two_table_db() -> Database:
    """Module-standard small join database."""
    return make_two_table_db()


@pytest.fixture
def cost_model(config) -> CostModel:
    """Cost model under default parameters."""
    return CostModel(config)


def simple_schema() -> Schema:
    """A three-column test schema."""
    return Schema(
        [
            Column("id", DataType.INTEGER),
            Column("value", DataType.FLOAT),
            Column("name", DataType.STRING),
        ]
    )
