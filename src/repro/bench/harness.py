"""Experiment harness.

Runs the paper's queries under each :class:`~repro.core.modes.DynamicMode`
against a freshly generated TPC-D database and collects the execution
profiles.  Used by the ``benchmarks/`` suite to regenerate each figure and
by EXPERIMENTS.md to record paper-vs-measured numbers.

The paper reports normalized execution times (Normal = 100); the harness
does the same via :meth:`QueryComparison.normalized`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..config import EngineConfig
from ..core.modes import DynamicMode
from ..engine.database import Database
from ..engine.profile import ExecutionProfile
from ..workloads.tpcd import (
    ALL_QUERIES,
    CatalogProfile,
    TpcdConfig,
    TpcdQuery,
    generate_tpcd,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's environment."""

    scale_factor: float = 0.01
    zipf_z: float = 0.0
    catalog: CatalogProfile = CatalogProfile.COARSE
    memory_pages: int = 256
    buffer_pool_pages: int = 1024
    seed: int = 7
    #: Row-count error under the STALE catalog profile (<1: catalog believes
    #: the fact tables are smaller than they are -> underestimates; >1:
    #: catalog believes they are bigger -> overestimates).
    stale_row_factor: float = 0.5

    def engine_config(self) -> EngineConfig:
        """The corresponding engine configuration."""
        return EngineConfig().with_updates(
            query_memory_pages=self.memory_pages,
            buffer_pool_pages=self.buffer_pool_pages,
        )

    def tpcd_config(self) -> TpcdConfig:
        """The corresponding data-generation configuration."""
        return TpcdConfig(
            scale_factor=self.scale_factor,
            zipf_z=self.zipf_z,
            seed=self.seed,
            catalog=self.catalog,
            stale_row_factor=self.stale_row_factor,
        )


def build_database(config: ExperimentConfig) -> Database:
    """Create and populate a TPC-D database for one experiment."""
    db = Database(config.engine_config())
    generate_tpcd(db, config.tpcd_config())
    return db


@dataclass
class QueryComparison:
    """Profiles of one query under several modes."""

    query: TpcdQuery
    profiles: dict[str, ExecutionProfile] = field(default_factory=dict)
    row_sets_match: bool = True

    def cost(self, mode: DynamicMode) -> float:
        """Total simulated cost under one mode."""
        return self.profiles[mode.value].total_cost

    def normalized(self, mode: DynamicMode, baseline: DynamicMode = DynamicMode.OFF) -> float:
        """Execution time normalized to the baseline mode (baseline = 100)."""
        base = self.cost(baseline)
        if base <= 0:
            return 0.0
        return 100.0 * self.cost(mode) / base

    def improvement_pct(
        self, mode: DynamicMode, baseline: DynamicMode = DynamicMode.OFF
    ) -> float:
        """Percent improvement of ``mode`` over the baseline."""
        return 100.0 - self.normalized(mode, baseline)


def rows_equivalent(a: Sequence[tuple], b: Sequence[tuple]) -> bool:
    """Order-insensitive, float-tolerant row-set comparison."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(sorted(a, key=str), sorted(b, key=str)):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-6):
                    return False
            elif va != vb:
                return False
    return True


def run_comparison(
    db: Database,
    query: TpcdQuery,
    modes: Iterable[DynamicMode] = (DynamicMode.OFF, DynamicMode.FULL),
) -> QueryComparison:
    """Execute one query under each mode and compare results."""
    comparison = QueryComparison(query=query)
    reference_rows = None
    for mode in modes:
        result = db.execute(query.sql, mode=mode)
        comparison.profiles[mode.value] = result.profile
        if reference_rows is None:
            reference_rows = result.rows
        elif not rows_equivalent(reference_rows, result.rows):
            comparison.row_sets_match = False
    return comparison


def run_experiment(
    config: ExperimentConfig,
    queries: Sequence[TpcdQuery] = ALL_QUERIES,
    modes: Iterable[DynamicMode] = (DynamicMode.OFF, DynamicMode.FULL),
) -> list[QueryComparison]:
    """Build a database and run the full query-by-mode grid."""
    db = build_database(config)
    modes = tuple(modes)
    return [run_comparison(db, query, modes) for query in queries]
