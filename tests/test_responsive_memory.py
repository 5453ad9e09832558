"""Tests for the section 2.3 extension: memory-responsive hash joins.

The paper: "we assume that once an operator starts executing, its memory
allocation cannot be changed ... If, however, the operators ... can respond
to changes in memory allocation in mid-execution, our algorithm can be
extended to take advantage of this."  With ``responsive_hash_joins=True`` a
hash join's grant stays adjustable until its spill decision, so the
re-allocation triggered by the collector on its *own* build input reaches
it — a case the baseline (and Paradise) cannot exploit.
"""

import pytest

from repro import Database, DynamicMode, EngineConfig
from repro.bench.harness import rows_equivalent
from repro.workloads.tpcd import CatalogProfile, TpcdConfig, generate_tpcd, query_by_name


def build_db(responsive: bool) -> Database:
    # Q3 under an over-estimating catalog and a tight budget: the big join's
    # estimated maximum does not fit, so it starts on its minimum grant.
    config = EngineConfig().with_updates(
        query_memory_pages=64, responsive_hash_joins=responsive,
    )
    db = Database(config)
    generate_tpcd(
        db,
        TpcdConfig(scale_factor=0.01, catalog=CatalogProfile.STALE,
                   stale_row_factor=3.0),
    )
    return db


class TestResponsiveHashJoins:
    @pytest.fixture(scope="class")
    def outcomes(self):
        results = {}
        for responsive in (False, True):
            db = build_db(responsive)
            q = query_by_name("Q3")
            off = db.execute(q.sql, mode=DynamicMode.OFF)
            memory = db.execute(q.sql, mode=DynamicMode.MEMORY_ONLY)
            results[responsive] = (off, memory)
        return results

    def test_baseline_cannot_fix_its_own_join(self, outcomes):
        off, memory = outcomes[False]
        # The join committed its minimum grant before its build collector
        # completed: spilling persists despite re-allocation attempts.
        assert memory.profile.breakdown.write == pytest.approx(
            off.profile.breakdown.write
        )

    def test_responsive_join_picks_up_reallocation(self, outcomes):
        off, memory = outcomes[True]
        assert memory.profile.memory_reallocations >= 1
        assert memory.profile.breakdown.write < off.profile.breakdown.write
        assert memory.profile.total_cost < off.profile.total_cost

    def test_results_identical_in_all_variants(self, outcomes):
        reference = outcomes[False][0].rows
        for off, memory in outcomes.values():
            assert rows_equivalent(reference, off.rows)
            assert rows_equivalent(reference, memory.rows)

    def test_flag_survives_config_updates(self):
        config = EngineConfig().with_updates(responsive_hash_joins=True)
        assert config.responsive_hash_joins
        assert not EngineConfig().responsive_hash_joins
