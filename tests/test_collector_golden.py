"""Simulated costs the collector rewrite must not move.

``golden_collector_costs.json`` was produced by this file's ``measure()`` at
the commit before the collectors were rebuilt (one row sampler per collector,
min/max on live columns only, de-duplicated sketch feed).  Statistics are the
only thing a collector hands the re-optimizer, so equal ``repr(total_cost)``,
switch and re-allocation counts and result rows on the queries that switch
plans (Q5/Q7/Q8) mean every histogram, distinct estimate and min/max that
reached an estimate is unchanged.

Regenerate (only when a PR *means* to move simulated costs)::

    PYTHONPATH=src python tests/test_collector_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import DynamicMode
from repro.bench import ExperimentConfig, build_database
from repro.workloads.tpcd import query_by_name

pytestmark = pytest.mark.hashseed

GOLDEN = Path(__file__).with_name("golden_collector_costs.json")
CONFIGURATIONS = ((0.01, 192, 31), (0.02, 256, 31))
QUERIES = ("Q1", "Q3", "Q5", "Q6", "Q7", "Q8", "Q10")


def _digest(rows) -> str:
    """Result rows with floats cut to nine significant digits: the vectorized
    executors sum in another order, which moves the last few bits."""
    text = repr([
        tuple(f"{v:.9g}" if isinstance(v, float) else v for v in row) for row in rows
    ])
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def build(scale_factor: float, memory_pages: int, seed: int):
    return build_database(
        ExperimentConfig(scale_factor=scale_factor, memory_pages=memory_pages, seed=seed)
    )


def measure(db) -> tuple[dict, set]:
    """One pass over the golden statements on ``db``: the golden rows, and
    which of them the plan cache served."""
    rows, hits = {}, set()
    for name in QUERIES:
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            result = db.execute(query_by_name(name).sql, mode=mode)
            profile = result.profile
            kind = f"{name}:{mode.value}"
            rows[kind] = {
                "total_cost": repr(profile.total_cost),
                "switches": profile.plan_switches,
                "reallocations": profile.memory_reallocations,
                "rows": _digest(result.rows),
            }
            if profile.plan_cache_hit:
                hits.add(kind)
    return rows, hits


def _key(configuration) -> str:
    return "sf{}/pages{}/seed{}".format(*configuration)


@pytest.mark.parametrize("configuration", CONFIGURATIONS, ids=_key)
def test_simulated_costs_match_golden(configuration):
    """Cold, then again on the same database without clearing the cache: a
    cached template cloned, executed and (Q5/Q7/Q8 FULL) switched mid-query
    reproduces the golden row a fresh optimization gives."""
    golden = json.loads(GOLDEN.read_text())[_key(configuration)]
    db = build(*configuration)
    cold, cold_hits = measure(db)
    warm, warm_hits = measure(db)
    assert cold.keys() == golden.keys()
    assert not cold_hits
    assert warm_hits == golden.keys()
    assert any(row["switches"] for row in golden.values())
    for kind, expected in golden.items():
        assert cold[kind] == expected, kind
        assert warm[kind] == expected, f"{kind} (warm)"


def test_q8_collector_work_counters():
    """Q8 FULL in the Figure-10 configuration does the work the re-optimizer
    can use: one draw per row past capacity per *collector* (the big one keeps
    four histograms — four same-seeded reservoirs used to draw four times as
    often) and min/max on at most four of its 26 columns.  The counts reach
    EXPLAIN ANALYZE, the profile and the metrics registry."""
    db = build(0.01, 192, 31)
    capacity = db.config.reservoir_sample_size
    before = db.metrics_snapshot()
    report = db.explain_analyze(query_by_name("Q8").sql, mode=DynamicMode.FULL)
    fired = [
        (node, node.collector)
        for plan in report.plans for node in plan.nodes
        if node.collector is not None and node.collector.fired
    ]
    node, big = max(fired, key=lambda pair: pair[1].observed_rows)
    assert big.observed_rows == 91620
    assert sum(s.startswith("hist(") for s in big.statistics) == 4
    assert big.work.reservoir_draws == big.observed_rows - capacity
    assert big.work.minmax_columns_tracked <= 4
    assert big.stats_cpu > 0
    # Every batch the collector folds is timed.
    assert big.work.wall_s > 0
    assert f"draws={big.work.reservoir_draws}" in "\n".join(node.format_lines())

    profile = report.profile
    works = [collector.work for __, collector in fired]
    assert profile.collector_rows_observed == sum(c.observed_rows for __, c in fired)
    assert profile.reservoir_draws == sum(w.reservoir_draws for w in works)
    assert profile.reservoir_draws < 1.01 * big.work.reservoir_draws
    assert profile.sketch_values_hashed == sum(w.sketch_values_hashed for w in works)
    assert profile.minmax_columns_tracked == sum(w.minmax_columns_tracked for w in works)
    assert profile.collector_wall_s == sum(w.wall_s for w in works)
    after = db.metrics_snapshot()
    for name in ("collector_rows_observed", "reservoir_draws", "sketch_values_hashed"):
        grown = after[f"stats.{name}"]["value"] - before[f"stats.{name}"]["value"]
        assert grown == getattr(profile, name)
    wall = "stats.collector_wall_s"
    assert after[wall]["count"] == before[wall]["count"] + 1


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({_key(c): measure(build(*c))[0] for c in CONFIGURATIONS}, indent=1)
        + "\n"
    )
