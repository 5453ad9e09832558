"""Experiment E5 — the statistics-collection overhead bound (section 3.2).

"In all these queries, we set the value of mu (maximum allowable overhead)
to 0.05 ensuring that none of the queries ever performed 5% worse than
normal."  This bench runs every TPC-D query in FULL mode and reports the
overhead relative to the Normal run; queries that got re-optimized are
excluded from the bound check (they are *faster*, not overheads) and simple
queries must carry exactly zero collection cost.

The mu bound is a bound on the *simulated* clock.  Beside it the table
reports what collection costs on the wall clock: ``execute_s`` of the OFF and
FULL runs and the seconds spent inside the collectors (``collector_wall_s``),
each the fastest of ``WALL_REPEATS`` executions.
"""

from __future__ import annotations

from conftest import write_result

from repro.bench import ExperimentConfig, build_database, render_table, run_comparison
from repro.core.modes import DynamicMode
from repro.workloads.tpcd import ALL_QUERIES

CONFIG = ExperimentConfig(scale_factor=0.01, memory_pages=192)
#: mu plus slack: the SCIA budget is checked against *estimated*
#: cardinalities, so actual overhead can exceed mu by the estimation error.
OVERHEAD_TOLERANCE = 0.10
#: Executions per query and mode; wall-clock columns report the fastest.
WALL_REPEATS = 3


def test_overhead_bounded_by_mu(benchmark, results_dir):
    def run():
        db = build_database(CONFIG)
        return [
            [
                run_comparison(db, q, (DynamicMode.OFF, DynamicMode.FULL))
                for q in ALL_QUERIES
            ]
            for __ in range(WALL_REPEATS)
        ]

    repeats = benchmark.pedantic(run, rounds=1, iterations=1)
    # Simulated quantities are identical in every repeat; keep the first.
    comparisons = repeats[0]

    rows = []
    overheads = {}
    for index, comp in enumerate(comparisons):
        off = comp.profiles["off"]
        full = comp.profiles["full"]
        overhead = (full.total_cost - off.total_cost) / off.total_cost
        overheads[comp.query.name] = overhead
        runs = [repeat[index].profiles for repeat in repeats]
        assert all(r["full"].total_cost == full.total_cost for r in runs)
        off_s = min(r["off"].phases.execute_s for r in runs)
        full_s = min(r["full"].phases.execute_s for r in runs)
        collector_s = min(r["full"].collector_wall_s for r in runs)
        rows.append(
            [
                comp.query.name,
                comp.query.category,
                f"{overhead * 100:+.2f}%",
                f"{full.breakdown.stats_cpu:.1f}",
                str(full.plan_switches),
                f"{off_s * 1e3:.1f}",
                f"{full_s * 1e3:.1f}",
                f"{full_s / off_s:.2f}",
                f"{collector_s * 1e3:.2f}",
            ]
        )
    table = render_table(
        [
            "query", "category", "overhead", "stats cpu", "switches",
            "execute_s off (ms)", "execute_s full (ms)", "full/off wall",
            "collector_wall_s (ms)",
        ],
        rows,
        title="Collection overhead vs Normal (mu = 0.05): simulated, then wall clock",
    )
    write_result(results_dir, "overhead_mu", table)
    benchmark.extra_info["overhead_pct"] = {
        name: round(v * 100, 2) for name, v in overheads.items()
    }

    for comp in comparisons:
        full = comp.profiles["full"]
        if comp.query.category == "simple":
            # Simple queries are skipped entirely by the SCIA.
            assert full.breakdown.stats_cpu == 0.0
            assert abs(overheads[comp.query.name]) < 0.005
        elif full.plan_switches == 0 and full.memory_reallocations == 0:
            # No corrective action taken: overhead must stay near mu.
            assert overheads[comp.query.name] <= OVERHEAD_TOLERANCE
