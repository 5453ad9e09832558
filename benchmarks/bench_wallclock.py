"""Wall-clock comparison of the row and batch execution paths.

Unlike every other benchmark in this directory — which reports the
*simulated* cost clock — this one measures real elapsed time with
``time.perf_counter``.  Each TPC-D query is optimized once (FULL mode, with
statistics collectors inserted) and the resulting plan is then dispatched
repeatedly under ``execution_mode="row"`` and ``"batch"``, isolating the
executor from the (mode-independent) optimizer.  End-to-end ``db.execute``
times are reported alongside for context.

Results are written to ``BENCH_wallclock.json`` at the repository root and
to ``results/wallclock.txt``.  Runs either under pytest
(``pytest benchmarks/bench_wallclock.py``) or as a script
(``python benchmarks/bench_wallclock.py``, which writes the JSON only).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import Database, DynamicMode
from repro.bench import ExperimentConfig, build_database, stamp_document
from repro.executor.dispatcher import Dispatcher
from repro.executor.runtime import RuntimeContext
from repro.optimizer.cost_model import CostModel
from repro.storage import BufferPool, CostClock, TempTableManager
from repro.workloads.tpcd import ALL_QUERIES

CONFIG = ExperimentConfig(scale_factor=0.02)
REPETITIONS = 5
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"

#: Acceptance bound: the batch path must at least halve executor wall-clock
#: across the whole TPC-D harness.
REQUIRED_SPEEDUP = 2.0


def _dispatch_seconds(db: Database, plan, execution_mode: str) -> float:
    """One timed Dispatcher run of ``plan`` on a fresh runtime context."""
    config = db.config.with_updates(execution_mode=execution_mode)
    clock = CostClock(config.cost)
    pool = BufferPool(config.buffer_pool_pages, clock)
    ctx = RuntimeContext(
        catalog=db.catalog,
        config=config,
        clock=clock,
        buffer_pool=pool,
        temp_manager=TempTableManager(db.catalog, pool),
        cost_model=CostModel(config),
    )
    start = time.perf_counter()
    Dispatcher(ctx).run(plan)
    return time.perf_counter() - start


def _execute_seconds(db: Database, sql: str, execution_mode: str) -> tuple[float, dict]:
    """One timed *cold* end-to-end ``db.execute`` (optimizer included).

    The plan cache is cleared first so every repetition pays the full
    compile pipeline; warm (cached) latency is ``bench_prepared``'s metric.
    """
    db.plan_cache.clear()
    start = time.perf_counter()
    result = db.execute(sql, mode=DynamicMode.FULL, execution_mode=execution_mode)
    elapsed = time.perf_counter() - start
    return elapsed, result.profile.phases.as_dict()


def run_benchmark(repetitions: int = REPETITIONS) -> dict:
    """Measure every harness query; return the result document."""
    db = build_database(CONFIG)
    queries = []
    totals = {"row": 0.0, "batch": 0.0}
    for query in ALL_QUERIES:
        plan, __scia, __opt = db.plan(query.sql, mode=DynamicMode.FULL)
        entry = {"name": query.name, "category": query.category}
        for mode in ("row", "batch"):
            best = min(
                _dispatch_seconds(db, plan, mode) for __ in range(repetitions)
            )
            entry[f"{mode}_s"] = round(best, 6)
            totals[mode] += best
            runs = [_execute_seconds(db, query.sql, mode) for __ in range(2)]
            best_run = min(runs, key=lambda r: r[0])
            entry[f"end_to_end_{mode}_s"] = round(best_run[0], 6)
            entry[f"phases_{mode}"] = {
                k: round(v, 6) for k, v in best_run[1].items()
            }
        entry["speedup"] = round(entry["row_s"] / entry["batch_s"], 2)
        entry["end_to_end_speedup"] = round(
            entry["end_to_end_row_s"] / entry["end_to_end_batch_s"], 2
        )
        queries.append(entry)
    document = {
        "scale_factor": CONFIG.scale_factor,
        "repetitions": repetitions,
        "metric": "best-of-N wall-clock seconds (time.perf_counter)",
        "queries": queries,
        "total": {
            "row_s": round(totals["row"], 6),
            "batch_s": round(totals["batch"], 6),
            "speedup": round(totals["row"] / totals["batch"], 2),
        },
        # Engine-wide counters/gauges/histograms accumulated over the whole
        # run (plan-cache traffic, reoptimizer activity, buffer-pool hit
        # rate, per-query cost distribution).
        "metrics": db.metrics.snapshot(),
    }
    return stamp_document(document)


def _render(document: dict) -> str:
    lines = [
        "Executor wall-clock: row vs batch path "
        f"(TPC-D sf={document['scale_factor']}, best of {document['repetitions']})",
        f"{'query':<8}{'row s':>10}{'batch s':>10}{'speedup':>9}{'end-to-end':>12}",
    ]
    for entry in document["queries"]:
        lines.append(
            f"{entry['name']:<8}{entry['row_s']:>10.3f}{entry['batch_s']:>10.3f}"
            f"{entry['speedup']:>8.2f}x{entry['end_to_end_speedup']:>11.2f}x"
        )
    total = document["total"]
    lines.append(
        f"{'TOTAL':<8}{total['row_s']:>10.3f}{total['batch_s']:>10.3f}"
        f"{total['speedup']:>8.2f}x"
    )
    return "\n".join(lines)


def test_batch_path_halves_wallclock(results_dir):
    from conftest import write_result

    document = run_benchmark()
    JSON_PATH.write_text(json.dumps(document, indent=2) + "\n")
    write_result(results_dir, "wallclock", _render(document))
    assert document["total"]["speedup"] >= REQUIRED_SPEEDUP


if __name__ == "__main__":
    doc = run_benchmark()
    JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(_render(doc))
    print(f"\nwrote {JSON_PATH}")
