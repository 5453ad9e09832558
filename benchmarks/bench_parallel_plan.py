"""Plan-wide parallelism scaling: build sides and sorts.

The companion to ``bench_parallel_joins`` for PR 7's tentpole, with two
legs per worker count:

* **build** — TPC-D join queries dispatched with ``parallel_build`` on and
  morsels sized so the leaf-extractable build sides fan out: the hash-join
  build fold runs as per-worker partition folds merged in morsel order.
* **sort** — ORDER BY queries over leaf-extractable chains: workers sort
  their morsel runs with the serial multi-pass sort and the parent merges
  them through the loser tree.

The parity record is unconditional: every parallel run must produce
byte-identical rows and bit-identical simulated cost/CostBreakdown and
buffer statistics vs its serial (batch) reference — a benchmark result
with broken parity is a bug, not a data point.  The engagement assertions are
also unconditional: build pipelines must fan out on the build leg and sort
pipelines (with at least two merged runs) on the sort leg, so the tentpole
cannot silently regress to probe-only parallelism.

The speedup gates (builds at least ``REQUIRED_JOIN_SPEEDUP`` and sorts at
least ``REQUIRED_SORT_SPEEDUP`` faster at 4 workers, aggregated per leg)
are hardware-dependent by nature and are enforced only when the host
grants this process at least ``REQUIRED_CPUS`` cores; smaller hosts still
run the curve and the parity checks, and the JSON document records the
gates as skipped with the reason.

Results go to ``BENCH_parallel_plan.json`` at the repository root and
``results/parallel_plan.txt``.  Runs under pytest
(``pytest benchmarks/bench_parallel_plan.py``) or as a script with knobs::

    python benchmarks/bench_parallel_plan.py [--smoke] [--scale 0.05]
                                             [--workers 1,2,4]
                                             [--repetitions 3]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import Database, DynamicMode
from repro.bench import ExperimentConfig, build_database, stamp_document
from repro.executor.dispatcher import Dispatcher
from repro.executor.runtime import RuntimeContext
from repro.optimizer.cost_model import CostModel
from repro.storage import BufferPool, CostClock, TempTableManager
from repro.workloads.tpcd import ALL_QUERIES

SCALE_FACTOR = 0.05
SMOKE_SCALE_FACTOR = 0.01
REPETITIONS = 3
WORKER_COUNTS = (1, 2, 4)
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel_plan.json"

REQUIRED_JOIN_SPEEDUP = 1.6
REQUIRED_SORT_SPEEDUP = 1.5
REQUIRED_CPUS = 4

#: Morsels sized so the TPC-D build-side scans (customer, orders) split
#: into enough morsels to fan out at small scale factors.
BUILD_MORSEL_PAGES = 4

#: TPC-D queries whose hash joins have leaf-extractable build sides large
#: enough to split at ``BUILD_MORSEL_PAGES`` (Q10's only leaf build side
#: is the one-page nation table, so it cannot fan out at any geometry) —
#: the build-leg gate aggregates over these.
BUILD_QUERIES = ("Q3",)

#: ORDER BY over leaf-extractable chains (filter over a base scan) — the
#: shape the parallel sort handles; sorts over aggregates stay serial.
SORT_QUERIES = (
    (
        "sort_price",
        "SELECT l_orderkey, l_extendedprice FROM lineitem "
        "WHERE l_quantity > 10 ORDER BY l_extendedprice DESC, l_orderkey",
    ),
    (
        "sort_keys",
        "SELECT l_suppkey, l_partkey, l_orderkey FROM lineitem "
        "WHERE l_orderkey > 100 ORDER BY l_suppkey, l_partkey, l_orderkey",
    ),
)


def available_cpus() -> int:
    """CPUs actually granted to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _dispatch(db: Database, plan, execution_mode: str, workers: int = 0, **knobs):
    """One timed Dispatcher run on a fresh runtime context."""
    config = db.config.with_updates(
        execution_mode=execution_mode, parallel_workers=workers, **knobs
    )
    clock = CostClock(config.cost)
    pool = BufferPool(config.buffer_pool_pages, clock)
    ctx = RuntimeContext(
        catalog=db.catalog,
        config=config,
        clock=clock,
        buffer_pool=pool,
        temp_manager=TempTableManager(db.catalog, pool),
        cost_model=CostModel(config),
        memory_budget_pages=config.query_memory_pages,
    )
    start = time.perf_counter()
    result = Dispatcher(ctx).run(plan)
    elapsed = time.perf_counter() - start
    ctx.temp_manager.drop_all()
    return elapsed, result, ctx


def _check_parity(reference, reference_ctx, candidate, candidate_ctx) -> list[str]:
    """The determinism contract, as a list of violations (empty = clean)."""
    violations = []
    if candidate.rows != reference.rows:
        violations.append("rows differ")
    if candidate_ctx.clock.breakdown != reference_ctx.clock.breakdown:
        violations.append("cost breakdown differs")
    if candidate_ctx.clock.now != reference_ctx.clock.now:
        violations.append("total cost differs")
    if candidate_ctx.buffer_pool.stats != reference_ctx.buffer_pool.stats:
        violations.append("buffer statistics differ")
    return violations


def _run_leg(
    db: Database,
    leg: str,
    name: str,
    plan,
    repetitions: int,
    worker_counts: tuple[int, ...],
    knobs: dict,
) -> dict:
    """Measure one query's scaling curve for one leg."""
    best_serial, serial_result, serial_ctx = min(
        (_dispatch(db, plan, "batch", **knobs) for __ in range(repetitions)),
        key=lambda r: r[0],
    )
    entry = {
        "name": name,
        "leg": leg,
        "batch_s": round(best_serial, 6),
        "parity": True,
    }
    for workers in worker_counts:
        best, result, ctx = min(
            (
                _dispatch(db, plan, "parallel", workers, **knobs)
                for __ in range(repetitions)
            ),
            key=lambda r: r[0],
        )
        violations = _check_parity(serial_result, serial_ctx, result, ctx)
        if violations:
            entry["parity"] = False
            entry.setdefault("violations", []).extend(
                f"workers={workers}: {v}" for v in violations
            )
        entry[f"parallel{workers}_s"] = round(best, 6)
        entry[f"speedup{workers}"] = round(best_serial / best, 2)
        if workers == max(worker_counts):
            entry["build_pipelines"] = ctx.parallel.build_pipelines
            entry["sort_pipelines"] = ctx.parallel.sort_pipelines
            entry["sort_runs_merged"] = ctx.parallel.sort_runs_merged
            entry["rows_spilled"] = ctx.parallel.rows_spilled
            entry["partitions_spilled"] = ctx.parallel.partitions_spilled
    return entry


def run_benchmark(
    scale_factor: float = SCALE_FACTOR,
    repetitions: int = REPETITIONS,
    worker_counts: tuple[int, ...] = WORKER_COUNTS,
) -> dict:
    """Measure the plan-wide scaling curves: the build and sort legs."""
    db = build_database(ExperimentConfig(scale_factor=scale_factor))
    queries: list[dict] = []

    for query in (q for q in ALL_QUERIES if q.name in BUILD_QUERIES):
        plan, __scia, __opt = db.plan(query.sql, mode=DynamicMode.FULL)
        queries.append(
            _run_leg(
                db,
                "build",
                query.name,
                plan,
                repetitions,
                worker_counts,
                {"morsel_pages": BUILD_MORSEL_PAGES},
            )
        )

    for name, sql in SORT_QUERIES:
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        queries.append(
            _run_leg(db, "sort", name, plan, repetitions, worker_counts, {})
        )

    gate_workers = max(worker_counts)
    cpus = available_cpus()
    gate_enforced = cpus >= REQUIRED_CPUS and gate_workers >= REQUIRED_CPUS

    def leg_summary(leg: str, required: float) -> dict:
        members = [q for q in queries if q["leg"] == leg]
        serial_total = sum(q["batch_s"] for q in members)
        parallel_total = sum(q[f"parallel{gate_workers}_s"] for q in members)
        return {
            "names": [q["name"] for q in members],
            "batch_s": round(serial_total, 6),
            f"parallel{gate_workers}_s": round(parallel_total, 6),
            "speedup": round(serial_total / parallel_total, 2),
            "required": required,
        }

    build_leg = leg_summary("build", REQUIRED_JOIN_SPEEDUP)
    sort_leg = leg_summary("sort", REQUIRED_SORT_SPEEDUP)
    document = {
        "scale_factor": scale_factor,
        "repetitions": repetitions,
        "worker_counts": list(worker_counts),
        "cpus_available": cpus,
        "metric": "best-of-N wall-clock seconds (time.perf_counter)",
        "queries": queries,
        "build": build_leg,
        "sort": sort_leg,
        "speedup_gate": {
            "at_workers": gate_workers,
            "enforced": gate_enforced,
            "reason": (
                "enforced"
                if gate_enforced
                else f"skipped: {cpus} CPU(s) granted, need {REQUIRED_CPUS}"
            ),
        },
        "parity_ok": all(q["parity"] for q in queries),
        "build_pipelines_ran": all(
            q["build_pipelines"] >= 1 for q in queries if q["leg"] == "build"
        ),
        "sort_pipelines_ran": all(
            q["sort_pipelines"] >= 1 and q["sort_runs_merged"] >= 2
            for q in queries
            if q["leg"] == "sort"
        ),
    }
    return stamp_document(document, {"speedup_gate": REQUIRED_CPUS})


def _render(document: dict) -> str:
    counts = document["worker_counts"]
    header = f"{'query':<12}{'leg':<10}{'serial s':>10}"
    for w in counts:
        header += f"{f'w{w} s':>10}{'spdup':>7}"
    header += f"{'parity':>8}"
    lines = [
        "Plan-wide parallelism scaling vs serial path "
        f"(TPC-D sf={document['scale_factor']}, best of {document['repetitions']}, "
        f"{document['cpus_available']} CPU(s))",
        header,
    ]
    for entry in document["queries"]:
        line = f"{entry['name']:<12}{entry['leg']:<10}{entry['batch_s']:>10.3f}"
        for w in counts:
            line += f"{entry[f'parallel{w}_s']:>10.3f}{entry[f'speedup{w}']:>6.2f}x"
        line += f"{'ok' if entry['parity'] else 'FAIL':>8}"
        lines.append(line)
    gate = document["speedup_gate"]
    for leg_name, leg in (("build", document["build"]), ("sort", document["sort"])):
        lines.append(
            f"{leg_name} leg ({','.join(leg['names'])}): {leg['speedup']:.2f}x "
            f"at {gate['at_workers']} workers "
            f"(gate {leg['required']}x, {gate['reason']})"
        )
    return "\n".join(lines)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"tiny run (sf={SMOKE_SCALE_FACTOR}, 1 repetition, workers 1,2)",
    )
    parser.add_argument("--scale", type=float, default=None, help="TPC-D scale factor")
    parser.add_argument(
        "--workers",
        type=lambda s: tuple(int(v) for v in s.split(",")),
        default=None,
        help="comma-separated worker counts (default 1,2,4)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=None, help="best-of-N repetitions"
    )
    return parser.parse_args(argv)


def _assert_document(document: dict) -> None:
    assert document["parity_ok"], [
        q for q in document["queries"] if not q["parity"]
    ]
    assert document["build_pipelines_ran"], "no build pipeline fanned out"
    assert document["sort_pipelines_ran"], "no sort pipeline fanned out"
    if document["speedup_gate"]["enforced"]:
        assert document["build"]["speedup"] >= REQUIRED_JOIN_SPEEDUP
        assert document["sort"]["speedup"] >= REQUIRED_SORT_SPEEDUP


def test_parallel_plan_scaling(results_dir):
    from conftest import write_result

    document = run_benchmark()
    JSON_PATH.write_text(json.dumps(document, indent=2) + "\n")
    write_result(results_dir, "parallel_plan", _render(document))
    _assert_document(document)


if __name__ == "__main__":
    args = _parse_args()
    scale = args.scale if args.scale is not None else (
        SMOKE_SCALE_FACTOR if args.smoke else SCALE_FACTOR
    )
    workers = args.workers if args.workers is not None else (
        (1, 2) if args.smoke else WORKER_COUNTS
    )
    repetitions = args.repetitions if args.repetitions is not None else (
        1 if args.smoke else REPETITIONS
    )
    doc = run_benchmark(scale, repetitions, workers)
    if not args.smoke:
        JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(_render(doc))
    try:
        _assert_document(doc)
    except AssertionError as exc:
        raise SystemExit(str(exc))
    if not args.smoke:
        print(f"\nwrote {JSON_PATH}")
