"""Runs one workload in this interpreter and turns what it saw into metrics.

Run shape (see README.md): set-up -> verification pass -> warm-up round ->
un-shimmed timed pass [-> traced pass with boundary shims -> execution-mode
samples, when tracing].  End-to-end metrics come from the un-shimmed pass
only; per-layer metrics from the traced pass and from direct calls.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy
from repro import Database, DynamicMode
from repro.errors import ConfigError
from repro.workloads.tpcd import query_by_name

from . import shims, spans
from .reference import rows_match
from .workloads import WORKLOADS, WRITE_CYCLE, ServerClient, Workload

#: Set-ups per un-traced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The simple and medium queries: between them they scan lineitem, orders,
#: customer and nation once, cheaply (no five-way join to optimize).
FIRST_TOUCH = ("Q1", "Q3", "Q6", "Q10")
#: Executions per (query, configuration) in the execution-mode samples.
SAMPLE_REPETITIONS = 3


@dataclass
class Verified:
    """One statement kind's verification-pass record (deterministic except
    for the two wall-clock fields)."""

    off_cost: float
    full_cost: float
    off_wall_s: float
    full_wall_s: float
    switches: int
    reallocations: int
    worst_q_error: float = 0.0  # traced runs only


@dataclass
class PassResult:
    """What one client (or, merged, one pass) completed."""

    samples: list[tuple[str, float]] = field(default_factory=list)  # kind, seconds
    profiles: list = field(default_factory=list)  # traced pass only
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Operations per second, summed over clients; each client's is its
    #: operations per round over its *median* round time, so a round this
    #: (often stalling) host stretched moves nothing.
    throughput: float = 0.0

    def latencies_ms_by_kind(self) -> dict[str, list[float]]:
        by_kind: dict[str, list[float]] = {}
        for kind, seconds in self.samples:
            by_kind.setdefault(kind, []).append(seconds * 1e3)
        return by_kind



def _client_loop(client, done: Callable[[int, float], bool],
                 recorder: spans.SpanRecorder | None) -> PassResult:
    """Closed loop: the next operation is sent when the previous returned."""
    out = PassResult()
    round_seconds, start = [], perf_counter()
    while True:
        round_start = perf_counter()
        for op in client.round():
            out.attempted += 1
            begun = perf_counter()
            try:
                if recorder is None:
                    result = op.run()
                else:
                    with recorder.operation(op.kind):
                        result = op.run()
            except Exception as exc:  # a failed operation is a result, not a crash
                out.failures.append(f"{op.kind}: {exc!r}")
                continue
            seconds = perf_counter() - begun
            if not rows_match(result.rows, op.expected):
                out.failures.append(f"{op.kind}: rows differ from the reference")
                continue
            out.samples.append((op.kind, seconds))
            if recorder is not None:
                out.profiles.append(result.profile)
        round_seconds.append(perf_counter() - round_start)
        if done(len(round_seconds), perf_counter() - start):
            per_round = len(out.samples) / len(round_seconds)
            out.throughput = per_round / statistics.median(round_seconds)
            return out


def run_pass(clients: list, seconds: float | None = None, rounds: int | None = None,
             recorder: spans.SpanRecorder | None = None) -> PassResult:
    """Whole rounds on every client: ``rounds`` of them, or as many as bring
    the pass closest to ``seconds``."""
    def done(completed: int, elapsed: float) -> bool:
        if rounds is not None:
            return completed >= rounds
        return elapsed + 0.5 * elapsed / completed >= seconds

    gc.collect()
    if len(clients) == 1:
        return _client_loop(clients[0], done, recorder)
    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        futures = [pool.submit(_client_loop, c, done, recorder) for c in clients]
        parts = [future.result() for future in futures]
    merged = PassResult()
    for part in parts:
        merged.samples += part.samples
        merged.profiles += part.profiles
        merged.attempted += part.attempted
        merged.failures += part.failures
        merged.throughput += part.throughput
    return merged


def verify(db: Database, workload: Workload, refs, seed: int, traced: bool,
           failures: list[str]) -> dict[str, Verified]:
    """Every statement kind once under OFF and once under FULL, inline and
    cold, rows checked against the reference."""
    def record(kind: str, run_in_mode, expected) -> Verified:
        profiles, walls = [], []
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            begun = perf_counter()
            result = run_in_mode(mode)
            walls.append(perf_counter() - begun)
            if not rows_match(result.rows, expected):
                failures.append(f"verification {kind}:{mode.value}: rows differ from the reference")
            profiles.append(result.profile)
        off, full = profiles
        return Verified(
            off.total_cost, full.total_cost, walls[0], walls[1],
            full.plan_switches, full.memory_reallocations,
        )

    def inline(sql: str):
        def run(mode: DynamicMode):
            db.plan_cache.clear()
            return db.execute(sql, mode=mode)
        return run

    verified = {}
    for name in workload.queries:
        sql = query_by_name(name).sql
        verified[name] = record(name, inline(sql), refs.rows[name])
        if traced:
            db.plan_cache.clear()
            verified[name].worst_q_error = db.explain_analyze(sql).worst_q_error
    if workload.write_cycle:
        client = ServerClient(db, refs, seed, "verify")
        try:
            keys = client.draw_keys()
            verified[WRITE_CYCLE] = record(
                WRITE_CYCLE, lambda mode: client.write_cycle(keys, mode), refs.hot.expected(keys)
            )
        finally:
            client.close()
    return verified


def end_to_end(timed: PassResult, verified: dict[str, Verified], setup_s: float) -> dict[str, float]:
    medians = [statistics.median(ms) for ms in timed.latencies_ms_by_kind().values()]
    ratios = [v.full_cost / v.off_cost for v in verified.values()]
    return {
        "setup_s": setup_s,
        "stmts_per_s": timed.throughput,
        "stmt_ms_geomean": statistics.geometric_mean(medians),
        "stmt_ms_p90": float(numpy.percentile([s * 1e3 for _, s in timed.samples], 90)),
        "sim_cost_geomean": statistics.geometric_mean(v.full_cost for v in verified.values()),
        "full_over_off_cost_max": max(ratios),
        "full_over_off_cost_geomean": statistics.geometric_mean(ratios),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# -- per-layer measurements -------------------------------------------------


def measure_storage(db: Database, setup_timers: dict[str, shims.CallTimer]) -> dict[str, float]:
    """What set-up spent per layer, plus storage throughput by direct calls
    (storage's inner loops are not shimmed)."""
    lineitem = db.table("lineitem")
    loaded = sum(db.table(name).row_count for name in db.catalog.table_names)
    scans = []
    for _ in range(5):
        begun = perf_counter()
        rows = sum(len(page) for page in lineitem.iter_pages())
        scans.append(rows / (perf_counter() - begun) / 1e6)
    begun = perf_counter()
    lineitem.column_store(db.config.batch_size, db.config.columnar_dictionary_max)
    column_store_s = perf_counter() - begun
    analyze = setup_timers["analyze"]
    return {
        "stats.analyze_ms": analyze.seconds / analyze.calls * 1e3,
        "storage.scan_mrows_per_s": statistics.median(scans),
        "storage.column_store_build_ms": column_store_s * 1e3,
        "storage.load_krows_per_s": loaded / setup_timers["load_rows"].seconds / 1e3,
        "storage.index_build_ms": setup_timers["create_index"].seconds * 1e3,
    }


def _execute_seconds(db: Database, sql: str, repetitions: int, **options) -> float:
    """Median ``profile.phases.execute_s`` over warm-cache repetitions.

    Sampled under OFF: no plan switch, so no statistics-epoch bump, so the
    plan stays cached and a repetition costs execution only."""
    db.execute(sql, mode=DynamicMode.OFF, **options)  # plan + warm-up
    return statistics.median(
        db.execute(sql, mode=DynamicMode.OFF, **options).profile.phases.execute_s
        for _ in range(repetitions)
    )


def sample_execution_modes(db: Database, queries: list[str], repetitions: int) -> dict[str, float]:
    """Geomean execute-time ratio of each alternative configuration to the
    default; 0.0 when the engine no longer accepts the configuration."""
    sqls = [query_by_name(name).sql for name in queries]
    default = [_execute_seconds(db, sql, repetitions) for sql in sqls]

    def ratio(**options) -> float:
        try:
            times = [_execute_seconds(db, sql, repetitions, **options) for sql in sqls]
        except ConfigError:
            return 0.0
        return statistics.geometric_mean(t / d for t, d in zip(times, default))

    out = {
        "executor.columnar_over_batch": ratio(execution_mode="columnar"),
        "executor.parallel1_over_batch": ratio(execution_mode="parallel", workers=1),
    }
    configured = db.config
    db.config = configured.with_updates(tracing=True)
    try:
        out["observe.tracing_over_off"] = ratio()
    finally:
        db.config = configured
    return out


def per_layer(
    recorded: list[spans.Span], traced: PassResult, untraced: PassResult,
    estimator: shims.CallTimer, cache_before, cache_after,
    verified: dict[str, Verified],
) -> dict[str, float]:
    """Metrics derived from the traced pass (spans + product-surface counts)."""
    totals = spans.totals_by_name(recorded)
    n = len(traced.samples)
    profiles = traced.profiles
    statement_s = totals[spans.OPERATION].duration

    def self_ms(name: str) -> float:  # 0.0 for a span this workload never produces
        return totals[name].self_time / n * 1e3

    def layer_share(layer: str) -> float:
        own = sum(t.self_time for name, t in totals.items() if name.startswith(layer + "."))
        return own / statement_s

    def per_stmt(value: Callable) -> float:
        return statistics.fmean(value(p) for p in profiles)

    def events(action: Callable) -> Callable:
        return lambda p: sum(1 for e in p.events if action(e))

    dispatch_self_s = totals["executor.Dispatcher.run"].self_time
    accesses = sum(p.buffer.accesses for p in profiles)
    lookups = cache_after.lookups - cache_before.lookups
    lookup_totals = totals["engine.PlanCache.lookup"]
    entry_self = sum(
        t.self_time for name, t in totals.items()
        if name.startswith("engine.") and name.endswith(".execute")
    )
    write_ms = [s * 1e3 for kind, s in traced.samples if kind == WRITE_CYCLE]
    queries = [v for kind, v in verified.items() if kind != WRITE_CYCLE]
    return {
        "sql.parse_ms": self_ms("sql.parser.parse"),
        "sql.bind_ms": self_ms("sql.binder.bind"),
        "sql.deparse_ms": self_ms("sql.deparser.deparse"),
        "sql.parse_calls_per_stmt": totals["sql.parser.parse"].calls / n,
        "optimizer.optimize_ms": self_ms("optimizer.Optimizer.optimize"),
        "optimizer.join_enum_ms": self_ms("optimizer.JoinEnumerator.best_join_plan"),
        "optimizer.annotate_ms": self_ms("optimizer.PlanAnnotator.annotate"),
        "optimizer.invocations_per_stmt": per_stmt(lambda p: p.optimizer_invocations),
        "optimizer.share": layer_share("optimizer"),
        "stats.estimator_calls_per_stmt": estimator.calls / n,
        "stats.estimator_ms": estimator.seconds / n * 1e3,
        "stats.worst_qerror_geomean": statistics.geometric_mean(v.worst_q_error for v in queries),
        "core.scia_ms": self_ms("core.scia.insert_collectors"),
        "core.collectors_per_stmt": per_stmt(lambda p: p.collectors_inserted),
        "core.trigger_evals_per_stmt": per_stmt(events(lambda e: e.trigger is not None)),
        "core.plan_switches_per_stmt": per_stmt(lambda p: p.plan_switches),
        "core.switch_rejected_per_stmt": per_stmt(events(lambda e: e.action == "switch-rejected")),
        "core.memory_reallocs_per_stmt": per_stmt(lambda p: p.memory_reallocations),
        "core.reopt_ms": totals["core.DynamicReoptimizer.on_collector_complete"].duration / n * 1e3,
        "core.remainder_ms": self_ms("core.remainder.build_remainder"),
        "core.stats_overhead_fraction": per_stmt(lambda p: p.stats_overhead_fraction),
        "core.full_over_off_wall_geomean": statistics.geometric_mean(v.full_wall_s / v.off_wall_s for v in queries),
        "executor.dispatch_ms": dispatch_self_s / n * 1e3,
        "executor.share": layer_share("executor"),
        "executor.pages_per_s": accesses / dispatch_self_s,
        "executor.memory_allocate_ms": self_ms("executor.MemoryManager.allocate"),
        "storage.buffer_accesses_per_stmt": accesses / n,
        "storage.buffer_hit_rate": sum(p.buffer.hits for p in profiles) / accesses,
        "engine.plan_cache_hit_rate": (cache_after.hits - cache_before.hits) / lookups,
        "engine.plan_cache_invalidations_per_stmt": (cache_after.invalidations - cache_before.invalidations) / n,
        "engine.plan_cache_lookup_us": lookup_totals.self_time / lookup_totals.calls * 1e6,
        "engine.clone_plan_ms": self_ms("engine.clone_plan"),
        "engine.glue_ms": entry_self / n * 1e3,
        "engine.admission_wait_ms_p50": statistics.median(p.admission_wait_s for p in profiles) * 1e3,
        "engine.broker_regrants_per_stmt": per_stmt(lambda p: p.broker_regrants),
        "engine.write_cycle_ms": statistics.median(write_ms) if write_ms else 0.0,
        "suite.trace_overhead_pct": (untraced.throughput / traced.throughput - 1) * 100,
    }


def kind_rows(timed: PassResult, verified: dict[str, Verified]) -> list[dict]:
    """Per statement kind: n, median ms, simulated cost, switches and
    re-allocations — detail rows, not named metrics."""
    rows = []
    for kind, ms in sorted(timed.latencies_ms_by_kind().items()):
        query, _, mode = kind.partition(":")
        v = verified[query]
        rows.append({
            "kind": kind,
            "n": len(ms),
            "median_ms": statistics.median(ms),
            "sim_cost": v.off_cost if mode == "off" else v.full_cost,
            "switches": 0 if mode == "off" else v.switches,
            "reallocations": 0 if mode == "off" else v.reallocations,
        })
    return rows


@dataclass
class WorkloadRun:
    workload: str
    end_to_end: dict[str, float]
    per_layer: dict[str, float]  # empty unless traced
    attempted: int
    failures: list[str]
    missing: list[str]  # expected spans / metrics that were never observed
    kinds: list[dict]
    operations: dict[str, int]
    recorded: list[spans.Span]

    @property
    def correct(self) -> bool:
        return not self.failures and not self.missing


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> WorkloadRun:
    workload = WORKLOADS[name]
    if workload.clients > 1 and hasattr(os, "sched_setaffinity"):
        # Thread-mode statements hold the GIL, so a second core adds
        # cross-core lock hand-offs, not throughput: on two cores the same
        # seed gave 3.65-4.18 operations/s, on one 4.09-4.35.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    failures: list[str] = []
    missing: list[str] = []
    layer: dict[str, float] = {}

    # -- set-up: generate, load, index, ANALYZE, reference answers, and the
    # first touch of every large table, so work a change moves out of the
    # statements into load time or into a lazily built structure shows.
    setup_timers = {key: shims.CallTimer() for key in shims.SETUP_TARGETS}
    setups, db, refs = [], None, None
    for _ in range(1 if traced or smoke else SETUP_REPEATS):
        db = refs = None  # release the previous build before the next
        gc.collect()
        begun = perf_counter()
        if traced:
            with shims.timing_setup(setup_timers):
                db = workload.build(seed, smoke)
        else:
            db = workload.build(seed, smoke)
        refs = workload.references(db)
        for query in FIRST_TOUCH:
            db.execute(query_by_name(query).sql)
        setups.append(perf_counter() - begun)
    if traced:
        layer.update(measure_storage(db, setup_timers))

    verified = verify(db, workload, refs, seed, traced, failures)
    clients = workload.make_clients(db, refs, seed)
    try:
        warmup = PassResult() if smoke else run_pass(clients, rounds=1)

        # -- un-shimmed pass: the end-to-end numbers --------------------
        share = 0.5 if traced else 1.0
        rounds = 1 if smoke else None
        timed = run_pass(clients, seconds=seconds * share, rounds=rounds)
        recorded: list[spans.Span] = []
        traced_pass = None
        if traced:
            # -- traced pass: same clients, boundary shims installed ---
            recorder, estimator = spans.SpanRecorder(), shims.CallTimer()
            cache_before = db.plan_cache.stats.snapshot()
            with shims.tracing(recorder, estimator):
                traced_pass = run_pass(clients, seconds=seconds * share, rounds=rounds, recorder=recorder)
            recorded = recorder.spans
            observed = {span.name for span in recorded}
            missing += sorted(workload.expected_spans - observed)
    finally:
        for client in clients:
            client.close()

    passes = [warmup, timed] + ([traced_pass] if traced_pass else [])
    for done in passes:
        failures += done.failures
    if not timed.samples:
        raise SystemExit(f"{name}: no operation completed: {failures[:3]}")

    if traced and not missing and traced_pass.samples:
        layer.update(per_layer(
            recorded, traced_pass, timed, estimator,
            cache_before, db.plan_cache.stats.snapshot(), verified,
        ))
        sampled = list(workload.queries[:2] if smoke else workload.queries)
        layer.update(sample_execution_modes(db, sampled, 1 if smoke else SAMPLE_REPETITIONS))
        begun = perf_counter()
        for _ in range(20):
            db.metrics_snapshot()
        layer["observe.metrics_snapshot_us"] = (perf_counter() - begun) / 20 * 1e6

    return WorkloadRun(
        workload=name,
        end_to_end=end_to_end(timed, verified, statistics.median(setups)),
        per_layer=layer,
        attempted=2 * len(verified) + sum(done.attempted for done in passes),
        failures=failures,
        missing=missing,
        kinds=kind_rows(timed, verified),
        operations={"timed": len(timed.samples), "traced": len(traced_pass.samples) if traced_pass else 0},
        recorded=recorded,
    )
