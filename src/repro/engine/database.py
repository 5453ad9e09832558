"""The public engine facade.

A :class:`Database` owns a catalog and a configuration and exposes the user
workflow: create and load tables, build indexes, ANALYZE, and execute SQL
with Dynamic Re-Optimization in any of the paper's modes.  Each execution
gets a fresh cost clock and buffer pool so experiment measurements are
independent (the paper likewise reports per-query times on a dedicated
cluster, averaged over repeated cold runs).

Typical usage::

    db = Database()
    db.create_table("r", [("id", DataType.INTEGER), ("a", DataType.INTEGER)], key=["id"])
    db.load_rows("r", rows)
    db.analyze()
    result = db.execute("SELECT count(*) FROM r WHERE a < 10", mode=DynamicMode.FULL)
    print(result.profile.summary())
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

from ..config import EngineConfig
from ..core.modes import DynamicMode
from ..core.parametric import (
    ParametricOptimizer,
    choose_plan,
    has_parameter_predicates,
    mask_parameters,
    plug_parameters,
)
from ..core.reoptimizer import DynamicReoptimizer
from ..core.scia import SciaResult, insert_collectors
from ..errors import CatalogError, ConfigError
from ..executor.dispatcher import Dispatcher
from ..executor.memory import MemoryManager
from ..executor.runtime import RuntimeContext
from ..observe.analyze import ExplainAnalyzeReport, analyze_execution
from ..observe.metrics import MetricsRegistry, default_registry
from ..observe.slowlog import emit_slow_query
from ..observe.trace import QueryTracer
from ..optimizer.calibration import OptimizerCalibration
from ..optimizer.cost_model import CostModel
from ..optimizer.optimizer import Optimizer
from ..plans.logical import LogicalQuery
from ..plans.physical import PlanNode, clone_plan
from ..plans.printer import explain as explain_plan
from ..sql.ast import AstSelect
from ..sql.binder import bind
from ..sql.deparser import deparse
from ..sql.parser import parse
from ..stats.estimator import Estimator
from ..stats.histogram import HistogramKind
from ..storage.buffer import BufferPool
from ..storage.catalog import Catalog
from ..storage.disk import CostClock
from ..storage.schema import Column, DataType, Schema
from ..storage.table import Row, Table
from ..storage.temp import TempTableManager
from .plan_cache import CachedPlan, CachedScenarios, PlanCache, parameter_signature
from .prepared import PreparedStatement
from .profile import ExecutionProfile, PhaseBreakdown
from .results import QueryResult

ColumnSpec = Column | tuple[str, DataType]


@dataclass
class PreparedExecution:
    """Everything the execution pipeline needs, ready to run.

    Produced by :meth:`Database._prepare` — the single preparation path
    shared by :meth:`Database.execute`, :meth:`Database.plan`,
    :meth:`Database.explain` and prepared statements, so EXPLAIN output and
    executed plans can never diverge on the same SQL.  ``plan`` is always
    safe to execute directly: it is either freshly optimized or a clone of a
    cached template.
    """

    query: LogicalQuery
    plan: PlanNode
    scia: SciaResult | None
    optimizer: Optimizer
    cache_hit: bool = False
    #: Why the plan cache missed (``None`` on a hit or with the cache off).
    cache_miss: str | None = None
    parametric_plans: int = 0
    parametric_choice: str = ""
    #: Wall-clock seconds per preparation phase (parse/bind/optimize/scia).
    phase_seconds: dict[str, float] = field(default_factory=dict)


class Database:
    """An embedded analytical database with Dynamic Re-Optimization."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        calibration: OptimizerCalibration | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.config.validate()
        self.catalog = Catalog(self.config.page_size)
        self.calibration = calibration or OptimizerCalibration()
        self.estimator = Estimator()
        #: Cross-query counters/gauges/histograms.  Engines share the
        #: process-wide registry unless handed their own (tests that assert
        #: exact counts pass a fresh one).
        self.metrics = metrics if metrics is not None else default_registry()
        self.plan_cache = PlanCache(self.config.plan_cache_size, metrics=self.metrics)
        self._udfs: dict[str, Callable] = {}
        self._server = None
        self._server_lock = threading.RLock()

    # -- DDL / loading ------------------------------------------------------

    @staticmethod
    def _schema_from_columns(columns: Sequence[ColumnSpec] | Schema) -> Schema:
        """Normalize column specs (shared with session temp-table DDL)."""
        if isinstance(columns, Schema):
            return columns
        return Schema(
            c if isinstance(c, Column) else Column(c[0], c[1]) for c in columns
        )

    def create_table(
        self,
        name: str,
        columns: Sequence[ColumnSpec] | Schema,
        key: Sequence[str] = (),
    ) -> Table:
        """Create an empty table."""
        schema = self._schema_from_columns(columns)
        return self.catalog.create_table(name, schema, key_columns=key)

    def load_rows(self, table_name: str, rows: Iterable[Row]) -> int:
        """Bulk-load rows into a table; returns the number added."""
        count = self.catalog.table(table_name).append_rows(rows)
        for index in self.catalog.indexes_for(table_name):
            index.rebuild()
        if count and not self.catalog.table(table_name).is_temporary:
            # New data makes every cached plan's estimates suspect.
            self.catalog.bump_stats_epoch()
        return count

    def create_index(
        self, index_name: str, table_name: str, column: str, clustered: bool = False
    ) -> None:
        """Create a sorted index on one column."""
        self.catalog.create_index(index_name, table_name, column, clustered=clustered)

    def analyze(
        self,
        table_name: str | None = None,
        histogram_kind: HistogramKind | None = HistogramKind.MAXDIFF,
        num_buckets: int = 32,
        histogram_columns: Sequence[str] | None = None,
    ) -> None:
        """Collect catalog statistics (for one table or all of them)."""
        names = [table_name] if table_name is not None else self.catalog.table_names
        for name in names:
            if name.startswith("__temp"):
                continue
            self.catalog.analyze(
                name,
                histogram_kind=histogram_kind,
                num_buckets=num_buckets,
                histogram_columns=histogram_columns,
            )

    def register_udf(self, name: str, fn: Callable) -> None:
        """Register a scalar user-defined function usable in SQL."""
        self._udfs[name.lower()] = fn
        # Cached plans embed bind-time function references; redefining a UDF
        # (or shadowing a builtin) must not serve plans calling the old one.
        self.plan_cache.clear()

    # -- querying -----------------------------------------------------------

    def bind_sql(
        self, sql: str, params: Mapping[str, object] | None = None
    ) -> LogicalQuery:
        """Parse and bind a SQL statement without executing it."""
        return bind(parse(sql), self.catalog, udfs=self._udfs, params=params)

    @property
    def server(self):
        """The engine's :class:`~repro.engine.server.QueryServer`, created
        lazily (admission controller + memory broker are built from the
        current configuration on first use)."""
        if self._server is None:
            with self._server_lock:
                if self._server is None:
                    from .server import QueryServer

                    self._server = QueryServer(self)
        return self._server

    def create_session(self, name: str | None = None):
        """Open a concurrent-server session (own temp-table namespace,
        session-scoped prepared statements and plan-cache entries).  A
        session's statements are the only ones that go through the
        server's admission control and memory broker."""
        return self.server.session(name)

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare a statement for repeated execution.

        The SQL is parsed eagerly; optimization products are cached in the
        plan cache on first execution and reused (modulo statistics-epoch
        invalidation) by every later one.  Host-variable statements share
        one parametric scenario set across all parameter bindings.
        """
        return PreparedStatement(self, sql)

    def _prepare(
        self,
        sql: str,
        ast: AstSelect | None = None,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
        parametric: bool = False,
        use_cache: bool = True,
        catalog: Catalog | None = None,
        cache_scope: str = "",
    ) -> PreparedExecution:
        """The single preparation path: parse, bind, optimize, SCIA — cached.

        Returns a :class:`PreparedExecution` whose plan is safe to execute
        (never a cached template itself).  ``use_cache=False`` re-does every
        phase from scratch without touching the cache, which is what
        :meth:`plan` defaults to so timing-sensitive callers (the optimizer
        calibration procedure) always observe cold optimization.

        ``catalog`` overrides the shared catalog with a session's overlay
        (:class:`~repro.engine.session.SessionCatalog`); ``cache_scope`` is
        that session's plan-cache scope.  Statements that reference a
        session-local table are cached under the scope (and the overlay's
        combined epoch) so one session's temp-table plan is never served to
        another; statements over shared tables keep the global scope and
        stay shared across sessions.
        """
        cat = catalog if catalog is not None else self.catalog
        phases: dict[str, float] = {}
        t0 = perf_counter()
        if ast is None:
            ast = parse(sql)
        t1 = perf_counter()
        phases["parse"] = t1 - t0
        query = bind(ast, cat, udfs=self._udfs, params=params)
        t2 = perf_counter()
        phases["bind"] = t2 - t1

        use_cache = use_cache and self.config.plan_cache_size > 0
        epoch = cat.stats_epoch
        scope = ""
        if cache_scope:
            has_local = getattr(cat, "has_local", None)
            if has_local is not None and any(
                has_local(rel.table_name) for rel in query.relations
            ):
                scope = cache_scope
                epoch = cat.scoped_epoch

        if parametric and has_parameter_predicates(query):
            return self._prepare_parametric(
                query, params, mode, epoch, use_cache, phases, cat, scope
            )

        key = None
        entry: CachedPlan | None = None
        cache_miss: str | None = None
        if use_cache:
            key = PlanCache.exact_key(
                deparse(query),
                parameter_signature(params),
                mode.value,
                scope=scope,
            )
            entry, cache_miss = self.plan_cache.lookup(key, epoch)

        optimizer = Optimizer(cat, self.config, estimator=self.estimator)
        if entry is not None:
            plan = clone_plan(entry.plan)
            scia_result = entry.scia
            # The cached plan stands in for one optimizer run; profiles stay
            # identical to a cold execution (only wall-clock time improves).
            optimizer.invocations += 1
            phases["optimize"] = perf_counter() - t2
            phases["scia"] = 0.0
            return PreparedExecution(
                query=query,
                plan=plan,
                scia=scia_result,
                optimizer=optimizer,
                cache_hit=True,
                phase_seconds=phases,
            )

        plan = optimizer.optimize(query)
        t3 = perf_counter()
        phases["optimize"] = t3 - t2
        scia_result: SciaResult | None = None
        if mode.collects_statistics:
            scia_result = insert_collectors(plan, cat, self.config)
            optimizer.annotator().annotate(plan)
        phases["scia"] = perf_counter() - t3
        if use_cache and key is not None:
            self.plan_cache.store(
                key,
                CachedPlan(query=query, plan=plan, scia=scia_result, epoch=epoch),
            )
            # Execution mutates plans in place; keep the template pristine.
            plan = clone_plan(plan)
        return PreparedExecution(
            query=query,
            plan=plan,
            scia=scia_result,
            optimizer=optimizer,
            cache_miss=cache_miss,
            phase_seconds=phases,
        )

    def _prepare_parametric(
        self,
        query: LogicalQuery,
        params: Mapping[str, object] | None,
        mode: DynamicMode,
        epoch,
        use_cache: bool,
        phases: dict[str, float],
        catalog: Catalog | None = None,
        scope: str = "",
    ) -> PreparedExecution:
        """Parametric (section 4 hybrid) preparation with scenario-set reuse.

        Scenario plan *structure* is independent of the parameter values (the
        scenario estimator deliberately ignores them), so the expensive
        multi-scenario optimization is cached under the parameter-masked SQL
        and shared by every binding; per execution only the cheap
        ``choose_plan`` selection, value plugging and annotation remain.
        """
        cat = catalog if catalog is not None else self.catalog
        t2 = perf_counter()
        key = None
        cache_hit = False
        cache_miss: str | None = None
        scenarios = None
        if use_cache:
            key = PlanCache.parametric_key(
                deparse(mask_parameters(query)), scope=scope
            )
            entry, cache_miss = self.plan_cache.lookup(key, epoch)
            if entry is not None:
                scenarios = entry.parametric
                cache_hit = True
        if scenarios is None:
            scenarios = ParametricOptimizer(cat, self.config).optimize(query)
            if use_cache and key is not None:
                self.plan_cache.store(
                    key, CachedScenarios(parametric=scenarios, epoch=epoch)
                )
        # The run-time decision step: pick the anticipated case closest to
        # the estimated selectivity of the *current* parameter values.
        scenario, actual = choose_plan(scenarios, cat, query=query)
        plan = plug_parameters(scenario.plan, params or {})
        # Execution-time estimates use the now-known parameter values.
        estimator = Estimator(use_parameter_values=True)
        optimizer = Optimizer(cat, self.config, estimator=estimator)
        optimizer.invocations += 1
        optimizer.annotator().annotate(plan)
        t3 = perf_counter()
        phases["optimize"] = t3 - t2
        scia_result: SciaResult | None = None
        if mode.collects_statistics:
            scia_result = insert_collectors(plan, cat, self.config)
        phases["scia"] = perf_counter() - t3
        return PreparedExecution(
            query=query,
            plan=plan,
            scia=scia_result,
            optimizer=optimizer,
            cache_hit=cache_hit,
            cache_miss=cache_miss,
            parametric_plans=scenarios.plan_count,
            parametric_choice=(
                f"chose {scenario.describe()} for observed sel~{actual:.3f} "
                f"out of {scenarios.plan_count} plan(s)"
            ),
            phase_seconds=phases,
        )

    def plan(
        self,
        sql: str,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
        use_cache: bool = False,
    ) -> tuple[PlanNode, SciaResult | None, Optimizer]:
        """Optimize a statement, optionally inserting statistics collectors.

        ``use_cache`` defaults to off so callers that *measure* optimization
        (the calibration procedure) or inspect fresh plans always pay the
        full cost; pass ``True`` to observe exactly what a warm
        :meth:`execute` would run.
        """
        prepared = self._prepare(
            sql, params=params, mode=mode, use_cache=use_cache
        )
        return prepared.plan, prepared.scia, prepared.optimizer

    def explain(
        self,
        sql: str,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
    ) -> str:
        """EXPLAIN: the annotated plan as text."""
        plan, __, __opt = self.plan(sql, params, mode)
        return explain_plan(plan)

    def execute(
        self,
        sql: str,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
        parametric: bool = False,
        execution_mode: str | None = None,
        workers: int | None = None,
    ) -> QueryResult:
        """Execute a statement under the given dynamic-re-optimization mode.

        With ``parametric=True`` and host-variable predicates present, the
        optimizer anticipates several parameter-selectivity scenarios at
        compile time and the cheapest matching plan is chosen once the
        values are known — the section 4 hybrid; Dynamic Re-Optimization
        stays armed for the cases no scenario anticipated.

        There is one executor and no parallel one: ``execution_mode`` and
        ``workers`` are accepted only to refuse any value with
        :class:`ConfigError`, before the statement is parsed.

        Preparation (parse/bind/optimize/SCIA) goes through the plan cache:
        repeats of the same statement under an unchanged statistics epoch
        reuse the cached plan.  Simulated-cost profiles are identical warm
        or cold — the cost clock is always charged one calibrated
        optimization — so only wall-clock latency changes; see
        :attr:`ExecutionProfile.phases` and
        :attr:`ExecutionProfile.plan_cache_hit`.

        The statement runs inline on the caller's thread with the
        per-query budget :attr:`EngineConfig.query_memory_pages`.  Use
        :meth:`create_session` to run through the concurrent query server
        (admission control and the cross-query memory broker).
        """
        if execution_mode is not None:
            raise ConfigError(
                f"execution_mode={execution_mode!r}: there is one executor; "
                "every statement runs on it"
            )
        if workers is not None:
            raise ConfigError(
                f"workers={workers!r}: there is no parallel executor; "
                "every statement runs in one process"
            )
        prepared = self._prepare(sql, params=params, mode=mode, parametric=parametric)
        return self._run(prepared, sql, mode)

    def _execute_prepared(
        self,
        sql: str,
        ast: AstSelect,
        params: Mapping[str, object] | None,
        mode: DynamicMode,
        parametric: bool,
    ) -> QueryResult:
        """Execution entry point for :class:`PreparedStatement`."""
        prepared = self._prepare(
            sql, ast=ast, params=params, mode=mode, parametric=parametric
        )
        return self._run(prepared, sql, mode)

    def _run(
        self,
        prepared: PreparedExecution,
        sql: str,
        mode: DynamicMode,
        analysis_sink: dict | None = None,
        catalog: Catalog | None = None,
        lease=None,
        session_label: str = "",
        admission_wait_s: float = 0.0,
        admission_queue_depth: int = 0,
    ) -> QueryResult:
        """Run a prepared execution through the dynamic-re-optimization loop.

        ``analysis_sink`` (EXPLAIN ANALYZE) forces a tracer for this run and
        receives the built :class:`~repro.observe.analyze.ExplainAnalyzeReport`
        under ``"report"``.

        The server path passes ``catalog`` (the session's overlay — temp
        tables the re-optimizer materializes land there), a broker
        ``lease`` whose granted pages replace the per-query budget and
        whose mid-query re-grants reach this execution's
        :class:`MemoryManager` via :meth:`SessionLease.attach`, and the
        admission telemetry recorded on the profile.
        """
        cat = catalog if catalog is not None else self.catalog
        query = prepared.query
        plan = prepared.plan
        optimizer = prepared.optimizer
        scia_result = prepared.scia
        clock = CostClock(self.config.cost)
        tracer: QueryTracer | None = None
        if self.config.tracing or analysis_sink is not None:
            tracer = QueryTracer(clock, label=sql)
            tracer.record_compile_phases(prepared.phase_seconds)
        buffer_pool = BufferPool(self.config.buffer_pool_pages, clock)
        temp_manager = TempTableManager(cat, buffer_pool)
        cost_model = CostModel(self.config)
        # One calibrated optimization is charged whether the plan came from
        # the optimizer or the cache: the simulated timeline models a system
        # that optimized this query once, keeping profiles deterministic.
        clock.charge_optimizer(self.calibration.estimated_units(len(query.relations)))

        budget = (
            lease.granted_pages if lease is not None
            else self.config.query_memory_pages
        )
        memory_manager = MemoryManager(budget)
        if lease is not None:
            # Broker re-grants/reclaims now flow into this manager; they
            # take effect at the next dynamic re-allocation.
            lease.attach(memory_manager)
        ctx = RuntimeContext(
            catalog=cat,
            config=self.config,
            clock=clock,
            buffer_pool=buffer_pool,
            temp_manager=temp_manager,
            cost_model=cost_model,
            tracer=tracer,
        )
        allocation = memory_manager.allocate(plan, tracer=tracer)
        ctx.allocation.update(allocation)
        # Annotate under the actual grants so the baseline estimate matches
        # the execution the Memory Manager set up.
        optimizer.annotator(allocation=ctx.allocation).annotate(plan)
        initial_estimate = plan.est.total_cost

        controller: DynamicReoptimizer | None = None
        if mode.collects_statistics:
            controller = DynamicReoptimizer(
                ctx=ctx,
                optimizer=optimizer,
                memory_manager=memory_manager,
                query=query,
                mode=mode,
                calibration=self.calibration,
                params=self.config.reopt,
                udfs=self._udfs,
            )
            ctx.controller = controller

        dispatcher = Dispatcher(ctx)
        exec_span = None
        if tracer is not None:
            exec_span = tracer.begin("execute", "phase", mode=mode.value)
        t_exec = perf_counter()
        try:
            outcome = dispatcher.run(plan)
        finally:
            temp_manager.drop_all()
        execute_s = perf_counter() - t_exec
        if tracer is not None:
            tracer.end(exec_span, rows=len(outcome.rows))

        seconds = prepared.phase_seconds
        collector_work = [observed.work for observed in ctx.observed.values()]
        profile = ExecutionProfile(
            sql=sql,
            mode=mode.value,
            parametric_plan_count=prepared.parametric_plans,
            parametric_choice=prepared.parametric_choice,
            total_cost=clock.now,
            breakdown=clock.breakdown.snapshot(),
            buffer=buffer_pool.stats,
            row_count=len(outcome.rows),
            optimizer_invocations=optimizer.invocations,
            optimizer_subsets_enumerated=optimizer.subsets_enumerated,
            optimizer_candidates_costed=optimizer.candidates_costed,
            optimizer_candidates_pruned=optimizer.candidates_pruned,
            column_stats_derived=optimizer.column_stats_derived,
            collector_wall_s=sum(w.wall_s for w in collector_work),
            collector_rows_observed=sum(o.row_count for o in ctx.observed.values()),
            reservoir_draws=sum(w.reservoir_draws for w in collector_work),
            sketch_values_hashed=sum(w.sketch_values_hashed for w in collector_work),
            minmax_columns_tracked=sum(w.minmax_columns_tracked for w in collector_work),
            minmax_python_columns=sum(w.minmax_python_columns for w in collector_work),
            plan_switches=ctx.switches,
            memory_reallocations=ctx.reallocations,
            initial_estimated_cost=initial_estimate,
            collectors_inserted=scia_result.collector_points if scia_result else 0,
            statistics_kept=len(scia_result.kept) if scia_result else 0,
            statistics_dropped=len(scia_result.dropped) if scia_result else 0,
            statistics_budget=scia_result.budget if scia_result else 0.0,
            phases=PhaseBreakdown(
                parse_s=seconds.get("parse", 0.0),
                bind_s=seconds.get("bind", 0.0),
                optimize_s=seconds.get("optimize", 0.0),
                scia_s=seconds.get("scia", 0.0),
                execute_s=execute_s,
            ),
            plan_cache_hit=prepared.cache_hit,
            plan_cache_miss=prepared.cache_miss,
            rows_folded=ctx.vector.rows_folded,
            join_matches=ctx.vector.join_total("matches"),
            join_rows_materialised=ctx.vector.join_total("rows_materialised"),
            session=session_label,
            admission_wait_s=admission_wait_s,
            queue_depth_at_admission=admission_queue_depth,
            memory_requested_pages=(
                lease.requested_pages if lease is not None else budget
            ),
            memory_granted_pages=(
                lease.granted_pages if lease is not None else budget
            ),
            broker_regrants=lease.regrants if lease is not None else 0,
            broker_reclaims=lease.reclaims if lease is not None else 0,
            events=list(controller.events) if controller else [],
            plan_explanations=[explain_plan(p) for p in outcome.plan_history],
            remainder_sqls=[
                e.directive.remainder_sql for e in outcome.switch_events
            ],
            trace=tracer,
        )
        result = QueryResult(
            rows=outcome.rows, schema=outcome.final_plan.schema, profile=profile
        )
        self._record_metrics(profile, ctx, clock, buffer_pool, execute_s)
        if (
            self.config.slow_query_s > 0
            and profile.phases.total_s >= self.config.slow_query_s
        ):
            emit_slow_query(
                profile,
                threshold_s=self.config.slow_query_s,
                path=self.config.slow_query_path,
                metrics=self.metrics,
            )
        if analysis_sink is not None:
            analysis_sink["report"] = analyze_execution(
                sql=sql,
                outcome=outcome,
                ctx=ctx,
                tracer=tracer,
                result=result,
                profile=profile,
            )
        return result

    def _record_metrics(self, profile, ctx, clock, buffer_pool, execute_s) -> None:
        """Fold one execution into the cross-query metrics registry.

        Purely additive bookkeeping after the clock stopped — it can never
        perturb simulated costs or statistics.
        """
        m = self.metrics
        m.counter("engine.queries").inc()
        m.counter("engine.rows_returned").inc(profile.row_count)
        m.counter("optimizer.subsets_enumerated").inc(profile.optimizer_subsets_enumerated)
        m.counter("optimizer.candidates_costed").inc(profile.optimizer_candidates_costed)
        m.counter("optimizer.candidates_pruned").inc(profile.optimizer_candidates_pruned)
        m.counter("stats.column_stats_derived").inc(profile.column_stats_derived)
        m.counter("stats.collector_rows_observed").inc(profile.collector_rows_observed)
        m.counter("stats.reservoir_draws").inc(profile.reservoir_draws)
        m.counter("stats.sketch_values_hashed").inc(profile.sketch_values_hashed)
        m.histogram("stats.collector_wall_s").observe(profile.collector_wall_s)
        m.counter("reoptimizer.plan_switches").inc(ctx.switches)
        m.counter("reoptimizer.memory_reallocations").inc(ctx.reallocations)
        m.counter("reoptimizer.collectors_inserted").inc(profile.collectors_inserted)
        m.counter("vector.rows_folded").inc(ctx.vector.rows_folded)
        m.counter("join.matches").inc(profile.join_matches)
        m.counter("join.rows_materialised").inc(profile.join_rows_materialised)
        m.gauge("buffer_pool.hit_rate").set(buffer_pool.stats.hit_ratio)
        m.gauge("plan_cache.hit_rate").set(self.plan_cache.stats.hit_rate)
        m.histogram("query.simulated_cost").observe(clock.now)
        m.histogram("query.execute_wall_s").observe(execute_s)

    def metrics_snapshot(self) -> dict[str, dict]:
        """Snapshot of this engine's metrics registry (plain JSON-able dict)."""
        return self.metrics.snapshot()

    def explain_analyze(
        self,
        sql: str,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
    ) -> ExplainAnalyzeReport:
        """EXPLAIN ANALYZE: execute the statement, then report estimated vs.
        actual rows/size/cost per plan node with Q-errors and
        statistics-collector attribution.

        The executed rows ride on ``report.result``; ``str(report)`` (or
        ``report.render()``) is the annotated plan-tree text.  A tracer is
        attached for the run regardless of :attr:`EngineConfig.tracing`
        (tracing never perturbs simulated costs, so the profile matches a
        plain :meth:`execute`).
        """
        prepared = self._prepare(sql, params=params, mode=mode)
        sink: dict = {}
        self._run(prepared, sql, mode, analysis_sink=sink)
        return sink["report"]

    # -- introspection ---------------------------------------------------------

    def table(self, name: str) -> Table:
        """The table object registered under ``name``."""
        return self.catalog.table(name)

    def drop_table(self, name: str) -> None:
        """Drop a table."""
        self.catalog.drop_table(name)

    def __contains__(self, name: str) -> bool:
        return name in self.catalog

    def require_tables(self, names: Sequence[str]) -> None:
        """Raise :class:`CatalogError` unless every named table exists."""
        missing = [n for n in names if n not in self.catalog]
        if missing:
            raise CatalogError(f"missing tables: {missing}")
