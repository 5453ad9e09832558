"""Execution profiles: what one query execution cost and what happened.

The profile is the experiment currency of this reproduction: benchmarks run
a query under different :class:`~repro.core.modes.DynamicMode` settings and
compare ``total_cost`` (simulated time) plus the event log (re-allocations,
plan switches, collector overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.reoptimizer import ReoptimizationEvent
from ..storage.buffer import BufferStats
from ..storage.disk import CostBreakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observe.trace import QueryTracer


@dataclass(frozen=True)
class PhaseBreakdown:
    """Real (wall-clock) seconds spent in each phase of one execution.

    Unlike every other field of the profile — which reports the *simulated*
    cost clock — these are ``time.perf_counter`` measurements.  They exist
    to make compile-time overhead visible: after PR 1's batch executor,
    complex queries spend several times longer in parse/bind/optimize/SCIA
    than in actual execution, which is exactly what the plan cache and
    prepared statements eliminate on warm paths.
    """

    parse_s: float = 0.0
    bind_s: float = 0.0
    optimize_s: float = 0.0
    scia_s: float = 0.0
    execute_s: float = 0.0

    @property
    def compile_s(self) -> float:
        """Everything before execution starts."""
        return self.parse_s + self.bind_s + self.optimize_s + self.scia_s

    @property
    def total_s(self) -> float:
        """End-to-end wall-clock seconds."""
        return self.compile_s + self.execute_s

    def as_dict(self) -> dict[str, float]:
        """Plain dict for JSON benchmark documents."""
        return {
            "parse_s": self.parse_s,
            "bind_s": self.bind_s,
            "optimize_s": self.optimize_s,
            "scia_s": self.scia_s,
            "execute_s": self.execute_s,
        }


@dataclass
class ExecutionProfile:
    """Cost accounting and event history for one executed query."""

    sql: str
    mode: str
    total_cost: float
    breakdown: CostBreakdown
    buffer: BufferStats
    row_count: int
    optimizer_invocations: int
    plan_switches: int
    memory_reallocations: int
    initial_estimated_cost: float
    collectors_inserted: int
    statistics_kept: int
    statistics_dropped: int
    statistics_budget: float
    #: Parametric-plan bookkeeping (section 4 hybrid): how many scenario
    #: plans existed and which was chosen (empty when not used).
    parametric_plan_count: int = 0
    parametric_choice: str = ""
    #: Wall-clock per-phase breakdown (parse/bind/optimize/scia/execute).
    phases: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    #: Whether the plan (or scenario set) was served from the plan cache.
    plan_cache_hit: bool = False
    #: Why the cache missed: ``"absent"`` or ``"stale-epoch"`` (``None`` on
    #: a hit or with the cache off).
    plan_cache_miss: str | None = None
    #: Optimizer work on this statement's behalf, initial plan plus every
    #: mid-query re-optimization: DP relation subsets visited, join
    #: candidates costed (annotated) and pruned on their cost bound (all
    #: zero when the cache served the plan and no re-optimization ran) and
    #: column statistics derived by
    #: ``Estimator`` profile propagation.  Exact for a statement executed
    #: inline — counts, not timings.
    optimizer_subsets_enumerated: int = 0
    optimizer_candidates_costed: int = 0
    optimizer_candidates_pruned: int = 0
    column_stats_derived: int = 0
    #: What the statement's statistics collectors really cost: wall-clock
    #: seconds in their batch entry points (``breakdown.stats_cpu`` is the
    #: simulated charge) and exact counts — rows examined, reservoir draws
    #: (one per row past capacity per *collector*), values hashed into
    #: distinct sketches, columns min/max was tracked on, and of those the
    #: ones a join's chunk folded as Python values (``CollectorWork``).
    collector_wall_s: float = 0.0
    collector_rows_observed: int = 0
    reservoir_draws: int = 0
    sketch_values_hashed: int = 0
    minmax_columns_tracked: int = 0
    minmax_python_columns: int = 0
    #: Executor telemetry.  ``rows_folded`` counts the input rows the hash
    #: aggregates folded, ``join_matches`` the rows the joins emitted (as
    #: row-id chunks) and ``join_rows_materialised`` the tuples built from
    #: those chunks.
    rows_folded: int = 0
    join_matches: int = 0
    join_rows_materialised: int = 0
    #: Concurrent-server telemetry (label fields empty and wait/broker
    #: counters zero for inline executions; the memory fields always record
    #: the budget the query actually ran under).
    #: ``session`` is the owning session's label (empty when the statement
    #: ran inline, without the server), ``admission_wait_s`` how long
    #: admission control parked it and ``queue_depth_at_admission`` how
    #: many statements were waiting when it arrived.
    #: ``memory_requested_pages``/``memory_granted_pages`` record the
    #: broker lease, and ``broker_regrants``/``broker_reclaims`` how
    #: many times the broker grew or shrank that lease mid-query — each
    #: re-grant is exactly the cross-query pressure the paper's memory
    #: re-allocation trigger (section 2.3) responds to.
    session: str = ""
    admission_wait_s: float = 0.0
    queue_depth_at_admission: int = 0
    memory_requested_pages: int = 0
    memory_granted_pages: int = 0
    broker_regrants: int = 0
    broker_reclaims: int = 0
    events: list[ReoptimizationEvent] = field(default_factory=list)
    plan_explanations: list[str] = field(default_factory=list)
    remainder_sqls: list[str] = field(default_factory=list)
    #: The query's span trace when tracing was enabled
    #: (``EngineConfig.tracing`` / ``REPRO_TRACE=1``), else ``None``.
    #: Export with ``profile.trace.export_chrome(path)`` or render with
    #: ``profile.trace.timeline()``.
    trace: "QueryTracer | None" = None

    @property
    def stats_overhead_fraction(self) -> float:
        """Observed statistics-collection overhead as a fraction of total."""
        if self.total_cost <= 0:
            return 0.0
        return self.breakdown.stats_cpu / self.total_cost

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [
            f"mode={self.mode} total={self.total_cost:.1f} "
            f"(io={self.breakdown.io:.1f}, cpu={self.breakdown.cpu:.1f}, "
            f"stats={self.breakdown.stats_cpu:.1f}, opt={self.breakdown.optimizer:.1f})",
            f"rows={self.row_count} switches={self.plan_switches} "
            f"reallocations={self.memory_reallocations} "
            f"collectors={self.collectors_inserted} "
            f"stats kept/dropped={self.statistics_kept}/{self.statistics_dropped}",
            f"wall: compile={self.phases.compile_s * 1e3:.2f}ms "
            f"(parse={self.phases.parse_s * 1e3:.2f}, bind={self.phases.bind_s * 1e3:.2f}, "
            f"optimize={self.phases.optimize_s * 1e3:.2f}, scia={self.phases.scia_s * 1e3:.2f}) "
            f"execute={self.phases.execute_s * 1e3:.2f}ms "
            f"cache={'hit' if self.plan_cache_hit else 'miss'}"
            + (f"({self.plan_cache_miss})" if self.plan_cache_miss else ""),
        ]
        if self.join_matches:
            lines.append(
                f"joins: matches={self.join_matches} "
                f"materialised={self.join_rows_materialised}"
            )
        if self.session:
            lines.append(
                f"server: session={self.session} "
                f"admission wait={self.admission_wait_s * 1e3:.2f}ms "
                f"queue depth={self.queue_depth_at_admission} "
                f"memory granted/requested="
                f"{self.memory_granted_pages}/{self.memory_requested_pages} "
                f"regrants={self.broker_regrants} reclaims={self.broker_reclaims}"
            )
        for event in self.events:
            lines.append(f"  event: {event.action} at t={event.clock_time:.1f} {event.detail}")
        return "\n".join(lines)
