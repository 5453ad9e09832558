"""EXPLAIN ANALYZE: estimated vs. actual, per plan node.

The paper's premise is that optimizer estimates go visibly wrong at run
time; this module renders that gap.  After executing a query,
:func:`analyze_execution` walks every plan the dispatcher ran (the initial
plan plus any adopted by mid-query switches) and reports, per node:

* estimated rows/size/cost as the optimizer saw them **when the plan was
  adopted** (snapshotted by the tracer before improved estimates overwrite
  ``node.est`` in place),
* actual rows and derived actual size, plus the node's simulated-clock
  window (the cost-clock interval between the node's first start and last
  completion — an *attribution* of simulated time, approximate because
  consumer charges interleave in the pull model),
* the Q-error of the cardinality estimate,
* for statistics-collector nodes: which statistics fired (cardinality,
  histograms, distinct sketches), the SCIA inaccuracy-potential ranking of
  the estimate being checked, and a verdict on whether that ranking
  predicted where estimates actually went bad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..plans.physical import PlanNode, StatsCollectorNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.profile import ExecutionProfile
    from ..engine.results import QueryResult
    from ..executor.collector import CollectorWork
    from ..executor.dispatcher import DispatchResult
    from ..executor.runtime import RuntimeContext
    from .trace import QueryTracer

#: A cardinality estimate with Q-error at or above this is "wrong" for the
#: purposes of the SCIA-verdict bookkeeping (a factor of two either way).
Q_ERROR_BAD = 2.0


def q_error(estimated: float, actual: float) -> float:
    """Symmetric relative error ``max(est/act, act/est)``, floored at one
    row on both sides so empty results stay finite."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def _fmt_bytes(value: float | None) -> str:
    if value is None:
        return "?"
    if value >= 1024 * 1024:
        return f"{value / (1024 * 1024):.1f}MB"
    if value >= 1024:
        return f"{value / 1024:.1f}KB"
    return f"{value:.0f}B"


@dataclass
class CollectorInsight:
    """What one statistics collector observed, and how SCIA ranked it."""

    fired: bool
    observed_rows: int | None
    statistics: tuple[str, ...]
    potential: str | None
    kept: int
    dropped: int
    verdict: str
    #: Simulated ``stats_cpu`` charge, and what the collector really cost.
    stats_cpu: float = 0.0
    work: "CollectorWork | None" = None

    def format(self) -> str:
        if not self.fired:
            return "collector: did not complete"
        stats = ", ".join(self.statistics) if self.statistics else "cardinality"
        parts = [f"collector: observed rows={self.observed_rows} [{stats}]"]
        if self.potential is not None:
            parts.append(f"potential={self.potential}")
        if self.verdict:
            parts.append(f"verdict={self.verdict}")
        if self.kept or self.dropped:
            parts.append(f"(scia kept {self.kept}, dropped {self.dropped})")
        work = self.work
        if work is not None:
            parts.append(
                f"cost: stats_cpu={self.stats_cpu:.1f} wall={work.wall_s * 1e3:.2f}ms "
                f"draws={work.reservoir_draws} hashed={work.sketch_values_hashed} "
                f"minmax columns={work.minmax_columns_tracked}"
            )
        return " ".join(parts)


@dataclass
class NodeAnalysis:
    """Estimated vs. actual for one plan node."""

    node_id: int
    depth: int
    label: str
    detail: str
    est_rows: float
    est_bytes: float
    est_cost: float
    actual_rows: int | None
    actual_bytes: float | None
    sim_window: tuple[float, float] | None
    rows_q_error: float | None
    collector: CollectorInsight | None = None
    #: The node's executor record, for every scan, join and hash
    #: aggregate: ``{"kind": "scan", "rows_scanned", "rows_materialised"}``,
    #: ``{"kind": "probe", "rows_probed", "matches", "rows_materialised"}``
    #: or ``{"kind": "aggregate", "rows_folded", "groups"}`` —
    #: ``rows_materialised`` the tuples built from its output chunks —
    #: None otherwise.
    vectorized: dict | None = None
    #: Shown when the node never completed: a mid-query switch abandoned
    #: the plan, or a consumer (e.g. LIMIT) stopped pulling early.
    not_run_note: str = "not executed"

    @property
    def executed(self) -> bool:
        return self.actual_rows is not None

    @property
    def sim_cost(self) -> float | None:
        """The node's simulated-clock window (attributed actual cost)."""
        if self.sim_window is None:
            return None
        return self.sim_window[1] - self.sim_window[0]

    def format_lines(self) -> list[str]:
        indent = "  " * self.depth
        head = f"{indent}{self.label}"
        if self.detail:
            head += f" [{self.detail}]"
        est = (
            f"{indent}    est:  rows={self.est_rows:.0f}"
            f" size={_fmt_bytes(self.est_bytes)} cost={self.est_cost:.1f}"
        )
        if self.executed:
            sim = ""
            if self.sim_cost is not None:
                sim = f" sim_cost={self.sim_cost:.1f}"
            act = (
                f"{indent}    act:  rows={self.actual_rows}"
                f" size={_fmt_bytes(self.actual_bytes)}{sim}"
                f" q_error={self.rows_q_error:.2f}"
            )
        else:
            act = f"{indent}    act:  ({self.not_run_note})"
        lines = [head, est, act]
        record = self.vectorized
        if record is not None:
            kind = record["kind"]
            if kind == "scan":
                lines.append(
                    f"{indent}    scan: {record['rows_scanned']} rows scanned, "
                    f"{record['rows_materialised']} materialised"
                )
            elif kind == "probe":
                lines.append(
                    f"{indent}    join: {record['rows_probed']} rows probed, "
                    f"{record['matches']} matches, "
                    f"{record['rows_materialised']} materialised"
                )
            else:
                lines.append(
                    f"{indent}    aggregate: {record['rows_folded']} rows folded "
                    f"into {record['groups']} groups"
                )
        if self.collector is not None:
            lines.append(f"{indent}    {self.collector.format()}")
        return lines


@dataclass
class PlanAnalysis:
    """All node analyses for one plan the dispatcher ran."""

    index: int
    total: int
    outcome: str  # "completed" | "switched"
    materialized_rows: int | None
    nodes: list[NodeAnalysis] = field(default_factory=list)

    def header(self) -> str:
        title = f"plan {self.index + 1} of {self.total}"
        if self.outcome == "switched":
            title += (
                f" — abandoned by mid-query switch after materializing "
                f"{self.materialized_rows} rows"
            )
        elif self.total > 1:
            title += " — final"
        return title


@dataclass
class ExplainAnalyzeReport:
    """The full EXPLAIN ANALYZE output for one executed query."""

    sql: str
    result: "QueryResult"
    plans: list[PlanAnalysis]
    profile: "ExecutionProfile"

    def node(self, node_id: int) -> NodeAnalysis:
        for plan in self.plans:
            for analysis in plan.nodes:
                if analysis.node_id == node_id:
                    return analysis
        raise KeyError(node_id)

    @property
    def worst_q_error(self) -> float:
        errors = [
            analysis.rows_q_error
            for plan in self.plans
            for analysis in plan.nodes
            if analysis.rows_q_error is not None
        ]
        return max(errors, default=1.0)

    def render(self) -> str:
        lines = [f"EXPLAIN ANALYZE {self.sql}"]
        for plan in self.plans:
            lines.append("")
            lines.append(plan.header())
            for analysis in plan.nodes:
                lines.extend(analysis.format_lines())
        lines.append("")
        lines.append(self.profile.summary())
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _potential_name(value: Any) -> str | None:
    if value is None:
        return None
    name = getattr(value, "name", None)
    return name.lower() if isinstance(name, str) else str(value)


def _verdict(potential: str | None, rows_q_error: float | None) -> str:
    """Did SCIA's inaccuracy-potential ranking predict this estimate going
    bad?  ``predicted``/``missed`` when ranking and reality agree/disagree
    on a bad estimate, ``ok``/``false-alarm`` otherwise."""
    if potential is None or rows_q_error is None:
        return ""
    went_bad = rows_q_error >= Q_ERROR_BAD
    ranked_risky = potential in ("medium", "high")
    if went_bad:
        return "predicted" if ranked_risky else "missed"
    return "false-alarm" if ranked_risky else "ok"


def _collector_insight(
    node: StatsCollectorNode,
    ctx: "RuntimeContext",
    rows_q_error: float | None,
) -> CollectorInsight:
    observed = ctx.observed.get(node.node_id)
    statistics: list[str] = []
    if observed is not None:
        statistics.extend(f"hist({name})" for name in sorted(observed.histograms))
        statistics.extend(
            f"distinct({', '.join(cols)})" for cols in sorted(observed.distincts)
        )
    else:
        spec = node.spec
        statistics.extend(f"hist({name})" for name in spec.histogram_columns)
        statistics.extend(
            f"distinct({', '.join(cols)})" for cols in spec.distinct_column_sets
        )
    potential = _potential_name(getattr(node, "scia_potential", None))
    return CollectorInsight(
        fired=observed is not None,
        observed_rows=observed.row_count if observed is not None else None,
        statistics=tuple(statistics),
        potential=potential,
        kept=len(getattr(node, "scia_kept", ())),
        dropped=len(getattr(node, "scia_dropped", ())),
        verdict=_verdict(potential, rows_q_error) if observed is not None else "",
        stats_cpu=ctx.cost_model.collector(
            observed.row_count if observed is not None else 0,
            node.spec.statistic_count,
        ).stats_cpu_units,
        work=observed.work if observed is not None else None,
    )


def analyze_execution(
    sql: str,
    outcome: "DispatchResult",
    ctx: "RuntimeContext",
    tracer: "QueryTracer",
    result: "QueryResult",
    profile: "ExecutionProfile",
) -> ExplainAnalyzeReport:
    """Build the EXPLAIN ANALYZE report from one finished execution."""
    plans: list[PlanAnalysis] = []
    total = len(outcome.plan_history)
    for index, plan in enumerate(outcome.plan_history):
        switched = index < total - 1
        analysis = PlanAnalysis(
            index=index,
            total=total,
            outcome="switched" if switched else "completed",
            materialized_rows=(
                outcome.switch_events[index].materialized_rows if switched else None
            ),
        )

        def visit(node: PlanNode, depth: int) -> None:
            estimates = tracer.estimates.get(node.node_id, {})
            est_rows = estimates.get("rows", node.est.rows)
            est_bytes = estimates.get(
                "bytes", node.est.rows * node.est.row_bytes
            )
            est_cost = estimates.get("total_cost", node.est.total_cost)
            actual_rows = ctx.actual_rows.get(node.node_id)
            window = tracer.node_windows.get(node.node_id)
            sim_window = None
            if window is not None and window[0] is not None and window[1] is not None:
                sim_window = (window[0], window[1])
            rows_q_error = (
                q_error(est_rows, actual_rows) if actual_rows is not None else None
            )
            node_analysis = NodeAnalysis(
                node_id=node.node_id,
                depth=depth,
                label=node.label,
                detail=node.detail(),
                est_rows=est_rows,
                est_bytes=est_bytes,
                est_cost=est_cost,
                actual_rows=actual_rows,
                actual_bytes=(
                    float(actual_rows * node.schema.row_bytes)
                    if actual_rows is not None
                    else None
                ),
                sim_window=sim_window,
                rows_q_error=rows_q_error,
                not_run_note=(
                    "not executed — plan abandoned first"
                    if switched
                    else "did not complete — consumer stopped pulling early"
                ),
            )
            per_vector = ctx.vector.by_node.get(node.node_id)
            if per_vector is not None:
                node_analysis.vectorized = dict(per_vector)
            if isinstance(node, StatsCollectorNode):
                node_analysis.collector = _collector_insight(node, ctx, rows_q_error)
            analysis.nodes.append(node_analysis)
            for child in node.children:
                visit(child, depth + 1)

        visit(plan, 0)
        plans.append(analysis)
    return ExplainAnalyzeReport(sql=sql, result=result, plans=plans, profile=profile)
