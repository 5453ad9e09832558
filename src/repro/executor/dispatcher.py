"""The query dispatcher.

Drives a physical plan to completion, restarting with the new plan whenever
a :class:`~repro.executor.runtime.PlanSwitched` signal unwinds out of a cut
operator.  The dispatcher itself is policy-free: all re-optimization
decisions live in the controller (:mod:`repro.core.reoptimizer`); this loop
merely honours the directives, mirroring the paper's split between the
scheduler/dispatcher and the Dynamic Re-Optimization algorithm hooked into
it (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..optimizer.annotate import estimate_snapshot
from ..plans.physical import PlanNode
from ..storage.table import Row
from .batch import execute_node_batches
from .runtime import PlanSwitchDirective, PlanSwitched, RuntimeContext

#: Span categories force-closed when a plan switch abandons the generators
#: that would have closed them naturally.
_ABANDONABLE = frozenset({"operator", "pipeline"})


@dataclass
class SwitchEvent:
    """Record of one executed plan switch."""

    directive: PlanSwitchDirective
    materialized_rows: int


@dataclass
class DispatchResult:
    """Everything the dispatcher learned while running a query."""

    rows: list[Row]
    final_plan: PlanNode
    plan_history: list[PlanNode] = field(default_factory=list)
    switch_events: list[SwitchEvent] = field(default_factory=list)


class Dispatcher:
    """Runs plans, following plan switches across restarts."""

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx

    def run(self, plan: PlanNode) -> DispatchResult:
        """Execute ``plan`` (and any successor plans) to completion."""
        history = [plan]
        events: list[SwitchEvent] = []
        current = plan
        tracer = self.ctx.tracer
        while True:
            self._notify_plan(current)
            span = None
            if tracer is not None or self.ctx.estimate_snapshots is not None:
                # Freeze the adopted plan's estimates before improved
                # estimates overwrite node.est in place: the tracer feeds
                # them to EXPLAIN ANALYZE, the feedback repository records
                # them against actuals at query end.  Pure dict writes —
                # never touches the cost clock.
                snapshot = estimate_snapshot(current)
                if self.ctx.estimate_snapshots is not None:
                    self.ctx.estimate_snapshots.update(snapshot)
                if tracer is not None:
                    tracer.record_estimates(snapshot)
            if tracer is not None:
                span = tracer.begin(
                    f"plan-{len(history)}",
                    "plan",
                    root=current.label,
                    est_rows=current.est.rows,
                    est_cost=round(current.est.total_cost, 6),
                )
            try:
                rows = self._drain(current)
                if tracer is not None:
                    tracer.end(span, outcome="completed", rows=len(rows))
                return DispatchResult(
                    rows=rows,
                    final_plan=current,
                    plan_history=history,
                    switch_events=events,
                )
            except PlanSwitched as switched:
                directive = switched.directive
                events.append(
                    SwitchEvent(
                        directive=directive,
                        materialized_rows=switched.materialized_rows,
                    )
                )
                self.ctx.pending_switch = None
                self.ctx.allocation.clear()
                self.ctx.allocation.update(directive.new_allocation)
                current = directive.new_plan
                history.append(current)
                if tracer is not None:
                    # The abandoned plan's generators never reach their
                    # natural span ends; close them here so durations stay
                    # meaningful, then close the plan span itself.
                    tracer.close_open_spans(_ABANDONABLE, abandoned=True)
                    tracer.end(
                        span,
                        outcome="switched",
                        materialized_rows=switched.materialized_rows,
                    )
                    tracer.instant(
                        "plan-switch",
                        "reopt",
                        cut_node_id=directive.cut_node_id,
                        materialized_rows=switched.materialized_rows,
                        remainder_sql=directive.remainder_sql,
                        reason=directive.reason,
                    )

    def _drain(self, plan: PlanNode) -> list[Row]:
        """Run one plan to completion on the batch executor.

        A plan switch surfaces at a batch boundary (the cut operator's
        blocking point) and unwinds out of here as
        :class:`~repro.executor.runtime.PlanSwitched`.
        """
        rows: list[Row] = []
        for batch in execute_node_batches(plan, self.ctx):
            rows.extend(batch)
        return rows

    def _notify_plan(self, plan: PlanNode) -> None:
        controller = self.ctx.controller
        if controller is not None and hasattr(controller, "set_current_plan"):
            controller.set_current_plan(plan)
