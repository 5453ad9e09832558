"""The Dynamic Re-Optimization controller.

This is the component the paper adds to Paradise's dispatcher (Figure 9).
Whenever a statistics collector completes, the controller:

1. folds the observed statistics into the current plan's annotations
   (*improved estimates*, section 2.2);
2. re-invokes the Memory Manager with the improved demands for the
   operators that have not started executing (*dynamic resource
   re-allocation*, section 2.3);
3. applies the Equation 1/2 gates and, if they pass, re-invokes the query
   optimizer on the *remainder* of the query expressed over a temporary
   table; the new plan is adopted only if its total estimated time —
   including the work already performed, the re-optimization time and the
   materialisation overhead — beats the improved estimate for the current
   plan (*query plan modification*, section 2.4).

Which of steps 2/3 run is governed by the :class:`~repro.core.modes.DynamicMode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..config import ReoptimizationParameters
from ..errors import MemoryGrantError
from ..executor.collector import ObservedStatistics
from ..executor.memory import MemoryManager
from ..executor.runtime import PlanSwitchDirective, RuntimeContext
from ..optimizer.calibration import OptimizerCalibration
from ..optimizer.cost_model import pages_for
from ..optimizer.optimizer import Optimizer
from ..plans.logical import LogicalQuery
from ..plans.physical import (
    BlockNLJoinNode,
    HashJoinNode,
    PlanNode,
    StatsCollectorNode,
)
from ..sql.binder import bind
from ..sql.deparser import deparse
from ..sql.parser import parse
from .improve import (
    apply_improved_estimates,
    blocking_consumer,
    in_flight_remaining,
    remaining_cost,
)
from .modes import DynamicMode
from .remainder import build_remainder, temp_table_stats
from .scia import insert_collectors
from .triggers import TriggerDecision, accept_new_plan, should_consider_reoptimization


@dataclass
class ReoptimizationEvent:
    """One controller decision, for profiles and experiments."""

    collector_node_id: int
    action: str  # "none" | "realloc" | "switch" | "switch-rejected"
    clock_time: float
    trigger: TriggerDecision | None = None
    t_new_total: float | None = None
    reallocation_changed: bool = False
    detail: str = ""


class DynamicReoptimizer:
    """Execution controller implementing the paper's algorithm."""

    def __init__(
        self,
        ctx: RuntimeContext,
        optimizer: Optimizer,
        memory_manager: MemoryManager,
        query: LogicalQuery,
        mode: DynamicMode = DynamicMode.FULL,
        calibration: OptimizerCalibration | None = None,
        params: ReoptimizationParameters | None = None,
        udfs: Mapping[str, Callable] | None = None,
    ) -> None:
        self.ctx = ctx
        self.optimizer = optimizer
        self.memory_manager = memory_manager
        self.mode = mode
        self.calibration = calibration or OptimizerCalibration()
        self.params = params or ctx.config.reopt
        self.udfs = dict(udfs or {})
        self.events: list[ReoptimizationEvent] = []
        self.query_start_clock = ctx.clock.now
        self.current_plan: PlanNode | None = None
        self.current_query = query
        #: Optimizer-estimate baseline for the currently adopted plan
        #: (elapsed time at adoption + the plan's estimated total cost).
        self.plan_optimizer_total = 0.0
        self._queries_by_plan: dict[int, LogicalQuery] = {}
        #: The grants the current plan's estimates were last annotated under.
        self._annotated_grants: dict[int, int] = {}

    # -- dispatcher hooks ---------------------------------------------------

    def set_current_plan(self, plan: PlanNode) -> None:
        """Adopt a plan (called by the dispatcher on start and after switches)."""
        self.current_plan = plan
        self._annotated_grants = dict(self.ctx.allocation)
        stashed = self._queries_by_plan.pop(id(plan), None)
        if stashed is not None:
            self.current_query = stashed
        elapsed = self.ctx.clock.now - self.query_start_clock
        self.plan_optimizer_total = elapsed + plan.est.total_cost

    def on_collector_complete(
        self, node: StatsCollectorNode, observed: ObservedStatistics
    ) -> None:
        """React to a completed statistics collector (the paper's Figure 9 loop)."""
        plan = self.current_plan
        if plan is None or plan.find(node.node_id) is None:
            return
        elapsed = self.ctx.clock.now - self.query_start_clock
        apply_improved_estimates(
            plan, self.optimizer, self.ctx, node.node_id, self._annotated_grants
        )
        self._annotated_grants = dict(self.ctx.allocation)
        consumer = blocking_consumer(plan, node.node_id)
        remaining = remaining_cost(
            plan, self.ctx, self.optimizer.cost_model, in_flight=consumer
        )
        t_cur_improved = elapsed + remaining
        event = ReoptimizationEvent(
            collector_node_id=node.node_id,
            action="none",
            clock_time=self.ctx.clock.now,
        )

        if self.mode.allows_memory_reallocation:
            event.reallocation_changed = self._reallocate(plan)
            if event.reallocation_changed:
                event.action = "realloc"

        if self.mode.allows_plan_modification:
            self._maybe_modify_plan(plan, node, consumer, t_cur_improved, event)

        self.events.append(event)

        tracer = self.ctx.tracer
        if tracer is not None:
            # The triggering estimate delta: what the optimizer predicted for
            # this collection point (snapshotted at plan adoption, before
            # improved estimates overwrote node.est) vs. what was observed.
            estimated_rows = tracer.estimated_rows(node.node_id, node.est.rows)
            args: dict = {
                "collector_node_id": node.node_id,
                "action": event.action,
                "estimated_rows": round(estimated_rows, 1),
                "observed_rows": observed.row_count,
                "estimate_delta_rows": round(observed.row_count - estimated_rows, 1),
                "t_cur_optimizer": round(self.plan_optimizer_total, 6),
                "t_cur_improved": round(t_cur_improved, 6),
                "reallocation_changed": event.reallocation_changed,
            }
            if event.trigger is not None:
                args["trigger_consider"] = event.trigger.consider
                args["trigger_reason"] = event.trigger.reason
            if event.t_new_total is not None:
                args["t_new_total"] = round(event.t_new_total, 6)
            if event.detail:
                args["detail"] = event.detail
            tracer.instant("reopt-decision", "reopt", **args)

    # -- memory re-allocation -------------------------------------------------

    def _reallocate(self, plan: PlanNode) -> bool:
        grants, committed = self.ctx.allocation.items(), self.ctx.memory_committed
        fixed = {n: pages for n, pages in grants if n in committed}
        floors = {n: pages for n, pages in grants if n not in committed}
        try:
            new_allocation = self.memory_manager.allocate(
                plan, fixed=fixed, floors=floors,
                tracer=self.ctx.tracer, reason="reallocate",
            )
        except MemoryGrantError:
            return False
        changed = any(
            self.ctx.allocation.get(node_id) != pages
            for node_id, pages in new_allocation.items()
        )
        if changed:
            self.ctx.allocation.update(new_allocation)
            self.ctx.reallocations += 1
        return changed

    # -- plan modification --------------------------------------------------------

    def _maybe_modify_plan(
        self,
        plan: PlanNode,
        node: StatsCollectorNode,
        consumer: PlanNode | None,
        t_cur_improved: float,
        event: ReoptimizationEvent,
    ) -> None:
        if not isinstance(consumer, (HashJoinNode, BlockNLJoinNode)):
            event.detail = "no join boundary to cut at"
            return
        cut_aliases = consumer.base_aliases
        remaining_relations = [
            rel for rel in self.current_query.relations if rel.alias not in cut_aliases
        ]
        if not remaining_relations:
            event.detail = "no relations remain to re-join"
            return
        t_opt_estimated = self.calibration.estimated_units(1 + len(remaining_relations))
        decision = should_consider_reoptimization(
            t_cur_optimizer=self.plan_optimizer_total,
            t_cur_improved=t_cur_improved,
            t_opt_estimated=t_opt_estimated,
            params=self.params,
        )
        event.trigger = decision
        if not decision.consider:
            event.detail = decision.reason
            return

        # Pay for the re-optimization itself (calibrated, deterministic).
        self.ctx.clock.charge_optimizer(t_opt_estimated)

        temp_name = self.ctx.temp_manager.next_name()
        remainder = build_remainder(self.current_query, consumer, temp_name)
        cut_profile = consumer.est.profile
        stats = temp_table_stats(
            temp_name, cut_profile, remainder.temp_schema, self.ctx.catalog.page_size
        )
        temp_table = self.ctx.temp_manager.create_empty(
            remainder.temp_schema, stats=stats, name=temp_name
        )

        # The paper's round trip: deparse to SQL, re-parse, re-bind, re-optimize.
        remainder_sql = deparse(remainder.query)
        rebound = bind(parse(remainder_sql), self.ctx.catalog, udfs=self.udfs)
        new_plan = self.optimizer.optimize(rebound)
        insert_collectors(new_plan, self.ctx.catalog, self.ctx.config)
        try:
            new_allocation = self.memory_manager.allocate(
                new_plan, tracer=self.ctx.tracer, reason="switch-plan"
            )
        except MemoryGrantError:
            new_allocation = {}
        self.optimizer.annotator(allocation=new_allocation).annotate(new_plan)

        elapsed = self.ctx.clock.now - self.query_start_clock
        cut_pages = pages_for(
            cut_profile.rows, cut_profile.row_bytes, self.ctx.catalog.page_size
        )
        t_materialize = self.optimizer.cost_model.materialize(cut_pages).total_units(
            self.optimizer.cost_model.params
        )
        t_finish_cut = in_flight_remaining(consumer, self.ctx, self.optimizer.cost_model)
        t_new_total = elapsed + t_finish_cut + t_materialize + new_plan.est.total_cost
        event.t_new_total = t_new_total

        if not accept_new_plan(t_new_total, t_cur_improved):
            self.ctx.temp_manager.drop(temp_name)
            event.action = "switch-rejected"
            event.detail = (
                f"new plan total {t_new_total:.1f} >= improved estimate "
                f"{t_cur_improved:.1f}"
            )
            return

        directive = PlanSwitchDirective(
            cut_node_id=consumer.node_id,
            temp_table=temp_table,
            new_plan=new_plan,
            new_allocation=new_allocation,
            remainder_sql=remainder_sql,
            reason=decision.reason,
        )
        self._queries_by_plan[id(new_plan)] = rebound
        self.ctx.request_switch(directive)
        event.action = "switch"
        event.detail = (
            f"switching: new total {t_new_total:.1f} < improved "
            f"{t_cur_improved:.1f}; remainder: {remainder_sql}"
        )
