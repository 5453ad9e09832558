"""The Memory Manager.

Divides a query's workspace memory budget among its memory-consuming
operators (hybrid hash joins, sorts, hash aggregates, block NL joins) based
on the min/max demands the optimizer annotated — the design of Paradise's
memory module ([15], paper section 3.1).

Grants are **max-or-min**: walking the operators in execution order, an
operator receives its maximum demand if that still leaves every later
operator its minimum; otherwise it receives exactly its minimum.  A second
pass upgrades min-granted operators to their maximum where leftover budget
allows.  This reproduces the paper's Figure 3 narrative exactly: with an
8 MB budget, the first join gets its 4.2 MB maximum, the second join gets
its 250 KB minimum (forcing a two-pass execution), and the leftover reaches
the aggregate.

Dynamic re-allocation (paper section 2.3) re-invokes :meth:`allocate` with
improved demands for the operators that have not started, pinning the grants
of operators already mid-execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..errors import MemoryGrantError
from ..plans.physical import PlanNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observe.trace import QueryTracer


@dataclass(frozen=True)
class MemoryDemand:
    """One operator's memory requirements, in pages."""

    node_id: int
    label: str
    min_pages: int
    max_pages: int

    def __post_init__(self) -> None:
        if self.min_pages < 0 or self.max_pages < self.min_pages:
            raise MemoryGrantError(
                f"invalid demand for {self.label}: min={self.min_pages}, "
                f"max={self.max_pages}"
            )


def execution_order(plan: PlanNode) -> list[PlanNode]:
    """Nodes in the order their execution begins (post-order; build first)."""
    ordered: list[PlanNode] = []

    def visit(node: PlanNode) -> None:
        for child in node.children:
            visit(child)
        ordered.append(node)

    visit(plan)
    return ordered


def memory_demands(plan: PlanNode) -> list[MemoryDemand]:
    """Demands of all memory-consuming operators, in execution order."""
    demands = []
    for node in execution_order(plan):
        if node.est.max_memory_pages > 0:
            demands.append(
                MemoryDemand(
                    node_id=node.node_id,
                    label=node.label,
                    min_pages=node.est.min_memory_pages,
                    max_pages=node.est.max_memory_pages,
                )
            )
    return demands


class MemoryManager:
    """Allocates the per-query memory budget across operators.

    The budget is *adjustable*: the cross-session memory broker
    (:mod:`repro.engine.server`) may :meth:`resize` it mid-query when other
    queries release (or demand) workspace pages.  A resize takes effect at
    the next :meth:`allocate` call — in practice the next dynamic
    re-allocation the controller performs on a collector completion — so
    cross-query pressure feeds the paper's memory re-allocation trigger
    without touching grants already promised (:attr:`reserved_pages` is the
    floor a shrink can never go below).
    """

    def __init__(self, budget_pages: int) -> None:
        if budget_pages <= 0:
            raise MemoryGrantError(f"memory budget must be positive, got {budget_pages}")
        self.budget_pages = budget_pages
        #: Pages promised by the most recent :meth:`allocate` call (sum of
        #: all grants).  The broker treats everything above this as
        #: reclaimable headroom; nothing below it may ever be taken back.
        self.reserved_pages = 0

    def resize(self, budget_pages: int) -> int:
        """Adjust the budget (broker re-grant/reclaim); returns the value set.

        Shrinks are floored at :attr:`reserved_pages` — pages already
        promised to operators stay promised (paper section 2.3: a started
        operator's grant cannot change; here the same guarantee extends to
        every grant the manager has issued).
        """
        new_budget = max(budget_pages, self.reserved_pages, 1)
        self.budget_pages = new_budget
        return new_budget

    def allocate(
        self,
        plan: PlanNode,
        fixed: Mapping[int, int] | None = None,
        floors: Mapping[int, int] | None = None,
        tracer: "QueryTracer | None" = None,
        reason: str = "initial",
    ) -> dict[int, int]:
        """Compute grants for every memory-consuming operator of ``plan``.

        ``fixed`` pins grants for operators already executing (dynamic
        re-allocation must not change them, paper section 2.3); their pages
        are subtracted from the budget before the rest is divided.

        ``floors`` gives per-operator lower bounds: during dynamic
        re-allocation an operator's grant is never reduced below what it was
        already promised, even when improved estimates shrink (or blow up)
        its demands — shrinking a promised grant would trade a known-good
        plan for an estimated one.

        ``tracer``/``reason`` record the resulting grant map as a trace
        event (``reason`` distinguishes the initial allocation from dynamic
        re-allocations and switch-plan allocations).
        """
        fixed = dict(fixed or {})
        floors = dict(floors or {})
        demands = memory_demands(plan)
        grants: dict[int, int] = {}
        open_demands: list[MemoryDemand] = []
        budget = self.budget_pages
        for demand in demands:
            if demand.node_id in fixed:
                grants[demand.node_id] = fixed[demand.node_id]
                budget -= fixed[demand.node_id]
                continue
            floor = floors.get(demand.node_id, 0)
            if floor > demand.min_pages:
                demand = MemoryDemand(
                    node_id=demand.node_id,
                    label=demand.label,
                    min_pages=floor,
                    max_pages=max(demand.max_pages, floor),
                )
            open_demands.append(demand)
        minimum_total = sum(d.min_pages for d in open_demands)
        if budget < minimum_total:
            raise MemoryGrantError(
                f"budget of {budget} pages cannot satisfy minimum demands "
                f"totalling {minimum_total} pages"
            )
        self._grant_max_or_min(open_demands, budget, grants)
        self.reserved_pages = sum(grants.values())
        if tracer is not None:
            tracer.instant(
                "memory-allocate",
                "memory",
                reason=reason,
                budget_pages=self.budget_pages,
                pinned=len(fixed),
                grants={str(node_id): pages for node_id, pages in sorted(grants.items())},
            )
        return grants

    @staticmethod
    def split_grant(pages: int, partitions: int) -> list[int]:
        """Divide a grant of ``pages`` across ``partitions`` consumers.

        Used by the cross-session memory broker to compute per-session fair
        shares: shares differ by at most one page and sum exactly to the
        grant, with earlier partitions receiving the remainder pages.

        Degenerate splits follow a **floor-zero contract**: ``pages <= 0``
        yields all-zero shares (never an error), and ``partitions > pages``
        yields trailing zero-page shares — the sum stays exact and no share
        is ever invented.  Callers that cannot tolerate a zero share (the
        broker's one-page session guarantee) must apply their floor
        explicitly on top.
        """
        if partitions <= 0:
            raise MemoryGrantError(
                f"cannot split a grant across {partitions} partitions"
            )
        base, extra = divmod(max(0, pages), partitions)
        return [base + 1 if i < extra else base for i in range(partitions)]

    @staticmethod
    def _grant_max_or_min(
        demands: Sequence[MemoryDemand], budget: int, grants: dict[int, int]
    ) -> None:
        remaining = budget
        min_granted: list[MemoryDemand] = []
        for i, demand in enumerate(demands):
            reserve = sum(d.min_pages for d in demands[i + 1 :])
            if remaining - reserve >= demand.max_pages:
                grants[demand.node_id] = demand.max_pages
                remaining -= demand.max_pages
            else:
                grants[demand.node_id] = demand.min_pages
                remaining -= demand.min_pages
                min_granted.append(demand)
        # Second pass: all-or-nothing upgrades in execution order.
        for demand in min_granted:
            upgrade = demand.max_pages - demand.min_pages
            if upgrade <= remaining:
                grants[demand.node_id] = demand.max_pages
                remaining -= upgrade
