"""Annotated physical query plans.

The optimizer produces a tree of :class:`PlanNode` objects.  Following the
paper's central requirement, every node carries an :class:`Estimates`
annotation — the optimizer's estimated cardinality, size, per-operator and
cumulative cost, memory demands, and the full statistical profile
(:class:`~repro.stats.estimator.RelProfile`) of its output.  The Dynamic
Re-Optimization machinery compares these against observed statistics and
re-derives them when better information arrives.

Memory *grants* are intentionally not stored on the nodes: the Memory
Manager produces a separate ``{node_id: pages}`` map, so dynamic
re-allocation never mutates the plan.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, TypeVar

from ..stats.estimator import RelProfile
from ..storage.schema import Schema
from .logical import OrderItem, OutputColumn, Predicate

_node_ids = itertools.count(1)

_C = TypeVar("_C")


def fresh_node_id() -> int:
    """Allocate a new globally unique plan-node id."""
    return next(_node_ids)


@dataclass
class Estimates:
    """Optimizer annotations attached to one plan node."""

    rows: float = 0.0
    row_bytes: float = 0.0
    pages: float = 0.0
    #: This operator's own estimated cost (cost units).
    op_cost: float = 0.0
    #: Cumulative estimated cost of the subtree rooted here.
    total_cost: float = 0.0
    #: Statistical profile of the node's output (for re-estimation).
    profile: RelProfile | None = None
    #: Memory demands, in pages (zero for non-memory-consuming operators).
    min_memory_pages: int = 0
    max_memory_pages: int = 0

    def copy(self) -> "Estimates":
        """Shallow copy (profiles are immutable)."""
        return Estimates(
            rows=self.rows,
            row_bytes=self.row_bytes,
            pages=self.pages,
            op_cost=self.op_cost,
            total_cost=self.total_cost,
            profile=self.profile,
            min_memory_pages=self.min_memory_pages,
            max_memory_pages=self.max_memory_pages,
        )


class PlanNode:
    """Base class for physical plan operators."""

    def __init__(self, schema: Schema, children: Sequence["PlanNode"]) -> None:
        self.node_id = next(_node_ids)
        self.schema = schema
        self.children: tuple[PlanNode, ...] = tuple(children)
        self.est = Estimates()
        #: Compiled predicate/projection/key closures, keyed by purpose.
        #: Schemas are fixed for a node's lifetime, so closures compiled for
        #: one execution are valid for every later one (and are shared by the
        #: batch executor and the row interpreter — e.g. a hash join's key
        #: extractors across its build and probe phases).
        self._compiled: dict[str, object] = {}

    def compiled(self, key: str, factory: Callable[[], _C]) -> _C:
        """Return the closure cached under ``key``, compiling it on first use."""
        try:
            return self._compiled[key]  # type: ignore[return-value]
        except KeyError:
            value = self._compiled[key] = factory()
            return value

    @property
    def label(self) -> str:
        """Short operator label for EXPLAIN output."""
        return type(self).__name__.removesuffix("Node")

    def detail(self) -> str:
        """One-line operator-specific detail for EXPLAIN output."""
        return ""

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, node_id: int) -> "PlanNode | None":
        """Locate a node by id within this subtree."""
        for node in self.walk():
            if node.node_id == node_id:
                return node
        return None

    @property
    def is_blocking(self) -> bool:
        """Whether this operator consumes (some) input fully before producing."""
        return False

    @property
    def base_aliases(self) -> frozenset[str]:
        """Aliases of all base relations feeding this subtree."""
        aliases: frozenset[str] = frozenset()
        for node in self.walk():
            if isinstance(node, (SeqScanNode, IndexScanNode)):
                aliases |= frozenset({node.alias})
            elif isinstance(node, IndexNLJoinNode):
                aliases |= frozenset({node.inner_alias})
        return aliases


class SeqScanNode(PlanNode):
    """Full sequential scan of a base (or temporary) table."""

    def __init__(self, table_name: str, alias: str, schema: Schema) -> None:
        super().__init__(schema, ())
        self.table_name = table_name
        self.alias = alias

    def detail(self) -> str:
        if self.alias != self.table_name:
            return f"{self.table_name} as {self.alias}"
        return self.table_name


class IndexScanNode(PlanNode):
    """Index-driven scan of a base table with a sargable bound.

    ``low``/``high`` give the key range (both set and equal for equality);
    residual predicates are applied by an enclosing FilterNode.
    """

    def __init__(
        self,
        table_name: str,
        alias: str,
        schema: Schema,
        index_column: str,
        low: object | None = None,
        high: object | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        bound_predicates: Sequence[Predicate] = (),
    ) -> None:
        super().__init__(schema, ())
        self.table_name = table_name
        self.alias = alias
        self.index_column = index_column
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        #: The predicates the bound was derived from (for re-estimation).
        self.bound_predicates: tuple[Predicate, ...] = tuple(bound_predicates)

    def detail(self) -> str:
        bounds = []
        if self.low is not None:
            op = ">=" if self.low_inclusive else ">"
            bounds.append(f"{self.index_column} {op} {self.low!r}")
        if self.high is not None:
            op = "<=" if self.high_inclusive else "<"
            bounds.append(f"{self.index_column} {op} {self.high!r}")
        return f"{self.table_name} via {self.index_column} [{' and '.join(bounds)}]"


class FilterNode(PlanNode):
    """Applies a conjunction of predicates to its input."""

    def __init__(self, child: PlanNode, predicates: Sequence[Predicate]) -> None:
        super().__init__(child.schema, (child,))
        self.predicates: tuple[Predicate, ...] = tuple(predicates)

    @property
    def child(self) -> PlanNode:
        """The single input."""
        return self.children[0]

    def detail(self) -> str:
        return " AND ".join(p.sql() for p in self.predicates)


@dataclass(frozen=True)
class CollectorSpec:
    """What one statistics collector gathers.

    Cardinality, average tuple size and min/max are always observed (the
    paper treats their cost as negligible); histograms and distinct counts
    are the budgeted statistics chosen by the SCIA.
    """

    histogram_columns: tuple[str, ...] = ()
    distinct_column_sets: tuple[tuple[str, ...], ...] = ()
    #: Columns to track min/max on — those an operator above still reads
    #: (SCIA fills it in); ``None``, a hand-built spec, tracks every numeric one.
    minmax_columns: tuple[str, ...] | None = None

    @property
    def statistic_count(self) -> int:
        """Number of budgeted statistics maintained."""
        return len(self.histogram_columns) + len(self.distinct_column_sets)


class StatsCollectorNode(PlanNode):
    """Pass-through operator observing the tuple stream (paper section 2.2)."""

    def __init__(self, child: PlanNode, spec: CollectorSpec) -> None:
        super().__init__(child.schema, (child,))
        self.spec = spec
        # SCIA attribution, filled in by ``insert_collectors``: the
        # inaccuracy potential of the estimate this point checks
        # (an ``InaccuracyPotential``; typed loosely to avoid a plans->core
        # import cycle) and which statistics the budget kept or cut.
        # Immutable values, so clone_plan's shallow copies share them.
        self.scia_potential: object | None = None
        self.scia_kept: tuple[str, ...] = ()
        self.scia_dropped: tuple[str, ...] = ()

    @property
    def child(self) -> PlanNode:
        """The single input."""
        return self.children[0]

    def detail(self) -> str:
        parts = []
        for col in self.spec.histogram_columns:
            parts.append(f"histogram({col})")
        for cols in self.spec.distinct_column_sets:
            parts.append(f"distinct({', '.join(cols)})")
        return ", ".join(parts) if parts else "cardinality only"


class HashJoinNode(PlanNode):
    """Hybrid hash join; the left child is the build side."""

    def __init__(
        self,
        build: PlanNode,
        probe: PlanNode,
        key_pairs: Sequence[tuple[str, str]],
        residual: Sequence[Predicate] = (),
    ) -> None:
        super().__init__(build.schema.concat(probe.schema), (build, probe))
        self.key_pairs: tuple[tuple[str, str], ...] = tuple(key_pairs)
        self.residual: tuple[Predicate, ...] = tuple(residual)

    @property
    def build(self) -> PlanNode:
        """Build-side input (consumed fully first)."""
        return self.children[0]

    @property
    def probe(self) -> PlanNode:
        """Probe-side input (streamed)."""
        return self.children[1]

    @property
    def is_blocking(self) -> bool:
        return True

    def detail(self) -> str:
        keys = " AND ".join(f"{b} = {p}" for b, p in self.key_pairs)
        return keys


class IndexNLJoinNode(PlanNode):
    """Indexed nested-loops join: probe an inner table's index per outer row."""

    def __init__(
        self,
        outer: PlanNode,
        inner_table: str,
        inner_alias: str,
        inner_schema: Schema,
        outer_column: str,
        inner_column: str,
        residual: Sequence[Predicate] = (),
    ) -> None:
        super().__init__(outer.schema.concat(inner_schema), (outer,))
        self.inner_table = inner_table
        self.inner_alias = inner_alias
        self.inner_schema = inner_schema
        self.outer_column = outer_column
        self.inner_column = inner_column
        self.residual: tuple[Predicate, ...] = tuple(residual)

    @property
    def outer(self) -> PlanNode:
        """Outer (streamed) input."""
        return self.children[0]

    def detail(self) -> str:
        return f"{self.outer_column} = {self.inner_alias}.{self.inner_column}"


class BlockNLJoinNode(PlanNode):
    """Block nested-loops join (fallback for non-equi join predicates)."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        predicates: Sequence[Predicate] = (),
    ) -> None:
        super().__init__(outer.schema.concat(inner.schema), (outer, inner))
        self.predicates: tuple[Predicate, ...] = tuple(predicates)

    @property
    def outer(self) -> PlanNode:
        """Outer input."""
        return self.children[0]

    @property
    def inner(self) -> PlanNode:
        """Inner input (scanned once per outer block)."""
        return self.children[1]

    @property
    def is_blocking(self) -> bool:
        return True

    def detail(self) -> str:
        return " AND ".join(p.sql() for p in self.predicates) or "cross"


class ProjectNode(PlanNode):
    """Scalar projection (no aggregates)."""

    def __init__(self, child: PlanNode, output: Sequence[OutputColumn], schema: Schema) -> None:
        super().__init__(schema, (child,))
        self.output: tuple[OutputColumn, ...] = tuple(output)

    @property
    def child(self) -> PlanNode:
        """The single input."""
        return self.children[0]

    def detail(self) -> str:
        return ", ".join(item.name for item in self.output)


class HashAggregateNode(PlanNode):
    """Hash-based grouping and aggregation."""

    def __init__(
        self,
        child: PlanNode,
        group_by: Sequence[str],
        output: Sequence[OutputColumn],
        schema: Schema,
    ) -> None:
        super().__init__(schema, (child,))
        self.group_by: tuple[str, ...] = tuple(group_by)
        self.output: tuple[OutputColumn, ...] = tuple(output)

    @property
    def child(self) -> PlanNode:
        """The single input."""
        return self.children[0]

    @property
    def is_blocking(self) -> bool:
        return True

    def detail(self) -> str:
        if self.group_by:
            return "group by " + ", ".join(self.group_by)
        return "scalar aggregate"


class DistinctNode(PlanNode):
    """Duplicate elimination over the full output row (SELECT DISTINCT)."""

    def __init__(self, child: PlanNode) -> None:
        super().__init__(child.schema, (child,))

    @property
    def child(self) -> PlanNode:
        """The single input."""
        return self.children[0]

    @property
    def is_blocking(self) -> bool:
        return True

    def detail(self) -> str:
        return ", ".join(self.schema.names)


class SortNode(PlanNode):
    """Full sort of the input on output-column keys."""

    def __init__(self, child: PlanNode, keys: Sequence[OrderItem]) -> None:
        super().__init__(child.schema, (child,))
        self.keys: tuple[OrderItem, ...] = tuple(keys)

    @property
    def child(self) -> PlanNode:
        """The single input."""
        return self.children[0]

    @property
    def is_blocking(self) -> bool:
        return True

    def detail(self) -> str:
        return ", ".join(k.sql() for k in self.keys)


class LimitNode(PlanNode):
    """Returns only the first N rows of its input."""

    def __init__(self, child: PlanNode, limit: int) -> None:
        super().__init__(child.schema, (child,))
        self.limit = limit

    @property
    def child(self) -> PlanNode:
        """The single input."""
        return self.children[0]

    def detail(self) -> str:
        return str(self.limit)


def clone_plan(plan: PlanNode, share_compiled: bool = True) -> PlanNode:
    """Deep-copy a plan tree for an independent execution.

    Execution mutates plans in place — the SCIA splices collector nodes into
    ``children``, annotation passes overwrite ``est``, and the improved-
    estimate machinery re-derives annotations mid-query — so a cached plan
    template must never be executed directly.  A clone gives every node a
    fresh identity, its own ``children`` tuple and its own :class:`Estimates`
    while *sharing* the immutable payloads (schemas, predicates, specs) with
    the template.

    With ``share_compiled`` (the default) the clones also share each node's
    compiled-closure cache: compiled filters, key extractors and projectors
    depend only on the node's schema and predicates, which are identical
    across clones, so compilation cost is paid once per cached plan rather
    than once per execution.  Pass ``False`` when a caller is about to
    rewrite a clone's predicates (e.g. parameter plugging).
    """
    new = copy.copy(plan)
    new.node_id = fresh_node_id()
    new.children = tuple(clone_plan(c, share_compiled) for c in plan.children)
    new.est = plan.est.copy()
    if not share_compiled:
        new._compiled = {}
    return new
