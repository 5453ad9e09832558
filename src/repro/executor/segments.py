"""Pipeline segmentation.

Paradise's scheduler partitions a plan into *segments* — maximal sets of
operators that execute in a pipelined fashion — and dispatches them one
after another (paper section 3.1).  A segment boundary is a *blocking input
edge*: the build side of a hash join, the inner of a block NL join, and the
inputs of sort and hash aggregation.

Segmentation matters to Dynamic Re-Optimization because statistics gathered
inside a pipeline only become available when the whole pipeline drains
(paper section 2.2's pipelining limitation).  The SCIA therefore places
collectors immediately below blocking input edges, and the re-optimization
points are exactly the segment completions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..plans.physical import (
    BlockNLJoinNode,
    DistinctNode,
    FilterNode,
    HashJoinNode,
    IndexNLJoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    StatsCollectorNode,
)

#: Per operator type, the input it streams, as a child index: its rows flow
#: on as they arrive.  Every other input is consumed in full first (the
#: build side of a hash join, the inner of a block NL join, the inputs of
#: sort and hash aggregation).  A distinct streams its input but holds
#: every row it has seen, so its segment ends there: its input edge is
#: blocking for segments, while a LIMIT above it still stops it early
#: (:func:`repro.executor.batch._limit`).
STREAMED_INPUT = {
    FilterNode: 0,
    ProjectNode: 0,
    StatsCollectorNode: 0,
    LimitNode: 0,
    DistinctNode: 0,
    HashJoinNode: 1,  # probe side
    IndexNLJoinNode: 0,  # outer side
    BlockNLJoinNode: 0,  # outer side
}


def blocking_input_edges(plan: PlanNode) -> list[tuple[PlanNode, int]]:
    """All ``(parent, child_index)`` edges whose child is consumed fully first."""
    edges: list[tuple[PlanNode, int]] = []
    for node in plan.walk():
        streamed = STREAMED_INPUT.get(type(node))
        for index in range(len(node.children)):
            if index != streamed or type(node) is DistinctNode:
                edges.append((node, index))
    return edges


@dataclass
class Segment:
    """One pipeline: nodes that run concurrently, bottom node last."""

    nodes: list[PlanNode] = field(default_factory=list)

    @property
    def node_ids(self) -> list[int]:
        """Ids of the member nodes."""
        return [n.node_id for n in self.nodes]

    @property
    def top(self) -> PlanNode:
        """The consumer end of the pipeline."""
        return self.nodes[0]


def segments(plan: PlanNode) -> list[Segment]:
    """Partition a plan into pipeline segments, in completion order.

    Segments are returned so that a segment appears after every segment it
    depends on (its blocking inputs) — the order Paradise's dispatcher would
    run them in.
    """
    blocking = {
        (parent.node_id, index) for parent, index in blocking_input_edges(plan)
    }
    ordered: list[Segment] = []

    def build(node: PlanNode, segment: Segment) -> None:
        segment.nodes.append(node)
        for index, child in enumerate(node.children):
            if (node.node_id, index) in blocking:
                child_segment = Segment()
                build(child, child_segment)
                ordered.append(child_segment)
            else:
                build(child, segment)

    root_segment = Segment()
    build(plan, root_segment)
    ordered.append(root_segment)
    return ordered


def segment_of(plan: PlanNode, node_id: int) -> Segment | None:
    """The segment containing ``node_id`` (None when the node is absent)."""
    for segment in segments(plan):
        if node_id in segment.node_ids:
            return segment
    return None
