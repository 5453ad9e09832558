"""Execution engine: the batch executor, memory manager, segments, dispatcher."""

from .batch import execute_node_batches
from .collector import ObservedStatistics, RuntimeCollector
from .dispatcher import DispatchResult, Dispatcher, SwitchEvent
from .memory import MemoryDemand, MemoryManager, execution_order, memory_demands
from .runtime import (
    ExecutionController,
    PlanSwitchDirective,
    PlanSwitched,
    RuntimeContext,
)
from .segments import Segment, blocking_input_edges, segment_of, segments

__all__ = [
    "DispatchResult",
    "Dispatcher",
    "ExecutionController",
    "MemoryDemand",
    "MemoryManager",
    "ObservedStatistics",
    "PlanSwitchDirective",
    "PlanSwitched",
    "RuntimeCollector",
    "RuntimeContext",
    "Segment",
    "SwitchEvent",
    "blocking_input_edges",
    "execute_node_batches",
    "execution_order",
    "memory_demands",
    "segment_of",
    "segments",
]
