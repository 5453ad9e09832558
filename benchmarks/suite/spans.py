"""In-memory spans for the traced pass, written out when the workload ends.

One :class:`Span` per crossing of a layer boundary: name, start, end, the
span that caused it, and the identifier of the operation (statement or write
cycle) it belongs to.  A layer's *self time* is its span's duration minus
the time its child spans cover; children of one span run on the same thread
and never overlap, so that is the plain sum of their durations.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

#: Name of the root span the suite opens around every operation.
OPERATION = "suite.operation"


@dataclass
class Span:
    span_id: int
    name: str
    start: float  # seconds since the recorder was created
    end: float
    parent: int | None
    op_id: int
    thread: int
    #: Statement kind (``"Q5:full"``, ``"write_cycle"``); root spans only.
    kind: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any number of client threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._t0 = perf_counter()
        self._span_ids = itertools.count()
        self._op_ids = itertools.count()
        self._thread_ids = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.thread = next(self._thread_ids)
        return local

    def begin(self, name: str, kind: str = "") -> Span:
        local = self._state()
        parent = local.stack[-1] if local.stack else None
        span = Span(
            span_id=next(self._span_ids),
            name=name,
            start=perf_counter() - self._t0,
            end=0.0,
            parent=parent.span_id if parent else None,
            op_id=parent.op_id if parent else next(self._op_ids),
            thread=local.thread,
            kind=kind,
        )
        local.stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter() - self._t0
        self._local.stack.pop()

    @contextmanager
    def operation(self, kind: str) -> Iterator[Span]:
        """The root span of one operation; everything the engine does for it
        nests underneath and shares its ``op_id``."""
        span = self.begin(OPERATION, kind)
        try:
            yield span
        finally:
            self.end(span)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Seconds each span spent outside its children, by ``span_id``."""
    own = {}
    for span in spans:
        own[span.span_id] = own.get(span.span_id, 0.0) + span.duration
        if span.parent is not None:
            own[span.parent] = own.get(span.parent, 0.0) - span.duration
    return own


@dataclass
class NameTotals:
    """Per span name: calls, summed duration, summed self time (seconds)."""

    calls: int = 0
    duration: float = 0.0
    self_time: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    own = self_times(spans)
    totals: dict[str, NameTotals] = defaultdict(NameTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.duration += span.duration
        entry.self_time += own[span.span_id]
    return totals


def nesting_errors(spans: list[Span]) -> list[str]:
    """Violations of "every span's parent exists and encloses it" and of
    "an operation's self times sum to no more than its root span"."""
    errors = []
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.end < span.start:
            errors.append(f"span {span.span_id} ({span.name}) ends before it starts")
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            errors.append(f"span {span.span_id} ({span.name}) has no parent {span.parent}")
        elif not (parent.start <= span.start and span.end <= parent.end):
            errors.append(f"span {span.span_id} ({span.name}) escapes parent {parent.name}")
        elif parent.op_id != span.op_id or parent.thread != span.thread:
            errors.append(f"span {span.span_id} ({span.name}) left its operation")
    own = self_times(spans)
    per_op: dict[int, float] = defaultdict(float)
    for span in spans:
        per_op[span.op_id] += own[span.span_id]
    for root in (s for s in spans if s.parent is None):
        if per_op[root.op_id] > root.duration * (1 + 1e-9) + 1e-9:
            errors.append(f"operation {root.op_id}: self times exceed the root span")
    return errors


def write_jsonl(spans: list[Span], path: Path) -> None:
    """One JSON object per span, in start order; times in microseconds."""
    with path.open("w") as out:
        for span in spans:
            record = asdict(span)
            record["start_us"] = round(record.pop("start") * 1e6, 3)
            record["end_us"] = round(record.pop("end") * 1e6, 3)
            out.write(json.dumps(record) + "\n")


def to_chrome(spans: list[Span]) -> dict:
    """Chrome trace-event document (complete ``X`` events, one track per
    client thread) — loadable in ``chrome://tracing`` / Perfetto."""
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": span.thread,
            "args": {"op_id": span.op_id, "kind": span.kind},
        }
        # File order must be time order; an enclosing span sorts first.
        for span in sorted(spans, key=lambda s: (s.start, -s.end))
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
