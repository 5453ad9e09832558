"""Span-based query tracing.

A :class:`QueryTracer` records what a single query execution *did* —
hierarchical spans (compile phase -> plan -> operator) plus
point events (collector observations, memory grants, re-optimization
decisions) — with both wall-clock and simulated-cost-clock timestamps.
Traces export as Chrome trace-event JSON (loadable in ``chrome://tracing``
or https://ui.perfetto.dev) and as a rendered text timeline.

Two invariants the rest of the engine relies on:

* **Zero perturbation.**  The tracer only ever *reads* ``clock.now``; it
  never charges the simulated :class:`~repro.storage.disk.CostClock`, never
  touches the buffer pool, and never observes a row.  Every simulated
  quantity (costs, buffer stats, observed statistics, switch decisions) is
  therefore byte-identical with tracing on or off — the trace-parity suite
  (``tests/test_trace_parity.py``) proves it.
* **Zero cost when disabled.**  All call sites guard with
  ``if ctx.tracer is not None`` at span/event granularity (never per row),
  so a disabled tracer costs one attribute check per operator.

Span-closure discipline: mid-query plan switches abandon generators whose
natural end never runs.  Chrome's ``B``/``E`` events require strict LIFO
nesting per thread, so only the strictly-sequential top-level spans
(compile phases, ``execute``, per-plan spans) export as ``B``/``E`` pairs;
operator spans export as ``X`` *complete* events, which carry an
explicit duration and have no nesting requirement.  Spans still
open at export time are auto-closed (LIFO) at the export timestamp.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..plans.physical import PlanNode
    from ..storage.disk import CostClock

#: Span categories exported as Chrome ``B``/``E`` pairs.  These are the
#: strictly sequential top-level spans; everything else becomes an ``X``
#: complete event (see module docstring).
PAIRED_CATEGORIES = frozenset({"phase", "plan"})

#: Compile phases, in the order they run (mirrors ``PhaseBreakdown``).
COMPILE_PHASES = ("parse", "bind", "optimize", "scia")


@dataclass
class Span:
    """One traced interval.  ``wall_*`` in microseconds since tracer epoch."""

    span_id: int
    name: str
    category: str
    seq: int
    wall_start_us: float
    sim_start: float | None
    args: dict[str, Any]
    wall_end_us: float | None = None
    sim_end: float | None = None
    end_seq: int | None = None

    @property
    def closed(self) -> bool:
        return self.wall_end_us is not None

    @property
    def sim_cost(self) -> float | None:
        """Simulated-clock window covered by this span, if known."""
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start


@dataclass
class InstantEvent:
    """A point event (collector observation, memory grant, reopt decision)."""

    name: str
    category: str
    seq: int
    wall_us: float
    sim_time: float | None
    args: dict[str, Any]


class QueryTracer:
    """Collects spans and instant events for one query execution.

    Purely observational: reads ``clock.now`` but never charges it.
    """

    def __init__(self, clock: "CostClock | None" = None, label: str = "query"):
        self.clock = clock
        self.label = label
        self.pid = os.getpid()
        self._epoch = perf_counter()
        self._seq = 0
        self._next_span_id = 0
        self.spans: list[Span] = []
        self.events: list[InstantEvent] = []
        self._open: list[Span] = []
        #: node_id -> stack of open operator spans (a node can re-execute,
        #: e.g. the inner side of a block nested-loop join).
        self._node_open: dict[int, list[Span]] = {}
        #: node_id -> [sim_start, sim_end, rows] over the node's *first*
        #: start and *last* completion — the node's simulated-clock window.
        self.node_windows: dict[int, list[Any]] = {}
        #: node_id -> optimizer estimates captured when each plan was
        #: adopted, *before* improved estimates overwrite ``node.est``.
        self.estimates: dict[int, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # clock helpers
    # ------------------------------------------------------------------

    def _now_us(self) -> float:
        return (perf_counter() - self._epoch) * 1e6

    def _sim_now(self) -> float | None:
        return self.clock.now if self.clock is not None else None

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # span / event recording
    # ------------------------------------------------------------------

    def begin(self, name: str, category: str = "exec", **args: Any) -> Span:
        span = Span(
            span_id=self._next_span_id,
            name=name,
            category=category,
            seq=self._next_seq(),
            wall_start_us=self._now_us(),
            sim_start=self._sim_now(),
            args=dict(args),
        )
        self._next_span_id += 1
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span | None, **args: Any) -> None:
        if span is None or span.closed:
            return
        span.wall_end_us = self._now_us()
        span.sim_end = self._sim_now()
        span.end_seq = self._next_seq()
        if args:
            span.args.update(args)
        if span in self._open:
            self._open.remove(span)

    def instant(self, name: str, category: str = "event", **args: Any) -> None:
        self.events.append(
            InstantEvent(
                name=name,
                category=category,
                seq=self._next_seq(),
                wall_us=self._now_us(),
                sim_time=self._sim_now(),
                args=dict(args),
            )
        )

    def close_open_spans(self, categories: frozenset[str] | set[str],
                         **args: Any) -> None:
        """LIFO-close open spans in ``categories`` (e.g. when a mid-query
        plan switch abandons the generators that would have closed them)."""
        for span in reversed([s for s in self._open if s.category in categories]):
            self.end(span, **args)

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    def record_compile_phases(self, phase_seconds: dict[str, float]) -> None:
        """Backdate the epoch and lay down spans for the compile phases
        (which ran before the tracer existed).  Must be called before any
        other span or event so all timestamps stay monotonic."""
        if self._seq:
            return
        durations = [
            (name, max(0.0, float(phase_seconds.get(name, 0.0))))
            for name in COMPILE_PHASES
        ]
        total = sum(seconds for _, seconds in durations)
        self._epoch -= total
        cursor = 0.0
        for name, seconds in durations:
            span = self.begin(name, "phase", seconds=round(seconds, 6))
            span.wall_start_us = cursor
            cursor += seconds * 1e6
            self.end(span)
            span.wall_end_us = cursor
            span.sim_start = span.sim_end = None

    def record_estimates(self, snapshot: dict[int, dict[str, float]]) -> None:
        """Merge a per-plan estimate snapshot (node ids are globally unique,
        so snapshots from successive plans never collide)."""
        self.estimates.update(snapshot)

    def estimated_rows(self, node_id: int, default: float) -> float:
        return self.estimates.get(node_id, {}).get("rows", default)

    def node_started(self, node: "PlanNode") -> None:
        stack = self._node_open.setdefault(node.node_id, [])
        stack.append(
            self.begin(
                node.label,
                "operator",
                node_id=node.node_id,
                detail=node.detail(),
            )
        )
        window = self.node_windows.get(node.node_id)
        if window is None:
            self.node_windows[node.node_id] = [self._sim_now(), None, None]

    def node_completed(self, node: "PlanNode", rows: int) -> None:
        stack = self._node_open.get(node.node_id)
        if stack:
            self.end(stack.pop(), rows=rows)
        window = self.node_windows.get(node.node_id)
        if window is not None:
            window[1] = self._sim_now()
            window[2] = rows

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_chrome(self) -> dict[str, Any]:
        """Render as a Chrome trace-event document (``{"traceEvents": []}``).

        Events are sorted by ``(ts, seq)``; open spans are auto-closed LIFO
        at the export timestamp so ``B``/``E`` pairs always balance.
        """
        export_us = self._now_us()
        export_sim = self._sim_now()
        synthetic_base = 2 * (self._seq + 1)
        records: list[tuple[float, int, dict[str, Any]]] = []

        def common(span: Span) -> dict[str, Any]:
            return {
                "name": span.name,
                "cat": span.category,
                "pid": self.pid,
                "tid": 1,
            }

        for span in self.spans:
            end_us = span.wall_end_us if span.closed else export_us
            end_seq = (
                span.end_seq
                if span.end_seq is not None
                else synthetic_base + (self._seq + 1 - span.seq)
            )
            args = dict(span.args)
            if span.sim_start is not None:
                args["sim_start"] = round(span.sim_start, 6)
            sim_end = span.sim_end if span.closed else export_sim
            if sim_end is not None and span.sim_start is not None:
                args["sim_end"] = round(sim_end, 6)
                args["sim_cost"] = round(sim_end - span.sim_start, 6)
            if not span.closed:
                args["auto_closed"] = True
            if span.category in PAIRED_CATEGORIES:
                begin = dict(common(span))
                begin.update(ph="B", ts=span.wall_start_us, args=args)
                records.append((span.wall_start_us, span.seq, begin))
                close = dict(common(span))
                close.update(ph="E", ts=end_us, args={})
                records.append((end_us, end_seq, close))
            else:
                complete = dict(common(span))
                complete.update(
                    ph="X",
                    ts=span.wall_start_us,
                    dur=max(0.0, end_us - span.wall_start_us),
                    args=args,
                )
                records.append((span.wall_start_us, span.seq, complete))

        for event in self.events:
            args = dict(event.args)
            if event.sim_time is not None:
                args["sim_time"] = round(event.sim_time, 6)
            record = {
                "name": event.name,
                "cat": event.category,
                "ph": "i",
                "s": "t",
                "ts": event.wall_us,
                "pid": self.pid,
                "tid": 1,
                "args": args,
            }
            records.append((event.wall_us, event.seq, record))

        records.sort(key=lambda item: (item[0], item[1]))
        return {
            "traceEvents": [record for _, _, record in records],
            "displayTimeUnit": "ms",
            "otherData": {"label": self.label},
        }

    def export_chrome(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)
        return path

    # ------------------------------------------------------------------
    # text timeline
    # ------------------------------------------------------------------

    def timeline(self) -> str:
        """Render a human-readable timeline, indented by span nesting."""
        export_us = self._now_us()
        entries: list[tuple[float, int, int, str]] = []

        depth_stack: list[tuple[float, float]] = []  # (start, end) intervals
        for span in sorted(self.spans, key=lambda s: (s.wall_start_us, s.seq)):
            end_us = span.wall_end_us if span.closed else export_us
            while depth_stack and span.wall_start_us >= depth_stack[-1][1] - 1e-9:
                depth_stack.pop()
            depth = len(depth_stack)
            depth_stack.append((span.wall_start_us, end_us))
            sim = ""
            if span.sim_cost is not None:
                sim = f" sim+{span.sim_cost:.3f}"
            extra = ""
            if "rows" in span.args:
                extra = f" rows={span.args['rows']}"
            elif "detail" in span.args and span.args["detail"]:
                extra = f" [{span.args['detail']}]"
            line = (
                f"[{span.wall_start_us / 1e3:10.3f}ms "
                f"+{(end_us - span.wall_start_us) / 1e3:9.3f}ms]"
                f" {'  ' * depth}{span.category}:{span.name}{sim}{extra}"
            )
            entries.append((span.wall_start_us, span.seq, depth, line))

        for event in self.events:
            sim = f" sim={event.sim_time:.3f}" if event.sim_time is not None else ""
            detail = ", ".join(
                f"{key}={value}" for key, value in sorted(event.args.items())
            )
            line = (
                f"[{event.wall_us / 1e3:10.3f}ms {'':>11}]"
                f"   * {event.category}:{event.name}{sim}"
                + (f" {{{detail}}}" if detail else "")
            )
            entries.append((event.wall_us, event.seq, 0, line))

        entries.sort(key=lambda item: (item[0], item[1]))
        header = f"trace: {self.label} (pid {self.pid}, {len(self.spans)} spans, {len(self.events)} events)"
        return "\n".join([header] + [line for _, _, _, line in entries])
