"""Observability: query tracing, metrics, EXPLAIN ANALYZE, trace validation.

The public pieces:

* :class:`QueryTracer` (:mod:`repro.observe.trace`) — per-query spans and
  point events with wall-clock *and* simulated-clock timestamps; exports
  Chrome trace-event JSON and a text timeline.  Enabled per engine with
  ``EngineConfig(tracing=True)`` or globally with ``REPRO_TRACE=1``; the
  trace rides on ``result.profile.trace``.
* :class:`MetricsRegistry` (:mod:`repro.observe.metrics`) — process-wide
  named counters/gauges/histograms accumulated across queries
  (``Database.metrics_snapshot()``).
* :class:`ExplainAnalyzeReport` (:mod:`repro.observe.analyze`) — the
  result of ``Database.explain_analyze(sql)``: per-node estimated vs.
  actual rows/size/cost, Q-error, and SCIA collector attribution.
* :func:`render_prometheus` (:mod:`repro.observe.export`) — Prometheus
  text exposition of a metrics snapshot (also
  ``python -m repro.observe.export snapshot.json``), and the slow-query
  log (:mod:`repro.observe.slowlog`, ``EngineConfig.slow_query_s`` /
  ``REPRO_SLOW_QUERY``).

Everything here only *reads* engine state — no call into this package
charges the simulated cost clock, so results are byte-identical with
observability on or off (proved by ``tests/test_trace_parity.py``).  Nor
does anything recorded here reach a later plan: the optimizer, the
re-optimization core and the estimator import nothing from this package
(``tests/test_layering.py``).
"""

from .analyze import ExplainAnalyzeReport, NodeAnalysis, PlanAnalysis, q_error
from .export import render_prometheus
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, default_registry
from .slowlog import build_slow_query_record, emit_slow_query
from .trace import InstantEvent, QueryTracer, Span
from .validate import validate_trace

__all__ = [
    "Counter",
    "ExplainAnalyzeReport",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "NodeAnalysis",
    "PlanAnalysis",
    "QueryTracer",
    "Span",
    "build_slow_query_record",
    "default_registry",
    "emit_slow_query",
    "q_error",
    "render_prometheus",
    "validate_trace",
]
