"""The slow-query log: one structured JSON line per slow statement.

Enabled by :attr:`~repro.config.EngineConfig.slow_query_s` (or the
``REPRO_SLOW_QUERY`` environment variable): any statement whose end-to-end
wall-clock time — compile phases plus execution — reaches the threshold
emits one line to :attr:`~repro.config.EngineConfig.slow_query_path`
(appended; ``stderr`` when no path is configured).  The line carries the
profile summary a person debugging the query would ask for first: phase
timings, simulated cost, plan-cache outcome, plan switches and memory
re-allocations.

Emission happens after the simulated cost clock stopped and only reads the
finished profile — it can never perturb costs, statistics or results.
"""

from __future__ import annotations

import json
import sys
import time
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.profile import ExecutionProfile
    from .metrics import MetricsRegistry

__all__ = ["build_slow_query_record", "emit_slow_query"]


def build_slow_query_record(
    profile: "ExecutionProfile", threshold_s: float
) -> dict:
    """The JSON document logged for one slow statement."""
    phases = profile.phases
    return {
        "event": "slow_query",
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "sql": profile.sql,
        "session": profile.session,
        "mode": profile.mode,
        "threshold_s": threshold_s,
        "total_wall_s": round(phases.total_s, 6),
        "compile_wall_s": round(phases.compile_s, 6),
        "execute_wall_s": round(phases.execute_s, 6),
        "admission_wait_s": round(profile.admission_wait_s, 6),
        "simulated_cost": round(profile.total_cost, 6),
        "rows": profile.row_count,
        "plan_cache_hit": profile.plan_cache_hit,
        "plan_cache_miss": profile.plan_cache_miss,
        "plan_switches": profile.plan_switches,
        "memory_reallocations": profile.memory_reallocations,
        "collectors_inserted": profile.collectors_inserted,
        "memory_granted_pages": profile.memory_granted_pages,
    }


def emit_slow_query(
    profile: "ExecutionProfile",
    threshold_s: float,
    path: str = "",
    metrics: "MetricsRegistry | None" = None,
    stream: TextIO | None = None,
) -> dict:
    """Append one slow-query line; returns the record that was written.

    ``path`` wins over ``stream``; with neither, the line goes to stderr.
    A log line is never worth failing the query over, so write errors are
    swallowed (counted in ``slow_query.log_errors`` when metrics are
    attached).
    """
    record = build_slow_query_record(profile, threshold_s)
    line = json.dumps(record, separators=(",", ":"), sort_keys=True)
    try:
        if path:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        else:
            print(line, file=stream if stream is not None else sys.stderr)
    except OSError:
        if metrics is not None:
            metrics.counter("slow_query.log_errors").inc()
    if metrics is not None:
        metrics.counter("slow_query.count").inc()
    return record
