"""Concurrent workload driver for the query server.

Hammers a :class:`~repro.engine.server.QueryServer` with many interleaved
sessions — each simulated client gets its own :class:`Session` and its own
thread — and reports throughput and latency percentiles alongside the
admission/broker telemetry the run produced.

The driver's central contract is **parity**: the exact statement list each
client runs concurrently is also run serially, back to back, on the same
database, and :func:`assert_parity` demands byte-identical rows statement
by statement.  Admission waits, broker reclaims, mid-query re-grants and
the memory re-allocations they trigger may all reorder *when* work happens,
but never what it computes.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from .tpcd import ALL_QUERIES, TpcdQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import Database
    from ..engine.server import QueryServer

__all__ = [
    "ClientScript",
    "WorkloadReport",
    "assert_parity",
    "build_tpcd_scripts",
    "percentile",
    "run_concurrent",
    "run_serial",
]


@dataclass(frozen=True)
class ClientScript:
    """One simulated client: a named session and its statement list."""

    name: str
    statements: tuple[str, ...]


@dataclass
class WorkloadReport:
    """What one concurrent run did and how fast."""

    sessions: int
    statements: int
    elapsed_s: float
    #: Per-statement end-to-end latencies (seconds), in completion order.
    latencies_s: list[float] = field(default_factory=list)
    #: Rows per statement, per client, in each client's submission order.
    rows: list[list[list[tuple]]] = field(default_factory=list)
    #: Statement profiles mirroring :attr:`rows` (telemetry assertions).
    profiles: list[list] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        """Completed statements per wall-clock second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.statements / self.elapsed_s

    def latency_percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100] (nearest-rank), seconds."""
        return percentile(self.latencies_s, q)

    def summary(self) -> dict:
        """Plain-dict summary for benchmark JSON documents."""
        hits = [p.plan_cache_hit for client in self.profiles for p in client]
        return {
            "sessions": self.sessions,
            "statements": self.statements,
            "elapsed_s": round(self.elapsed_s, 4),
            "throughput_qps": round(self.throughput_qps, 2),
            "latency_p50_ms": round(self.latency_percentile(50) * 1e3, 2),
            "latency_p90_ms": round(self.latency_percentile(90) * 1e3, 2),
            "latency_p99_ms": round(self.latency_percentile(99) * 1e3, 2),
            "plan_cache_hit_rate": round(sum(hits) / max(1, len(hits)), 4),
            "errors": len(self.errors),
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def build_tpcd_scripts(
    sessions: int,
    statements_per_session: int,
    queries: Sequence[TpcdQuery] = ALL_QUERIES,
    seed: int = 1998,
) -> list[ClientScript]:
    """Deterministic interleaved TPC-D scripts, one per simulated client.

    Each client draws its statement sequence from its own seeded RNG, so
    the mix differs across clients but is reproducible run to run (and
    identical between the serial baseline and the concurrent run).
    """
    scripts = []
    for i in range(sessions):
        rng = random.Random(f"{seed}:{i}")
        statements = tuple(
            rng.choice(queries).sql for _ in range(statements_per_session)
        )
        scripts.append(ClientScript(name=f"client-{i}", statements=statements))
    return scripts


def run_serial(database: "Database", scripts: Sequence[ClientScript]):
    """The baseline: every script's statements, back to back, one at a time.

    Bypasses the server entirely (direct inline execution) — this is the
    single-query-at-a-time engine the server is measured against.  Returns
    ``(rows, elapsed_s)`` with ``rows[client][statement]``.
    """
    rows: list[list[list[tuple]]] = []
    t0 = perf_counter()
    for script in scripts:
        client_rows = []
        for sql in script.statements:
            prepared = database._prepare(sql)
            result = database._run(prepared, sql, mode=_full_mode())
            client_rows.append(result.rows)
        rows.append(client_rows)
    return rows, perf_counter() - t0


def run_concurrent(
    server: "QueryServer", scripts: Sequence[ClientScript]
) -> WorkloadReport:
    """Run every script on its own session/thread through the server."""
    report = WorkloadReport(
        sessions=len(scripts),
        statements=sum(len(s.statements) for s in scripts),
        elapsed_s=0.0,
        rows=[[] for _ in scripts],
        profiles=[[] for _ in scripts],
    )
    lock = threading.Lock()

    def client(index: int, script: ClientScript) -> None:
        session = server.session(script.name)
        try:
            for sql in script.statements:
                t0 = perf_counter()
                result = session.execute(sql)
                latency = perf_counter() - t0
                with lock:
                    report.rows[index].append(result.rows)
                    report.profiles[index].append(result.profile)
                    report.latencies_s.append(latency)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            with lock:
                report.errors.append(f"{script.name}: {exc!r}")
        finally:
            session.close()

    threads = [
        threading.Thread(target=client, args=(i, script), daemon=True)
        for i, script in enumerate(scripts)
    ]
    t0 = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_s = perf_counter() - t0
    return report


def assert_parity(
    serial_rows: list[list[list[tuple]]], report: WorkloadReport
) -> None:
    """Require byte-identical rows, statement by statement, client by client."""
    if report.errors:
        raise AssertionError(f"concurrent run had errors: {report.errors}")
    for client_index, (expected_client, actual_client) in enumerate(
        zip(serial_rows, report.rows)
    ):
        if len(expected_client) != len(actual_client):
            raise AssertionError(
                f"client {client_index}: {len(actual_client)} statements "
                f"completed, expected {len(expected_client)}"
            )
        for stmt_index, (expected, actual) in enumerate(
            zip(expected_client, actual_client)
        ):
            if expected != actual:
                raise AssertionError(
                    f"client {client_index} statement {stmt_index}: "
                    f"rows diverged from serial baseline "
                    f"({len(actual)} vs {len(expected)} rows)"
                )


def _full_mode():
    from ..core.modes import DynamicMode

    return DynamicMode.FULL
