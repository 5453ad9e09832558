"""Concurrent-server throughput: interleaved TPC-D sessions vs serial.

A workload of simulated clients — each with its own
:class:`~repro.engine.session.Session` and statement script drawn from the
TPC-D query mix — is run two ways on the same database:

* **serial** — every statement back to back through the inline engine,
  one query at a time (the pre-server engine).
* **concurrent** — every client on its own thread through the
  :class:`~repro.engine.server.QueryServer`, under admission control and
  the global memory broker.

Statements run on their sessions' threads (shared memory, so mid-query
re-grants reach running queries; the GIL serialises pure-Python
execution, so throughput is not expected to scale with sessions).

The parity record is unconditional: the concurrent run must produce
byte-identical rows, statement by statement, client by client, vs the
serial baseline — a benchmark result with broken parity is a bug, not a
data point.  There is no throughput gate; the curve is recorded.

Results go to ``BENCH_server.json`` at the repository root and
``results/server.txt``.  Runs under pytest
(``pytest benchmarks/bench_server.py``) or as a script with knobs::

    python benchmarks/bench_server.py [--smoke] [--scale 0.02]
                                      [--sessions 1,2,4]
                                      [--statements 6]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro import Database, MetricsRegistry
from repro.bench import ExperimentConfig, stamp_document
from repro.workloads import (
    assert_parity,
    build_tpcd_scripts,
    run_concurrent,
    run_serial,
)
from repro.workloads.tpcd import generate_tpcd

SCALE_FACTOR = 0.02
SMOKE_SCALE_FACTOR = 0.005
SESSION_COUNTS = (1, 2, 4)
STATEMENTS_PER_SESSION = 6
SMOKE_STATEMENTS = 2
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_server.json"

#: Metrics worth surfacing in the benchmark document (prefix match).
TELEMETRY_PREFIXES = ("server.", "broker.")


def _build_server_database(scale_factor: float, max_sessions: int) -> Database:
    """A TPC-D database whose server admits ``max_sessions`` statements."""
    experiment = ExperimentConfig(scale_factor=scale_factor)
    engine = experiment.engine_config().with_updates(max_sessions=max_sessions)
    # Own registry: telemetry in the document must not mix in other runs
    # through the process-wide default.
    db = Database(engine, metrics=MetricsRegistry())
    generate_tpcd(db, experiment.tpcd_config())
    return db


def _telemetry(db: Database) -> dict:
    """Admission/broker counters accumulated over this database's runs."""
    snapshot = db.metrics_snapshot()
    return {
        name: payload
        for name, payload in sorted(snapshot.items())
        if name.startswith(TELEMETRY_PREFIXES)
    }


def run_benchmark(
    scale_factor: float = SCALE_FACTOR,
    session_counts: tuple[int, ...] = SESSION_COUNTS,
    statements_per_session: int = STATEMENTS_PER_SESSION,
) -> dict:
    """Measure serial vs concurrent TPC-D throughput per session count."""
    db = _build_server_database(scale_factor, max_sessions=max(session_counts))
    points = []
    for sessions in session_counts:
        scripts = build_tpcd_scripts(
            sessions=sessions, statements_per_session=statements_per_session
        )
        # Warm the plan cache so both measurements compare steady-state
        # execution, not first-compile overhead.
        run_serial(db, scripts)
        serial_rows, serial_elapsed = run_serial(db, scripts)
        report = run_concurrent(db.server, scripts)
        assert_parity(serial_rows, report)
        serial_qps = report.statements / serial_elapsed if serial_elapsed > 0 else 0.0
        point = report.summary()
        point.update(
            {
                "serial_s": round(serial_elapsed, 4),
                "serial_qps": round(serial_qps, 2),
                "speedup": round(
                    report.throughput_qps / serial_qps if serial_qps > 0 else 0.0, 2
                ),
                "parity": True,
            }
        )
        points.append(point)
    document = {
        "scale_factor": scale_factor,
        "session_counts": list(session_counts),
        "statements_per_session": statements_per_session,
        "metric": "completed statements per wall-clock second",
        "points": points,
        "telemetry": _telemetry(db),
        "parity_ok": all(point["parity"] for point in points),
    }
    return stamp_document(document)


def _render(document: dict) -> str:
    lines = [
        "Concurrent server throughput vs serial baseline "
        f"(TPC-D sf={document['scale_factor']}, "
        f"{document['statements_per_session']} stmts/session, "
        f"{document['cpu_count']} CPU(s))",
        f"{'sessions':>9}{'serial qps':>12}{'server qps':>12}"
        f"{'spdup':>7}{'p50 ms':>9}{'p99 ms':>9}{'cache hit':>10}{'parity':>8}",
    ]
    for point in document["points"]:
        lines.append(
            f"{point['sessions']:>9}"
            f"{point['serial_qps']:>12.2f}{point['throughput_qps']:>12.2f}"
            f"{point['speedup']:>6.2f}x{point['latency_p50_ms']:>9.1f}"
            f"{point['latency_p99_ms']:>9.1f}"
            f"{point['plan_cache_hit_rate']:>10.0%}"
            f"{'ok' if point['parity'] else 'FAIL':>8}"
        )
    return "\n".join(lines)


def _assert_document(document: dict) -> None:
    assert document["parity_ok"], "concurrent rows diverged from serial baseline"
    telemetry = document["telemetry"]
    assert telemetry.get("server.admitted", {}).get("value", 0) >= 1
    assert telemetry.get("broker.leases", {}).get("value", 0) >= 1
    for point in document["points"]:
        assert point["errors"] == 0


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            f"tiny run (sf={SMOKE_SCALE_FACTOR}, sessions 1,2, "
            f"{SMOKE_STATEMENTS} stmts/session)"
        ),
    )
    parser.add_argument("--scale", type=float, default=None, help="TPC-D scale factor")
    parser.add_argument(
        "--sessions",
        type=lambda s: tuple(int(v) for v in s.split(",")),
        default=None,
        help="comma-separated concurrent session counts (default 1,2,4)",
    )
    parser.add_argument(
        "--statements", type=int, default=None, help="statements per session"
    )
    return parser.parse_args(argv)


def test_server_throughput(results_dir):
    from conftest import write_result

    document = run_benchmark()
    JSON_PATH.write_text(json.dumps(document, indent=2) + "\n")
    write_result(results_dir, "server", _render(document))
    _assert_document(document)


if __name__ == "__main__":
    args = _parse_args()
    scale = args.scale if args.scale is not None else (
        SMOKE_SCALE_FACTOR if args.smoke else SCALE_FACTOR
    )
    sessions = args.sessions if args.sessions is not None else (
        (1, 2) if args.smoke else SESSION_COUNTS
    )
    statements = args.statements if args.statements is not None else (
        SMOKE_STATEMENTS if args.smoke else STATEMENTS_PER_SESSION
    )
    doc = run_benchmark(scale, sessions, statements)
    if not args.smoke:
        JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(_render(doc))
    try:
        _assert_document(doc)
    except AssertionError as exc:
        raise SystemExit(str(exc))
    if not args.smoke:
        print(f"\nwrote {JSON_PATH}")
