"""Concurrent-server throughput: interleaved TPC-D sessions vs serial.

PR 8's tentpole benchmark.  A workload of simulated clients — each with its
own :class:`~repro.engine.session.Session` and statement script drawn from
the TPC-D query mix — is run two ways on the same database:

* **serial** — every statement back to back through the inline engine,
  one query at a time (the pre-server engine).
* **concurrent** — every client on its own thread through the
  :class:`~repro.engine.server.QueryServer`, under admission control and
  the global memory broker.

Both worker modes are measured: ``thread`` (shared-memory, mid-query
re-grants reach running queries, but the GIL serialises pure-Python
execution) and ``fork`` (one forked process per statement — real
multi-core scaling where ``os.fork`` exists).

The parity record is unconditional: the concurrent run must produce
byte-identical rows, statement by statement, client by client, vs the
serial baseline — a benchmark result with broken parity is a bug, not a
data point.  The throughput gate (>= ``REQUIRED_SPEEDUP``x at
``GATE_SESSIONS`` sessions, best worker mode) is hardware-dependent and is
enforced only when the host grants this process at least ``REQUIRED_CPUS``
cores; smaller hosts still run the curve and the parity checks, and the
JSON document records the gate as skipped with the reason.

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
import os
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

REQUIRED_SPEEDUP = 2.0
GATE_SESSIONS = 4
REQUIRED_CPUS = 4

#: Metrics worth surfacing in the benchmark document (prefix match).
TELEMETRY_PREFIXES = ("server.", "broker.")


def available_cpus() -> int:
    """CPUs actually granted to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def worker_modes() -> tuple[str, ...]:
    """Thread mode always; fork mode where the platform can fork."""
    return ("thread", "fork") if hasattr(os, "fork") else ("thread",)


def _build_server_database(
    scale_factor: float, worker_mode: str, max_sessions: int
) -> Database:
    """A TPC-D database whose server runs in the given worker mode."""
    experiment = ExperimentConfig(scale_factor=scale_factor)
    engine = experiment.engine_config().with_updates(
        server_worker_mode=worker_mode,
        max_sessions=max_sessions,
    )
    # Own registry per mode: telemetry in the document must not mix the
    # thread-mode and fork-mode runs through the process-wide default.
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


def _run_mode(
    db: Database,
    worker_mode: str,
    session_counts: tuple[int, ...],
    statements_per_session: int,
) -> dict:
    """The scaling curve for one worker mode on one database."""
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
        statements = report.statements
        serial_qps = statements / serial_elapsed if serial_elapsed > 0 else 0.0
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
    return {
        "worker_mode": worker_mode,
        "points": points,
        "telemetry": _telemetry(db),
    }


def run_benchmark(
    scale_factor: float = SCALE_FACTOR,
    session_counts: tuple[int, ...] = SESSION_COUNTS,
    statements_per_session: int = STATEMENTS_PER_SESSION,
) -> dict:
    """Measure serial vs concurrent TPC-D throughput per worker mode."""
    modes = []
    for worker_mode in worker_modes():
        db = _build_server_database(
            scale_factor, worker_mode, max_sessions=max(session_counts)
        )
        modes.append(
            _run_mode(db, worker_mode, session_counts, statements_per_session)
        )

    gate_sessions = max(session_counts)
    cpus = available_cpus()
    gate_enforced = cpus >= REQUIRED_CPUS and gate_sessions >= GATE_SESSIONS

    def speedup_at_gate(mode: dict) -> float:
        for point in mode["points"]:
            if point["sessions"] == gate_sessions:
                return point["speedup"]
        return 0.0

    best = max(modes, key=speedup_at_gate)
    document = {
        "scale_factor": scale_factor,
        "session_counts": list(session_counts),
        "statements_per_session": statements_per_session,
        "cpus_available": cpus,
        "metric": "completed statements per wall-clock second",
        "modes": modes,
        "best_mode": best["worker_mode"],
        "best_speedup": speedup_at_gate(best),
        "throughput_gate": {
            "at_sessions": gate_sessions,
            "required_speedup": REQUIRED_SPEEDUP,
            "enforced": gate_enforced,
            "reason": (
                "enforced"
                if gate_enforced
                else f"skipped: {cpus} CPU(s) granted, need {REQUIRED_CPUS}"
            ),
        },
        "parity_ok": all(
            point["parity"] for mode in modes for point in mode["points"]
        ),
    }
    return stamp_document(document, {"throughput_gate": REQUIRED_CPUS})


def _render(document: dict) -> str:
    lines = [
        "Concurrent server throughput vs serial baseline "
        f"(TPC-D sf={document['scale_factor']}, "
        f"{document['statements_per_session']} stmts/session, "
        f"{document['cpus_available']} CPU(s))",
        f"{'mode':<8}{'sessions':>9}{'serial qps':>12}{'server qps':>12}"
        f"{'spdup':>7}{'p50 ms':>9}{'p99 ms':>9}{'cache hit':>10}{'parity':>8}",
    ]
    for mode in document["modes"]:
        for point in mode["points"]:
            lines.append(
                f"{mode['worker_mode']:<8}{point['sessions']:>9}"
                f"{point['serial_qps']:>12.2f}{point['throughput_qps']:>12.2f}"
                f"{point['speedup']:>6.2f}x{point['latency_p50_ms']:>9.1f}"
                f"{point['latency_p99_ms']:>9.1f}"
                f"{point['plan_cache_hit_rate']:>10.0%}"
                f"{'ok' if point['parity'] else 'FAIL':>8}"
            )
    gate = document["throughput_gate"]
    lines.append(
        f"gate: best mode {document['best_mode']} at {gate['at_sessions']} "
        f"sessions = {document['best_speedup']:.2f}x "
        f"(need {gate['required_speedup']}x, {gate['reason']})"
    )
    return "\n".join(lines)


def _assert_document(document: dict) -> None:
    assert document["parity_ok"], "concurrent rows diverged from serial baseline"
    for mode in document["modes"]:
        telemetry = mode["telemetry"]
        assert telemetry.get("server.admitted", {}).get("value", 0) >= 1
        assert telemetry.get("broker.leases", {}).get("value", 0) >= 1
        for point in mode["points"]:
            assert point["errors"] == 0
    if document["throughput_gate"]["enforced"]:
        assert document["best_speedup"] >= REQUIRED_SPEEDUP, (
            f"best mode {document['best_mode']} reached only "
            f"{document['best_speedup']}x at "
            f"{document['throughput_gate']['at_sessions']} sessions"
        )


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
