"""Plumbing checks for the suite itself — not collected by tier-1.

Run with ``python -m pytest benchmarks/suite`` from the repository root.
Every run here is a ``--smoke`` run: it proves the names, spans and exit
codes are wired up, never that a number is good.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from . import env, shims, spans


def _suite(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", *args],
        cwd=env.REPO_ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def manifest() -> dict:
    return env.load_manifest()


@pytest.fixture(scope="module")
def traced_reopt() -> list[spans.Span]:
    """Spans of one traced smoke run of ``reopt_fig10`` — the workload whose
    statements re-enter the parser and optimizer mid-execution."""
    done = _suite("--workload", "reopt_fig10", "--smoke", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    recorded = []
    for line in (env.OUT_DIR / "reopt_fig10.spans.jsonl").read_text().splitlines():
        record = json.loads(line)
        record["start"] = record.pop("start_us") / 1e6
        record["end"] = record.pop("end_us") / 1e6
        recorded.append(spans.Span(**record))
    return recorded


def test_manifest_meets_the_contract(manifest):
    assert manifest["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in manifest["workloads"]] == [
        "adhoc_cold", "simple_medium_warm", "reopt_fig10", "server_mixed",
    ]
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert len(manifest["per_layer"]) == 46


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_reported_with_its_unit(manifest, trace, section):
    done = _suite("--workload", "simple_medium_warm", "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in manifest[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for name in declared:  # ... and by name in the human-readable table
        assert f"\n{name} " in done.stdout


def test_spans_nest_and_self_times_fit_their_statement(traced_reopt):
    assert spans.nesting_errors(traced_reopt) == []
    by_id = {span.span_id: span for span in traced_reopt}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    # The remainder round trip: parse under re-optimization under dispatch.
    assert any(
        span.name == "sql.parser.parse"
        and {"core.DynamicReoptimizer.on_collector_complete", "executor.Dispatcher.run"}
        <= set(ancestors(span))
        for span in traced_reopt
    )


def test_chrome_export_passes_the_engines_validator(traced_reopt):
    env.prepare()
    from repro.observe.validate import validate_trace

    document = json.loads((env.OUT_DIR / "reopt_fig10.trace.json").read_text())
    assert len(document["traceEvents"]) == len(traced_reopt)
    assert validate_trace(document) == []
    assert validate_trace(spans.to_chrome(traced_reopt)) == []


def test_a_renamed_shim_target_is_an_error_not_an_empty_column():
    env.prepare()
    renamed = (("sql.parser.parse", "repro.sql.parser", "parse_statement"),)
    with pytest.raises(shims.MissingTarget, match="parse_statement"):
        with shims.tracing(spans.SpanRecorder(), shims.CallTimer(), targets=renamed):
            pass


def test_an_expected_span_that_never_appears_fails_the_run(monkeypatch):
    env.prepare()
    from . import runner

    kept = tuple(t for t in shims.SPAN_TARGETS if t[0] != "executor.Dispatcher.run")
    monkeypatch.setattr(shims, "SPAN_TARGETS", kept)
    run = runner.run_workload("simple_medium_warm", seed=7, seconds=1, traced=True, smoke=True)
    assert run.missing == ["executor.Dispatcher.run"]
    assert not run.correct and not run.failures


def test_a_bare_directory_exits_non_zero_without_a_result(tmp_path):
    """What the driver does: only BENCHMARK.json and ``paths``, no engine."""
    shutil.copy(env.MANIFEST_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        env.SUITE_DIR, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--workload", "adhoc_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
